"""Live text monitor — the demo paper's "user-friendly interface".

The ICDE demo showed a GUI that tails each query's ranked results and lets
the user watch the system in real time; this module provides the
terminal-friendly equivalent: :class:`Monitor` renders a snapshot of every
registered query (its text, metrics, stage-time breakdown, and current top
results) and :meth:`Monitor.run_live` refreshes it on an interval while a
stream is being replayed.

The source is a :class:`~repro.runtime.engine.CEPREngine` or any runner:
every counter shown comes from the source's ``metrics_registry()`` through
the registry views (:mod:`repro.observability.instruments`), so a fleet
renders exactly like one engine; query handles are only asked for their
text and last emission, and a sharded runner's ``shard_stats()`` adds a
per-shard block.
"""

from __future__ import annotations

import sys
import time as _time
from typing import Any, Callable, TextIO

from repro.language.printer import format_query
from repro.observability.instruments import (
    cost_accounts,
    profiles_by_query,
    stats_by_query,
)
from repro.ranking.emission import Emission

_RULE = "=" * 72


class Monitor:
    """Renders engine (or sharded-runner) state as plain text."""

    def __init__(self, engine: Any, top_n: int = 5) -> None:
        self.engine = engine
        self.top_n = top_n
        self._last: dict[str, Emission] = {}
        self._subscriptions: list[Any] = []

    # -- subscriptions --------------------------------------------------------

    def track(self) -> "Monitor":
        """Subscribe to every query so "last emission" works live.

        Uses the first-class subscription API instead of peeking at each
        query's collector, which also covers queries registered with
        ``collect_results=False``.  Call before the stream starts;
        :meth:`untrack` cancels the subscriptions.
        """
        for registered in self.engine.queries():
            subscription = registered.subscribe(
                lambda emission, name=registered.name: self._last.__setitem__(
                    name, emission
                )
            )
            self._subscriptions.append(subscription)
        return self

    def untrack(self) -> None:
        """Cancel the subscriptions installed by :meth:`track`."""
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """A full snapshot of the source: header + one block per query."""
        lines = [self._header()]
        shard_block = self._render_shards()
        if shard_block:
            lines.append(shard_block)
        registry = self.engine.metrics_registry()
        rows = stats_by_query(registry)
        accounts = cost_accounts(registry)
        profiles = profiles_by_query(registry)
        for registered in self.engine.queries():
            name = registered.name
            pending = int(registry.get("pending_matches", query=name).value)
            lines.append(
                self._render_query(
                    registered, rows[name], pending, accounts[name], profiles[name]
                )
            )
        return "\n".join(lines)

    def _header(self) -> str:
        metrics = self.engine.metrics
        recent = metrics.recent_throughput
        backlog = getattr(self.engine, "backlog", None)
        tail = f", {recent:,.0f} ev/s recent" if recent else ""
        if backlog:
            tail += f", backlog={backlog}"
        # The threaded runner exposes a pressure assessor; a bare engine
        # and a fleet have no ingest queue, hence no pressure to show.
        pressure = getattr(self.engine, "pressure", None)
        if pressure is not None:
            tail += f", {pressure().describe()}"
        # Same story for the load-shedding controller (policy "off" is
        # omitted — nothing can shed, so there is nothing to report).
        controller = getattr(self.engine, "shed_controller", None)
        if controller is not None and controller.policy != "off":
            tail += f", {controller.describe()}"
        return (
            f"{_RULE}\n"
            f"CEPR monitor — {len(self.engine.queries())} queries, "
            f"{metrics.events_pushed} events, "
            f"{metrics.throughput:,.0f} ev/s{tail}\n"
            f"{_RULE}"
        )

    def _render_shards(self) -> str | None:
        """Per-shard block when the source is a sharded runner."""
        shard_stats = getattr(self.engine, "shard_stats", None)
        if shard_stats is None:
            return None
        rows = shard_stats()
        if not rows:
            return None
        lines = [f"-- shards ({len(rows)} workers) " + "-" * 38]
        for row in rows:
            lines.append(
                f"   shard {row['shard']} [{row['role']}]: "
                f"events={row['events_processed']} "
                f"backlog={row['backlog']} live_runs={row['live_runs']}"
            )
        return "\n".join(lines)

    def _render_query(
        self, registered: Any, row: dict, pending: int, account: Any, profile: Any
    ) -> str:
        lines = [f"-- query {registered.name} " + "-" * max(0, 50 - len(registered.name))]
        for text_line in format_query(registered.analyzed.ast).splitlines():
            lines.append(f"   | {text_line}")
        extras = []
        if pending:
            extras.append(f"pending={pending}")
        if registered.has_yield:
            extras.append(f"derived_type={registered.analyzed.yield_spec.event_type}")
        if account.evaluation_errors:
            extras.append(f"eval_errors={account.evaluation_errors}")
        if row["partition_skips"]:
            extras.append(f"partition_skips={row['partition_skips']}")
        if "shards" in row:
            extras.append(f"shards={row['shards']}")
        if row.get("solo_fallback"):
            extras.append("SOLO-FALLBACK")
        suffix = (" " + " ".join(extras)) if extras else ""
        lines.append(
            f"   events={row['events_routed']} matches={row['matches']} "
            f"emissions={row['emissions']} live_runs={row['live_runs']} "
            f"pruned={row['runs_pruned']} p99={row['latency_p99_us']:.0f}us"
            f"{suffix}"
        )
        if profile.total_seconds > 0:
            lines.append(f"   stages: {profile.describe()}")
        if row["events_routed"]:
            lines.append(f"   cost: {account.describe()}")
        lines.extend(self._render_ranking(registered))
        return "\n".join(lines)

    def _render_ranking(self, registered: Any) -> list[str]:
        last: Emission | None = self._last.get(registered.name)
        if last is None:
            collector = getattr(registered, "collector", None)
            if collector is None or not collector.emissions:
                return ["   (no emissions yet)"]
            last = collector.emissions[-1]
        lines = [
            f"   last emission: {last.kind.value} rev={last.revision} "
            f"t={last.at_ts:g}"
        ]
        for position, match in enumerate(last.ranking[: self.top_n], start=1):
            lines.append(f"     #{position} {match.describe()}")
        if len(last.ranking) > self.top_n:
            lines.append(f"     ... {len(last.ranking) - self.top_n} more")
        return lines

    # -- live loop ----------------------------------------------------------------

    def run_live(
        self,
        refresh_seconds: float = 1.0,
        iterations: int | None = None,
        out: TextIO = sys.stdout,
        sleep: Callable[[float], None] = _time.sleep,
        clear: bool = True,
    ) -> None:
        """Repeatedly render to ``out``.

        With ``clear=True`` each frame redraws in place: the cursor homes,
        every line is erased to end-of-line as it is rewritten, and
        whatever a shorter frame leaves below is erased — no full-screen
        clear, so the terminal never flickers.  ``clear=False`` appends
        frames (pipes, logs, tests).

        Designed to run in a thread next to a replaying stream; pass
        ``iterations`` to bound the loop (required in tests) and a fake
        ``sleep`` to run instantly.
        """
        rendered = 0
        while iterations is None or rendered < iterations:
            text = self.render()
            if clear:
                frame = "".join(
                    line + "\x1b[K\n" for line in text.split("\n")
                )
                out.write("\x1b[H" + frame + "\x1b[J")
            else:
                out.write(text + "\n")
            out.flush()
            rendered += 1
            if iterations is not None and rendered >= iterations:
                return
            sleep(refresh_seconds)
