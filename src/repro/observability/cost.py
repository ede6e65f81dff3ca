"""Per-query cost accounting.

CEPR's run-based evaluation model makes cost *observable*: every event a
query sees either creates runs, extends them, kills them, or is elided by
the shared-execution index — and each of those has a price.  A
:class:`CostAccount` condenses one registered query's matcher statistics,
shared-index hit/miss split, and measured CPU time into a single
comparable record, so ``cepr top`` can rank queries by what they actually
cost and the future load-shedding controller can pick victims.

Accounts are **views, not state**: :meth:`CostAccount.from_report` reads
the counters a :class:`~repro.runtime.report.QueryReport` carries (the
live ones, for a local query), so there is nothing to
retire on ``unregister_query`` beyond the handles the engine already
drops — a ghost query cannot linger in an account listing because the
listing is rebuilt from ``engine.queries()`` on every call.

Merging is exact for every counter (:meth:`CostAccount.merge` sums), and
for CPU time it sums measured seconds per shard — the property suite pins
counter-exactness across shard splits at K ∈ {1, 2, 4, 8}.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.runtime.report import QueryReport


@dataclass
class CostAccount:
    """Condensed cost record for one registered query.

    ``cpu_seconds`` is the per-stage profile total when profiling is on
    (the default), else the whole-pipeline latency total — both measure
    time spent inside this query's operator chain.
    """

    query: str
    events_routed: int = 0
    runs_created: int = 0
    runs_extended: int = 0
    runs_killed: int = 0
    runs_pruned: int = 0
    shared_hits: int = 0
    shared_misses: int = 0
    matches: int = 0
    emissions: int = 0
    evaluation_errors: int = 0
    cpu_seconds: float = 0.0
    #: shards folded into this account (1 for a single engine).
    parts: int = field(default=1)

    # -- derived ratios ----------------------------------------------------------

    @property
    def predicate_evals(self) -> int:
        """Shared-index consultations (hits + misses)."""
        return self.shared_hits + self.shared_misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of predicate consultations answered from the memo."""
        evals = self.predicate_evals
        return self.shared_hits / evals if evals else 0.0

    @property
    def prune_ratio(self) -> float:
        """Fraction of created runs the score bound pruned before completion."""
        return self.runs_pruned / self.runs_created if self.runs_created else 0.0

    @property
    def cpu_per_event_us(self) -> float:
        """Mean CPU microseconds per routed event."""
        if not self.events_routed:
            return 0.0
        return self.cpu_seconds / self.events_routed * 1e6

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_report(cls, report: "QueryReport") -> "CostAccount":
        """Build an account from one query's (per-shard) report."""
        stats = report.stats
        metrics = report.metrics
        if report.profile is not None:
            cpu = report.profile.total_seconds
        else:
            cpu = metrics.latency.total
        return cls(
            query=report.name,
            events_routed=metrics.events_routed,
            runs_created=stats.runs_created,
            runs_extended=stats.runs_extended,
            runs_killed=(
                stats.runs_killed_strict
                + stats.runs_killed_negation
                + stats.runs_tripped
                + stats.runs_expired
            ),
            runs_pruned=stats.runs_pruned,
            shared_hits=stats.shared_hits,
            shared_misses=stats.shared_misses,
            matches=metrics.matches,
            emissions=metrics.emissions,
            evaluation_errors=stats.evaluation_errors,
            cpu_seconds=cpu,
        )

    @classmethod
    def merge(cls, parts: Iterable["CostAccount"]) -> "CostAccount":
        """Fold shard-level accounts for one query into a fleet view.

        Every counter sums exactly; ``cpu_seconds`` sums measured time
        across shards.  All parts must describe the same query.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("merge() needs at least one account")
        names = {part.query for part in parts}
        if len(names) != 1:
            raise ValueError(f"merge() across different queries: {sorted(names)}")
        total = cls(query=parts[0].query, parts=0)
        for part in parts:
            for spec in fields(cls):
                if spec.name == "query":
                    continue
                setattr(
                    total,
                    spec.name,
                    getattr(total, spec.name) + getattr(part, spec.name),
                )
        return total

    # -- rendering ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe record (counters plus the derived ratios)."""
        doc: dict[str, Any] = {
            spec.name: getattr(self, spec.name) for spec in fields(self)
        }
        doc["predicate_evals"] = self.predicate_evals
        doc["hit_ratio"] = round(self.hit_ratio, 6)
        doc["prune_ratio"] = round(self.prune_ratio, 6)
        doc["cpu_per_event_us"] = round(self.cpu_per_event_us, 3)
        return doc

    def describe(self) -> str:
        """One-line rendering for ``explain()`` and the monitor."""
        return (
            f"cpu={self.cpu_seconds * 1e3:.2f}ms "
            f"({self.cpu_per_event_us:.1f}us/ev) "
            f"runs +{self.runs_created}/~{self.runs_extended}"
            f"/-{self.runs_killed} pruned={self.runs_pruned}"
            f"({self.prune_ratio * 100:.0f}%) "
            f"shared {self.shared_hits}h/{self.shared_misses}m"
            f"({self.hit_ratio * 100:.0f}%)"
        )


def rank_accounts(accounts: Iterable[CostAccount]) -> list[CostAccount]:
    """Accounts ordered most-expensive-first (CPU, then routed events).

    Ties break on the query name so the ranking is deterministic — the
    ``cepr top`` view must not flicker between refreshes on equal costs.
    """
    return sorted(
        accounts,
        key=lambda acc: (-acc.cpu_seconds, -acc.events_routed, acc.query),
    )
