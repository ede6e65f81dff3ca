"""Back-testing: run candidate queries over recorded history.

The demo-system workflow this enables: record a live stream once (tee the
engine's input into an :class:`~repro.store.log.EventLog` with
:class:`RecordingTap`), then iterate on query formulations by replaying
any time slice — same engine semantics, no live feed required.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.event import Event
from repro.ranking.emission import Emission
from repro.runtime.engine import CEPREngine
from repro.runtime.runner import RunnerConfig, create_runner, resolve
from repro.store.log import EventLog


class RecordingTap:
    """Wraps an engine so every pushed event is also persisted.

    >>> tap = RecordingTap(engine, EventLog(path))
    >>> tap.push(event)          # processes AND records
    """

    def __init__(self, engine: CEPREngine, log: EventLog) -> None:
        self.engine = engine
        self.log = log

    def push(self, event: Event) -> list[Emission]:
        self.log.append(event)
        return self.engine.push(event)

    def run(self, events) -> list[Emission]:
        emissions = []
        for event in events:
            emissions.extend(self.push(event))
        self.log.flush()
        emissions.extend(self.engine.flush())
        return emissions


@dataclass
class BacktestResult:
    """Outcome of one backtest run."""

    query_name: str
    events_replayed: int
    emissions: list[Emission]
    matches: int

    @property
    def final_ranking(self):
        return self.emissions[-1].ranking if self.emissions else []


class Backtester:
    """Replays slices of an :class:`EventLog` against fresh engines."""

    def __init__(self, log: EventLog, runner: RunnerConfig | None = None) -> None:
        self.log = log
        #: the runner every replay builds, resolved (so checked) up front;
        #: a fleet's merge stage keeps results identical to one engine's.
        self.config = resolve(runner or RunnerConfig())

    def run(
        self,
        query: str,
        start_ts: float | None = None,
        end_ts: float | None = None,
        name: str = "backtest",
    ) -> BacktestResult:
        """Evaluate ``query`` over ``[start_ts, end_ts)`` of the log."""
        runner = create_runner({name: query}, self.config)
        with runner:
            replayed = runner.submit_all(self.log.scan(start_ts, end_ts))
            runner.flush()
        return BacktestResult(
            query_name=name,
            events_replayed=replayed,
            emissions=runner.query(name).results(),
            matches=runner.stats_by_query()[name]["matches"],
        )

    def compare(
        self,
        queries: dict[str, str],
        start_ts: float | None = None,
        end_ts: float | None = None,
    ) -> dict[str, BacktestResult]:
        """Backtest several candidate queries over the same slice."""
        return {
            name: self.run(text, start_ts, end_ts, name=name)
            for name, text in queries.items()
        }
