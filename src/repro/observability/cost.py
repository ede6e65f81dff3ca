"""Per-query cost accounting.

CEPR's run-based evaluation model makes cost *observable*: every event a
query sees either creates runs, extends them, kills them, or is elided by
the shared-execution index — and each of those has a price.  A
:class:`CostAccount` condenses one registered query's matcher statistics,
shared-index hit/miss split, and measured CPU time into a single
comparable record, so ``cepr top`` can rank queries by what they actually
cost and the future load-shedding controller can pick victims.

Accounts are **views, not state**:
:func:`~repro.observability.instruments.cost_accounts` builds them from a
metrics registry on every call, so there is nothing to retire on
``unregister_query`` beyond the series the engine already prunes — a ghost
query cannot linger in an account listing.

A fleet's accounts are the same function of the fleet's (absorbed)
registry: every counter sums exactly and CPU time sums measured seconds
per shard — the property suite pins counter-exactness across shard splits
at K ∈ {1, 2, 4, 8}.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Iterable


@dataclass
class CostAccount:
    """Condensed cost record for one registered query.

    ``cpu_seconds`` is the per-stage profile total: time spent inside this
    query's operator chain.
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
        """Shared stage-0 gate consultations (hits + misses)."""
        return self.shared_hits + self.shared_misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of gate consultations answered from the memo."""
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
