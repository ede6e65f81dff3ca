"""Ranking support — the CEPR contribution.

Scoring (:mod:`~repro.ranking.score`), normalised lexicographic keys
(:mod:`~repro.ranking.keys`), top-k containers (:mod:`~repro.ranking.topk`),
the rank/emission operator (:mod:`~repro.ranking.ranker`), and score-bound
pruning of partial runs (:mod:`~repro.ranking.pruning`).
"""

from repro.ranking.emission import Emission, EmissionKind, snapshot_delta
from repro.ranking.keys import ReversedStr, normalise_bound, normalise_component
from repro.ranking.pruning import PruningStats, ScoreBoundPruner
from repro.ranking.ranker import Ranker
from repro.ranking.score import Scorer
from repro.ranking.skyline import dominates, pareto_front
from repro.ranking.topk import EpochTopK, SlidingRanking

__all__ = [
    "Emission",
    "EmissionKind",
    "EpochTopK",
    "PruningStats",
    "Ranker",
    "ReversedStr",
    "Scorer",
    "ScoreBoundPruner",
    "SlidingRanking",
    "dominates",
    "normalise_bound",
    "normalise_component",
    "pareto_front",
    "snapshot_delta",
]
