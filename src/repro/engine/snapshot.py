"""JSON codec for engine state: events, runs, matches, matcher state.

Checkpointing (:mod:`repro.store.checkpoint`) persists live engine state
as JSON.  This module is the engine-side half of that contract: every
``encode_*`` function turns an engine object into plain
dict/list/scalar structures, and the matching ``decode_*`` function
rebuilds an equivalent object.

Two deliberate asymmetries keep the format small and stable:

* **Matches are encoded without scores.**  ``score``/``rank_values`` are
  deterministic functions of the bindings (the scorer re-derives them on
  restore), and their normalised comparator form contains non-JSON
  helper types (e.g. reversed-string keys).
* **Runs are encoded without their automaton.**  The automaton is
  compiled from the query text, which the restoring process already has;
  :func:`decode_run` re-attaches the live compiled automaton.

Non-finite floats are *not* handled here — checkpoint files and pipe
frames encode the state with :func:`repro.events.jsonsafe.encode_state`.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Any, Iterator, Mapping

from repro.engine.aggregates import AggregateState, AttrAggregates
from repro.engine.match import Match
from repro.engine.matcher import MatcherStats, PatternMatcher, _Partition, _Pending
from repro.engine.nfa import PatternAutomaton
from repro.engine.runs import Binding, Run
from repro.events.event import Event
from repro.language.errors import EvaluationError
from repro.ranking.emission import Emission, EmissionKind
from repro.ranking.score import Scorer


class SnapshotFormatError(ValueError):
    """Raised when snapshot state does not decode to valid engine objects."""


@contextmanager
def restoring(section: str, *, outer: bool = False) -> Iterator[None]:
    """Raise a malformed ``section``'s decoding error — a missing key, a
    wrong type, a held match that no longer scores — as a
    :class:`SnapshotFormatError` naming the section.  One already raised
    as a ``SnapshotFormatError`` passes through, unless ``outer`` (a
    query: its name leads every message about its state)."""
    try:
        yield
    except SnapshotFormatError as exc:
        if not outer:
            raise
        raise SnapshotFormatError(f"{section}: {exc}") from exc
    except KeyError as exc:
        raise SnapshotFormatError(f"{section}: missing key {exc}") from exc
    except (TypeError, ValueError, EvaluationError) as exc:
        raise SnapshotFormatError(f"{section}: {exc}") from exc


# -- events -----------------------------------------------------------------------


def encode_event(event: Event) -> dict[str, Any]:
    return {
        "type": event.event_type,
        "ts": event.timestamp,
        "seq": event.seq,
        "payload": dict(event.payload),
    }


def decode_event(state: Mapping[str, Any]) -> Event:
    try:
        event = Event(state["type"], state["ts"], **state["payload"])
        event.seq = int(state["seq"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"bad event record: {exc}") from exc
    return event


# -- bindings ---------------------------------------------------------------------


def encode_binding(binding: Binding) -> dict[str, Any]:
    if isinstance(binding, Event):
        return {"one": encode_event(binding)}
    return {"many": [encode_event(event) for event in binding]}


def decode_binding(state: Mapping[str, Any]) -> Binding:
    if "one" in state:
        return decode_event(state["one"])
    if "many" in state:
        return tuple(decode_event(item) for item in state["many"])
    raise SnapshotFormatError(f"bad binding record: keys {sorted(state)}")


def encode_bindings(bindings: Mapping[str, Binding]) -> dict[str, Any]:
    return {var: encode_binding(binding) for var, binding in bindings.items()}


def decode_bindings(state: Mapping[str, Any]) -> dict[str, Binding]:
    return {var: decode_binding(item) for var, item in state.items()}


# -- aggregate states -------------------------------------------------------------


def encode_agg_state(state: AggregateState) -> dict[str, Any]:
    return {
        "count": state.count,
        "tracked": sorted(state.tracked),
        "attrs": {
            attr: {
                "total": agg.total,
                "min": agg.minimum,
                "max": agg.maximum,
                "first": agg.first,
                "last": agg.last,
                # written only when set: a snapshot without it reads as exact
                **({} if agg.exact else {"inexact": True}),
            }
            for attr, agg in state.attrs.items()
        },
    }


def decode_agg_state(state: Mapping[str, Any]) -> AggregateState:
    try:
        attrs = {
            attr: AttrAggregates(
                total=item["total"],
                minimum=item["min"],
                maximum=item["max"],
                first=item["first"],
                last=item["last"],
                exact=not item.get("inexact", False),
            )
            for attr, item in state["attrs"].items()
        }
        return AggregateState(
            count=int(state["count"]),
            attrs=attrs,
            tracked=frozenset(state["tracked"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"bad aggregate state: {exc}") from exc


# -- matches ----------------------------------------------------------------------


def encode_match(match: Match) -> dict[str, Any]:
    return {
        "bindings": encode_bindings(match.bindings),
        "first_seq": match.first_seq,
        "last_seq": match.last_seq,
        "first_ts": match.first_ts,
        "last_ts": match.last_ts,
        "partition_key": list(match.partition_key),
        "detection_index": match.detection_index,
        "query_name": match.query_name,
    }


def decode_match(state: Mapping[str, Any]) -> Match:
    """Rebuild a match **unscored**; the caller re-scores deterministically."""
    try:
        return Match(
            bindings=decode_bindings(state["bindings"]),
            first_seq=int(state["first_seq"]),
            last_seq=int(state["last_seq"]),
            first_ts=float(state["first_ts"]),
            last_ts=float(state["last_ts"]),
            partition_key=tuple(state["partition_key"]),
            detection_index=int(state["detection_index"]),
            query_name=state["query_name"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"bad match record: {exc}") from exc


def encode_emission(emission: Emission) -> dict[str, Any]:
    """JSON-safe encoding of one emission (checkpoints and shard reports)."""
    return {
        "kind": emission.kind.value,
        "ranking": [encode_match(m) for m in emission.ranking],
        "at_seq": emission.at_seq,
        "at_ts": emission.at_ts,
        "epoch": emission.epoch,
        "revision": emission.revision,
        "entered": [encode_match(m) for m in emission.entered],
        "exited": [encode_match(m) for m in emission.exited],
    }


def rescore(scorer: Scorer, item: Mapping[str, Any]) -> Match:
    """Decode a held match and score it again; a key the ranking rules
    refuse (an older checkpoint's NaN) makes the snapshot unusable."""
    try:
        return scorer.score(decode_match(item))
    except EvaluationError as exc:
        raise SnapshotFormatError(f"a held match cannot be ranked: {exc}") from exc


def decode_emission(state: Mapping[str, Any], scorer: Scorer) -> Emission:
    """Inverse of :func:`encode_emission`, re-scoring every match."""
    score = partial(rescore, scorer)
    return Emission(
        kind=EmissionKind(state["kind"]),
        ranking=[score(item) for item in state["ranking"]],
        at_seq=int(state["at_seq"]),
        at_ts=float(state["at_ts"]),
        epoch=state["epoch"],
        revision=int(state["revision"]),
        entered=[score(item) for item in state["entered"]],
        exited=[score(item) for item in state["exited"]],
    )


# -- runs -------------------------------------------------------------------------


def encode_run(run: Run) -> dict[str, Any]:
    return {
        "stage": run.stage,
        "bindings": encode_bindings(run.bindings),
        "first_seq": run.first_seq,
        "last_seq": run.last_seq,
        "first_ts": run.first_ts,
        "last_ts": run.last_ts,
        "partition_key": list(run.partition_key),
        "kleene_open": run.kleene_open,
        "agg_states": {
            var: encode_agg_state(state) for var, state in run.agg_states.items()
        },
        "trips": sorted(run.trips),
    }


def decode_run(state: Mapping[str, Any], automaton: PatternAutomaton) -> Run:
    """Rebuild a run against the live compiled ``automaton``."""
    try:
        return Run(
            automaton=automaton,
            stage=int(state["stage"]),
            bindings=decode_bindings(state["bindings"]),
            first_seq=int(state["first_seq"]),
            last_seq=int(state["last_seq"]),
            first_ts=float(state["first_ts"]),
            last_ts=float(state["last_ts"]),
            partition_key=tuple(state["partition_key"]),
            kleene_open=bool(state["kleene_open"]),
            agg_states={
                var: decode_agg_state(item)
                for var, item in state["agg_states"].items()
            },
            trips=frozenset(int(index) for index in state["trips"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"bad run record: {exc}") from exc


# -- matcher ----------------------------------------------------------------------


def encode_matcher(matcher: PatternMatcher) -> dict[str, Any]:
    """Snapshot a matcher's mutable state (runs, pendings, counters).

    Only partitions holding runs or pendings exist, so only those travel.
    """
    partitions = []
    for key, partition in matcher._partitions.items():
        partitions.append(
            {
                "key": list(key),
                "runs": [encode_run(run) for run in partition.runs],
                "pendings": [
                    {
                        "match": encode_match(pending.match),
                        "run": encode_run(pending.run),
                    }
                    for pending in partition.pendings
                ],
            }
        )
    stats = vars(matcher.stats).copy()
    return {
        "partitions": partitions,
        "detection_counter": matcher._detection_counter,
        # Kept beside ``stats`` rather than in it: a matcher whose stats
        # lack these counters still loads this snapshot, and vice versa.
        "completions_skipped": stats.pop("completions_skipped"),
        "runs_dominated": stats.pop("runs_dominated"),
        "stats": stats,
    }


def restore_matcher(matcher: PatternMatcher, state: Mapping[str, Any]) -> None:
    """Load :func:`encode_matcher` state into a freshly built matcher."""
    automaton = matcher.automaton
    partitions: dict[tuple[Any, ...], _Partition] = {}
    try:
        for item in state["partitions"]:
            partition = _Partition(
                runs=[decode_run(run, automaton) for run in item["runs"]],
                pendings=[
                    _Pending(
                        match=decode_match(pending["match"]),
                        run=decode_run(pending["run"], automaton),
                    )
                    for pending in item["pendings"]
                ],
            )
            # Older snapshots also list partitions left empty; a matcher
            # keeps only those holding runs or pendings.
            if partition.runs or partition.pendings:
                partitions[tuple(item["key"])] = partition
        matcher._partitions = partitions
        matcher._detection_counter = int(state["detection_counter"])
        matcher.stats = MatcherStats(
            **state["stats"],
            completions_skipped=int(state.get("completions_skipped", 0)),
            runs_dominated=int(state.get("runs_dominated", 0)),
        )
        # The O(1) activity caches feed ``live_runs``, ``pending_matches``
        # and ``peak_live_runs``; recount them for the restored partitions.
        matcher._refresh_activity()
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"bad matcher state: {exc}") from exc
