"""Shared test helpers."""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Iterable, Sequence

import hypothesis
import pytest

from repro import CEPREngine, Event
from repro.engine.match import Match
from repro.events.schema import SchemaRegistry
from repro.runtime.query import RegisteredQuery

# The process runner spawns fresh interpreters over pipes itself, but
# anything in the suite that reaches for multiprocessing must never
# fork a live pytest process: forked children inherit the parent's
# locks and threads (consumer threads, asyncio loops) mid-state, which
# deadlocks nondeterministically.  Pin the start method globally.
if multiprocessing.get_start_method(allow_none=True) != "spawn":
    multiprocessing.set_start_method("spawn", force=True)

# CI runs the property suites under a pinned profile: no wall-clock
# deadline (shared runners stall unpredictably) and fully printed
# reproduction blobs.  Select with HYPOTHESIS_PROFILE=ci; local runs keep
# the default profile and fresh randomization, which is the coverage we
# want from developer machines (see docs/SANITIZER.md).
hypothesis.settings.register_profile(
    "ci", deadline=None, print_blob=True, derandomize=False
)
# The ci profile with a raised example count, for suites CI runs once
# more by name (the lexer differential): ``--hypothesis-profile=ci-thorough``.
hypothesis.settings.register_profile(
    "ci-thorough", hypothesis.settings.get_profile("ci"), max_examples=2000
)
hypothesis.settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "default")
)


def pytest_collection_modifyitems(config, items):
    """Pin every hypothesis test to HYPOTHESIS_SEED when it is set.

    ``@seed`` composes above ``@given``, so rewrapping the collected test
    object reproduces CI's exact example sequence locally:
    ``HYPOTHESIS_SEED=0 pytest tests/property``.
    """
    raw = os.environ.get("HYPOTHESIS_SEED")
    if not raw:
        return
    seed = int(raw)
    for item in items:
        fn = getattr(item, "obj", None)
        if fn is None or not getattr(fn, "is_hypothesis_test", False):
            continue
        # @seed stamps the wrapped test and returns it, so mutating the
        # underlying function in place covers both plain functions and
        # test methods (item.obj is a bound method for class-based tests).
        hypothesis.seed(seed)(getattr(fn, "__func__", fn))


def ev(event_type: str, ts: float, **attrs: Any) -> Event:
    """Terse event constructor used throughout the tests."""
    return Event(event_type, ts, **attrs)


def seq_events(*specs: tuple[str, dict[str, Any]]) -> list[Event]:
    """Build events with auto-incrementing timestamps 1.0, 2.0, ..."""
    return [
        Event(event_type, float(index + 1), **attrs)
        for index, (event_type, attrs) in enumerate(specs)
    ]


def run_query(
    query_text: str,
    events: Iterable[Event],
    registry: SchemaRegistry | None = None,
    **engine_kwargs: Any,
) -> RegisteredQuery:
    """Register one query, run a stream through it, flush, return handle."""
    engine = CEPREngine(registry=registry, **engine_kwargs)
    handle = engine.register_query(query_text)
    engine.run(events)
    return handle


def binding_values(match: Match, var: str, attr: str) -> Any:
    """Attribute value(s) of one binding: scalar or list for Kleene."""
    binding = match.bindings[var]
    if isinstance(binding, Event):
        return binding[attr]
    return [event[attr] for event in binding]


def match_signature(match: Match) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Order-independent identity of a match: var -> bound event seqs."""
    out = []
    for var, binding in sorted(match.bindings.items()):
        if isinstance(binding, Event):
            out.append((var, (binding.seq,)))
        else:
            out.append((var, tuple(event.seq for event in binding)))
    return tuple(out)


def signatures(matches: Sequence[Match]) -> set:
    return {match_signature(m) for m in matches}


@pytest.fixture
def engine() -> CEPREngine:
    return CEPREngine()
