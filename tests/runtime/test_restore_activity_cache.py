"""Restore must refresh the matcher's activity caches.

The O(1) caches feed the ``live_runs`` and ``pending_matches`` gauges and
the ``peak_live_runs`` high-water mark, and move by per-partition deltas
from there on: stale (zero) caches after a restore would stay wrong for
the rest of the stream.  ``restore_matcher`` recounts them; these tests
pin that, and that a restored engine continues its runs.
"""

from repro import CEPREngine, Event

PAIR = """
    NAME pair
    PATTERN SEQ(A a, B b)
    WHERE a.x > 0
    WITHIN 10 EVENTS
"""


def test_restored_engine_continues_live_runs():
    source = CEPREngine()
    source.register_query(PAIR)
    source.push(Event("A", 1.0, x=5))  # opens a partial run
    state = source.snapshot()

    target = CEPREngine()
    handle = target.register_query(PAIR)
    target.restore(state)
    matcher = handle.matcher
    caches = (matcher._live_runs_cached, matcher._pendings_cached)
    assert caches == (matcher.live_run_count, matcher.pending_count) == (1, 0)
    target.push(Event("B", 2.0, x=7))  # only matches if not elided
    target.flush()

    matches = [m for emission in handle.results() for m in emission.ranking]
    assert len(matches) == 1
    assert matches[0].bindings["a"]["x"] == 5
    assert matches[0].bindings["b"]["x"] == 7


def test_restored_engine_matches_uninterrupted_run():
    events = [
        Event("A", 1.0, x=3),
        Event("A", 2.0, x=4),
        Event("B", 3.0, x=9),
        Event("B", 4.0, x=1),
    ]

    uninterrupted = CEPREngine()
    straight = uninterrupted.register_query(PAIR)
    uninterrupted.run(events)

    source = CEPREngine()
    source.register_query(PAIR)
    source.push(events[0])
    source.push(events[1])
    target = CEPREngine()
    resumed = target.register_query(PAIR)
    target.restore(source.snapshot())
    target.push(events[2])
    target.push(events[3])
    target.flush()

    def fingerprints(handle):
        return [
            (
                emission.kind,
                tuple(
                    (m.first_seq, m.last_seq, m.rank_values)
                    for m in emission.ranking
                ),
            )
            for emission in handle.results()
        ]

    assert fingerprints(resumed) == fingerprints(straight)
