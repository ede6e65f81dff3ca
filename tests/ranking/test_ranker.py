"""Rank operator behaviour per emission policy, through the engine facade."""

import pytest

from repro import CEPREngine, EmissionKind, Event


def E(t, ts, **attrs):
    return Event(t, ts, **attrs)


def run(query_text, events, **engine_kwargs):
    engine = CEPREngine(**engine_kwargs)
    handle = engine.register_query(query_text)
    engine.run(events)
    return handle


class TestWindowCloseEmission:
    QUERY = (
        "PATTERN SEQ(A a, B b) WITHIN 4 EVENTS USING SKIP_TILL_ANY "
        "RANK BY b.x - a.x DESC LIMIT 2 EMIT ON WINDOW CLOSE"
    )

    def test_epoch_rankings(self):
        # epoch 0: seqs 0-3, epoch 1: seqs 4-7
        handle = run(
            self.QUERY,
            [
                E("A", 1, x=0),
                E("B", 2, x=5),
                E("B", 3, x=9),
                E("Z", 4),
                E("A", 5, x=0),
                E("B", 6, x=1),
            ],
        )
        emissions = handle.results()
        assert [e.kind for e in emissions] == [
            EmissionKind.WINDOW_CLOSE,
            EmissionKind.WINDOW_CLOSE,
        ]
        first, second = emissions
        assert first.epoch == 0 and second.epoch == 1
        assert [m.rank_values[0] for m in first.ranking] == [9, 5]
        assert [m.rank_values[0] for m in second.ranking] == [1]

    def test_limit_cuts_ranking(self):
        handle = run(
            self.QUERY,
            [E("A", 1, x=0), E("B", 2, x=1), E("B", 3, x=2), E("B", 4, x=3)],
        )
        # B at seq 3 is in epoch 0 (seqs 0-3): matches 1,2,3 → top-2 kept
        [emission] = handle.results()
        assert [m.rank_values[0] for m in emission.ranking] == [3, 2]

    def test_empty_epochs_not_emitted(self):
        handle = run(self.QUERY, [E("Z", i) for i in range(1, 10)])
        assert handle.results() == []

    def test_ascending_direction(self):
        handle = run(
            "PATTERN SEQ(A a, B b) WITHIN 8 EVENTS USING SKIP_TILL_ANY "
            "RANK BY b.x ASC EMIT ON WINDOW CLOSE",
            [E("A", 1, x=0), E("B", 2, x=5), E("B", 3, x=1)],
        )
        [emission] = handle.results()
        assert [m.rank_values[0] for m in emission.ranking] == [1, 5]

    def test_lexicographic_tiebreak(self):
        handle = run(
            "PATTERN SEQ(A a, B b) WITHIN 8 EVENTS USING SKIP_TILL_ANY "
            "RANK BY b.x DESC, b.y ASC EMIT ON WINDOW CLOSE",
            [E("A", 1, x=0), E("B", 2, x=5, y=2), E("B", 3, x=5, y=1)],
        )
        [emission] = handle.results()
        assert [m.rank_values for m in emission.ranking] == [(5, 1), (5, 2)]


class TestPeriodicEmission:
    def test_every_n_events(self):
        handle = run(
            "PATTERN SEQ(A a) WITHIN 100 EVENTS RANK BY a.x DESC "
            "EMIT EVERY 3 EVENTS",
            [E("A", i, x=i) for i in range(1, 8)],
        )
        emissions = handle.results()
        periodic = [e for e in emissions if e.kind is EmissionKind.PERIODIC]
        assert len(periodic) == 2  # events 3 and 6
        assert periodic[0].ranking[0].rank_values == (3,)
        final = [e for e in emissions if e.kind is EmissionKind.FINAL]
        assert len(final) == 1

    def test_every_time_period(self):
        handle = run(
            "PATTERN SEQ(A a) WITHIN 100 SECONDS RANK BY a.x DESC "
            "EMIT EVERY 5 SECONDS",
            [E("A", float(t), x=t) for t in range(0, 13)],
        )
        periodic = [
            e for e in handle.results() if e.kind is EmissionKind.PERIODIC
        ]
        assert len(periodic) == 2

    def test_sliding_scope_expires_matches(self):
        handle = run(
            "PATTERN SEQ(A a) WITHIN 4 EVENTS RANK BY a.x DESC "
            "EMIT EVERY 4 EVENTS",
            [E("A", 1, x=100)] + [E("Z", i) for i in range(2, 6)] + [E("A", 6, x=1)],
        )
        emissions = [e for e in handle.results() if e.ranking]
        # by the second periodic snapshot the x=100 match has expired
        last = emissions[-1]
        assert [m.rank_values[0] for m in last.ranking] == [1]


class TestEagerEmission:
    QUERY = (
        "PATTERN SEQ(A a) WITHIN 100 EVENTS RANK BY a.x DESC LIMIT 2 EMIT EAGER"
    )

    def test_emits_only_on_topk_change(self):
        handle = run(
            self.QUERY,
            [E("A", 1, x=10), E("A", 2, x=5), E("A", 3, x=7), E("A", 4, x=1)],
        )
        eager = [e for e in handle.results() if e.kind is EmissionKind.EAGER]
        # x=10 enters; x=5 enters; x=7 replaces 5; x=1 changes nothing
        assert len(eager) == 3

    def test_revision_numbers_increase(self):
        handle = run(self.QUERY, [E("A", 1, x=1), E("A", 2, x=2)])
        revisions = [e.revision for e in handle.results()]
        assert revisions == sorted(revisions)
        assert len(set(revisions)) == len(revisions)

    def test_entered_and_exited_deltas(self):
        handle = run(
            self.QUERY, [E("A", 1, x=1), E("A", 2, x=2), E("A", 3, x=3)]
        )
        eager = [e for e in handle.results() if e.kind is EmissionKind.EAGER]
        last = eager[-1]
        assert [m.rank_values[0] for m in last.entered] == [3]
        assert [m.rank_values[0] for m in last.exited] == [1]


class TestUnrankedPassthrough:
    def test_each_match_emitted(self):
        handle = run(
            "PATTERN SEQ(A a, B b)",
            [E("A", 1), E("B", 2), E("A", 3), E("B", 4)],
        )
        emissions = handle.results()
        assert all(e.kind is EmissionKind.MATCH for e in emissions)
        # skip-till-next: each A consumes the next B → (a1,b2), (a3,b4)
        assert len(emissions) == 2

    def test_limit_per_epoch(self):
        handle = run(
            "PATTERN SEQ(A a) WITHIN 4 EVENTS LIMIT 1 EMIT EAGER",
            [E("A", i) for i in range(1, 9)],
        )
        emissions = handle.results()
        # 2 epochs of 4 events, 1 match allowed per epoch
        assert len(emissions) == 2

    @pytest.mark.parametrize(
        "window, closer",
        [
            ("4 EVENTS", "event"),
            ("4 EVENTS", "flush"),
            ("4 SECONDS", "event"),
            ("4 SECONDS", "heartbeat"),
            ("4 SECONDS", "flush"),
        ],
    )
    def test_limit_per_epoch_however_a_pending_match_is_confirmed(
        self, window, closer
    ):
        # A trailing negation parks all three (a, b) matches until their
        # window ends; whichever entry point ends it — the next event, a
        # heartbeat or end of stream — LIMIT 1 lets one of them out.
        engine = CEPREngine()
        handle = engine.register_query(
            f"PATTERN SEQ(A a, B b, NOT C c) WITHIN {window} "
            "USING SKIP_TILL_ANY LIMIT 1 EMIT EAGER"
        )
        for event in [E("A", 1), E("B", 2), E("B", 3), E("B", 4)]:
            engine.push(event)
        assert handle.results() == []
        if closer == "event":
            engine.push(E("A", 9))
        elif closer == "heartbeat":
            engine.advance_time(9.0)
        engine.flush()
        assert handle.matcher.stats.pending_confirmed == 3
        assert [e.kind for e in handle.results()] == [EmissionKind.MATCH]

    def test_unranked_window_close_collects_in_detection_order(self):
        handle = run(
            "PATTERN SEQ(A a) WITHIN 4 EVENTS EMIT ON WINDOW CLOSE",
            [E("A", 1, x=3), E("A", 2, x=1), E("Z", 3), E("Z", 4), E("Z", 5)],
        )
        [emission] = handle.results()
        assert [m.bindings["a"]["x"] for m in emission.ranking] == [3, 1]


class TestFinalFlush:
    def test_tumbling_flush_closes_open_epoch(self):
        engine = CEPREngine()
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 100 EVENTS RANK BY a.x DESC "
            "EMIT ON WINDOW CLOSE"
        )
        engine.push(E("A", 1, x=5))
        assert handle.results() == []
        engine.flush()
        [emission] = handle.results()
        assert emission.ranking[0].rank_values == (5,)

    def test_double_flush_is_idempotent(self):
        engine = CEPREngine()
        engine.register_query("PATTERN SEQ(A a)")
        engine.push(E("A", 1))
        first = engine.flush()
        assert engine.flush() == []

    def test_push_after_flush_rejected(self):
        engine = CEPREngine()
        engine.register_query("PATTERN SEQ(A a)")
        engine.flush()
        with pytest.raises(RuntimeError, match="already flushed"):
            engine.push(E("A", 1))
