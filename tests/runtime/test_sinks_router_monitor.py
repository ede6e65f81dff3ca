"""Unit tests for sinks, the router, and the live monitor."""

import io

from repro import CEPREngine, Event
from repro.ranking.emission import Emission, EmissionKind
from repro.runtime.monitor import Monitor
from repro.runtime.router import EventRouter
from repro.runtime.sinks import CallbackSink, CollectorSink, PrintSink
from tests.runtime.fleet import local_fleet


def E(t, ts, **attrs):
    return Event(t, ts, **attrs)


def make_emission(n=1):
    return Emission(kind=EmissionKind.MATCH, ranking=[], at_seq=n, at_ts=float(n))


class TestSinks:
    def test_collector(self):
        sink = CollectorSink()
        sink.accept(make_emission(1))
        sink.accept(make_emission(2))
        assert len(sink) == 2
        assert [e.at_seq for e in sink] == [1, 2]
        assert sink.final_ranking() == []
        sink.clear()
        assert len(sink) == 0

    def test_collector_matches_flattens_rankings(self):
        from repro.engine.match import Match

        match = Match(bindings={}, first_seq=0, last_seq=0, first_ts=0, last_ts=0)
        emission = Emission(EmissionKind.MATCH, [match], 0, 0.0)
        sink = CollectorSink()
        sink.accept(emission)
        assert sink.matches() == [match]

    def test_callback(self):
        seen = []
        CallbackSink(seen.append).accept(make_emission())
        assert len(seen) == 1

    def test_print_sink(self):
        out = io.StringIO()
        PrintSink(out).accept(make_emission())
        assert "match" in out.getvalue()


class TestRouter:
    def make_queries(self):
        """Two queries' pipelines: what a router routes."""
        engine = CEPREngine()
        qa = engine.register_query("PATTERN SEQ(A a)", name="qa")
        qab = engine.register_query("PATTERN SEQ(A a, B b)", name="qab")
        return qa.pipeline, qab.pipeline

    def test_route_by_type(self):
        qa, qab = self.make_queries()
        router = EventRouter()
        router.add(qa)
        router.add(qab)
        assert router.route(E("A", 1)) == [qa, qab]
        assert router.route(E("B", 1)) == [qab]
        assert router.route(E("Z", 1)) == []

    def test_remove(self):
        qa, qab = self.make_queries()
        router = EventRouter()
        router.add(qa)
        router.add(qab)
        router.remove(qab)
        assert router.route(E("B", 1)) == []
        assert len(router) == 1

    def test_interested_types(self):
        qa, qab = self.make_queries()
        router = EventRouter()
        router.add(qab)
        assert router.interested_types() == {"A", "B"}


class TestMonitor:
    def make_engine(self):
        engine = CEPREngine()
        engine.register_query(
            "NAME profits PATTERN SEQ(A a, B b) WITHIN 4 EVENTS "
            "USING SKIP_TILL_ANY RANK BY b.x - a.x DESC LIMIT 2 "
            "EMIT ON WINDOW CLOSE"
        )
        return engine

    def test_render_before_any_events(self):
        monitor = Monitor(self.make_engine())
        text = monitor.render()
        assert "CEPR monitor" in text
        assert "profits" in text
        assert "(no emissions yet)" in text

    def test_render_shows_query_text_and_ranking(self):
        engine = self.make_engine()
        engine.run([E("A", 1, x=0), E("B", 2, x=7), E("Z", 3), E("Z", 4), E("Z", 5)])
        text = Monitor(engine).render()
        assert "PATTERN SEQ(A a, B b)" in text
        assert "window_close" in text
        assert "#1" in text
        assert "score=(7)" in text

    def test_top_n_truncation(self):
        engine = CEPREngine()
        engine.register_query(
            "PATTERN SEQ(A a) WITHIN 8 EVENTS RANK BY a.x DESC "
            "EMIT ON WINDOW CLOSE"
        )
        engine.run([E("A", i, x=i) for i in range(8)] + [E("Z", 9)])
        text = Monitor(engine, top_n=3).render()
        assert "more" in text

    def test_run_live_bounded(self):
        out = io.StringIO()
        monitor = Monitor(self.make_engine())
        sleeps = []
        monitor.run_live(
            refresh_seconds=0.5,
            iterations=3,
            out=out,
            sleep=sleeps.append,
            clear=False,
        )
        assert out.getvalue().count("CEPR monitor") == 3
        assert sleeps == [0.5, 0.5]

    def test_run_live_clear_redraws_in_place(self):
        """clear=True homes the cursor and erases per line — no 2J flicker."""
        out = io.StringIO()
        monitor = Monitor(self.make_engine())
        monitor.run_live(iterations=2, out=out, sleep=lambda _: None, clear=True)
        frames = out.getvalue()
        assert frames.count("\x1b[H") == 2  # cursor home per frame
        assert "\x1b[K" in frames  # erase to end-of-line per line
        assert frames.count("\x1b[J") == 2  # erase below each frame
        assert "\x1b[2J" not in frames  # never a full-screen clear
        # every rendered line carries its erase suffix
        body = frames.split("\x1b[H")[1].split("\x1b[J")[0]
        for line in body.splitlines():
            assert line.endswith("\x1b[K")

    def test_render_shows_stage_profile(self):
        engine = self.make_engine()
        engine.run([E("A", 1, x=0), E("B", 2, x=7), E("Z", 3)])
        text = Monitor(engine).render()
        assert "stages: match=" in text

    def test_render_shows_partition_skips(self):
        engine = CEPREngine()
        engine.register_query(
            "PATTERN SEQ(A a, B b) WITHIN 4 EVENTS PARTITION BY part "
            "RANK BY b.x DESC LIMIT 1 EMIT ON WINDOW CLOSE"
        )
        engine.run([E("A", 1, x=0), E("A", 2, x=1, part="p")])  # first lacks key
        text = Monitor(engine).render()
        assert "partition_skips=1" in text

    def test_render_sharded_runner_shows_shard_block(self):

        runner = local_fleet(shards=2)
        runner.register_query(
            "NAME spread PATTERN SEQ(A a, B b) WITHIN 4 EVENTS "
            "PARTITION BY part RANK BY b.x DESC LIMIT 2 EMIT ON WINDOW CLOSE"
        )
        runner.start()
        try:
            for index in range(8):
                runner.submit(E("A", index + 1, x=index, part=index % 2))
            runner.flush()
        finally:
            runner.stop()
        text = Monitor(runner).render()
        assert "-- shards (2 workers)" in text
        assert "shard 0 [sharded]:" in text
        assert "shard 1 [sharded]:" in text
        assert "events=" in text and "backlog=" in text
        assert "shards=2" in text

    def test_render_solo_fallback_flagged(self):

        runner = local_fleet(shards=2)
        runner.register_query(  # no PARTITION BY: must fall back to solo
            "NAME global PATTERN SEQ(A a, B b) WITHIN 4 EVENTS "
            "RANK BY b.x DESC LIMIT 2 EMIT ON WINDOW CLOSE"
        )
        runner.start()
        runner.stop()
        text = Monitor(runner).render()
        assert "SOLO-FALLBACK" in text
        assert "[solo]" in text


class TestMonitorTelemetry:
    """Cost and pressure lines in the monitor (PR 8 observability)."""

    QUERY = (
        "NAME profits PATTERN SEQ(A a, B b) WITHIN 4 EVENTS "
        "USING SKIP_TILL_ANY RANK BY b.x - a.x DESC LIMIT 2 "
        "EMIT ON WINDOW CLOSE"
    )

    def test_render_shows_cost_line_after_events(self):
        engine = CEPREngine()
        engine.register_query(self.QUERY)
        engine.run([E("A", 1, x=0), E("B", 2, x=7), E("Z", 3)])
        text = Monitor(engine).render()
        assert "cost: cpu=" in text
        assert "shared" in text

    def test_no_cost_line_before_events(self):
        engine = CEPREngine()
        engine.register_query(self.QUERY)
        text = Monitor(engine).render()
        assert "cost:" not in text

    def test_bare_engine_header_has_no_pressure(self):
        engine = CEPREngine()
        engine.register_query(self.QUERY)
        text = Monitor(engine).render()
        assert "pressure=" not in text

    def test_threaded_runner_source_shows_pressure(self):
        from repro.runtime.concurrent import ThreadedEngineRunner

        engine = CEPREngine()
        engine.register_query(self.QUERY)
        runner = ThreadedEngineRunner(engine)
        runner.start()
        try:
            for index in range(4):
                runner.submit(E("A", index + 1, x=index))
            runner.sync()
            text = Monitor(runner).render()
        finally:
            runner.stop()
        assert "pressure=" in text
        assert "[ok]" in text or "[overloaded]" in text

    def test_sharded_runner_header_has_no_pressure(self):
        """A fleet has no ingest queue (its backpressure is the blocking
        pipe write), so like a bare engine it shows no pressure; each
        shard row still counts its unsent events."""
        runner = local_fleet(shards=2)
        runner.register_query(
            "NAME spread PATTERN SEQ(A a, B b) WITHIN 4 EVENTS "
            "PARTITION BY part RANK BY b.x DESC LIMIT 2 EMIT ON WINDOW CLOSE"
        )
        runner.start()
        try:
            for index in range(8):
                runner.submit(E("A", index + 1, x=index, part=index % 2))
            runner.flush()
            text = Monitor(runner).render()
        finally:
            runner.stop()
        assert "pressure=" not in text
        assert text.count("backlog=") == 2  # one per shard row
