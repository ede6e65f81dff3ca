"""End-to-end scenarios mirroring the demo paper's application domains."""

from repro import CEPREngine, Event
from repro.workloads.sensor import VitalsWorkload
from repro.workloads.stock import StockWorkload
from repro.workloads.traffic import TrafficWorkload


def E(t, ts, **attrs):
    return Event(t, ts, **attrs)


class TestStockScenario:
    QUERY = """
        NAME best_trades
        PATTERN SEQ(Buy b, Sell s)
        WHERE b.symbol == s.symbol AND s.price > b.price
        WITHIN 100 EVENTS
        USING SKIP_TILL_ANY
        PARTITION BY symbol
        RANK BY s.price - b.price DESC
        LIMIT 5
        EMIT ON WINDOW CLOSE
    """

    def test_crafted_stream_exact_answer(self):
        engine = CEPREngine()
        handle = engine.register_query(self.QUERY)
        engine.run(
            [
                E("Buy", 1, symbol="X", price=10.0),
                E("Buy", 2, symbol="Y", price=50.0),
                E("Sell", 3, symbol="X", price=12.0),
                E("Sell", 4, symbol="Y", price=49.0),  # loss: filtered
                E("Sell", 5, symbol="X", price=25.0),
            ]
        )
        ranking = handle.final_ranking()
        assert [m.rank_values[0] for m in ranking] == [15.0, 2.0]
        assert all(m["b"]["symbol"] == m["s"]["symbol"] for m in ranking)

    def test_generated_stream_rankings_are_sorted_and_bounded(self):
        workload = StockWorkload(seed=21)
        engine = CEPREngine(registry=workload.registry())
        handle = engine.register_query(self.QUERY)
        engine.run(workload.events(5000))
        for emission in handle.results():
            profits = [m.rank_values[0] for m in emission.ranking]
            assert profits == sorted(profits, reverse=True)
            assert len(profits) <= 5
            assert all(p > 0 for p in profits)


class TestHealthScenario:
    QUERY = """
        NAME tachycardia
        PATTERN SEQ(HeartRate h, HeartRate hs+)
        WHERE h.value > 100 AND hs.value > 100 AND hs.value >= prev(hs.value)
        WITHIN 30 SECONDS
        PARTITION BY patient
        RANK BY count(hs) DESC, max(hs.value) DESC
        LIMIT 3
        EMIT ON WINDOW CLOSE
    """

    def test_crafted_episode_ranked_by_length(self):
        engine = CEPREngine()
        handle = engine.register_query(self.QUERY)
        readings = [102, 110, 120, 130]
        engine.run(
            [
                E("HeartRate", float(i), patient=1, value=float(v))
                for i, v in enumerate(readings)
            ]
        )
        ranking = handle.final_ranking()
        assert ranking, "escalating tachycardia must match"
        best = ranking[0]
        assert best.rank_values[0] == 3  # hs holds the 3 readings after h
        assert best.rank_values[1] == 130.0

    def test_generated_stream_finds_episodes(self):
        workload = VitalsWorkload(seed=13, anomaly_rate=0.03)
        engine = CEPREngine(registry=workload.registry())
        handle = engine.register_query(self.QUERY)
        engine.run(workload.events(6000))
        matched_patients = {
            m.partition_key[0]
            for emission in handle.results()
            for m in emission.ranking
        }
        assert matched_patients, "injected episodes should surface"


class TestTrafficScenario:
    QUERY = """
        NAME congestion_onset
        PATTERN SEQ(SpeedReport s1, SpeedReport slow+, NOT Clear cl)
        WHERE s1.speed > 70 AND slow.speed < 50 AND slow.speed <= prev(slow.speed)
        WITHIN 60 SECONDS
        PARTITION BY segment
        RANK BY first(slow.speed) - last(slow.speed) DESC
        LIMIT 3
        EMIT ON WINDOW CLOSE
    """

    def test_crafted_onset(self):
        engine = CEPREngine()
        handle = engine.register_query(self.QUERY)
        engine.run(
            [
                E("SpeedReport", 1.0, segment=1, speed=90.0),
                E("SpeedReport", 2.0, segment=1, speed=45.0),
                E("SpeedReport", 3.0, segment=1, speed=30.0),
                E("SpeedReport", 4.0, segment=1, speed=20.0),
            ]
        )
        ranking = handle.final_ranking()
        assert ranking
        # sharpest decline: 45 → 20
        assert ranking[0].rank_values[0] == 25.0

    def test_clear_event_suppresses_match(self):
        engine = CEPREngine()
        handle = engine.register_query(self.QUERY)
        engine.run(
            [
                E("SpeedReport", 1.0, segment=1, speed=90.0),
                E("SpeedReport", 2.0, segment=1, speed=45.0),
                E("Clear", 3.0, segment=1),
            ]
        )
        # the Clear kills the pending onset for that closure
        rankings = [m for e in handle.results() for m in e.ranking]
        assert all(m.last_ts < 3.0 or m.rank_values[0] == 0 for m in rankings)

    def test_generated_stream(self):
        workload = TrafficWorkload(seed=17, incident_rate=0.01)
        engine = CEPREngine(registry=workload.registry())
        handle = engine.register_query(self.QUERY)
        engine.run(workload.events(8000))
        for emission in handle.results():
            drops = [m.rank_values[0] for m in emission.ranking]
            assert drops == sorted(drops, reverse=True)


class TestMultiQueryDeployment:
    def test_three_domains_in_one_engine(self):
        stock = StockWorkload(seed=1, rate=100.0)
        engine = CEPREngine()
        trades = engine.register_query(TestStockScenario.QUERY)
        spikes = engine.register_query(
            """
            NAME price_spikes
            PATTERN SEQ(Sell a, Sell b)
            WHERE a.symbol == b.symbol AND b.price > a.price * 1.01
            WITHIN 50 EVENTS
            PARTITION BY symbol
            RANK BY b.price / a.price DESC
            LIMIT 3
            EMIT ON WINDOW CLOSE
            """
        )
        engine.run(stock.events(4000))
        assert trades.pipeline.metrics.events_routed > 0
        assert spikes.pipeline.metrics.events_routed > 0
        # Buy events must not reach the spikes query
        assert spikes.pipeline.metrics.events_routed < trades.pipeline.metrics.events_routed

    def test_independent_results_per_query(self):
        engine = CEPREngine()
        q1 = engine.register_query("PATTERN SEQ(A a)")
        q2 = engine.register_query("PATTERN SEQ(A a, B b)")
        engine.run([E("A", 1), E("B", 2)])
        assert len(q1.matches()) == 1
        assert len(q2.matches()) == 1


class TestEngineReuseAcrossWindows:
    def test_long_stream_many_epochs(self):
        engine = CEPREngine()
        handle = engine.register_query(
            "PATTERN SEQ(A a) WITHIN 10 EVENTS RANK BY a.x DESC LIMIT 1 "
            "EMIT ON WINDOW CLOSE"
        )
        engine.run([E("A", float(i), x=i % 10) for i in range(100)])
        emissions = handle.results()
        assert len(emissions) == 10
        assert all(e.ranking[0].rank_values == (9,) for e in emissions)
