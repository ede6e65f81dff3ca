"""Cart-abandonment scenario: trailing negation + ranking on clickstream."""

from repro import CEPREngine, Event
from repro.workloads.clickstream import ClickstreamWorkload

ABANDONMENT = """
    NAME abandonment
    PATTERN SEQ(AddToCart cart, NOT Purchase bought)
    WHERE bought.value == cart.value
    WITHIN 120 SECONDS
    PARTITION BY user
    RANK BY cart.value DESC
    LIMIT 5
    EMIT ON WINDOW CLOSE
"""


def E(t, ts, **attrs):
    return Event(t, ts, **attrs)


class TestCraftedStreams:
    def test_purchase_suppresses_abandonment(self):
        engine = CEPREngine()
        handle = engine.register_query(ABANDONMENT)
        engine.run(
            [
                E("AddToCart", 1.0, user=1, value=50.0),
                E("Purchase", 5.0, user=1, value=50.0),
                E("AddToCart", 6.0, user=2, value=80.0),
                # user 2 never purchases
            ]
        )
        abandoned = [m for e in handle.results() for m in e.ranking]
        assert [m["cart"]["value"] for m in abandoned] == [80.0]
        assert abandoned[0].partition_key == (2,)

    def test_other_users_purchase_does_not_suppress(self):
        engine = CEPREngine()
        handle = engine.register_query(ABANDONMENT)
        engine.run(
            [
                E("AddToCart", 1.0, user=1, value=50.0),
                E("Purchase", 2.0, user=2, value=50.0),  # different partition
            ]
        )
        abandoned = [m for e in handle.results() for m in e.ranking]
        assert len(abandoned) == 1

    def test_ranked_by_cart_value(self):
        engine = CEPREngine()
        handle = engine.register_query(ABANDONMENT)
        engine.run(
            [
                E("AddToCart", 1.0, user=1, value=10.0),
                E("AddToCart", 2.0, user=2, value=300.0),
                E("AddToCart", 3.0, user=3, value=75.0),
            ]
        )
        [emission] = handle.results()
        assert [m.rank_values[0] for m in emission.ranking] == [300.0, 75.0, 10.0]


class TestGeneratedStream:
    def test_abandonments_found_and_ranked(self):
        workload = ClickstreamWorkload(seed=11, users=15, abandon_rate=0.4)
        engine = CEPREngine(registry=workload.registry())
        handle = engine.register_query(ABANDONMENT)
        engine.run(workload.events(12_000))

        emissions = [e for e in handle.results() if e.ranking]
        assert emissions, "40% abandonment must surface matches"
        for emission in emissions:
            values = [m.rank_values[0] for m in emission.ranking]
            assert values == sorted(values, reverse=True)
            assert len(values) <= 5

    def test_zero_abandonment_yields_far_fewer_matches(self):
        def abandoned_count(rate):
            workload = ClickstreamWorkload(seed=11, users=15, abandon_rate=rate)
            engine = CEPREngine(registry=workload.registry())
            handle = engine.register_query(ABANDONMENT)
            engine.run(workload.events(8_000))
            return handle.pipeline.metrics.matches

        # rate 0 still yields some pendings confirmed before the purchase
        # lands?  No: the purchase must land within the window; with gap≈6
        # events it always does, so only stream-end truncation remains.
        assert abandoned_count(0.0) < abandoned_count(0.8) / 5
