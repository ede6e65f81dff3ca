"""Load-shedding tests: controller state machine, probe ladder, and the
exactness differential.

The exact policy's contract is the strongest claim in the subsystem:
with ``--shed-policy exact`` the emitted stream is **byte-identical** to
the unshedded run — sheds only happen under a safety certificate
(structural inertness or score-bound headroom against the current k-th
retained score).  The differential tests here enforce it with strict
fingerprints (including ``detection_index`` and ``revision``) across
seeded workloads, and the seeded-defect test proves CEPRSan's
``certified-shed`` invariant catches a probe that falsely certifies.
"""

import pytest

from repro import CEPREngine, Event
from repro.observability.pressure import PressureAssessor, PressureSample
from repro.runtime.concurrent import ThreadedEngineRunner
from repro.runtime.query import (
    SHED_PROTECTED,
    SHED_SAFE,
    SHED_UNCERTIFIED,
    RegisteredQuery,
)
from repro.runtime.sharded import ShardedEngineRunner
from repro.runtime.shedding import (
    MAX_DROP_RATE,
    ShedController,
    ShedStats,
    controller_to_dict,
    merge_shed_stats,
)
from repro.workloads.clickstream import ClickstreamWorkload
from repro.workloads.generic import GenericWorkload
from repro.workloads.stock import StockWorkload

GENERIC_QUERY = """
    NAME spread
    PATTERN SEQ(A a, B b)
    WITHIN 25 EVENTS
    USING SKIP_TILL_ANY
    RANK BY b.value - a.value DESC
    LIMIT 1
    EMIT ON WINDOW CLOSE
"""

STOCK_QUERY = """
    NAME rally
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 40 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 4
    EMIT ON WINDOW CLOSE
"""

FUNNEL_QUERY = """
    NAME funnel
    PATTERN SEQ(AddToCart c, Purchase p)
    WHERE c.user == p.user
    WITHIN 60 EVENTS
    USING SKIP_TILL_ANY
    PARTITION BY user
    RANK BY p.value DESC
    LIMIT 1
    EMIT ON WINDOW CLOSE
"""


def strict_match_fp(match):
    bindings = tuple(
        (
            var,
            (binding.seq,)
            if isinstance(binding, Event)
            else tuple(e.seq for e in binding),
        )
        for var, binding in match.bindings.items()
    )
    return (
        bindings,
        match.first_seq,
        match.last_seq,
        match.partition_key,
        match.score,
        match.rank_values,
        match.detection_index,
    )


def strict_emission_fp(emission):
    return (
        emission.kind.value,
        emission.at_seq,
        round(emission.at_ts, 9),
        emission.epoch,
        emission.revision,
        tuple(strict_match_fp(m) for m in emission.ranking),
    )


def strict_fingerprint(handle):
    return [strict_emission_fp(e) for e in handle.results()]


def loose_match_fp(match):
    """Sharded comparisons re-stamp detection_index/revision (documented)."""
    fp = strict_match_fp(match)
    return fp[:-1]


def loose_fingerprint(handle):
    return [
        (
            e.kind.value,
            e.at_seq,
            round(e.at_ts, 9),
            e.epoch,
            tuple(loose_match_fp(m) for m in e.ranking),
        )
        for e in handle.results()
    ]


def forced_exact():
    return ShedController(policy="exact", force=True)


def run_engine(query, events, registry=None, controller=None):
    engine = CEPREngine(registry=registry)
    handle = engine.register_query(query)
    if controller is not None:
        engine.shed_controller = controller
    for event in events:
        engine.push(event)
    engine.flush()
    return engine, handle


class TestShedStats:
    def test_absorb_sums_fieldwise(self):
        a = ShedStats(offered=3, shed_events_total=2, uncertified_offered=1)
        b = ShedStats(offered=5, shed_events_total=1, uncertified_shed=1)
        a.absorb(b)
        assert a.offered == 8
        assert a.shed_events_total == 3
        assert a.uncertified_offered == 1
        assert a.uncertified_shed == 1

    def test_recall_estimate(self):
        assert ShedStats().recall_estimate == 1.0
        stats = ShedStats(uncertified_offered=10, uncertified_shed=3)
        assert stats.recall_estimate == pytest.approx(0.7)

    def test_merge_and_to_dict(self):
        merged = merge_shed_stats(
            [ShedStats(offered=1), ShedStats(offered=2, certified_total=2)]
        )
        doc = merged.to_dict()
        assert doc["offered"] == 3
        assert doc["certified_total"] == 2
        assert doc["recall_estimate"] == 1.0


class TestControllerStateMachine:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="policy"):
            ShedController(policy="sometimes")
        with pytest.raises(ValueError, match="latency_target"):
            ShedController(policy="exact", latency_target=0.0)

    def test_off_policy_is_inert(self):
        controller = ShedController(policy="off")
        controller.control(PressureSample(ingest_lag_seconds=100.0), 100.0)
        assert not controller.engaged
        assert not controller.exact_active
        assert not controller.adaptive_active
        assert controller.admit(Event("A", 1.0), []) is True

    def test_force_engages_without_pressure(self):
        controller = forced_exact()
        assert controller.engaged
        assert controller.exact_active
        controller.control(PressureSample(), 0.0)
        assert controller.engaged  # force holds through recovery ticks

    def test_engages_on_overload_and_disengages_on_recovery(self):
        assessor = PressureAssessor(smoothing=1.0)
        controller = ShedController(policy="exact", assessor=assessor)
        assert not controller.engaged
        controller.control(0.9)
        assert controller.engaged
        assert controller.stats.engagements == 1
        # hysteresis: mid-band pressure keeps it engaged
        controller.control(0.6)
        assert controller.engaged
        controller.control(0.1)
        assert not controller.engaged

    def test_lag_above_target_engages_even_when_pressure_is_low(self):
        controller = ShedController(policy="exact", latency_target=0.5)
        controller.control(PressureSample(), lag_seconds=2.0)
        assert controller.engaged
        controller.control(PressureSample(), lag_seconds=0.1)
        assert not controller.engaged

    def test_adaptive_rate_aimd(self):
        assessor = PressureAssessor(smoothing=1.0)
        controller = ShedController(policy="adaptive", assessor=assessor)
        for _ in range(40):
            controller.control(0.9)
        assert controller.drop_rate == pytest.approx(MAX_DROP_RATE)
        # recovery halves the rate, then disengages once it decays away
        controller.control(0.0)
        assert controller.engaged
        assert controller.drop_rate == pytest.approx(MAX_DROP_RATE / 2)
        for _ in range(20):
            controller.control(0.0)
        assert controller.drop_rate == 0.0
        assert not controller.engaged

    def test_to_dict_and_describe(self):
        controller = forced_exact()
        doc = controller.to_dict()
        assert doc["policy"] == "exact"
        assert doc["engaged"] is True
        assert doc["stats"]["shed_events_total"] == 0
        assert "pressure" in doc
        assert controller.describe().startswith("shed[exact]=engaged")

    def test_controller_to_dict_merges_worker_stats(self):
        controller = forced_exact()
        controller.stats.shed_events_total = 2
        worker = ShedStats(shed_events_total=3, offered=3)
        doc = controller_to_dict(controller, [worker])
        assert doc["stats"]["shed_events_total"] == 5
        assert controller_to_dict(ShedController(policy="off")) is None
        assert controller_to_dict(None) is None


class TestShedProbeLadder:
    def setup_method(self):
        self.workload = GenericWorkload(seed=5, alphabet_size=2)
        self.engine = CEPREngine(registry=self.workload.registry())
        self.handle = self.engine.register_query(GENERIC_QUERY)

    def test_irrelevant_type_is_safe(self):
        classification, headroom = self.handle.shed_probe(
            Event("Zz", 1.0, value=1.0, group=0)
        )
        assert classification is SHED_SAFE
        assert headroom is None

    def test_non_initial_type_is_safe_when_no_state(self):
        # B can only extend an existing run; with none live it is inert
        classification, _ = self.handle.shed_probe(
            Event("B", 1.0, value=1.0, group=0)
        )
        assert classification is SHED_SAFE

    def test_live_partial_run_protects_consumable_event(self):
        self.engine.push(Event("A", 1.0, value=1.0, group=0))
        classification, _ = self.handle.shed_probe(
            Event("B", 2.0, value=50.0, group=0)
        )
        assert classification is SHED_PROTECTED

    def test_stage0_without_pruner_is_uncertified(self):
        engine = CEPREngine(enable_pruning=False)
        handle = engine.register_query(GENERIC_QUERY)
        classification, headroom = handle.shed_probe(
            Event("A", 1.0, value=1.0, group=0)
        )
        assert classification is SHED_UNCERTIFIED
        assert headroom is None

    def test_stage0_bound_certification_with_domains(self):
        # Establish a k-th retained score near the max spread, then probe
        # a high-value A: its best completion bound (100 - value) cannot
        # crack the retained top-1, so the probe certifies it safe.  The
        # probes pass seq_hint because the events were never sequenced —
        # exactly what the runner's pre-ingest sampling path does.
        self.engine.push(Event("A", 1.0, value=0.0, group=0))
        self.engine.push(Event("B", 2.0, value=50.0, group=0))  # kth = 50
        at = self.engine.metrics.events_pushed
        # ceiling of A(99) is 100 - 99 = 1 < 50: provably hopeless
        classification, headroom = self.handle.shed_probe(
            Event("A", 3.0, value=99.0, group=0), seq_hint=at
        )
        assert classification is SHED_SAFE
        assert headroom is not None and headroom > 0
        # ceiling of A(10) is 90 > 50: could dethrone the champion
        classification, headroom = self.handle.shed_probe(
            Event("A", 3.5, value=10.0, group=0), seq_hint=at
        )
        assert classification is SHED_UNCERTIFIED
        assert headroom is not None


class TestExactDifferential:
    # expect_sheds is workload-dependent: the clickstream funnel keeps a
    # live AddToCart run per user almost continuously (Purchases are
    # protected, AddToCarts uncertified — value domain up to 500 can
    # always crack a top-1), and without a registry no bound certifies —
    # those streams legitimately shed nothing, which is itself the
    # safety property at work.
    CASES = [
        pytest.param(
            GenericWorkload,
            {"seed": 5, "alphabet_size": 2},
            GENERIC_QUERY,
            2000,
            True,
            True,
            id="generic-k1",
        ),
        pytest.param(
            StockWorkload,
            {"seed": 11},
            STOCK_QUERY,
            1500,
            True,
            False,
            id="stock-k4",
        ),
        pytest.param(
            ClickstreamWorkload,
            {"seed": 3, "users": 12},
            FUNNEL_QUERY,
            1500,
            True,
            False,
            id="clickstream-k1",
        ),
        pytest.param(
            GenericWorkload,
            {"seed": 9, "alphabet_size": 3},
            GENERIC_QUERY,
            1200,
            False,
            False,
            id="generic-no-registry",
        ),
    ]

    @pytest.mark.parametrize(
        "workload_cls, kwargs, query, count, with_registry, expect_sheds",
        CASES,
    )
    def test_forced_exact_shedding_is_byte_identical(
        self, workload_cls, kwargs, query, count, with_registry, expect_sheds
    ):
        def events():
            return list(workload_cls(**kwargs).events(count))

        registry = (
            workload_cls(**kwargs).registry() if with_registry else None
        )
        _, baseline = run_engine(query, events(), registry=registry)
        controller = forced_exact()
        _, shedded = run_engine(
            query, events(), registry=registry, controller=controller
        )
        assert strict_fingerprint(shedded) == strict_fingerprint(baseline)
        assert [strict_match_fp(m) for m in shedded.final_ranking()] == [
            strict_match_fp(m) for m in baseline.final_ranking()
        ]
        # the controller did engage and at least looked at every event
        assert controller.stats.offered > 0
        if expect_sheds:
            assert controller.stats.shed_events_total > 0
        # exact mode never samples, so recall stays exactly 1.0
        assert controller.stats.shed_sampled_total == 0
        assert controller.recall_estimate == 1.0

    def test_bound_certified_sheds_fire_with_domains(self):
        # Tight schema domains are the precondition for score-bound
        # certificates (same as pruning): the generic workload's declared
        # value range makes many stage-0 events provably hopeless.
        workload = GenericWorkload(seed=5, alphabet_size=2)
        controller = forced_exact()
        run_engine(
            GENERIC_QUERY,
            workload.events(2000),
            registry=workload.registry(),
            controller=controller,
        )
        assert controller.stats.certified_total > 0

    def test_standby_controller_sheds_nothing(self):
        # Without overload (and without force) exact mode never elides.
        workload = GenericWorkload(seed=5, alphabet_size=2)
        controller = ShedController(policy="exact")
        _, handle = run_engine(
            GENERIC_QUERY,
            workload.events(500),
            registry=workload.registry(),
            controller=controller,
        )
        assert controller.stats.shed_events_total == 0
        assert handle.metrics.events_routed == 500


class TestAdaptiveAdmission:
    class FakeQuery:
        def __init__(self, classification, headroom=None, explode=False):
            self.classification = classification
            self.headroom = headroom
            self.explode = explode

        def shed_probe(self, event, seq_hint=None):
            if self.explode:
                raise RuntimeError("racing consumer")
            return self.classification, self.headroom

    def engaged_adaptive(self, rate=0.5, seed=2016):
        controller = ShedController(
            policy="adaptive", force=True, seed=seed
        )
        controller.drop_rate = rate
        return controller

    def test_protected_events_are_never_dropped(self):
        controller = self.engaged_adaptive(rate=0.95)
        probe = [self.FakeQuery(SHED_PROTECTED)]
        for i in range(200):
            assert controller.admit(Event("A", float(i)), probe) is True
        assert controller.stats.shed_events_total == 0
        assert controller.stats.protected_total == 200

    def test_safe_events_shed_preferentially(self):
        controller = self.engaged_adaptive(rate=0.25)
        safe = [self.FakeQuery(SHED_SAFE)]
        kept = sum(
            controller.admit(Event("A", float(i)), safe) for i in range(1000)
        )
        # boosted to min(1, 4 * 0.25) = 1.0: everything safe sheds
        assert kept == 0
        assert controller.stats.shed_safe_total == 1000
        assert controller.recall_estimate == 1.0  # safe sheds cost nothing

    def test_risky_uncertified_events_shed_reluctantly(self):
        plain = self.engaged_adaptive(rate=0.8, seed=1)
        risky = self.engaged_adaptive(rate=0.8, seed=1)
        plain_probe = [self.FakeQuery(SHED_UNCERTIFIED, headroom=None)]
        risky_probe = [self.FakeQuery(SHED_UNCERTIFIED, headroom=-5.0)]
        plain_drops = sum(
            not plain.admit(Event("A", float(i)), plain_probe)
            for i in range(1000)
        )
        risky_drops = sum(
            not risky.admit(Event("A", float(i)), risky_probe)
            for i in range(1000)
        )
        # risky events sample at rate * 0.25
        assert risky_drops < plain_drops / 2
        assert 0.0 < risky.recall_estimate < 1.0
        assert plain.recall_estimate == pytest.approx(
            1.0 - plain_drops / 1000
        )

    def test_probe_failure_demotes_to_uncertified(self):
        controller = self.engaged_adaptive(rate=1.0)
        # rate 1.0 would always shed a safe event; the exploding probe
        # must demote to uncertified, never promote to safe
        controller.admit(
            Event("A", 1.0), [self.FakeQuery(SHED_SAFE, explode=True)]
        )
        assert controller.stats.uncertified_offered == 1
        assert controller.stats.shed_safe_total == 0

    def test_decisions_are_deterministic_for_fixed_sequence(self):
        def run():
            controller = self.engaged_adaptive(rate=0.5, seed=7)
            probe = [self.FakeQuery(SHED_UNCERTIFIED)]
            return [
                controller.admit(Event("A", float(i)), probe)
                for i in range(100)
            ]

        assert run() == run()


class TestRunnerIntegration:
    def test_threaded_runner_off_policy_has_no_controller_overhead(self):
        engine = CEPREngine()
        runner = ThreadedEngineRunner(engine)
        assert engine.shed_controller is None
        assert runner.shed_stats_dict() is None
        prom = runner.metrics_registry().to_prometheus()
        assert "shed_events_total" not in prom

    def test_threaded_runner_adaptive_sheds_under_force(self):
        workload = GenericWorkload(seed=5, alphabet_size=2)
        controller = ShedController(policy="adaptive", force=True)
        controller.drop_rate = 0.9
        engine = CEPREngine(registry=workload.registry())
        handle = engine.register_query(GENERIC_QUERY)
        runner = ThreadedEngineRunner(
            engine, shed_policy="adaptive", shed_controller=controller
        )
        runner.start()
        try:
            for event in workload.events(1000):
                runner.submit(event)
        finally:
            runner.stop()  # drains the queue and flushes the engine
        assert controller.stats.shed_events_total > 0
        # dropped events never reached the engine
        assert handle.metrics.events_routed < 1000
        assert (
            handle.metrics.events_routed
            == 1000 - controller.stats.shed_events_total
        )
        doc = runner.shed_stats_dict()
        assert doc["policy"] == "adaptive"
        assert doc["stats"]["shed_events_total"] > 0
        prom = runner.metrics_registry().to_prometheus()
        assert "shed_events_total" in prom
        assert "shed_recall_estimate" in prom

    @pytest.mark.parametrize("shards", [1, 2])
    def test_sharded_exact_forced_is_identical_to_single_engine(
        self, shards
    ):
        workload_kwargs = {"seed": 5, "alphabet_size": 2}

        def events():
            return list(GenericWorkload(**workload_kwargs).events(1200))

        registry = GenericWorkload(**workload_kwargs).registry()
        _, baseline = run_engine(GENERIC_QUERY, events(), registry=registry)

        runner = ShardedEngineRunner(
            shards=shards,
            registry=registry,
            shed_policy="exact",
            shed_controller=forced_exact(),
        )
        view = runner.register_query(GENERIC_QUERY)
        runner.start()
        try:
            for event in events():
                runner.submit(event)
            runner.flush()
        finally:
            runner.stop()

        assert loose_fingerprint(view) == loose_fingerprint(baseline)
        stats = runner.shed_stats()
        assert stats.shed_events_total > 0
        assert stats.shed_sampled_total == 0
        doc = runner.shed_stats_dict()
        assert doc["stats"]["shed_events_total"] == stats.shed_events_total

    def test_sharded_adaptive_drops_before_the_shards(self):
        workload = GenericWorkload(seed=5, alphabet_size=2)
        controller = ShedController(policy="adaptive", force=True)
        controller.drop_rate = 0.9
        runner = ShardedEngineRunner(
            shards=2,
            registry=workload.registry(),
            shed_policy="adaptive",
            shed_controller=controller,
        )
        view = runner.register_query(GENERIC_QUERY)
        runner.start()
        try:
            for event in workload.events(1000):
                runner.submit(event)
            runner.flush()
        finally:
            runner.stop()
        assert controller.stats.shed_events_total > 0
        routed = runner.stats_by_query()[view.name]["events_routed"]
        assert routed == 1000 - controller.stats.shed_events_total
        prom = runner.metrics_registry().to_prometheus()
        assert "shed_events_total" in prom


class TestSanitizerCatchesFalseCertificate:
    def test_false_certificate_trips_certified_shed(self, monkeypatch):
        # Seeded defect: the probe certifies every event as safe.  The
        # CEPRSan certified-shed check re-derives safety independently
        # before each elide and must trip on the first unsafe one.
        monkeypatch.setattr(
            RegisteredQuery,
            "shed_probe",
            lambda self, event, seq_hint=None: (SHED_SAFE, 1.0),
        )
        workload = GenericWorkload(seed=5, alphabet_size=2)
        engine = CEPREngine(registry=workload.registry(), sanitize=True)
        engine.sanitizer._mode = "log"
        handle = engine.register_query(GENERIC_QUERY)
        controller = forced_exact()
        controller.invariant_checker = engine._invariants
        engine.shed_controller = controller
        for event in workload.events(300):
            engine.push(event)
        engine.flush()
        assert engine.sanitizer.trips["certified-shed"] > 0

    def test_clean_exact_run_never_trips(self):
        workload = GenericWorkload(seed=5, alphabet_size=2)
        engine = CEPREngine(registry=workload.registry(), sanitize=True)
        engine.sanitizer._mode = "log"
        engine.register_query(GENERIC_QUERY)
        controller = forced_exact()
        controller.invariant_checker = engine._invariants
        engine.shed_controller = controller
        for event in workload.events(1000):
            engine.push(event)
        engine.flush()
        assert engine.sanitizer.trips["certified-shed"] == 0
        assert controller.stats.certified_total > 0
