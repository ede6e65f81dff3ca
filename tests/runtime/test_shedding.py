"""Load-shedding tests: controller state machine, probe ladder, adaptive
admission and the runner integration.

That a ``SHED_SAFE`` verdict is sound — the claim ``shed_safe_total`` and
``recall_estimate`` rest on — is checked against ``process`` itself in
``tests/property/test_property_shedding.py``.
"""

import pytest

from repro import CEPREngine, Event
from repro.observability.pressure import PressureAssessor, PressureSample
from repro.runtime.concurrent import ThreadedEngineRunner
from repro.runtime.query import SHED_PROTECTED, SHED_SAFE, SHED_UNCERTIFIED
from repro.runtime.shedding import MAX_DROP_RATE, ShedController, ShedStats
from repro.workloads.generic import GenericWorkload

GENERIC_QUERY = """
    NAME spread
    PATTERN SEQ(A a, B b)
    WITHIN 25 EVENTS
    USING SKIP_TILL_ANY
    RANK BY b.value - a.value DESC
    LIMIT 1
    EMIT ON WINDOW CLOSE
"""


def forced_adaptive():
    return ShedController(policy="adaptive", force=True)


class TestShedStats:
    def test_recall_estimate(self):
        assert ShedStats().recall_estimate == 1.0
        stats = ShedStats(uncertified_offered=10, uncertified_shed=3)
        assert stats.recall_estimate == pytest.approx(0.7)

    def test_to_dict(self):
        doc = ShedStats(offered=3, certified_total=2).to_dict()
        assert doc["offered"] == 3
        assert doc["certified_total"] == 2
        assert doc["recall_estimate"] == 1.0


class TestControllerStateMachine:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="policy"):
            ShedController(policy="sometimes")
        with pytest.raises(ValueError, match=r"off\|adaptive"):
            ShedController(policy="exact")
        with pytest.raises(ValueError, match="latency_target"):
            ShedController(policy="adaptive", latency_target=0.0)

    def test_off_policy_is_inert(self):
        controller = ShedController(policy="off")
        controller.control(PressureSample(ingest_lag_seconds=100.0), 100.0)
        assert not controller.engaged
        assert not controller.adaptive_active
        assert controller.admit(Event("A", 1.0), []) is True

    def test_force_engages_without_pressure(self):
        controller = forced_adaptive()
        assert controller.engaged
        assert controller.adaptive_active
        controller.control(PressureSample(), 0.0)
        assert controller.engaged  # force holds through recovery ticks

    def test_engages_on_overload_and_disengages_on_recovery(self):
        assessor = PressureAssessor(smoothing=1.0)
        controller = ShedController(policy="adaptive", assessor=assessor)
        assert not controller.engaged
        controller.control(0.9)
        assert controller.engaged
        assert controller.stats.engagements == 1
        # hysteresis: mid-band pressure keeps it engaged
        controller.control(0.6)
        assert controller.engaged
        # recovery unwinds the drop rate before letting go
        for _ in range(5):
            controller.control(0.1)
        assert not controller.engaged

    def test_lag_above_target_engages_even_when_pressure_is_low(self):
        controller = ShedController(policy="adaptive", latency_target=0.5)
        controller.control(PressureSample(), lag_seconds=2.0)
        assert controller.engaged
        for _ in range(5):
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
        controller = forced_adaptive()
        doc = controller.to_dict()
        assert doc["policy"] == "adaptive"
        assert doc["engaged"] is True
        assert doc["stats"]["shed_events_total"] == 0
        assert "pressure" in doc
        assert controller.describe().startswith("shed[adaptive]=engaged")


class TestShedProbeLadder:
    def setup_method(self):
        self.workload = GenericWorkload(seed=5, alphabet_size=2)
        self.engine = CEPREngine(registry=self.workload.registry())
        self.handle = self.engine.register_query(GENERIC_QUERY)

    def test_irrelevant_type_is_safe(self):
        classification, headroom = self.handle.pipeline.shed_probe(
            Event("Zz", 1.0, value=1.0, group=0)
        )
        assert classification is SHED_SAFE
        assert headroom is None

    def test_non_initial_type_is_safe_when_no_state(self):
        # B can only extend an existing run; with none live it is inert
        classification, _ = self.handle.pipeline.shed_probe(
            Event("B", 1.0, value=1.0, group=0)
        )
        assert classification is SHED_SAFE

    def test_live_partial_run_protects_consumable_event(self):
        self.engine.push(Event("A", 1.0, value=1.0, group=0))
        classification, _ = self.handle.pipeline.shed_probe(
            Event("B", 2.0, value=50.0, group=0)
        )
        assert classification is SHED_PROTECTED

    def test_stage0_without_pruner_is_uncertified(self):
        engine = CEPREngine(enable_pruning=False)
        handle = engine.register_query(GENERIC_QUERY)
        classification, headroom = handle.pipeline.shed_probe(
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
        classification, headroom = self.handle.pipeline.shed_probe(
            Event("A", 3.0, value=99.0, group=0), seq_hint=at
        )
        assert classification is SHED_SAFE
        assert headroom is not None and headroom > 0
        # ceiling of A(10) is 90 > 50: could dethrone the champion
        classification, headroom = self.handle.pipeline.shed_probe(
            Event("A", 3.5, value=10.0, group=0), seq_hint=at
        )
        assert classification is SHED_UNCERTIFIED
        assert headroom is not None


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
        assert runner.shed_stats_dict() is None
        prom = runner.metrics_registry().to_prometheus()
        assert "shed_events_total" not in prom

    def test_threaded_runner_adaptive_sheds_under_force(self):
        workload = GenericWorkload(seed=5, alphabet_size=2)
        controller = ShedController(policy="adaptive", force=True)
        controller.drop_rate = 0.9
        engine = CEPREngine(registry=workload.registry())
        handle = engine.register_query(GENERIC_QUERY)
        runner = ThreadedEngineRunner(engine, shed_controller=controller)
        runner.start()
        try:
            for event in workload.events(1000):
                runner.submit(event)
        finally:
            runner.stop()  # drains the queue and flushes the engine
        assert controller.stats.shed_events_total > 0
        # dropped events never reached the engine
        assert handle.pipeline.metrics.events_routed < 1000
        assert (
            handle.pipeline.metrics.events_routed
            == 1000 - controller.stats.shed_events_total
        )
        doc = runner.shed_stats_dict()
        assert doc["policy"] == "adaptive"
        assert doc["stats"]["shed_events_total"] > 0
        prom = runner.metrics_registry().to_prometheus()
        assert "shed_events_total" in prom
        assert "shed_recall_estimate" in prom
