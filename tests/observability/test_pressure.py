"""Pressure signal unit tests: saturation math and hysteresis.

Everything here is pure — the runner/serve integration is exercised in
the runtime and serve suites; this file pins the arithmetic the
composite score and the ok/overloaded state machine are built from.
"""

import pytest

from repro.observability.pressure import (
    DEFAULT_ENTER_THRESHOLD,
    DEFAULT_EXIT_THRESHOLD,
    PressureAssessor,
    PressureSample,
)


class TestSample:
    def test_components_are_saturations(self):
        sample = PressureSample(
            ingest_lag_seconds=2.5,
            queue_depth=30,
            queue_capacity=100,
            subscriber_depth=9,
            subscriber_capacity=10,
        )
        parts = sample.components(lag_budget=5.0)
        assert parts["lag"] == pytest.approx(0.5)
        assert parts["queue"] == pytest.approx(0.3)
        assert parts["subscriber"] == pytest.approx(0.9)
        assert sample.score(lag_budget=5.0) == pytest.approx(0.9)

    def test_components_clamp_to_unit_interval(self):
        sample = PressureSample(
            ingest_lag_seconds=50.0, queue_depth=500, queue_capacity=100
        )
        parts = sample.components(lag_budget=5.0)
        assert parts["lag"] == 1.0
        assert parts["queue"] == 1.0
        assert sample.score() == 1.0

    def test_zero_capacity_reads_as_no_pressure(self):
        # an unbounded (or absent) queue cannot be saturated
        sample = PressureSample(queue_depth=10, queue_capacity=0)
        assert sample.components()["queue"] == 0.0
        assert sample.score() == 0.0

    def test_to_dict_has_components_and_score(self):
        doc = PressureSample(queue_depth=5, queue_capacity=10).to_dict()
        assert doc["queue_depth"] == 5
        assert doc["components"]["queue"] == pytest.approx(0.5)
        assert doc["score"] == pytest.approx(0.5)

    def test_to_dict_honours_lag_budget(self):
        # Regression: to_dict used to hardcode the default lag budget, so
        # an assessor tuned to a 2s budget exported components/score that
        # disagreed with its own overload decision.
        sample = PressureSample(ingest_lag_seconds=1.0)
        assert sample.to_dict(lag_budget=2.0)["components"]["lag"] == (
            pytest.approx(0.5)
        )
        assert sample.to_dict(lag_budget=2.0)["score"] == pytest.approx(0.5)
        # default budget (5s) still applies when none is passed
        assert sample.to_dict()["components"]["lag"] == pytest.approx(0.2)


class TestAssessor:
    def test_ewma_is_deterministic(self):
        assessor = PressureAssessor(smoothing=0.5)
        assert assessor.observe(1.0) == pytest.approx(0.5)
        assert assessor.observe(1.0) == pytest.approx(0.75)
        assert assessor.observe(0.0) == pytest.approx(0.375)

    def test_accepts_samples_and_scores(self):
        assessor = PressureAssessor(smoothing=1.0, lag_budget=5.0)
        level = assessor.observe(
            PressureSample(ingest_lag_seconds=2.5)
        )
        assert level == pytest.approx(0.5)

    def test_raw_scores_are_clamped(self):
        assessor = PressureAssessor(smoothing=1.0)
        assert assessor.observe(7.5) == 1.0
        assert assessor.observe(-3.0) == 0.0

    def test_hysteresis_does_not_flap(self):
        assessor = PressureAssessor(smoothing=1.0)
        # sit exactly between exit (0.5) and enter (0.75): never overloaded
        for _ in range(10):
            assessor.observe(0.6)
        assert assessor.state == "ok"
        assert assessor.transitions == 0

        assessor.observe(0.9)
        assert assessor.state == "overloaded"
        assert assessor.transitions == 1
        # dipping below enter but above exit keeps the overloaded state
        for _ in range(10):
            assessor.observe(0.6)
        assert assessor.state == "overloaded"
        assert assessor.transitions == 1

        assessor.observe(0.1)
        assert assessor.state == "ok"
        assert assessor.transitions == 2
        assert not assessor.overloaded

    def test_default_thresholds(self):
        assessor = PressureAssessor()
        assert assessor.enter_threshold == DEFAULT_ENTER_THRESHOLD == 0.75
        assert assessor.exit_threshold == DEFAULT_EXIT_THRESHOLD == 0.5

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            PressureAssessor(smoothing=0.0)
        with pytest.raises(ValueError, match="smoothing"):
            PressureAssessor(smoothing=1.5)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError, match="thresholds"):
            PressureAssessor(enter_threshold=0.4, exit_threshold=0.6)
        with pytest.raises(ValueError, match="thresholds"):
            PressureAssessor(enter_threshold=1.4)

    def test_describe_and_to_dict(self):
        assessor = PressureAssessor(smoothing=1.0)
        assessor.observe(0.8)
        assert assessor.describe() == "pressure=0.80 [overloaded]"
        doc = assessor.to_dict()
        assert doc["state"] == "overloaded"
        assert doc["level"] == pytest.approx(0.8)
        assert doc["transitions"] == 1
