"""Flight recorder unit tests: ring accounting, artifacts, arming.

The recorder is a black box in the aviation sense — it must never grow
past its byte budget, must survive any crash path long enough to write
one JSON artifact, and must be safe to leave armed in production.  The
sanitizer integration test at the bottom closes the loop: a tripped
invariant both records an entry and dumps an artifact.
"""

import json
import math
import os

import pytest

from repro.observability.flightrec import (
    ARTIFACT_PREFIX,
    ARTIFACT_VERSION,
    DEFAULT_BYTE_BUDGET,
    FlightRecorder,
    current,
    dump_if_armed,
    install_flight_recorder,
    list_artifacts,
    load_artifact,
    uninstall_flight_recorder,
)


@pytest.fixture(autouse=True)
def _disarm():
    """Never leak an armed module-level recorder between tests."""
    uninstall_flight_recorder()
    yield
    uninstall_flight_recorder()


class TestRing:
    def test_records_and_decodes_entries(self):
        recorder = FlightRecorder(byte_budget=4096)
        recorder.record("push", seq=1, query="spread")
        recorder.record("emission", seq=2)
        entries = recorder.entries()
        assert [entry["kind"] for entry in entries] == ["push", "emission"]
        assert entries[0]["seq"] == 1
        assert entries[0]["query"] == "spread"
        assert "ts" in entries[0]
        assert recorder.recorded == 2
        assert recorder.dropped == 0

    def test_never_exceeds_byte_budget(self):
        budget = 2048
        recorder = FlightRecorder(byte_budget=budget)
        for i in range(500):
            recorder.record("tick", seq=i, payload="x" * 40)
            assert recorder.bytes_used <= budget
        assert recorder.recorded == 500
        # eviction is oldest-first: the tail of the stream survives
        seqs = [entry["seq"] for entry in recorder.entries()]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 499
        assert len(seqs) < 500

    def test_oversized_entry_is_dropped_not_stored(self):
        recorder = FlightRecorder(byte_budget=256)
        recorder.record("small", seq=1)
        kept = recorder.bytes_used
        recorder.record("huge", blob="y" * 10_000)
        assert recorder.dropped == 1
        assert recorder.bytes_used == kept
        assert [entry["kind"] for entry in recorder.entries()] == ["small"]

    def test_default_budget(self):
        assert FlightRecorder().byte_budget == DEFAULT_BYTE_BUDGET == 256 * 1024


class TestArtifacts:
    def test_dump_writes_parseable_artifact(self, tmp_path):
        recorder = FlightRecorder(byte_budget=4096)
        recorder.record("push", seq=1)
        recorder.record("crash", detail="boom")
        path = recorder.dump("unit-test", directory=tmp_path)
        assert path.name.startswith(ARTIFACT_PREFIX)
        assert path.parent == tmp_path
        assert recorder.dumps_written == 1

        doc = load_artifact(path)
        assert doc["version"] == ARTIFACT_VERSION
        assert doc["reason"] == "unit-test"
        assert doc["pid"] == os.getpid()
        assert doc["byte_budget"] == 4096
        assert doc["recorded"] == 2
        assert [entry["kind"] for entry in doc["entries"]] == ["push", "crash"]

    def test_dump_uses_configured_directory(self, tmp_path):
        recorder = FlightRecorder(byte_budget=1024, directory=tmp_path)
        recorder.record("tick")
        path = recorder.dump("configured")
        assert path.parent == tmp_path

    def test_artifact_is_plain_json(self, tmp_path):
        recorder = FlightRecorder(byte_budget=1024)
        recorder.record("tick", seq=7)
        path = recorder.dump("raw", directory=tmp_path)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["entries"][0]["seq"] == 7

    def test_non_finite_values_stay_strict_json_and_load_back(self, tmp_path):
        recorder = FlightRecorder(byte_budget=1024)
        recorder.record("push", price=math.nan, bound=-math.inf)
        path = recorder.dump("nonfinite", directory=tmp_path)
        json.loads(
            path.read_text(encoding="utf-8"),
            parse_constant=lambda name: pytest.fail(f"non-strict JSON literal {name!r}"),
        )
        entry = load_artifact(path)["entries"][0]
        assert math.isnan(entry["price"]) and entry["bound"] == -math.inf
        assert math.isnan(recorder.entries()[0]["price"])

    def test_list_artifacts_sorted(self, tmp_path):
        recorder = FlightRecorder(byte_budget=1024)
        recorder.record("tick")
        first = recorder.dump("one", directory=tmp_path)
        second = recorder.dump("two", directory=tmp_path)
        found = list_artifacts(tmp_path)
        assert found == sorted(found)
        assert set(found) == {first, second}

    def test_load_artifact_rejects_garbage(self, tmp_path):
        bogus = tmp_path / f"{ARTIFACT_PREFIX}bogus.json"
        bogus.write_text(json.dumps({"version": 999, "entries": []}))
        with pytest.raises(ValueError):
            load_artifact(bogus)


class TestModuleArming:
    def test_install_current_uninstall(self, tmp_path):
        assert current() is None
        recorder = install_flight_recorder(
            byte_budget=1024, directory=tmp_path
        )
        assert current() is recorder
        uninstall_flight_recorder()
        assert current() is None

    def test_dump_if_armed_noop_when_unarmed(self, tmp_path):
        assert dump_if_armed("nothing", tmp_path) is None
        assert list_artifacts(tmp_path) == []

    def test_dump_if_armed_writes_when_armed(self, tmp_path):
        install_flight_recorder(byte_budget=1024, directory=tmp_path)
        current().record("tick")
        path = dump_if_armed("armed")
        assert path is not None
        assert load_artifact(path)["reason"] == "armed"

    def test_dump_if_armed_directory_override(self, tmp_path):
        install_flight_recorder(byte_budget=1024, directory=tmp_path / "a")
        override = tmp_path / "b"
        override.mkdir()
        path = dump_if_armed("routed", override)
        assert path.parent == override


class TestSanitizerIntegration:
    def test_trip_records_and_dumps(self, tmp_path):
        from repro.sanitize.core import Sanitizer, SanitizerError

        install_flight_recorder(byte_budget=4096, directory=tmp_path)
        sanitizer = Sanitizer(scope="test", mode="raise")
        with pytest.raises(SanitizerError):
            sanitizer.trip("unit-check", "synthetic failure", detail=42)

        entries = current().entries()
        assert any(
            entry["kind"] == "sanitizer_trip"
            and entry["message"] == "synthetic failure"
            and entry["detail"] == 42
            for entry in entries
        )
        artifacts = list_artifacts(tmp_path)
        assert len(artifacts) == 1
        doc = load_artifact(artifacts[0])
        assert doc["reason"] == "sanitizer-unit-check"

    def test_log_mode_records_without_dump(self, tmp_path):
        from repro.sanitize.core import Sanitizer

        install_flight_recorder(byte_budget=4096, directory=tmp_path)
        sanitizer = Sanitizer(scope="test", mode="log")
        sanitizer.trip("unit-check", "soft failure")
        assert any(
            entry["kind"] == "sanitizer_trip"
            for entry in current().entries()
        )
        assert list_artifacts(tmp_path) == []
