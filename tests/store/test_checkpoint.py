"""Unit tests for the atomic checkpoint store."""

import json
import math
import zlib
from unittest import mock

import pytest

from repro.events import jsonsafe
from repro.store.checkpoint import (
    CheckpointError,
    CheckpointStore,
    Position,
)


class TestSaveAndLoad:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        state = {"a": 1, "nested": {"xs": [1.5, 2.5]}, "s": "text"}
        path = store.save(state, Position(10, 9, 3.5))
        assert path.exists()
        checkpoint = store.latest()
        assert checkpoint.position == Position(10, 9, 3.5)
        assert checkpoint.state == state
        assert store.saves == 1
        assert store.loads == 1

    def test_empty_directory(self, tmp_path):
        assert CheckpointStore(tmp_path).latest() is None

    def test_directory_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        CheckpointStore(nested)
        assert nested.is_dir()

    def test_latest_picks_highest_position(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"n": 1}, Position(100, 99, 1.0))
        store.save({"n": 2}, Position(250, 249, 2.0))
        store.save({"n": 3}, Position(90, 89, 0.5))
        assert store.latest().state == {"n": 2}

    def test_nonfinite_and_tuple_state(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(
            {"x": float("-inf"), "y": float("nan"), "t": (1, 2)},
            Position(1, 0, 0.0),
        )
        checkpoint = store.latest()
        assert checkpoint.state["x"] == -math.inf
        assert math.isnan(checkpoint.state["y"])
        assert checkpoint.state["t"] == [1, 2]  # tuples come back as lists
        json.loads(
            checkpoint.path.read_text(),
            parse_constant=lambda name: pytest.fail(
                f"non-strict JSON literal {name!r} on disk"
            ),
        )

    def test_state_is_written_in_its_own_key_order_under_a_canonical_checksum(
        self, tmp_path
    ):
        """The document holds the state as encoded once, in its own key
        order (a restored payload prints in arrival order); the checksum is
        the CRC of its canonical, key-sorted encoding, the rule every
        reader of this format verifies."""
        store = CheckpointStore(tmp_path)
        state = {"z": {"price": 1.5, "symbol": "X"}, "a": [math.inf, 2]}
        path = store.save(state, Position(1, 0, 0.0))
        document = json.loads(path.read_text())
        assert list(document["state"]) == ["z", "a"]
        assert list(document["state"]["z"]) == ["price", "symbol"]
        canonical = json.dumps(
            document["state"], allow_nan=False, sort_keys=True, separators=(",", ":")
        )
        assert document["checksum"] == zlib.crc32(canonical.encode("utf-8"))
        assert list(store.latest().state["z"]) == ["price", "symbol"]

    def test_a_finite_state_is_never_copied(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with mock.patch.object(jsonsafe, "sanitize", wraps=jsonsafe.sanitize) as walk:
            store.save({"x": [1.0, 2]}, Position(1, 0, 0.0))
            assert not walk.called
            store.save({"x": [math.nan, 2]}, Position(2, 1, 0.0))
            assert walk.called
        assert math.isnan(store.latest().state["x"][0])

    def test_negative_position_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="events_consumed"):
            store.save({}, Position(-1, 0, 0.0))

    def test_keep_validated(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(tmp_path, keep=0)


class TestCorruptionFallback:
    def test_torn_newest_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"n": 1}, Position(100, 99, 1.0))
        newest = store.save({"n": 2}, Position(200, 199, 2.0))
        newest.write_text(newest.read_text()[:-40])  # torn disk write
        checkpoint = store.latest()
        assert checkpoint.state == {"n": 1}
        assert store.invalid_skipped == 1

    def test_tampered_state_fails_checksum(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save({"n": 1}, Position(1, 0, 0.0))
        document = json.loads(path.read_text())
        document["state"]["n"] = 42
        path.write_text(json.dumps(document))
        assert store.latest() is None
        assert store.invalid_skipped == 1

    def test_unknown_version_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save({"n": 1}, Position(1, 0, 0.0))
        document = json.loads(path.read_text())
        document["version"] = 999
        path.write_text(json.dumps(document))
        assert store.latest() is None

    def test_foreign_file_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / "checkpoint-000000000007.json").write_text('{"not": "ours"}')
        assert store.latest() is None
        assert store.invalid_skipped == 1


class TestRetention:
    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for i in range(5):
            store.save({"n": i}, Position(i, i, float(i)))
        assert len(list(tmp_path.glob("checkpoint-*.json"))) == 2
        assert store.latest().state == {"n": 4}
        assert store.pruned == 3

    def test_stray_temp_ignored_and_cleaned(self, tmp_path):
        store = CheckpointStore(tmp_path)
        stray = tmp_path / "checkpoint-000000000999.json.tmp"
        stray.write_text("partial write")
        assert store.latest() is None
        store.save({"n": 1}, Position(1, 0, 0.0))
        assert not stray.exists()


class TestObservability:
    def test_metrics_registered(self, tmp_path):
        from repro.observability.registry import MetricsRegistry

        store = CheckpointStore(tmp_path)
        store.save({"n": 1}, Position(1, 0, 0.0))
        store.latest()
        registry = MetricsRegistry()
        store.register_metrics(registry)
        samples = {s.name: s for s in registry.collect()}
        assert samples["checkpoint_saves_total"].value == 1.0
        assert samples["checkpoint_loads_total"].value == 1.0
        assert samples["checkpoint_last_save_bytes"].value > 0
        assert samples["checkpoint_save_seconds"].count == 1
