"""CLI tests for the observability commands: ``stats`` and ``trace``."""

import io
import json

import pytest

from repro.cli import main
from repro.events.sources import write_jsonl
from repro.workloads.clickstream import ClickstreamWorkload
from repro.workloads.sensor import VitalsWorkload
from repro.workloads.stock import StockWorkload

QUERY = """
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol AND s.price > b.price
WITHIN 50 EVENTS
PARTITION BY symbol
RANK BY s.price - b.price DESC
LIMIT 3
EMIT ON WINDOW CLOSE
"""


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "spread.ceprql"
    path.write_text(QUERY)
    return path


@pytest.fixture
def stock_events(tmp_path):
    path = tmp_path / "ticks.jsonl"
    write_jsonl(path, StockWorkload(seed=7).events(400))
    return path


class TestStats:
    def test_default_text_table(self, query_file, stock_events):
        code, output = run_cli(
            "stats", str(query_file), "--events", str(stock_events)
        )
        assert code == 0
        assert "-- metrics (cepr) --" in output
        assert "events_pushed_total 400" in output
        assert "query_matches_total{query=spread}" in output
        assert "latency_seconds{query=spread} count=400" in output

    def test_prometheus_exposition(self, query_file, stock_events):
        code, output = run_cli(
            "stats", str(query_file), "--events", str(stock_events), "--prom"
        )
        assert code == 0
        # Structural validity of the exposition format: every non-comment
        # line is `name{labels} value` with a parseable float value, and
        # every series is preceded by a # TYPE header for its family.
        families = set()
        for line in output.splitlines():
            if line.startswith("# TYPE "):
                _, _, family, kind = line.split(" ")
                assert kind in ("counter", "gauge", "summary")
                families.add(family)
                continue
            if line.startswith("#"):
                continue
            name_part, _, value_part = line.rpartition(" ")
            float(value_part)  # must parse
            series = name_part.split("{")[0]
            base = series
            for suffix in ("_sum", "_count"):
                if series.endswith(suffix) and series[: -len(suffix)] in families:
                    base = series[: -len(suffix)]
            assert base in families, line
        assert "cepr_events_pushed_total 400" in output
        assert 'cepr_query_matches_total{query="spread"}' in output
        assert 'cepr_latency_seconds{quantile="0.99",query="spread"}' in output
        assert 'cepr_stage_seconds_total{query="spread",stage="match"}' in output

    def test_json_export(self, query_file, stock_events):
        code, output = run_cli(
            "stats", str(query_file), "--events", str(stock_events), "--json"
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["namespace"] == "cepr"
        by_series = {
            (row["name"], tuple(sorted(row["labels"].items()))): row
            for row in payload["metrics"]
        }
        assert by_series[("events_pushed_total", ())]["value"] == 400.0
        latency = by_series[("latency_seconds", (("query", "spread"),))]
        assert latency["count"] == 400

    def test_sharded_stats_match_single_engine_counters(
        self, query_file, stock_events
    ):
        _, single = run_cli(
            "stats", str(query_file), "--events", str(stock_events), "--json"
        )
        _, sharded = run_cli(
            "stats",
            str(query_file),
            "--events",
            str(stock_events),
            "--shards",
            "4",
            "--json",
        )

        def counters(payload):
            return {
                (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
                for row in json.loads(payload)["metrics"]
                if row["kind"] == "counter"
                and row["name"].startswith(("query_", "runs_", "events_pushed"))
                # cpu totals are measured wall time, not event counts:
                # exact equality across topologies is not a property
                and "cpu_seconds" not in row["name"]
            }

        single_counters = counters(single)
        sharded_counters = {
            key: value
            for key, value in counters(sharded).items()
            if key in single_counters
        }
        assert sharded_counters == single_counters
        assert 'shard_events_processed_total' in sharded

    def test_watch_renders_monitor_then_exports(self, query_file, stock_events):
        code, output = run_cli(
            "stats",
            str(query_file),
            "--events",
            str(stock_events),
            "--watch",
            "--refresh",
            "0.01",
            "--prom",
        )
        assert code == 0
        assert "CEPR monitor" in output
        assert "cepr_events_pushed_total 400" in output

    def test_watch_sharded(self, query_file, stock_events):
        code, output = run_cli(
            "stats",
            str(query_file),
            "--events",
            str(stock_events),
            "--shards",
            "2",
            "--watch",
            "--refresh",
            "0.01",
        )
        assert code == 0
        assert "CEPR monitor" in output
        assert "shard 0" in output
        assert "-- metrics (cepr) --" in output

    def test_invalid_shards_rejected(self, query_file, stock_events):
        code, output = run_cli(
            "stats", str(query_file), "--events", str(stock_events),
            "--shards", "0",
        )
        assert code == 1
        assert "error:" in output


WORKLOAD_QUERIES = {
    "stock": (
        StockWorkload,
        """
        PATTERN SEQ(Buy b, Sell s)
        WHERE b.symbol == s.symbol AND s.price > b.price
        WITHIN 50 EVENTS
        PARTITION BY symbol
        RANK BY s.price - b.price DESC
        LIMIT 3
        EMIT ON WINDOW CLOSE
        """,
    ),
    "sensor": (
        VitalsWorkload,
        """
        PATTERN SEQ(HeartRate a, HeartRate b)
        WHERE b.value > a.value
        WITHIN 100 EVENTS
        PARTITION BY patient
        RANK BY b.value DESC
        LIMIT 3
        EMIT ON WINDOW CLOSE
        """,
    ),
    "clickstream": (
        ClickstreamWorkload,
        """
        PATTERN SEQ(AddToCart c, Purchase p)
        WHERE p.user == c.user
        WITHIN 200 EVENTS
        PARTITION BY user
        RANK BY c.value DESC
        LIMIT 3
        EMIT ON WINDOW CLOSE
        """,
    ),
}


class TestTrace:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
    def test_provenance_reconstructed_per_workload(self, tmp_path, name):
        workload_cls, query = WORKLOAD_QUERIES[name]
        events = tmp_path / f"{name}.jsonl"
        write_jsonl(events, workload_cls(seed=11).events(600))
        query_path = tmp_path / f"{name}.ceprql"
        query_path.write_text(query)

        code, output = run_cli("trace", str(query_path), "--events", str(events))
        assert code == 0, output
        # full provenance of at least one emission: header, ranked match
        # with its bound events, rank keys, and span totals
        assert "emission window_close" in output
        assert f"query={name}" in output
        assert "#1 detection=" in output
        assert "  events:" in output
        assert "  rank keys:" in output
        assert "en route: " in output
        assert "query span totals:" in output
        assert "route=" in output

    def test_json_output(self, tmp_path):
        workload_cls, query = WORKLOAD_QUERIES["stock"]
        events = tmp_path / "ticks.jsonl"
        write_jsonl(events, workload_cls(seed=3).events(300))
        query_path = tmp_path / "stock.ceprql"
        query_path.write_text(query)

        code, output = run_cli(
            "trace", str(query_path), "--events", str(events),
            "--emission", "0", "--json",
        )
        assert code == 0
        (trace,) = json.loads(output)
        assert trace["query"] == "stock"
        assert trace["matches"]
        best = trace["matches"][0]
        assert {event["variable"] for event in best["events"]} == {"b", "s"}
        assert best["rank_keys"][0]["direction"] == "DESC"
        assert best["competition"].get("run_create", 0) >= 1
        assert trace["span_counts"]["route"] == 300

    def test_all_emissions(self, tmp_path):
        workload_cls, query = WORKLOAD_QUERIES["stock"]
        events = tmp_path / "ticks.jsonl"
        write_jsonl(events, workload_cls(seed=3).events(300))
        query_path = tmp_path / "stock.ceprql"
        query_path.write_text(query)

        code, output = run_cli(
            "trace", str(query_path), "--events", str(events), "--all"
        )
        assert code == 0
        assert output.count("emission window_close") >= 2

    def test_no_emissions_exits_nonzero(self, tmp_path, query_file):
        events = tmp_path / "empty.jsonl"
        events.write_text("")
        code, output = run_cli(
            "trace", str(query_file), "--events", str(events)
        )
        assert code == 1
        assert "(no emissions to trace)" in output

    def test_emission_index_out_of_range(self, tmp_path, query_file, stock_events):
        code, output = run_cli(
            "trace", str(query_file), "--events", str(stock_events),
            "--emission", "999",
        )
        assert code == 1
        assert "out of range" in output

    def test_unknown_query_name_rejected(self, query_file, stock_events):
        code, output = run_cli(
            "trace", str(query_file), "--events", str(stock_events),
            "--query", "nope",
        )
        assert code == 1
        assert "does not name a registered query" in output

    def test_query_filter_selects_one_query(self, tmp_path, stock_events):
        first = tmp_path / "spread.ceprql"
        first.write_text(QUERY)
        second = tmp_path / "volume.ceprql"
        second.write_text(
            """
            PATTERN SEQ(Buy b)
            WHERE b.volume > 0
            WITHIN 50 EVENTS
            PARTITION BY symbol
            RANK BY b.volume DESC
            LIMIT 1
            EMIT ON WINDOW CLOSE
            """
        )
        code, output = run_cli(
            "trace", str(first), str(second),
            "--events", str(stock_events), "--query", "volume",
        )
        assert code == 0
        assert "query=volume" in output
        assert "query=spread" not in output


class TestTop:
    def test_replay_renders_ranked_table(self, query_file, stock_events):
        code, output = run_cli(
            "top", str(query_file), "--events", str(stock_events)
        )
        assert code == 0
        assert "-- cepr top: 1 quer(ies) by cost --" in output
        assert "QUERY" in output and "CPU(ms)" in output
        assert "spread" in output

    def test_replay_json(self, query_file, stock_events):
        code, output = run_cli(
            "top", str(query_file), "--events", str(stock_events), "--json"
        )
        assert code == 0
        doc = json.loads(output)
        assert [acc["query"] for acc in doc["cost_accounts"]] == ["spread"]
        account = doc["cost_accounts"][0]
        assert account["events_routed"] == 400
        assert "cpu_per_event_us" in account
        # a bare replay engine has no ingest queue to be pressured
        assert doc["pressure"] is None

    def test_sharded_replay_reports_no_pressure(self, query_file, stock_events):
        code, output = run_cli(
            "top", str(query_file), "--events", str(stock_events),
            "--shards", "2", "--json",
        )
        assert code == 0
        doc = json.loads(output)
        assert doc["cost_accounts"][0]["events_routed"] == 400
        # a fleet has no ingest queue to be pressured, and sheds nothing
        assert doc["pressure"] is None and doc["shedding"] is None

    def test_ranking_is_most_expensive_first(self, tmp_path, stock_events):
        hot = tmp_path / "hot.ceprql"
        hot.write_text(QUERY)
        cold = tmp_path / "cold.ceprql"
        cold.write_text(
            """
            PATTERN SEQ(Never n)
            WITHIN 50 EVENTS
            RANK BY n.price DESC
            LIMIT 1
            EMIT ON WINDOW CLOSE
            """
        )
        code, output = run_cli(
            "top", str(hot), str(cold),
            "--events", str(stock_events), "--json",
        )
        assert code == 0
        doc = json.loads(output)
        ranked = [acc["query"] for acc in doc["cost_accounts"]]
        assert set(ranked) == {"hot", "cold"}
        costs = [acc["cpu_seconds"] for acc in doc["cost_accounts"]]
        assert costs == sorted(costs, reverse=True)

    def test_requires_events_or_connect(self, query_file):
        code, output = run_cli("top", str(query_file))
        assert code == 1
        assert "error:" in output

    def test_connect_excludes_replay_arguments(self, query_file, stock_events):
        code, output = run_cli(
            "top", str(query_file), "--events", str(stock_events),
            "--connect", "127.0.0.1:1",
        )
        assert code == 1
        assert "error:" in output

    def test_watch_requires_connect(self, query_file, stock_events):
        code, output = run_cli(
            "top", str(query_file), "--events", str(stock_events), "--watch"
        )
        assert code == 1
        assert "error:" in output


class TestFlightrecCLI:
    @pytest.fixture
    def artifact_dir(self, tmp_path):
        from repro.observability.flightrec import FlightRecorder

        recorder = FlightRecorder(byte_budget=8192)
        recorder.record("push", seq=1, query="spread")
        recorder.record("emission", seq=2, query="spread")
        recorder.dump("unit-test", directory=tmp_path)
        return tmp_path

    def test_list_shows_artifacts(self, artifact_dir):
        code, output = run_cli("flightrec", "list", "--dir", str(artifact_dir))
        assert code == 0
        assert "reason=unit-test" in output
        assert "entries=2" in output

    def test_list_empty_dir_exits_nonzero(self, tmp_path):
        code, output = run_cli("flightrec", "list", "--dir", str(tmp_path))
        assert code == 1
        assert "no flight-recorder artifacts" in output

    def test_show_newest_renders_entries(self, artifact_dir):
        code, output = run_cli("flightrec", "show", "--dir", str(artifact_dir))
        assert code == 0
        assert "reason=unit-test" in output
        assert "push" in output and "emission" in output

    def test_show_tail_limits_entries(self, artifact_dir):
        code, output = run_cli(
            "flightrec", "show", "--dir", str(artifact_dir), "--tail", "1"
        )
        assert code == 0
        assert "emission" in output
        assert "seq=1" not in output

    def test_show_json_round_trips(self, artifact_dir):
        code, output = run_cli(
            "flightrec", "show", "--dir", str(artifact_dir), "--json"
        )
        assert code == 0
        doc = json.loads(output)
        assert doc["reason"] == "unit-test"
        assert len(doc["entries"]) == 2
