"""``cepr stats``/``top``/``trace --connect`` against a live server.

The remote-vs-replay differential: one event file goes through an
in-process :class:`~repro.serve.server.CEPRServer` (read back with
``--connect``) and through the CLI's own replay, and each command's JSON
must agree between the two — the same per-query counters, the same
non-timing cost-account fields, the same provenance for the last
emission.
"""

import io
import json

import pytest

from repro.cli import main
from repro.events.sources import JSONLSource, write_jsonl
from repro.runtime.runner import RunnerConfig
from repro.serve.client import CEPRClient
from repro.workloads.stock import StockWorkload

from .test_server import ServerHarness

QUERY = """
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol AND s.price > b.price
WITHIN 50 EVENTS
PARTITION BY symbol
RANK BY s.price - b.price DESC
LIMIT 3
EMIT ON WINDOW CLOSE
"""

# 401 events: the 401st closes the 50-event window holding event 400, so
# the server (never flushed) and the replay (flushed at the end) emit the
# same windows, the last one included.
EVENTS = 401

#: cost-account fields that measure time, not counts.
TIMING = {"cpu_seconds", "cpu_per_event_us"}


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def query_counters(stats_json: str) -> dict:
    """Per-query counter series, minus the stage profile (timed events
    depend on tracing, which keeps every query awake) and sink slots."""
    return {
        (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
        for row in json.loads(stats_json)["metrics"]
        if row["kind"] == "counter"
        and "query" in row["labels"]
        and row["name"] != "query_cpu_seconds_total"
        and not row["name"].startswith(("stage_", "sink_"))
    }


def counted_fields(top_json: str) -> list[dict]:
    return [
        {key: value for key, value in account.items() if key not in TIMING}
        for account in json.loads(top_json)["cost_accounts"]
    ]


def last_trace(trace_json: str) -> dict:
    """The last traced emission's provenance fields."""
    docs = json.loads(trace_json)
    doc = docs[-1] if isinstance(docs, list) else docs
    return {key: value for key, value in doc.items() if key not in ("remote", "text")}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every command's output, replayed and remote, over one event file."""
    root = tmp_path_factory.mktemp("remote")
    query = root / "q.ceprql"
    query.write_text(QUERY)
    events = root / "ticks.jsonl"
    write_jsonl(events, StockWorkload(seed=7).events(EVENTS))

    replay = {
        "stats": run_cli("stats", str(query), "--events", str(events), "--json"),
        "top": run_cli("top", str(query), "--events", str(events), "--json"),
        "trace": run_cli(
            "trace", str(query), "--events", str(events), "--query", "q", "--json"
        ),
    }
    with ServerHarness(
        queries={"q": QUERY}, runner=RunnerConfig(tracing=True)
    ) as harness:
        with CEPRClient(port=harness.port) as client:
            client.push_batch(list(JSONLSource(events)))
            client.sync()
        address = f"127.0.0.1:{harness.port}"
        remote = {
            "stats": run_cli("stats", "--connect", address, "--json"),
            "top": run_cli("top", "--connect", address, "--json"),
            "trace": run_cli(
                "trace", "--connect", address, "--query", "q", "--json"
            ),
            "watch": run_cli(
                "top", "--connect", address,
                "--watch", "--iterations", "2", "--refresh", "0.01",
            ),
            "stats_text": run_cli("stats", "--connect", address),
            "trace_text": run_cli("trace", "--connect", address, "--query", "q"),
        }
    for code, output in [*replay.values(), *remote.values()]:
        assert code == 0, output
    return {
        "replay": {name: output for name, (_, output) in replay.items()},
        "remote": {name: output for name, (_, output) in remote.items()},
    }


class TestRemoteMatchesReplay:
    def test_stats_per_query_counters_agree(self, outputs):
        replay = query_counters(outputs["replay"]["stats"])
        assert replay[("query_events_routed_total", (("query", "q"),))] == EVENTS
        assert query_counters(outputs["remote"]["stats"]) == replay

    def test_top_cost_accounts_agree(self, outputs):
        replay = counted_fields(outputs["replay"]["top"])
        assert [account["query"] for account in replay] == ["q"]
        assert replay[0]["emissions"] > 0
        assert counted_fields(outputs["remote"]["top"]) == replay

    def test_last_emission_provenance_agrees(self, outputs):
        replay = last_trace(outputs["replay"]["trace"])
        assert replay["query"] == "q" and replay["matches"]
        assert last_trace(outputs["remote"]["trace"]) == replay

    def test_top_watch_renders_each_refresh(self, outputs):
        assert outputs["remote"]["watch"].count("-- cepr top: 1 quer(ies)") == 2

    def test_text_renderings(self, outputs):
        assert "-- metrics (cepr) --" in outputs["remote"]["stats_text"]
        assert "serve_connections_total" in outputs["remote"]["stats_text"]
        text = outputs["remote"]["trace_text"]
        assert "emission window_close" in text and "query=q" in text
        assert "remote contexts: (none stamped)" in text
