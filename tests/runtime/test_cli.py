"""Tests for the command-line interface."""

import io
import json

import pytest

from repro import CEPREngine, Event
from repro.cli import main
from repro.events.sources import JSONLSource, write_jsonl
from repro.observability.flightrec import (
    install_flight_recorder,
    uninstall_flight_recorder,
)

QUERY = """
PATTERN SEQ(Buy b, Sell s)
WHERE b.symbol == s.symbol AND s.price > b.price
WITHIN 20 EVENTS
USING SKIP_TILL_ANY
RANK BY s.price - b.price DESC
LIMIT 2
EMIT ON WINDOW CLOSE
"""


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "trades.ceprql"
    path.write_text(QUERY)
    return path


@pytest.fixture
def events_file(tmp_path):
    path = tmp_path / "events.jsonl"
    rows = [
        {"type": "Buy", "timestamp": 1.0, "symbol": "X", "price": 10.0},
        {"type": "Sell", "timestamp": 2.0, "symbol": "X", "price": 15.0},
        {"type": "Sell", "timestamp": 3.0, "symbol": "X", "price": 12.0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestValidate:
    def test_valid_query_prints_plan(self, query_file):
        code, output = run_cli("validate", str(query_file))
        assert code == 0
        assert "evaluation plan:" in output
        assert "rank by: s.price - b.price DESC" in output
        assert "1 query file(s) valid" in output

    def test_invalid_query_fails(self, tmp_path):
        bad = tmp_path / "bad.ceprql"
        bad.write_text("PATTERN SEQ(")
        code, output = run_cli("validate", str(bad))
        assert code == 1
        assert "error:" in output

    def test_missing_file_fails(self, tmp_path):
        code, output = run_cli("validate", str(tmp_path / "nope.ceprql"))
        assert code == 1 and "error:" in output


class TestRun:
    def test_text_output(self, query_file, events_file):
        code, output = run_cli(
            "run", str(query_file), "--events", str(events_file)
        )
        assert code == 0
        assert "[trades]" in output
        assert "#1" in output
        assert "score=(5)" in output

    def test_jsonl_output_is_parseable(self, query_file, events_file):
        code, output = run_cli(
            "run", str(query_file), "--events", str(events_file), "--output", "jsonl"
        )
        assert code == 0
        records = [json.loads(line) for line in output.strip().splitlines()]
        assert records
        top = records[-1]["ranking"][0]
        assert top["query"] == "trades"
        assert top["rank_values"] == [5.0]
        assert top["bindings"]["b"]["symbol"] == "X"

    def test_stats_flag(self, query_file, events_file):
        code, output = run_cli(
            "run", str(query_file), "--events", str(events_file), "--stats"
        )
        assert code == 0
        assert "-- statistics --" in output
        assert "matches=2" in output

    def test_no_results_message(self, query_file, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, output = run_cli("run", str(query_file), "--events", str(empty))
        assert code == 0
        assert "(no results)" in output

    def test_csv_events(self, query_file, tmp_path):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text(
            "type,timestamp,symbol,price\n"
            "Buy,1.0,X,10.0\nSell,2.0,X,15.0\n"
        )
        code, output = run_cli("run", str(query_file), "--events", str(csv_path))
        assert code == 0 and "#1" in output

    def test_unsupported_event_format(self, query_file, tmp_path):
        bad = tmp_path / "events.parquet"
        bad.write_text("")
        code, output = run_cli("run", str(query_file), "--events", str(bad))
        assert code == 1 and "unsupported event file" in output

    def test_multiple_query_files(self, query_file, events_file, tmp_path):
        second = tmp_path / "all_sells.ceprql"
        second.write_text("PATTERN SEQ(Sell s)")
        code, output = run_cli(
            "run", str(query_file), str(second), "--events", str(events_file)
        )
        assert code == 0
        assert "[all_sells]" in output and "[trades]" in output

    def test_no_pruning_flag(self, query_file, events_file):
        code, _ = run_cli(
            "run", str(query_file), "--events", str(events_file), "--no-pruning"
        )
        assert code == 0


class TestDemo:
    @pytest.mark.parametrize("workload", ["stock", "vitals", "traffic", "generic"])
    def test_generates_jsonl(self, tmp_path, workload):
        out_path = tmp_path / "events.jsonl"
        code, output = run_cli(
            "demo", workload, "--events", "50", "--seed", "3", "--out", str(out_path)
        )
        assert code == 0
        assert "wrote 50" in output
        assert len(out_path.read_text().strip().splitlines()) == 50

    def test_demo_then_run_round_trip(self, tmp_path, query_file):
        out_path = tmp_path / "stock.jsonl"
        run_cli("demo", "stock", "--events", "500", "--out", str(out_path))
        code, output = run_cli(
            "run", str(query_file), "--events", str(out_path), "--stats"
        )
        assert code == 0
        assert "-- statistics --" in output


class TestRunSharded:
    PARTITIONED_QUERY = """
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 50 EVENTS
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
    """

    @pytest.fixture
    def partitioned_query_file(self, tmp_path):
        path = tmp_path / "partitioned.ceprql"
        path.write_text(self.PARTITIONED_QUERY)
        return path

    @pytest.fixture
    def stock_log(self, tmp_path):
        path = tmp_path / "stock.jsonl"
        code, _ = run_cli(
            "demo", "stock", "--events", "600", "--seed", "3", "--out", str(path)
        )
        assert code == 0
        return path

    def test_sharded_run_matches_single(self, partitioned_query_file, stock_log):
        """--shards N must not change the output: the merge stage keeps
        results identical to the single-engine run."""
        code_one, out_one = run_cli(
            "run", str(partitioned_query_file), "--events", str(stock_log),
            "--output", "jsonl",
        )
        code_four, out_four = run_cli(
            "run", str(partitioned_query_file), "--events", str(stock_log),
            "--output", "jsonl", "--shards", "4",
        )
        assert code_one == 0 and code_four == 0
        assert out_four == out_one

    def test_out_file_identical_on_every_run_backend(
        self, partitioned_query_file, stock_log, tmp_path
    ):
        """One run loop for every backend: a two-query program (a sharded
        tumbling query and a pass-through one) writes the same JSONL."""
        passthrough = tmp_path / "rebounds.ceprql"
        passthrough.write_text(
            "PATTERN SEQ(Buy b, Sell s) "
            "WHERE b.symbol == s.symbol AND s.price > b.price * 1.01 "
            "WITHIN 30 EVENTS PARTITION BY symbol"
        )
        written = {}
        for backend, shards in (("embedded", "1"), ("process", "2")):
            out = tmp_path / f"{backend}.jsonl"
            code, _ = run_cli(
                "run", str(partitioned_query_file), str(passthrough),
                "--events", str(stock_log), "--out", str(out),
                "--runner", backend, "--shards", shards,
            )
            assert code == 0
            written[backend] = out.read_bytes()
        queries = {
            match["query"]
            for line in written["embedded"].splitlines()
            for match in json.loads(line)["ranking"]
        }
        assert queries == {"partitioned", "rebounds"}
        assert written["process"] == written["embedded"]

    def test_sharded_stats_report_fleet_totals(
        self, partitioned_query_file, stock_log
    ):
        code, output = run_cli(
            "run", str(partitioned_query_file), "--events", str(stock_log),
            "--stats", "--shards", "2",
        )
        assert code == 0
        assert "-- statistics --" in output
        assert "events=600" in output

    def test_invalid_shards_rejected(self, partitioned_query_file, stock_log):
        code, output = run_cli(
            "run", str(partitioned_query_file), "--events", str(stock_log),
            "--shards", "0",
        )
        assert code == 1
        assert "error:" in output


def _replay_argv(command: str, query_file, events_file) -> list[str]:
    """A minimal valid invocation of one runner-flag command."""
    if command == "serve":
        return ["serve", str(query_file), "--port", "0"]
    source = "--log" if command == "backtest" else "--events"
    return [command, str(query_file), source, str(events_file)]


RUNNER_COMMANDS = ["run", "stats", "top", "backtest", "serve"]


class TestRunnerFlags:
    """``--shards``/``--runner``/``--no-pruning``/``--sanitize`` are one
    flag group, turned into one runner config: every command that has
    them rejects the same bad input with the same message."""

    @pytest.mark.parametrize("command", RUNNER_COMMANDS)
    def test_zero_shards_is_one_error(self, command, query_file, events_file):
        code, output = run_cli(
            *_replay_argv(command, query_file, events_file), "--shards", "0"
        )
        assert code == 1
        assert output == "error: shards must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", RUNNER_COMMANDS)
    @pytest.mark.parametrize("backend", ["embedded", "threaded"])
    def test_single_engine_runner_with_shards_is_one_error(
        self, command, backend, query_file, events_file
    ):
        code, output = run_cli(
            *_replay_argv(command, query_file, events_file),
            "--runner", backend, "--shards", "2",
        )
        assert code == 1
        assert output == (
            f"error: backend {backend!r} is single-engine; shards=2 needs "
            "backend 'process'\n"
        )

    def test_serve_tracing_on_a_fleet_exits_with_the_runner_error(
        self, query_file
    ):
        code, output = run_cli(
            "serve", str(query_file), "--port", "0", "--tracing", "--shards", "2"
        )
        assert code == 1
        assert output.startswith("error: backend 'process' does not support")
        assert "tracing" in output

    @pytest.mark.parametrize("command", ["stats", "top", "backtest"])
    def test_replay_commands_take_the_whole_group(
        self, command, query_file, events_file
    ):
        code, _ = run_cli(
            *_replay_argv(command, query_file, events_file),
            "--runner", "process", "--shards", "2", "--no-pruning",
        )
        assert code == 0


SCHEMA_JSON = """
{
  "Buy":  {"symbol": "str", "price": {"dtype": "float", "domain": [0, 10000]}},
  "Sell": {"symbol": "str", "price": "float"}
}
"""


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(SCHEMA_JSON)
    return path


class TestLint:
    def _write(self, tmp_path, text, name="q.ceprql"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_query_with_only_infos_passes(self, query_file):
        # The fixture query is unpartitioned: the shardability certificate
        # shows as info, which neither fails the lint nor counts as a problem.
        code, output = run_cli("lint", str(query_file))
        assert code == 0
        assert "CEPR401" in output
        assert "no problems" in output

    def test_clean_query(self, tmp_path):
        clean = self._write(
            tmp_path,
            "PATTERN SEQ(Buy a, Sell b) "
            "WHERE a.symbol == b.symbol AND b.price > a.price "
            "WITHIN 50 EVENTS PARTITION BY symbol "
            "RANK BY b.price - a.price DESC LIMIT 5 EMIT ON WINDOW CLOSE",
        )
        code, output = run_cli("lint", str(clean))
        assert code == 0
        assert f"{clean}: clean" in output
        assert "no problems" in output

    def test_error_sets_exit_code(self, tmp_path):
        bad = self._write(
            tmp_path, "PATTERN SEQ(Buy a) WHERE a.price > 10 AND a.price < 5"
        )
        code, output = run_cli("lint", str(bad))
        assert code == 1
        assert "CEPR201" in output
        assert "1 problem(s) (1 error(s), 0 warning(s))" in output

    def test_warnings_do_not_fail(self, tmp_path):
        warn = self._write(
            tmp_path, "PATTERN SEQ(Buy a) WHERE a.price > 5 AND a.price > 5"
        )
        code, output = run_cli("lint", str(warn))
        assert code == 0
        assert "CEPR305" in output
        assert "warning" in output

    def test_syntax_error_is_a_diagnostic(self, tmp_path):
        bad = self._write(tmp_path, "PATTERN SEQ(")
        code, output = run_cli("lint", str(bad))
        assert code == 1
        assert "CEPR001" in output

    def test_schema_enables_type_checks(self, tmp_path, schema_file):
        bad = self._write(tmp_path, "PATTERN SEQ(Buy a) WHERE a.sym == 'X'")
        code, without = run_cli("lint", str(bad))
        assert code == 0
        assert "CEPR101" not in without
        code, with_schema = run_cli(
            "lint", str(bad), "--schema", str(schema_file)
        )
        assert code == 1
        assert "CEPR101" in with_schema
        assert "declared attributes: price, symbol" in with_schema

    def test_json_output(self, tmp_path):
        bad = self._write(tmp_path, "PATTERN SEQ(Buy a, Sell b) WITHIN 1 EVENTS LIMIT 0")
        code, output = run_cli("lint", "--json", str(bad))
        assert code == 1
        payload = json.loads(output)
        assert payload[0]["file"] == str(bad)
        codes = [d["code"] for d in payload[0]["diagnostics"]]
        assert codes == ["CEPR303"]
        assert payload[0]["diagnostics"][0]["span"] == "LIMIT 0"

    def test_multiple_files_aggregate(self, tmp_path, query_file):
        bad = self._write(tmp_path, "PATTERN SEQ(", name="bad.ceprql")
        code, output = run_cli("lint", str(query_file), str(bad))
        assert code == 1
        assert str(query_file) in output
        assert "CEPR001" in output

    def test_bad_schema_file_reports_error(self, tmp_path, query_file):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, output = run_cli(
            "lint", str(query_file), "--schema", str(broken)
        )
        assert code == 1
        assert "error:" in output


class TestStartupDiagnostics:
    def test_run_prints_warnings_to_stderr(self, tmp_path, events_file, capsys):
        query = tmp_path / "warned.ceprql"
        query.write_text(
            "PATTERN SEQ(Buy a) WHERE a.price > 5 AND a.price > 5"
        )
        code, output = run_cli(
            "run", str(query), "--events", str(events_file), "--output", "jsonl"
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "CEPR305" in captured.err
        # results channel stays clean
        assert "CEPR305" not in output

    def test_clean_query_prints_nothing(self, query_file, events_file, capsys):
        code, _output = run_cli(
            "run", str(query_file), "--events", str(events_file)
        )
        assert code == 0
        assert capsys.readouterr().err == ""


class TestEmptyRankingIsNamed:
    """An emission whose ranking is empty still belongs to a query: the
    name comes from the subscription, not from the ranking's first match."""

    QA = "PATTERN SEQ(A a) WITHIN 3 EVENTS RANK BY a.x DESC LIMIT 2 EMIT EAGER"
    QB = (
        "PATTERN SEQ(A a) WHERE a.x > 100 WITHIN 3 EVENTS "
        "RANK BY a.x DESC LIMIT 2 EMIT EAGER"
    )

    @pytest.fixture
    def setup(self, tmp_path):
        qa, qb = tmp_path / "qa.ceprql", tmp_path / "qb.ceprql"
        qa.write_text(self.QA)
        qb.write_text(self.QB)
        xs = [5, None, 2, 3, 4, 200, 1, 1, 1, 1]
        events = [
            Event("B", float(t)) if x is None else Event("A", float(t), x=x)
            for t, x in enumerate(xs)
        ]
        path = tmp_path / "events.jsonl"
        write_jsonl(path, events)
        return str(qa), str(qb), str(path)

    def test_run_names_every_line(self, setup, tmp_path):
        qa, qb, events = setup
        code, text = run_cli("run", qa, qb, "--events", events)
        assert code == 0
        headers = [line for line in text.splitlines() if not line.startswith(" ")]
        assert headers and all(h.startswith(("[qa] ", "[qb] ")) for h in headers)
        assert "[qb] [eager rev=2 t=8]" in headers

        out = tmp_path / "out.jsonl"
        for argv in (("--output", "jsonl"), ("--out", str(out))):
            code, stdout = run_cli("run", qa, qb, "--events", events, *argv)
            assert code == 0
            text = out.read_text() if "--out" in argv else stdout
            records = [json.loads(line) for line in text.strip().splitlines()]
            assert {record["query"] for record in records} == {"qa", "qb"}
            emptied = [r for r in records if r["query"] == "qb" and not r["ranking"]]
            assert [(r["kind"], r["revision"], r["at_ts"]) for r in emptied] == [
                ("eager", 2, 8.0)
            ]
            for record in records:
                for match in record["ranking"]:
                    assert match["query"] == record["query"]

    def test_trace_keeps_the_empty_emission(self, setup):
        qa, qb, events = setup
        code, output = run_cli(
            "trace", qa, qb, "--events", events, "--query", "qb", "--all", "--json"
        )
        assert code == 0
        docs = json.loads(output)
        assert [doc["query"] for doc in docs] == ["qb", "qb"]
        assert [len(doc["matches"]) for doc in docs] == [1, 0]

    def test_flight_recorder_names_the_query(self, setup):
        _, _, events = setup
        recorder = install_flight_recorder()
        try:
            engine = CEPREngine()
            engine.register_query(self.QA, name="qa")
            engine.register_query(self.QB, name="qb")
            engine.run(JSONLSource(events), flush=False)
        finally:
            uninstall_flight_recorder()
        frames = [e for e in recorder.entries() if e["kind"] == "emission"]
        assert frames and all(frame["query"] in ("qa", "qb") for frame in frames)
        assert {"query": "qb", "matches": 0} in [
            {"query": f["query"], "matches": f["matches"]} for f in frames
        ]
