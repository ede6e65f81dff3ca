"""Command-line interface: ``python -m repro <command>``.

Ten commands:

* ``validate`` — parse and analyse a query file, print its evaluation plan.
* ``lint`` — statically analyse query files and report coded diagnostics
  (type errors, unsatisfiable predicates, unused bindings, shardability);
  ``--json`` for machine-readable output, ``--schema registry.json`` to
  enable schema-aware checks.  Exits non-zero when any error is found.
* ``run`` — evaluate one or more query files over a recorded event stream
  (JSONL or CSV), printing ranked results as text or JSON lines.
* ``serve`` — expose queries over TCP (``repro.serve``): clients push
  events and subscribe to ranked emissions through the frame protocol
  documented in docs/SERVING.md; SIGTERM drains gracefully.
* ``stats`` — export the metrics registry as Prometheus text
  (``--prom``), JSON (``--json``), or a plain table; ``--watch`` renders
  the live monitor (with the composite pressure score) while the replay
  runs.
* ``top`` — per-query cost accounts ranked most-expensive-first (CPU,
  routed events); ``--watch`` refreshes a remote ranking.
* ``trace`` — the full provenance of an emission (events bound per
  variable, rank keys, the run-lifecycle competition that led to it, the
  trace contexts clients stamped on its events; docs/OBSERVABILITY.md).
  ``stats``, ``top`` and ``trace`` each obtain one document — a replay
  of the query files over ``--events``, or the reply of a running
  ``serve`` instance (``--connect HOST:PORT``) — and render it one way.
* ``flightrec`` — inspect black-box flight-recorder artifacts (``list``,
  ``show``) or signal a running ``serve --flightrec`` process to dump one
  on demand (``dump``).
* ``backtest`` — replay a time slice of a recorded event log against one
  or more candidate queries and compare their result counts.
* ``demo`` — generate a seeded synthetic workload to a JSONL file, for use
  with ``run``/``backtest``.

``run``, ``stats``, ``trace``, and ``backtest`` report analyzer warnings
for each query through :mod:`repro.observability.log` at startup (stderr
by default; results on stdout are unaffected).  ``--log-json`` switches
all operational logging to JSON lines.

Examples::

    python -m repro demo stock --events 10000 --out ticks.jsonl
    python -m repro lint query.ceprql --schema registry.json
    python -m repro run query.ceprql --events ticks.jsonl
    python -m repro stats query.ceprql --events ticks.jsonl --prom
    python -m repro trace query.ceprql --events ticks.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import partial
from pathlib import Path
from typing import Iterable, TextIO

from repro.events.event import Event
from repro.events.jsonsafe import dumps
from repro.events.sources import CSVSource, JSONLSource, write_jsonl
from repro.language.errors import CEPRError
from repro.observability.instruments import stats_document
from repro.observability.log import configure_logging, get_logger
from repro.observability.tracing import trace_document
from repro.ranking.emission import Emission
from repro.runtime.engine import CEPREngine
from repro.runtime.serialize import emission_to_json
from repro.workloads.clickstream import ClickstreamWorkload
from repro.workloads.generic import GenericWorkload
from repro.workloads.sensor import VitalsWorkload
from repro.workloads.stock import StockWorkload
from repro.workloads.traffic import TrafficWorkload

_log = get_logger(__name__)

_WORKLOADS = {
    "clickstream": ClickstreamWorkload,
    "stock": StockWorkload,
    "vitals": VitalsWorkload,
    "traffic": TrafficWorkload,
    "generic": GenericWorkload,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CEPR: ranked pattern matching over event streams",
        # Abbreviation would make subcommand options like `backtest --log`
        # ambiguous against the global --log-* flags during classification.
        allow_abbrev=False,
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="operational log threshold (default: warning)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit operational logs as JSON lines instead of text",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="parse a query file and print its evaluation plan"
    )
    validate.add_argument("query_files", nargs="+", type=Path)

    lint = commands.add_parser(
        "lint", help="statically analyse query files and report diagnostics"
    )
    lint.add_argument("query_files", nargs="*", type=Path)
    lint.add_argument(
        "--schema",
        type=Path,
        default=None,
        help="JSON schema registry enabling type and domain checks",
    )
    lint.add_argument(
        "--self",
        dest="self_lint",
        action="store_true",
        help="lint the CEPR codebase itself for project-rule violations "
        "(CEPR6xx; see docs/SANITIZER.md)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit diagnostics as JSON instead of text",
    )

    run = commands.add_parser("run", help="run queries over a recorded stream")
    run.add_argument("query_files", nargs="+", type=Path)
    run.add_argument(
        "--events", required=True, type=Path, help="JSONL or CSV event file"
    )
    run.add_argument(
        "--output",
        choices=("text", "jsonl"),
        default="text",
        help="result rendering (default: text)",
    )
    run.add_argument(
        "--stats", action="store_true", help="print per-query statistics at the end"
    )
    _add_runner_flags(run)
    run.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write emissions as JSON lines to PATH instead of stdout "
        "(appends when resuming)",
    )
    run.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist crash-recovery checkpoints to DIR (see docs/RECOVERY.md)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=1000,
        metavar="N",
        help="checkpoint every N consumed events (default: 1000; "
        "requires --checkpoint-dir)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest valid checkpoint in --checkpoint-dir, "
        "skipping the already-consumed prefix of --events",
    )
    _add_flightrec_flags(run)

    serve = commands.add_parser(
        "serve", help="serve queries over TCP (see docs/SERVING.md)"
    )
    serve.add_argument("query_files", nargs="*", type=Path)
    serve.add_argument(
        "--query-file",
        action="append",
        type=Path,
        default=None,
        metavar="PATH",
        help="additional query file (repeatable; merged with positionals)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=7654,
        help="TCP port to listen on (0 picks a free port; default: 7654)",
    )
    _add_runner_flags(serve)
    serve.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist crash-recovery checkpoints to DIR",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1000,
        metavar="N",
        help="checkpoint every N ingested events (default: 1000)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="restore the latest valid checkpoint in --checkpoint-dir at start",
    )
    serve.add_argument(
        "--max-frame-bytes",
        type=int,
        default=None,
        metavar="N",
        help="reject inbound frames larger than N bytes (default: 4 MiB)",
    )
    serve.add_argument(
        "--read-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-frame payload timeout; idle connections are fine "
        "(default: 30)",
    )
    serve.add_argument(
        "--subscriber-queue",
        type=int,
        default=256,
        metavar="N",
        help="bound of each connection's outbound emission queue "
        "(default: 256)",
    )
    serve.add_argument(
        "--slow-consumer",
        choices=("disconnect", "drop"),
        default="disconnect",
        help="policy when a subscriber's queue is full (default: disconnect)",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="merge-release cadence for --shards > 1 (default: 0.05)",
    )
    serve.add_argument(
        "--shed-policy",
        choices=("off", "adaptive"),
        default="off",
        help="overload load-shedding policy (see docs/SHEDDING.md): "
        "adaptive samples rank-weighted drops toward --latency-target "
        "(default: off)",
    )
    serve.add_argument(
        "--latency-target",
        type=float,
        default=None,
        metavar="SECONDS",
        help="ingest-lag budget the shedding controller steers toward "
        "(default: 1.0; only meaningful with --shed-policy)",
    )
    serve.add_argument(
        "--tracing",
        action="store_true",
        help="enable span tracing on the engine so TRACE requests include "
        "run-lifecycle competition tallies (--shards 1 only)",
    )
    _add_flightrec_flags(serve)

    stats = commands.add_parser(
        "stats", help="replay a stream and export engine metrics"
    )
    stats.add_argument("query_files", nargs="*", type=Path)
    stats.add_argument(
        "--events", type=Path, default=None, help="JSONL or CSV event file"
    )
    stats.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="fetch metrics from a running `serve` instance instead of "
        "replaying (query files and --events are not needed)",
    )
    _add_runner_flags(stats)
    stats_format = stats.add_mutually_exclusive_group()
    stats_format.add_argument(
        "--prom",
        action="store_true",
        help="export as Prometheus text exposition (version 0.0.4)",
    )
    stats_format.add_argument(
        "--json",
        action="store_true",
        help="export as a JSON document",
    )
    stats.add_argument(
        "--watch",
        action="store_true",
        help="render the live monitor while the replay runs",
    )
    stats.add_argument(
        "--refresh",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="monitor refresh interval for --watch (default: 0.5)",
    )

    top = commands.add_parser(
        "top", help="rank queries by measured cost (CPU, events, runs)"
    )
    top.add_argument("query_files", nargs="*", type=Path)
    top.add_argument(
        "--events", type=Path, default=None, help="JSONL or CSV event file"
    )
    top.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="rank the live cost accounts of a running `serve` instance "
        "instead of replaying",
    )
    _add_runner_flags(top)
    top.add_argument(
        "--json",
        action="store_true",
        help="emit the ranked accounts as a JSON document",
    )
    top.add_argument(
        "--watch",
        action="store_true",
        help="with --connect: refresh the ranking until interrupted",
    )
    top.add_argument(
        "--refresh",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh interval for --watch (default: 1.0)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="with --watch: stop after N refreshes (default: run forever)",
    )

    flightrec = commands.add_parser(
        "flightrec",
        help="inspect or trigger black-box flight-recorder artifacts",
    )
    flightrec_commands = flightrec.add_subparsers(
        dest="flightrec_command", required=True
    )
    flightrec_list = flightrec_commands.add_parser(
        "list", help="list artifacts in a directory, oldest first"
    )
    flightrec_list.add_argument(
        "--dir", type=Path, required=True, metavar="DIR",
        help="directory holding cepr-flightrec-*.json artifacts",
    )
    flightrec_show = flightrec_commands.add_parser(
        "show", help="print one artifact (most recent when unnamed)"
    )
    flightrec_show.add_argument(
        "artifact", nargs="?", type=Path, default=None,
        help="artifact path (default: newest in --dir)",
    )
    flightrec_show.add_argument(
        "--dir", type=Path, default=None, metavar="DIR",
        help="directory to pick the newest artifact from",
    )
    flightrec_show.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="only print the last N ring entries",
    )
    flightrec_show.add_argument(
        "--json", action="store_true",
        help="print the raw artifact document",
    )
    flightrec_dump = flightrec_commands.add_parser(
        "dump",
        help="ask a running `serve --flightrec` process (SIGUSR2) to dump",
    )
    flightrec_dump.add_argument(
        "--pid", type=int, required=True, help="server process id"
    )
    flightrec_dump.add_argument(
        "--dir", type=Path, default=None, metavar="DIR",
        help="artifact directory to wait on (prints the new artifact path)",
    )
    flightrec_dump.add_argument(
        "--wait", type=float, default=5.0, metavar="SECONDS",
        help="how long to wait for the artifact with --dir (default: 5)",
    )

    trace = commands.add_parser(
        "trace", help="replay a stream and print emission provenance"
    )
    trace.add_argument("query_files", nargs="*", type=Path)
    trace.add_argument(
        "--events", type=Path, default=None, help="JSONL or CSV event file"
    )
    trace.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="trace an emission on a running `serve` instance (needs "
        "--query; includes client-stamped remote trace contexts)",
    )
    trace.add_argument(
        "--query",
        default=None,
        metavar="NAME",
        help="only trace emissions of this query (default: all queries; "
        "required with --connect)",
    )
    trace_select = trace.add_mutually_exclusive_group()
    trace_select.add_argument(
        "--emission",
        type=int,
        default=-1,
        metavar="INDEX",
        help="which emission to trace, 0-based; negatives count from the "
        "end (default: -1, the last)",
    )
    trace_select.add_argument(
        "--all", action="store_true", help="trace every emission"
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit traces as JSON instead of text",
    )

    backtest = commands.add_parser(
        "backtest", help="replay a slice of a recorded event log"
    )
    backtest.add_argument("query_files", nargs="+", type=Path)
    backtest.add_argument(
        "--log", required=True, type=Path, help="JSONL event log (see `demo`)"
    )
    backtest.add_argument("--start", type=float, default=None, help="slice start ts")
    backtest.add_argument("--end", type=float, default=None, help="slice end ts")
    _add_runner_flags(backtest)

    demo = commands.add_parser("demo", help="generate a synthetic workload")
    demo.add_argument("workload", choices=sorted(_WORKLOADS))
    demo.add_argument("--events", type=int, default=10_000)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--out", required=True, type=Path)

    return parser


def _add_runner_flags(command: argparse.ArgumentParser) -> None:
    """The runner flags of every command that replays or serves a stream
    (turned into one config by :func:`_runner_config`)."""
    command.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run partitioned queries across N worker processes "
        "(default: 1); serve's dynamic REGISTER needs one",
    )
    command.add_argument(
        "--runner",
        choices=("embedded", "threaded", "process"),
        default=None,
        help="execution backend (default: embedded, or process when "
        "--shards > 1; serve and stats --watch run one engine threaded); "
        "process runs shards as worker processes "
        "(see docs/PROCESS_RUNNER.md)",
    )
    command.add_argument(
        "--no-pruning",
        action="store_true",
        help="disable score-bound pruning (ablation)",
    )
    command.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the CEPRSan invariant sanitizer, and under serve the "
        "event-loop watchdog (equivalent to CEPR_SANITIZE=1; see "
        "docs/SANITIZER.md)",
    )


def _add_flightrec_flags(command: argparse.ArgumentParser) -> None:
    from repro.observability.flightrec import DEFAULT_BYTE_BUDGET

    command.add_argument(
        "--flightrec",
        action="store_true",
        help="arm the black-box flight recorder: a crash (or SIGUSR2 under "
        "serve) dumps a postmortem artifact to --checkpoint-dir "
        "(see docs/OBSERVABILITY.md)",
    )
    command.add_argument(
        "--flightrec-budget",
        type=int,
        default=DEFAULT_BYTE_BUDGET,
        metavar="BYTES",
        help="byte budget of the flight-recorder ring "
        f"(default: {DEFAULT_BYTE_BUDGET})",
    )


def main(argv: list[str] | None = None, out: TextIO = sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_lines=args.log_json)
    try:
        if args.command == "validate":
            return _cmd_validate(args, out)
        if args.command == "lint":
            return _cmd_lint(args, out)
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "stats":
            return _cmd_stats(args, out)
        if args.command == "top":
            return _cmd_top(args, out)
        if args.command == "flightrec":
            return _cmd_flightrec(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
        if args.command == "backtest":
            return _cmd_backtest(args, out)
        return _cmd_demo(args, out)
    except BrokenPipeError:
        # downstream consumer (e.g. `| head`) closed the pipe: not an error
        return 0
    except CEPRError as exc:
        print(f"error: {exc}", file=out)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace, out: TextIO) -> int:
    engine = CEPREngine()
    for path in args.query_files:
        handle = engine.register_query(path.read_text(), name=path.stem)
        print(f"-- {path} --", file=out)
        print(handle.explain(), file=out)
    print(f"{len(args.query_files)} query file(s) valid", file=out)
    return 0


def _cmd_lint(args: argparse.Namespace, out: TextIO) -> int:
    from repro.events.schema import load_registry
    from repro.language.analysis import Severity, lint_text

    registry = load_registry(args.schema) if args.schema is not None else None
    if not args.query_files and not args.self_lint:
        raise ValueError("lint requires query files and/or --self")
    reports = []
    errors = warnings = 0
    for path in args.query_files:
        diagnostics = lint_text(path.read_text(), registry)
        reports.append((path, diagnostics))
        errors += sum(1 for d in diagnostics if d.severity is Severity.ERROR)
        warnings += sum(1 for d in diagnostics if d.severity is Severity.WARNING)
    if args.self_lint:
        from repro.sanitize.selflint import run_selflint

        diagnostics = run_selflint()
        reports.append(("self (src/repro)", diagnostics))
        errors += sum(1 for d in diagnostics if d.severity is Severity.ERROR)
        warnings += sum(1 for d in diagnostics if d.severity is Severity.WARNING)

    if args.json:
        payload = [
            {"file": str(path), "diagnostics": [d.to_dict() for d in diags]}
            for path, diags in reports
        ]
        print(json.dumps(payload, indent=2), file=out)
        return 1 if errors else 0

    for path, diags in reports:
        if not diags:
            print(f"{path}: clean", file=out)
            continue
        print(f"{path}:", file=out)
        for diagnostic in diags:
            print("  " + diagnostic.format().replace("\n", "\n  "), file=out)
    total = errors + warnings
    if total:
        print(f"{total} problem(s) ({errors} error(s), {warnings} warning(s))", file=out)
    else:
        print("no problems", file=out)
    return 1 if errors else 0


def _report_diagnostics(label: str, diagnostics) -> None:
    """Log non-info analyzer findings (stdout carries results only)."""
    import logging

    from repro.language.analysis import Severity

    for diagnostic in diagnostics:
        if diagnostic.severity is Severity.INFO:
            continue
        level = (
            logging.ERROR
            if diagnostic.severity is Severity.ERROR
            else logging.WARNING
        )
        _log.log(
            level,
            "%s: %s [%s] %s",
            label,
            diagnostic.code,
            diagnostic.span,
            diagnostic.message,
        )


def _read_queries(paths: list[Path]) -> dict[str, str]:
    """``{file stem: query text}``, each file's lint findings reported."""
    from repro.language.analysis import lint_text

    queries: dict[str, str] = {}
    for path in paths:
        if path.stem in queries:
            raise ValueError(f"duplicate query name {path.stem!r} ({path})")
        queries[path.stem] = path.read_text()
        _report_diagnostics(str(path), lint_text(queries[path.stem]))
    return queries


def _load_events(path: Path) -> Iterable[Event]:
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return JSONLSource(path)
    if suffix == ".csv":
        return CSVSource(path)
    raise ValueError(f"unsupported event file {path}: expected .jsonl or .csv")


def _runner_config(args: argparse.Namespace, queue: bool = False, **fields):
    """The shared runner flags (plus command-specific ``fields``) as one
    resolved :class:`~repro.runtime.runner.RunnerConfig`; ``queue`` asks
    for an ingest queue in front of a single engine."""
    from repro.runtime.config import (
        RunnerConfig,
        queue_backed,
        reject_ignored_shards,
        resolve,
    )

    if args.sanitize:
        from repro.sanitize import enable_sanitizer

        enable_sanitizer()
    config = RunnerConfig(
        backend=args.runner,
        shards=args.shards,
        enable_pruning=not args.no_pruning,
        **fields,
    )
    reject_ignored_shards(config)
    return queue_backed(config) if queue else resolve(config)


def _install_flightrec(args: argparse.Namespace) -> None:
    """Arm the process-wide flight recorder when ``--flightrec`` was given.

    Artifacts land in ``--checkpoint-dir`` when set (postmortems next to
    the state they describe), else the working directory.
    """
    if not getattr(args, "flightrec", False):
        return
    from repro.observability.flightrec import install_flight_recorder

    install_flight_recorder(
        byte_budget=args.flightrec_budget,
        directory=getattr(args, "checkpoint_dir", None),
    )


class _RunOutput:
    """``cepr run``'s output: one line per emission, naming the query it
    was delivered to (also when its ranking is empty) — ``[query] ...``
    as text, or the emission's JSON with a top-level ``"query"``
    (``--output jsonl``, and the ``--out`` file, opened at its first line)."""

    def __init__(self, args: argparse.Namespace, out: TextIO) -> None:
        self._args = args
        self._out: TextIO | None = out if args.out is None else None
        self.lines = 0

    def write(self, query: str, emission: Emission) -> None:
        args = self._args
        if self._out is None:
            self._out = open(args.out, "a" if args.resume else "w")
        if args.out is None and args.output == "text":
            line = f"[{query}] {emission.describe()}"
        else:
            line = dumps({"query": query, **emission_to_json(emission)})
        print(line, file=self._out)
        self.lines += 1

    def close(self) -> None:
        if self._args.out is not None and self._out is not None:
            self._out.close()


def _cmd_run(args: argparse.Namespace, out: TextIO) -> int:
    from repro.store.checkpoint import Recovery

    config = _runner_config(args)
    recovery = Recovery(args.checkpoint_dir, args.checkpoint_every, args.resume)
    _install_flightrec(args)
    # The output is the only sink: the engine keeps no emission history.
    runner = _replay_runner(args, config, collect_results=False)
    output = _RunOutput(args, out)
    for handle in runner.queries():
        runner.subscribe(handle.name, partial(output.write, handle.name))

    runner.start()
    try:
        position = recovery.restore(runner.restore)
        skip = position.events_consumed if position is not None else 0
        consumed = 0
        for event in _load_events(args.events):
            consumed += 1
            if consumed <= skip:
                continue
            runner.submit(event)
            if recovery.due(consumed - 1, consumed):
                recovery.save(runner.snapshot(), consumed)
        runner.flush()
    except BaseException:
        # A failure mid-stream must behave like a crash: stop() would
        # flush, emitting partial-window results the resumed run will
        # produce again.  Tear the runner down without flushing instead.
        from repro.observability.flightrec import dump_if_armed

        dump_if_armed("run-crash")
        runner.kill()
        raise
    finally:
        runner.stop()  # no-op after flush() or kill()
        output.close()
    if args.stats:
        _print_stats(runner.stats_by_query(), out, runner.shared_stats())
        _print_sanitizer_stats(runner.sanitizer_trips(), out)
        _print_checkpoint_stats(recovery.store, out)
    if output.lines == 0 and args.output == "text" and args.out is None:
        print("(no results)", file=out)
    return 0


def _cmd_serve(args: argparse.Namespace, out: TextIO) -> int:
    import asyncio

    from repro.serve.protocol import DEFAULT_MAX_FRAME_BYTES
    from repro.serve.server import CEPRServer

    config = _runner_config(
        args,
        queue=True,
        tracing=args.tracing or None,
        shed_policy=args.shed_policy,
        latency_target=args.latency_target,
    )
    _install_flightrec(args)

    queries = _read_queries(list(args.query_files) + list(args.query_file or []))
    server = CEPRServer(
        queries,
        runner=config,
        host=args.host,
        port=args.port,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        max_frame_bytes=(
            args.max_frame_bytes
            if args.max_frame_bytes is not None
            else DEFAULT_MAX_FRAME_BYTES
        ),
        read_timeout=args.read_timeout,
        outbound_queue=args.subscriber_queue,
        slow_consumer=args.slow_consumer,
        poll_interval=args.poll_interval,
    )

    def on_ready(ready: CEPRServer) -> None:
        print(
            f"cepr serve: listening on {ready.host}:{ready.bound_port} "
            f"({len(queries)} queries, runner={ready.runner_config.backend}, "
            f"shards={ready.runner_config.shards})",
            file=out,
        )
        out.flush()

    asyncio.run(server.serve(on_ready=on_ready))
    stats = server.stats
    print(
        f"cepr serve: drained "
        f"(events={stats.events_ingested} "
        f"emissions={stats.emissions_fanned_out} "
        f"connections={stats.connections_total})",
        file=out,
    )
    return 0


def _print_sanitizer_stats(trips: dict | None, out: TextIO) -> None:
    """One `--stats` line for CEPRSan (silent when the sanitizer is off)."""
    if trips is None:
        return
    detail = " ".join(
        f"{check}={count}" for check, count in sorted(trips.items())
    )
    total = sum(trips.values())
    print(f"  sanitizer: trips={total}" + (f" ({detail})" if detail else ""),
          file=out)


def _print_checkpoint_stats(store, out: TextIO) -> None:
    if store is None:
        return
    print(
        f"  checkpoints: saves={store.saves} loads={store.loads} "
        f"invalid_skipped={store.invalid_skipped} "
        f"last_bytes={store.last_save_bytes}",
        file=out,
    )


def _print_stats(
    stats_by_query: dict, out: TextIO, shared: dict | None = None
) -> None:
    print("-- statistics --", file=out)
    for name, stats in stats_by_query.items():
        print(
            f"  {name}: events={stats['events_routed']:.0f} "
            f"matches={stats['matches']:.0f} "
            f"emissions={stats['emissions']:.0f} "
            f"pruned={stats['runs_pruned']:.0f}",
            file=out,
        )
    if shared:
        print(
            f"  shared: query_groups={shared['query_groups']} "
            f"evals_saved={shared['predicate_evals_saved']} "
            f"events_gated={shared['events_gated']}",
            file=out,
        )


@contextlib.contextmanager
def _documents(args: argparse.Namespace, replay, ask):
    """Yield ``fetch()``, the command's document: ``replay()`` over the
    query files and ``--events``, or ``ask(client)`` of the ``--connect``
    server (one connection for every fetch)."""
    if args.connect is None:
        if args.events is None:
            raise ValueError(
                f"{args.command} requires --events (or --connect HOST:PORT)"
            )
        if not args.query_files:
            raise ValueError(f"{args.command} requires at least one query file")
        yield replay
        return
    if args.events is not None or args.query_files:
        raise ValueError(
            "--connect talks to a running server; "
            "query files and --events do not apply"
        )
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"--connect expects HOST:PORT, got {args.connect!r}")
    from repro.serve.client import CEPRClient

    with CEPRClient(host=host, port=int(port)) as client:
        yield partial(ask, client)


def _ask_stats(client) -> dict:
    return client.stats()


def _cmd_stats(args: argparse.Namespace, out: TextIO) -> int:
    if args.connect is not None and args.watch:
        raise ValueError("--connect does not support --watch")
    with _documents(args, partial(_stats_replay, args, out), _ask_stats) as fetch:
        doc = fetch()
    _export_metrics(doc, args, out)
    return 0


def _replay_runner(
    args: argparse.Namespace, config, collect_results: bool = True
):
    """A ``config`` runner over ``args.query_files`` (diagnostics
    reported), unstarted.  ``collect_results=False`` keeps a bare engine
    from holding every emission (the fleets' merge stage keeps its own).
    """
    from repro.language.analysis import run_analysis
    from repro.runtime.runner import create_runner

    runner = create_runner(config=config)
    register = runner.register_query
    if isinstance(runner, CEPREngine):
        register = partial(register, collect_results=collect_results)
    for path in args.query_files:
        handle = register(path.read_text(), name=path.stem)
        _report_diagnostics(str(path), run_analysis(handle.analyzed))
    return runner


def _stats_replay(args: argparse.Namespace, out: TextIO) -> dict:
    """Replay the events file; the STATS document as of the final flush
    (``stats --watch`` renders the monitor meanwhile)."""
    # Watch mode runs a single engine as `threaded` (the monitor header
    # shows its queue pressure alongside throughput; a fleet has none);
    # plain replay stays embedded.
    runner = _replay_runner(args, _runner_config(args, queue=args.watch))
    runner.start()
    try:
        if args.watch:
            _watch_replay(runner, runner.submit, _load_events(args.events),
                          args.refresh, out)
        else:
            runner.submit_all(_load_events(args.events))
        runner.flush()
    finally:
        runner.stop()
    if args.watch:
        _render_monitor_frame(runner, out)
    return stats_document(runner)


def _watch_replay(source, submit, events: Iterable[Event],
                  refresh: float, out: TextIO) -> None:
    """Render the live monitor while a producer thread replays the stream."""
    import threading

    from repro.runtime.monitor import Monitor

    failures: list[BaseException] = []
    done = threading.Event()

    def produce() -> None:
        try:
            for event in events:
                submit(event)
        except BaseException as exc:
            failures.append(exc)
        finally:
            done.set()

    monitor = Monitor(source).track()
    clear = bool(getattr(out, "isatty", lambda: False)())
    thread = threading.Thread(target=produce, daemon=True)
    thread.start()
    while not done.wait(refresh):
        # A fleet's counters are as fresh as its last barrier (a failed
        # runner fails the producer's next submit, which ends this loop).
        with contextlib.suppress(RuntimeError):
            source.poll()
        monitor.run_live(iterations=1, out=out, clear=clear)
    thread.join()
    if failures:
        raise failures[0]


def _render_monitor_frame(source, out: TextIO) -> None:
    from repro.runtime.monitor import Monitor

    clear = bool(getattr(out, "isatty", lambda: False)())
    Monitor(source).run_live(iterations=1, out=out, clear=clear)


def _export_metrics(doc: dict, args: argparse.Namespace, out: TextIO) -> None:
    """A STATS document's registry in the asked format."""
    if args.prom:
        out.write(doc["prom"])
        return
    metrics = doc["metrics"]
    if args.json:
        print(json.dumps(metrics, indent=2), file=out)
        return
    print(f"-- metrics ({metrics['namespace']}) --", file=out)
    for sample in metrics["metrics"]:
        labels = ",".join(
            f"{key}={value}" for key, value in sorted(sample["labels"].items())
        )
        series = f"{sample['name']}{{{labels}}}" if labels else sample["name"]
        if sample["kind"] == "histogram":
            quantiles = " ".join(
                f"p{float(quantile) * 100:g}={value:g}"
                for quantile, value in sorted(
                    sample["quantiles"].items(), key=lambda kv: float(kv[0])
                )
            )
            detail = f"count={sample['count']} sum={sample['value']:g}"
            print(f"  {series} {detail} {quantiles}".rstrip(), file=out)
        else:
            print(f"  {series} {sample['value']:g}", file=out)


def _cmd_top(args: argparse.Namespace, out: TextIO) -> int:
    import time

    if args.watch and args.connect is None:
        raise ValueError("top --watch requires --connect")
    with _documents(args, partial(_stats_replay, args, out), _ask_stats) as fetch:
        refreshes = 0
        while True:
            _render_top(fetch(), args.json, out)
            refreshes += 1
            if not args.watch or (
                args.iterations is not None and refreshes >= args.iterations
            ):
                return 0
            out.flush()
            try:
                time.sleep(args.refresh)
            except KeyboardInterrupt:
                return 0


def _render_top(doc: dict, as_json: bool, out: TextIO) -> None:
    """A STATS document's ranked cost accounts, as JSON or a table."""
    if as_json:
        view = {key: doc[key] for key in ("cost_accounts", "pressure", "shedding")}
        print(json.dumps(view, indent=2), file=out)
        return
    accounts, pressure, shedding = (
        doc["cost_accounts"], doc["pressure"], doc["shedding"]
    )
    header = f"-- cepr top: {len(accounts)} quer(ies) by cost --"
    if pressure:
        header += (
            f"  pressure={pressure.get('level', 0.0):.2f} "
            f"[{pressure.get('state', 'ok')}]"
        )
    if shedding:
        stats = shedding.get("stats", {})
        state = "engaged" if shedding.get("engaged") else "standby"
        header += (
            f"  shed[{shedding.get('policy')}]={state} "
            f"dropped={stats.get('shed_events_total', 0)} "
            f"recall~{stats.get('recall_estimate', 1.0):.2f}"
        )
    print(header, file=out)
    if not accounts:
        print("  (no queries registered)", file=out)
        return
    width = max(5, max(len(account["query"]) for account in accounts))
    print(
        f"  {'QUERY':<{width}} {'CPU(ms)':>9} {'us/ev':>8} {'EVENTS':>8} "
        f"{'RUNS +/~/-':>16} {'PRUNE%':>7} {'SHARED h/m':>12} {'HIT%':>5} "
        f"{'MATCH':>6}",
        file=out,
    )
    for account in accounts:
        runs = (
            f"{account['runs_created']}/{account['runs_extended']}"
            f"/{account['runs_killed']}"
        )
        shared = f"{account['shared_hits']}/{account['shared_misses']}"
        print(
            f"  {account['query']:<{width}} "
            f"{account['cpu_seconds'] * 1e3:>9.2f} "
            f"{account['cpu_per_event_us']:>8.1f} "
            f"{account['events_routed']:>8} "
            f"{runs:>16} "
            f"{account['prune_ratio'] * 100:>6.0f}% "
            f"{shared:>12} "
            f"{account['hit_ratio'] * 100:>4.0f}% "
            f"{account['matches']:>6}",
            file=out,
        )


def _cmd_flightrec(args: argparse.Namespace, out: TextIO) -> int:
    from repro.observability.flightrec import list_artifacts

    if args.flightrec_command == "list":
        artifacts = list_artifacts(args.dir)
        if not artifacts:
            print(f"(no flight-recorder artifacts in {args.dir})", file=out)
            return 1
        for path in artifacts:
            doc = json.loads(path.read_text())
            print(
                f"{path}  reason={doc.get('reason', '?')} "
                f"entries={len(doc.get('entries', []))} "
                f"bytes={path.stat().st_size}",
                file=out,
            )
        return 0

    if args.flightrec_command == "show":
        path = args.artifact
        if path is None:
            if args.dir is None:
                raise ValueError("flightrec show needs an artifact or --dir")
            artifacts = list_artifacts(args.dir)
            if not artifacts:
                print(
                    f"(no flight-recorder artifacts in {args.dir})", file=out
                )
                return 1
            path = artifacts[-1]
        doc = json.loads(path.read_text())
        if args.json:
            print(json.dumps(doc, indent=2), file=out)
            return 0
        entries = doc.get("entries", [])
        print(
            f"-- {path.name}: reason={doc.get('reason', '?')} "
            f"recorded={doc.get('recorded', '?')} "
            f"dropped={doc.get('dropped', 0)} "
            f"entries={len(entries)} --",
            file=out,
        )
        shown = entries if args.tail is None else entries[-args.tail:]
        for entry in shown:
            timestamp = entry.pop("ts", "?")
            kind = entry.pop("kind", "?")
            detail = " ".join(
                f"{key}={value}" for key, value in entry.items()
            )
            print(f"  {timestamp} {kind} {detail}".rstrip(), file=out)
        return 0

    # dump: poke a running `serve --flightrec` process via SIGUSR2.
    import os
    import signal as signal_module
    import time

    if not hasattr(signal_module, "SIGUSR2"):
        raise ValueError("SIGUSR2 is not available on this platform")
    before = set(list_artifacts(args.dir)) if args.dir is not None else set()
    os.kill(args.pid, signal_module.SIGUSR2)
    if args.dir is None:
        print(f"sent SIGUSR2 to pid {args.pid}", file=out)
        return 0
    deadline = time.monotonic() + args.wait
    while time.monotonic() < deadline:
        fresh = [
            path
            for path in list_artifacts(args.dir)
            if path not in before
        ]
        if fresh:
            print(fresh[-1], file=out)
            return 0
        time.sleep(0.05)
    print(
        f"error: no new artifact appeared in {args.dir} "
        f"within {args.wait:g}s",
        file=out,
    )
    return 1


def _cmd_trace(args: argparse.Namespace, out: TextIO) -> int:
    if args.connect is not None:
        if args.query is None:
            raise ValueError("trace --connect requires --query NAME")
        if args.all:
            raise ValueError("trace --connect traces one emission (no --all)")

    def ask(client) -> list[dict]:
        return [client.trace(args.query, emission=args.emission)]

    with _documents(args, partial(_trace_replay, args), ask) as fetch:
        docs = fetch()
    if not docs:
        print("(no emissions to trace)", file=out)
        return 1
    if args.json:
        print(json.dumps(docs, indent=2), file=out)
        return 0
    for position, doc in enumerate(docs):
        if position:
            print("", file=out)
        _render_trace(doc, out)
    return 0


def _trace_replay(args: argparse.Namespace) -> list[dict]:
    """Replay with span tracing on; the TRACE documents of the chosen
    emission(s) (none when nothing was emitted)."""
    from repro.runtime.runner import RunnerConfig

    engine = _replay_runner(args, RunnerConfig(tracing=True))
    names = [handle.name for handle in engine.queries()]
    if args.query is not None and args.query not in names:
        raise ValueError(
            f"--query {args.query!r} does not name a registered query "
            f"(have: {', '.join(sorted(names))})"
        )

    emissions: list[tuple[str, Emission]] = []
    for name in names:
        if args.query in (None, name):
            engine.subscribe(name, lambda e, name=name: emissions.append((name, e)))
    engine.run(_load_events(args.events))
    if not emissions or args.all:
        targets = emissions
    else:
        try:
            targets = [emissions[args.emission]]
        except IndexError:
            raise ValueError(
                f"--emission {args.emission} out of range: "
                f"{len(emissions)} emission(s) were produced"
            ) from None
    return [trace_document(engine, emission, name) for name, emission in targets]


def _render_trace(doc: dict, out: TextIO) -> None:
    """One TRACE document: the provenance text, then the remote contexts."""
    print(doc["text"], file=out)
    remote = doc["remote"]
    if not remote:
        print("remote contexts: (none stamped)", file=out)
        return
    print("remote contexts:", file=out)
    for record in remote:
        context = " ".join(
            f"{key}={value}" for key, value in sorted(record["context"].items())
        )
        print(
            f"  #{record['position']} {record['variable']}: "
            f"{record['type']} seq={record['seq']} t={record['ts']:g} "
            f"{context}",
            file=out,
        )


def _cmd_backtest(args: argparse.Namespace, out: TextIO) -> int:
    from repro.store.backtest import Backtester
    from repro.store.log import EventLog

    config = _runner_config(args)
    log = EventLog(args.log)
    if len(log) == 0:
        raise ValueError(f"event log {args.log} is empty")
    results = Backtester(log, config).compare(
        _read_queries(args.query_files), start_ts=args.start, end_ts=args.end
    )
    lo, hi = log.time_range
    window = (
        f"[{args.start if args.start is not None else lo:g}, "
        f"{args.end if args.end is not None else hi:g})"
    )
    print(f"backtest over {window} of {len(log)} recorded events:", file=out)
    for name, result in sorted(results.items(), key=lambda kv: -kv[1].matches):
        best = (
            f"best {result.final_ranking[0].rank_values}"
            if result.final_ranking and result.final_ranking[0].rank_values
            else ""
        )
        print(
            f"  {name}: {result.matches} matches over "
            f"{result.events_replayed} events {best}".rstrip(),
            file=out,
        )
    return 0


def _cmd_demo(args: argparse.Namespace, out: TextIO) -> int:
    workload = _WORKLOADS[args.workload](seed=args.seed)
    count = write_jsonl(args.out, workload.events(args.events))
    print(f"wrote {count} {args.workload} events to {args.out}", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
