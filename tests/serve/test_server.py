"""Server/client integration: differential correctness and failure policy.

The differential tests are the serving layer's ground truth: pushing a
workload through a :class:`~repro.serve.server.CEPRServer` over TCP must
produce emission documents *byte-identical* (after compact
re-serialisation) to running the same stream through an embedded
:class:`~repro.runtime.engine.CEPREngine`.
"""

import asyncio
import socket
import struct
import threading
import time
from dataclasses import replace

import pytest

from repro.events.event import Event
from repro.events.jsonsafe import dumps
from repro.events.schema import EventSchema, SchemaRegistry
from repro.observability.flightrec import (
    install_flight_recorder,
    list_artifacts,
    uninstall_flight_recorder,
)
from repro.runtime.engine import CEPREngine
from repro.runtime.runner import RunnerConfig
from repro.runtime.serialize import emission_to_line
from repro.serve.client import CEPRClient, CEPRServeError, ServerClosed
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    encode_frame,
    read_frame_blocking,
)
from repro.serve import server as server_module
from repro.serve.server import CEPRServer
from repro.workloads.clickstream import ClickstreamWorkload
from repro.workloads.stock import StockWorkload
from tests.runtime.fleet import DOUBLE, create_test_runner

PROFIT = """
    NAME profits
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 60 EVENTS
    USING SKIP_TILL_ANY
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""

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


class ServerHarness:
    """Runs a :class:`CEPRServer` on a background thread for one test."""

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("port", 0)
        self.server = CEPRServer(**kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self.server.serve(on_ready=lambda _: self._ready.set()))

    @property
    def port(self) -> int:
        assert self.server.bound_port is not None
        return self.server.bound_port

    def drain(self, timeout: float = 15.0) -> None:
        self.server.request_drain_threadsafe()
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "server did not drain in time"

    def __enter__(self) -> "ServerHarness":
        self._thread.start()
        assert self._ready.wait(timeout=10.0), "server did not start"
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread.is_alive():
            self.drain()


def embedded_lines(queries: dict[str, str], events) -> list[str]:
    """The embedded-engine ground truth: every emission, serialised."""
    engine = CEPREngine()
    collected = []
    for name, text in queries.items():
        handle = engine.register_query(text, name=name, collect_results=False)
        handle.subscribe(collected.append)
    for event in events:
        engine.push(event)
    engine.flush()
    return [emission_to_line(emission) for emission in collected]


def remote_lines(queries: dict[str, str], events) -> list[str]:
    """The same stream through a real TCP server, drained gracefully."""
    with ServerHarness(queries=queries) as harness:
        client = CEPRClient(port=harness.port, timeout=30.0)
        try:
            for name in queries:
                client.subscribe(name)
            client.push_batch(events)
            client.sync()
            harness.server.request_drain_threadsafe()
            frames = client.pop_emissions() + client.drain(timeout=15.0)
        finally:
            client.close()
    return [dumps(frame["emission"]) for frame in frames]


class TestRemoteDifferential:
    def test_stock_stream_byte_identical(self):
        events = list(StockWorkload(seed=3).events(1_500))
        queries = {"profits": PROFIT}
        assert remote_lines(queries, events) == embedded_lines(queries, events)

    def test_clickstream_byte_identical(self):
        events = list(
            ClickstreamWorkload(seed=11, users=10, abandon_rate=0.4).events(
                1_500
            )
        )
        queries = {"abandonment": ABANDONMENT}
        remote = remote_lines(queries, events)
        assert remote == embedded_lines(queries, events)
        assert remote, "workload must produce emissions for the test to bite"

    def test_two_queries_interleaved_order_preserved(self):
        events = list(StockWorkload(seed=5).events(1_000))
        queries = {
            "profits": PROFIT,
            "drops": """
                NAME drops
                PATTERN SEQ(Sell hi, Sell lo)
                WHERE hi.symbol == lo.symbol AND lo.price < hi.price
                WITHIN 40 EVENTS
                RANK BY hi.price - lo.price DESC
                LIMIT 2
                EMIT ON WINDOW CLOSE
            """,
        }
        assert remote_lines(queries, events) == embedded_lines(queries, events)


class TestReadYourWrites:
    def test_sync_delivers_prior_emissions(self):
        events = list(StockWorkload(seed=3).events(500))
        with ServerHarness(queries={"profits": PROFIT}) as harness:
            with CEPRClient(port=harness.port) as client:
                client.subscribe("profits")
                client.push_batch(events)
                ingested = client.sync()
                assert ingested == len(events)
                # Windows close every 60 events: emissions must already
                # be buffered when sync returns, with gapless sequences.
                frames = client.pop_emissions()
                assert frames
                assert [f["seq"] for f in frames] == list(
                    range(1, len(frames) + 1)
                )

    def test_kind_filter_limits_frames(self):
        events = list(StockWorkload(seed=3).events(400))
        query = PROFIT.replace("EMIT ON WINDOW CLOSE", "EMIT EVERY 25 EVENTS")
        with ServerHarness(queries={"q": query}) as harness:
            with CEPRClient(port=harness.port) as client:
                client.subscribe("q", kinds=["window_close"])
                client.push_batch(events)
                client.sync()
                kinds = {
                    frame["emission"]["kind"]
                    for frame in client.pop_emissions()
                }
                assert kinds <= {"window_close"}


PARTITIONED = """
    NAME sym_profits
    PATTERN SEQ(Buy b, Sell s)
    WHERE b.symbol == s.symbol AND s.price > b.price
    WITHIN 60 EVENTS
    PARTITION BY symbol
    RANK BY s.price - b.price DESC
    LIMIT 3
    EMIT ON WINDOW CLOSE
"""

RUNNER_BACKENDS = ["threaded", "process", DOUBLE]


def _harness_for(
    backend: str, queries: dict[str, str], monkeypatch: pytest.MonkeyPatch
) -> ServerHarness:
    # The threaded backend is single-engine by definition; the fleet
    # gets two shards so partition-parallel paths actually run.
    shards = 1 if backend == "threaded" else 2
    if backend == DOUBLE:
        # A server configured for a process fleet, which gets the fleet's
        # in-process double instead.
        monkeypatch.setattr(
            server_module,
            "create_runner",
            lambda program, config: create_test_runner(
                program, replace(config, backend=DOUBLE)
            ),
        )
        backend = "process"
    return ServerHarness(
        queries=queries, runner=RunnerConfig(backend=backend, shards=shards)
    )


class TestRunnerBackendParity:
    """``--runner`` changes the execution substrate, never the answer."""

    @pytest.mark.parametrize("backend", RUNNER_BACKENDS)
    def test_backend_byte_identical(self, backend, monkeypatch):
        events = list(StockWorkload(seed=3).events(1_200))
        queries = {"sym_profits": PARTITIONED}
        with _harness_for(backend, queries, monkeypatch) as harness:
            client = CEPRClient(port=harness.port, timeout=30.0)
            try:
                client.subscribe("sym_profits")
                client.push_batch(events)
                client.sync()
                harness.server.request_drain_threadsafe()
                frames = client.pop_emissions() + client.drain(timeout=15.0)
            finally:
                client.close()
        remote = [dumps(frame["emission"]) for frame in frames]
        assert remote == embedded_lines(queries, events)
        assert remote, "workload must produce emissions for the test to bite"

    @pytest.mark.parametrize("backend", RUNNER_BACKENDS)
    def test_kinds_filter_end_to_end(self, backend, monkeypatch):
        """Per-subscriber ``kinds`` holds through every runner backend.

        Two clients on one server: the filtered one must see *only* its
        requested kind while the unfiltered one proves the stream
        carried several kinds (satellite: honor ``kinds`` end to end).
        """
        events = list(StockWorkload(seed=3).events(600))
        query = PARTITIONED.replace(
            "EMIT ON WINDOW CLOSE", "EMIT EVERY 25 EVENTS"
        )
        with _harness_for(backend, {"q": query}, monkeypatch) as harness:
            filtered = CEPRClient(port=harness.port, timeout=30.0)
            unfiltered = CEPRClient(port=harness.port, timeout=30.0)
            try:
                filtered.subscribe("q", kinds=["periodic"])
                unfiltered.subscribe("q")
                unfiltered.push_batch(events)
                unfiltered.sync()
                filtered.sync()
                harness.server.request_drain_threadsafe()
                filtered_frames = filtered.pop_emissions() + filtered.drain(
                    timeout=15.0
                )
                unfiltered_frames = unfiltered.pop_emissions() + (
                    unfiltered.drain(timeout=15.0)
                )
            finally:
                filtered.close()
                unfiltered.close()
        all_kinds = {f["emission"]["kind"] for f in unfiltered_frames}
        assert len(all_kinds) >= 2, "need mixed kinds for the test to bite"
        assert {f["emission"]["kind"] for f in filtered_frames} == {"periodic"}
        # The filter selects, it never reorders or rewrites frames.
        assert [
            dumps(f["emission"]) for f in filtered_frames
        ] == [
            dumps(f["emission"])
            for f in unfiltered_frames
            if f["emission"]["kind"] == "periodic"
        ]

    def test_invalid_backend_combinations_raise(self):
        with pytest.raises(ValueError, match="embedded.*process.*threaded"):
            CEPRServer(queries={}, runner=RunnerConfig(backend="warp"))
        with pytest.raises(ValueError, match="use backend='threaded'"):
            CEPRServer(
                queries={},
                runner=RunnerConfig(
                    backend="process", shards=2, shed_policy="adaptive"
                ),
            )

    def test_tracing_on_a_fleet_raises_from_the_constructor(self):
        with pytest.raises(ValueError, match="tracing"):
            CEPRServer(queries={}, runner=RunnerConfig(shards=2, tracing=True))


class TestSlowConsumer:
    def _flood(self, harness: ServerHarness) -> dict:
        """Subscribe, never read emissions, push until the queue jams."""
        events = list(StockWorkload(seed=3).events(4_000))
        victim = CEPRClient(port=harness.port)
        victim.subscribe("q")
        # A second connection does the pushing so the victim's socket
        # stays untouched (nothing drains its outbound queue).
        with CEPRClient(port=harness.port) as pusher:
            pusher.push_batch(events)
            pusher.sync()
        deadline = time.monotonic() + 10.0
        stats = harness.server.stats
        while time.monotonic() < deadline:
            if stats.emissions_dropped or stats.slow_consumer_disconnects:
                break
            time.sleep(0.05)
        return {
            "dropped": stats.emissions_dropped,
            "disconnects": stats.slow_consumer_disconnects,
            "victim": victim,
        }

    def test_drop_policy_counts_drops_and_keeps_connection(self):
        query = PROFIT.replace("EMIT ON WINDOW CLOSE", "EMIT EVERY 5 EVENTS")
        with ServerHarness(
            queries={"q": query}, outbound_queue=4, slow_consumer="drop"
        ) as harness:
            result = self._flood(harness)
            victim = result["victim"]
            try:
                assert result["dropped"] > 0
                assert result["disconnects"] == 0
                # The victim's connection survived: a request still works.
                assert victim.ping()["of"] == "ping"
            finally:
                victim.close()

    def test_disconnect_policy_severs_the_slow_subscriber(self):
        query = PROFIT.replace("EMIT ON WINDOW CLOSE", "EMIT EVERY 5 EVENTS")
        with ServerHarness(
            queries={"q": query}, outbound_queue=4, slow_consumer="disconnect"
        ) as harness:
            result = self._flood(harness)
            victim = result["victim"]
            try:
                assert result["disconnects"] == 1
                with pytest.raises((ConnectionClosed, OSError)):
                    victim.ping()
                    victim.ping()  # if the RST raced the first round trip
            finally:
                victim.close()


class TestTypedErrors:
    def test_unknown_query_is_cepr504(self):
        with ServerHarness(queries={}) as harness:
            with CEPRClient(port=harness.port) as client:
                with pytest.raises(CEPRServeError) as excinfo:
                    client.subscribe("ghost")
                assert excinfo.value.code == "CEPR504"

    def test_rejected_query_is_cepr505(self):
        with ServerHarness(queries={}) as harness:
            with CEPRClient(port=harness.port) as client:
                with pytest.raises(CEPRServeError) as excinfo:
                    client.register("PATTERN SEQ(")
                assert excinfo.value.code == "CEPR505"

    def test_invalid_event_is_cepr506(self):
        with ServerHarness(queries={}) as harness:
            with CEPRClient(port=harness.port) as client:
                with pytest.raises(CEPRServeError) as excinfo:
                    client.push({"no_type": True})
                assert excinfo.value.code == "CEPR506"

    def test_register_on_sharded_fleet_is_cepr509(self):
        queries = {"abandonment": ABANDONMENT}
        with ServerHarness(
            queries=queries, runner=RunnerConfig(shards=2)
        ) as harness:
            with CEPRClient(port=harness.port) as client:
                with pytest.raises(CEPRServeError) as excinfo:
                    client.register(PROFIT, name="late")
                assert excinfo.value.code == "CEPR509"

    def test_bad_kinds_filter_is_cepr507(self):
        with ServerHarness(queries={"profits": PROFIT}) as harness:
            with CEPRClient(port=harness.port) as client:
                with pytest.raises(CEPRServeError) as excinfo:
                    client.subscribe("profits", kinds=["not_a_kind"])
                assert excinfo.value.code == "CEPR507"

    def test_unknown_op_is_cepr502_and_connection_survives(self):
        with ServerHarness(queries={}) as harness:
            sock = socket.create_connection(("127.0.0.1", harness.port), 5.0)
            sock.settimeout(5.0)
            try:
                sock.sendall(
                    encode_frame({"op": "hello", "version": PROTOCOL_VERSION})
                )
                assert read_frame_blocking(sock)["op"] == "ack"
                sock.sendall(encode_frame({"op": "warp", "id": 2}))
                reply = read_frame_blocking(sock)
                assert reply["op"] == "error" and reply["code"] == "CEPR502"
                sock.sendall(encode_frame({"op": "ping", "id": 3}))
                assert read_frame_blocking(sock)["op"] == "ack"
            finally:
                sock.close()

    def test_missing_hello_is_cepr503(self):
        with ServerHarness(queries={}) as harness:
            sock = socket.create_connection(("127.0.0.1", harness.port), 5.0)
            sock.settimeout(5.0)
            try:
                sock.sendall(encode_frame({"op": "ping"}))
                reply = read_frame_blocking(sock)
                assert reply["op"] == "error" and reply["code"] == "CEPR503"
                assert sock.recv(1) == b""  # server hung up
            finally:
                sock.close()

    def test_oversized_frame_is_fatal_cepr501(self):
        with ServerHarness(queries={}, max_frame_bytes=512) as harness:
            sock = socket.create_connection(("127.0.0.1", harness.port), 5.0)
            sock.settimeout(5.0)
            try:
                sock.sendall(
                    encode_frame({"op": "hello", "version": PROTOCOL_VERSION})
                )
                assert read_frame_blocking(sock)["op"] == "ack"
                sock.sendall(struct.pack(">I", 1 << 20))  # huge declared len
                reply = read_frame_blocking(sock)
                assert reply["op"] == "error" and reply["code"] == "CEPR501"
                assert sock.recv(1) == b""  # fatal: connection closed
            finally:
                sock.close()

    def test_wrong_version_hello_is_rejected(self):
        with ServerHarness(queries={}) as harness:
            sock = socket.create_connection(("127.0.0.1", harness.port), 5.0)
            sock.settimeout(5.0)
            try:
                sock.sendall(encode_frame({"op": "hello", "version": 99}))
                reply = read_frame_blocking(sock)
                assert reply["op"] == "error" and reply["code"] == "CEPR503"
            finally:
                sock.close()


class TestRejectedEvents:
    """An event the runner's ingress rejects is the client's error: the
    server answers ``CEPR506``, keeps the connection and dumps nothing."""

    PROGRAM = {"pairs": "PATTERN SEQ(A a, B b) WITHIN 8 EVENTS PARTITION BY k"}
    CASES = {
        "strict_time": (
            {"strict_time": True},
            [Event("A", 2.0, k=1, v=1.0)],
            Event("A", 1.0, k=1, v=1.0),
            "regresses",
        ),
        "strict_schema": (
            {
                "strict_schema": True,
                "registry": SchemaRegistry(
                    [EventSchema.build(kind, k="int", v="float") for kind in "AB"]
                ),
            },
            [Event("A", 1.0, k=1, v=1.0)],
            Event("B", 2.0, k=1, v="bad"),
            "expected float",
        ),
    }

    @pytest.fixture(autouse=True)
    def _recorder(self, tmp_path):
        install_flight_recorder(byte_budget=64 * 1024, directory=tmp_path)
        yield tmp_path
        uninstall_flight_recorder()

    def _harness(self, backend, case):
        options = self.CASES[case][0]
        shards = 1 if backend == "threaded" else 2
        return ServerHarness(
            queries=self.PROGRAM,
            runner=RunnerConfig(backend=backend, shards=shards, **options),
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_push_is_cepr506_and_the_connection_carries_on(
        self, backend, case, _recorder
    ):
        _, before, rejected, reason = self.CASES[case]
        with self._harness(backend, case) as harness:
            with CEPRClient(port=harness.port) as client:
                for event in before:
                    client.push(event)
                with pytest.raises(CEPRServeError) as excinfo:
                    client.push(rejected)
                assert excinfo.value.code == "CEPR506"
                assert reason in str(excinfo.value)
                client.push(Event("B", 3.0, k=1, v=2.0))  # same connection
                assert client.sync() == len(before) + 1
            # before the drain, which dumps an armed recorder by design
            assert list_artifacts(_recorder) == []

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_batch_names_the_rejected_event_and_keeps_those_before_it(
        self, backend, case, _recorder
    ):
        _, before, rejected, _ = self.CASES[case]
        batch = [*before, Event("A", 2.5, k=2, v=1.0), rejected]
        with self._harness(backend, case) as harness:
            with CEPRClient(port=harness.port) as client:
                with pytest.raises(CEPRServeError) as excinfo:
                    client.push_batch(batch)
                assert excinfo.value.code == "CEPR506"
                message = str(excinfo.value)
                assert f"event {len(batch) - 1} of the batch" in message
                assert f"the {len(batch) - 1} event(s) before it" in message
                assert client.push_batch([Event("B", 3.0, k=1, v=2.0)]) == 1
                assert client.sync() == len(batch)
            assert list_artifacts(_recorder) == []


class TestDrainSemantics:
    def test_drain_sends_final_flush_then_bye(self):
        events = list(StockWorkload(seed=3).events(90))  # window still open
        with ServerHarness(queries={"profits": PROFIT}) as harness:
            client = CEPRClient(port=harness.port)
            try:
                client.subscribe("profits")
                client.push_batch(events)
                client.sync()
                before = len(client.pop_emissions())
                harness.drain()
                final = client.drain(timeout=10.0)
                # 90 events of a 60-event window: one close at 60, one
                # partial-window flush emission on drain.
                assert before >= 1
                assert len(final) >= 1
            finally:
                client.close()

    def test_requests_after_drain_are_refused(self):
        with ServerHarness(queries={"profits": PROFIT}) as harness:
            with CEPRClient(port=harness.port) as client:
                harness.drain()
                with pytest.raises((CEPRServeError, ServerClosed, OSError)):
                    client.push_batch(
                        list(StockWorkload(seed=1).events(10))
                    )

    def test_dynamic_register_then_unregister_notifies(self):
        with ServerHarness(queries={}) as harness:
            with CEPRClient(port=harness.port) as client:
                name = client.register(PROFIT, name="temp")
                assert name == "temp"
                client.subscribe("temp")
                client.unregister("temp")
                client.ping()  # forces any pending notice to be read
                notices = client.pop_notices()
                assert notices and notices[0]["query"] == "temp"
                with pytest.raises(CEPRServeError) as excinfo:
                    client.subscribe("temp")
                assert excinfo.value.code == "CEPR504"
