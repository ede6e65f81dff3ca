"""Sessions: one started system under test, reached through its front doors.

A session is what ``setup_s`` times: every query parsed, analysed,
compiled and registered, the runner (or server child) started, and the
subscriber attached.  Two kinds exist because the program has two kinds
of front door:

* :class:`InProcessSession` — ``create_runner(program, RunnerConfig(...))``
  plus ``runner.subscribe`` (backends ``embedded`` and ``process``);
* :class:`ServeSession` — ``python -m repro serve --port 0`` as a child
  process, one pushing ``CEPRClient`` and one subscribing ``CEPRClient``
  on a second thread.

Both record, for every emission, when the subscriber saw it and which
event triggered it, and hand back the emission lines for the digest.
Just before it stops its child processes a session reads their peak
memory (:func:`children_peak_rss_kb`).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.events.event import Event
from repro.events.jsonsafe import dumps
from repro.runtime.runner import RunnerConfig, create_runner
from repro.runtime.serialize import emission_to_line
from repro.serve.client import CEPRClient
from repro.serve.protocol import ConnectionClosed

from workloads import Workload

HERE = Path(__file__).resolve().parent
SRC_ROOT = HERE.parents[1] / "src"

#: barrier cadence of the paced phase; the serving layer's default
#: ``--poll-interval``, so the process backend (whose emissions surface
#: only at barriers) is observed the way a live server observes it.
BARRIER_INTERVAL = 0.05

#: events per ``push_batch`` frame in the closed loop.
PUSH_BATCH = 512

clock = time.perf_counter

Line = tuple[str, str]  # (query name, emission line)


def children_peak_rss_kb(parent: int | None = None) -> int:
    """Largest ``VmHWM`` (KB) among the live children of ``parent`` (this
    process by default), 0 without children.

    Not ``getrusage(RUSAGE_CHILDREN).ru_maxrss``: on Linux a child's
    ``ru_maxrss`` starts at its parent's resident size at spawn time and
    survives ``exec``, so it reads the benchmark driver's memory whenever
    the driver is larger than the server or worker it spawned.  ``VmHWM``
    belongs to the address space ``exec`` created.  Children are found by
    ``PPid``, so no runner internals are touched.
    """
    parent = os.getpid() if parent is None else parent
    peak = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            status = Path("/proc", entry, "status").read_text()
        except OSError:  # exited while we looked
            continue
        fields = dict(line.split(":", 1) for line in status.splitlines() if ":" in line)
        if int(fields["PPid"]) == parent and "VmHWM" in fields:  # zombies have none
            peak = max(peak, int(fields["VmHWM"].split()[0]))
    return peak


class InProcessSession:
    """A started ``Runner`` with one subscriber callback per query."""

    def __init__(self, workload: Workload, registry, expected_before_drain=None):
        #: the pacer may busy-wait below this many seconds: fine when the
        #: engine runs on the pacing thread, harmful when worker threads
        #: need the interpreter lock to move frames.
        self.spin_below = 200e-6 if workload.backend == "embedded" else 0.0
        self._receipts: list[tuple[float, str, object]] = []
        self._flush_from: int | None = None
        self._has_children = workload.backend != "embedded"
        self.child_peak_kb = 0
        self._last_barrier = clock()
        config = RunnerConfig(
            backend=workload.backend, registry=registry, **workload.runner_options
        )
        self.runner = create_runner(workload.program, config)
        for name in workload.program:
            self.runner.subscribe(name, self._receiver(name))
        self.runner.start()
        # Sharded backends release merged emissions at ``poll()`` (what the
        # serving layer calls on its cadence); the embedded runner has no
        # queue to poll and ``sync()`` is its no-op barrier.
        self._barrier = getattr(self.runner, "poll", self.runner.sync)

    def _receiver(self, name: str):
        append = self._receipts.append

        def receive(emission) -> None:
            append((clock(), name, emission))

        return receive

    def submit_all(self, events: list[Event]) -> int:
        return self.runner.submit_all(events)

    def submit_due(self, events: list[Event]) -> int:
        submit = self.runner.submit
        for event in events:
            submit(event)
        if clock() - self._last_barrier >= BARRIER_INTERVAL:
            self._barrier()
            self._last_barrier = clock()
        return len(events)

    def finish(self) -> float:
        """End of stream; returns when the last emission had been delivered."""
        self._barrier()
        self._flush_from = len(self._receipts)
        self.runner.flush()
        return clock()

    def event_receipts(self) -> list[tuple[float, int]]:
        """(receive time, trigger seq) of emissions an event triggered."""
        return [
            (at, emission.at_seq)
            for at, _name, emission in self._receipts[: self._flush_from]
        ]

    def emissions(self) -> list[tuple[str, object]]:
        """(query name, ``Emission``) in delivery order."""
        return [(name, emission) for _at, name, emission in self._receipts]

    def close(self) -> list[Line]:
        if self._has_children:
            self.child_peak_kb = children_peak_rss_kb()
        self.runner.close()
        return [(name, emission_to_line(e)) for name, e in self.emissions()]


class ServeSession:
    """A ``repro serve`` child, a pushing client and a subscribing client."""

    spin_below = 0.0

    def __init__(self, workload: Workload, registry, expected_before_drain: int):
        (self.query_name,) = workload.program
        self._expected = expected_before_drain
        self._frames: list[tuple[float, dict]] = []
        self.child_peak_kb = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")])
        )
        self.server = None
        try:
            with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
                query_file = Path(workdir, f"{self.query_name}.ceprql")
                query_file.write_text(workload.program[self.query_name])
                self.server = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve", str(query_file), "--port", "0"],
                    stdout=subprocess.PIPE,
                    env=env,
                    text=True,
                )
                # The server announces itself after it has loaded the file.
                banner = self.server.stdout.readline()
            found = re.search(r"listening on [^:\s]+:(\d+)", banner)
            if found is None:
                raise RuntimeError(f"repro serve did not come up: {banner!r}")
            port = int(found.group(1))
            self.pusher = CEPRClient(port=port, timeout=60.0)
            self._subscriber = CEPRClient(port=port, timeout=60.0)
            self._subscriber.subscribe(self.query_name)
        except BaseException:
            if self.server is not None:
                self._stop_server()
            raise
        self._listener = threading.Thread(target=self._listen, daemon=True)
        self._listener.start()

    def _listen(self) -> None:
        frames, client = self._frames, self._subscriber
        try:
            while True:
                frame = client.wait_emission(timeout=60.0)
                if frame is None:
                    return
                frames.append((clock(), frame))
        except (ConnectionClosed, OSError):
            # The server's ``bye`` on drain ends the subscription.
            frames.extend((clock(), frame) for frame in client.pop_emissions())

    def submit_all(self, events: list[Event]) -> int:
        accepted = 0
        for start in range(0, len(events), PUSH_BATCH):
            accepted += self.pusher.push_batch(events[start : start + PUSH_BATCH])
        return accepted

    def submit_due(self, events: list[Event]) -> int:
        return self.pusher.push_batch(events)

    def finish(self) -> float:
        """``sync``, then wait for every pre-drain emission to arrive."""
        self.pusher.sync()
        synced = clock()
        deadline = synced + 30.0
        while len(self._frames) < self._expected:
            if clock() > deadline or not self._listener.is_alive():
                raise RuntimeError(
                    f"subscriber received {len(self._frames)} of "
                    f"{self._expected} emissions"
                )
            time.sleep(0.001)
        if not self._expected:
            return synced
        return max(synced, self._frames[self._expected - 1][0])

    def event_receipts(self) -> list[tuple[float, float]]:
        """(receive time, trigger ``at_ts``): wire frames carry no sequence number."""
        return [
            (at, frame["emission"]["at_ts"])
            for at, frame in self._frames[: self._expected]
        ]

    def _stop_server(self) -> None:
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()

    def close(self) -> list[Line]:
        """Drain the server; the flush emissions arrive before its ``bye``."""
        self.child_peak_kb = children_peak_rss_kb()
        self._stop_server()
        self._listener.join(timeout=20.0)
        for client in (self.pusher, self._subscriber):
            client.close()
        if self._listener.is_alive():
            raise RuntimeError("subscriber thread did not see the server's bye")
        return [
            (self.query_name, dumps(frame["emission"])) for _at, frame in self._frames
        ]


def open_session(workload: Workload, registry, expected_before_drain=None):
    kind = ServeSession if workload.backend == "serve" else InProcessSession
    return kind(workload, registry, expected_before_drain)
