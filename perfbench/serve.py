"""The ``serve_stream`` workload: a device fleet against a ``repro serve``
daemon in its own process.

One generator process (this one) opens :data:`DEVICES` device
connections over a unix socket to the daemon.  Each device streams its
own seeded shuffle of the 57 recorded DroidBench runs (``reset`` between
runs, frames from ``protocol.run_to_frames``) and reads its replies
concurrently.  Every verdict is compared with ``protocol.outcome_key``
of a batch replay of the same run.  Two kinds of phase:

* **open loop** at :data:`FIXED_RATE` events/s: frames go out on a
  schedule that does not slow when the daemon does (a frame is due once
  its events have been offered at the rate; writes never wait for the
  socket), and each sink check is timed from its due time to its
  verdict.  At least :data:`FIXED_MIN_CHECKS` checks, so that at least
  ten lie beyond p99.  The generator's lateness and the daemon's queue
  depth (admin ``stats``) are sampled throughout.
* **saturation**: each device hands :data:`SATURATION_PASSES` whole
  passes over the suite to its socket at once, so the daemon always has
  input waiting and runs at its capacity; the rate is the events sent
  over the time until the last owed verdict arrived.  A plain and a
  ``--colours`` daemon are flooded in turn, :data:`FLOODS` times each,
  and each reports the median.

With two or more CPUs the daemons are pinned to :data:`DAEMON_CPU` and
the generator to :data:`GENERATOR_CPU`, so that the two never compete
for a CPU.  Flood rates are expressed at the reference machine
speed: every sample tick the generator runs one calibration slice on
the daemon's CPU (the CPUs of the host this was written on drift in
speed independently of each other, by up to 2x within seconds), and a
phase is normalised by the median of its slices over
:data:`DAEMON_CAL_REF_S`.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

import layers
from common import (
    Failures, calibration_slice, median, percentile, process_cpu_s,
    process_peak_rss_mb, speed_factor,
)
from tracer import Tracer

DEVICES = 2
NI, NT = 13, 3
FIXED_RATE = 50_000
#: The open-loop phase runs for this share of ``--seconds`` and at least
#: until this many checks were sent (DroidBench has ~1 check per 270
#: events, so ~6 s at the fixed rate).
FIXED_SHARE = 0.6
FIXED_MIN_CHECKS = 1100
#: Suite passes each device sends in a saturation phase (~1.5 s of work).
SATURATION_PASSES = 6
FLOODS = 5
SAMPLE_EVERY_S = 0.1
GENERATOR_CPU, DAEMON_CPU = 0, 1
PINNED = (os.cpu_count() or 1) >= 2
#: A calibration slice's thread CPU time on the daemon's CPU beside a
#: busy daemon, on the reference machine (slower than ``CAL_REF_S``,
#: which is measured on an idle CPU).
DAEMON_CAL_REF_S = 0.0035
SETUPS = 3
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 30.0


class Run:
    """One recorded run as encoded frames plus its expected verdicts."""

    __slots__ = ("frames", "checks")

    def __init__(self, frames: List[Tuple[str, bytes, int]]) -> None:
        self.frames = frames
        self.checks: Dict[bool, List[tuple]] = {}


def build_runs(apps) -> List[Run]:
    from repro.serve import protocol

    runs = []
    reset = protocol.encode_frame({"op": "reset"})
    for app in apps:
        frames = [("reset", reset, 0)]
        for frame in protocol.run_to_frames(app.recorded):
            op = frame["op"]
            events = len(frame["starts"]) if op == "events" else 0
            frames.append((op, protocol.encode_frame(frame), events))
        runs.append(Run(frames))
    return runs


def expected_verdicts(apps, runs: List[Run], coloured: bool) -> None:
    """Batch truth for every check of every run (outside any timer)."""
    from repro.core.config import PIFTConfig
    from repro.serve import protocol

    replay_mod = importlib.import_module("repro.analysis.replay")
    replay = replay_mod.replay_coloured if coloured else replay_mod.replay
    config = PIFTConfig(NI, NT)
    for app, run in zip(apps, runs):
        run.checks[coloured] = [
            protocol.outcome_key(o)
            for o in replay(app.recorded, config).sink_outcomes
        ]


class Device:
    """One device connection: its run order and the replies it is owed."""

    def __init__(self, name: str, runs: List[Run], seed: int,
                 coloured: bool) -> None:
        self.name = name
        self.runs = runs
        self.coloured = coloured
        self.rng = random.Random(seed)
        self.order: List[int] = []
        self.run: Optional[Run] = None
        self.position = 0
        self.check_index = 0
        #: (kind, due, expected verdict key, phase) per reply owed.
        self.pending: deque = deque()
        self.reader = self.writer = None
        self.reader_task = None

    def next_frame(self):
        if self.run is None or self.position >= len(self.run.frames):
            if not self.order:
                self.order = list(range(len(self.runs)))
                self.rng.shuffle(self.order)
            self.run = self.runs[self.order.pop()]
            self.position = 0
            self.check_index = 0
        frame = self.run.frames[self.position]
        self.position += 1
        expected = None
        if frame[0] == "check":
            expected = self.run.checks[self.coloured][self.check_index]
            self.check_index += 1
        return frame, expected

    def whole_runs(self, count: int) -> list:
        """The frames that finish the current run and then ``count`` more
        (each with its expected verdict)."""
        frames = []
        started = 0
        while True:
            at_end = self.run is None or self.position >= len(self.run.frames)
            if at_end and started == count:
                return frames
            started += at_end
            frames.append(self.next_frame())

    def unread(self) -> None:
        """Put back the frame :meth:`next_frame` just handed out."""
        self.position -= 1
        if self.run.frames[self.position][0] == "check":
            self.check_index -= 1


class Phase:
    """What one phase offered and what came back."""

    def __init__(self, rate: Optional[float]) -> None:
        self.rate = rate  # None: saturation
        self.latencies: List[float] = []
        self.lags: List[float] = []
        self.slices: List[float] = []
        self.backlog: List[float] = []
        self.events = 0
        self.checks = 0
        self.queue_depth_max = 0
        self.seconds = 0.0

    @property
    def factor(self) -> float:
        """How much slower than the reference the daemon's CPU ran."""
        return speed_factor(self.slices, DAEMON_CAL_REF_S)

    def latencies_ms(self) -> List[float]:
        return [s * 1e3 for s in self.latencies]

    def tracked_rate(self) -> float:
        """Events tracked per second at the reference machine speed."""
        return self.events / self.seconds * self.factor

    def growing(self) -> bool:
        """Backlog (daemon FIFO depth plus unsent events) rose from the
        first third of the phase to the last by more than one chunk."""
        third = len(self.backlog) // 3
        if third == 0:
            return False
        first = statistics.mean(self.backlog[:third])
        last = statistics.mean(self.backlog[-third:])
        return last - first > 512


class Fleet:
    """The device connections to one daemon, plus an admin connection."""

    def __init__(self, sock: str, runs: List[Run], seed: int,
                 coloured: bool, failures: Failures) -> None:
        self.sock = sock
        self.devices = [
            Device(f"dev{i}", runs, seed * 7919 + i, coloured)
            for i in range(DEVICES)
        ]
        self.coloured = coloured
        self.failures = failures
        self.bytes_per_event = (
            sum(len(f[1]) for r in runs for f in r.frames)
            / sum(f[2] for r in runs for f in r.frames)
        )
        self.broken: Optional[str] = None
        self.last_reply = 0.0

    async def connect(self) -> None:
        from repro.serve import protocol
        from repro.serve.client import AdminClient, open_connection

        for device in self.devices:
            device.reader, device.writer = await open_connection(
                unix_path=self.sock)
            device.writer.write(protocol.encode_frame(
                protocol.hello_frame(device.name, colours=self.coloured)))
            welcome = json.loads(await device.reader.readline())
            if welcome.get("op") != "welcome":
                raise RuntimeError(f"handshake failed: {welcome}")
            device.reader_task = asyncio.get_running_loop().create_task(
                self._read(device))
        self.admin = await AdminClient.connect(unix_path=self.sock)

    async def close(self) -> None:
        for device in self.devices:
            device.writer.write(b'{"op":"end"}\n')
        for device in self.devices:
            await asyncio.wait_for(device.reader_task, REPLY_TIMEOUT_S)
            device.writer.close()
            await device.writer.wait_closed()
        await self.admin.shutdown()

    async def _read(self, device: Device) -> None:
        from repro.serve import protocol

        while True:
            line = await device.reader.readline()
            arrived = time.perf_counter()
            if not line:
                return
            reply = json.loads(line)
            op = reply.get("op")
            if op == "bye":
                return
            if not device.pending:
                self.broken = f"{device.name}: unexpected reply {reply}"
                return
            self.last_reply = arrived
            kind, due, expected, phase = device.pending.popleft()
            if op == "verdict" and kind == "check":
                ok = (protocol.verdict_key(reply) == expected
                      and not reply.get("degraded"))
                self.failures.check(ok, f"{device.name} verdict {reply}")
                phase.latencies.append(arrived - due)
            elif not (op == "ack" and kind == "reset"):
                self.failures.check(False, f"{device.name} {op}: {reply}")
                self.broken = f"{device.name}: {reply}"
                return

    def _sent(self, device: Device, phase: Phase, kind: str, events: int,
              due: float, expected) -> None:
        phase.events += events
        if kind == "check":
            phase.checks += 1
            device.pending.append((kind, due, expected, phase))
        elif kind == "reset":
            device.pending.append((kind, due, None, phase))

    async def _offer(self, device: Device, phase: Phase, stop) -> None:
        """Open loop: each frame at its due time, whatever the daemon does."""
        clock = time.perf_counter
        start = clock()
        offered = 0
        rate = phase.rate / DEVICES
        unyielded = 0
        while not stop.is_set():
            (kind, payload, events), expected = device.next_frame()
            due = start + (offered + events) / rate
            wait = due - clock()
            if wait > 0 or unyielded >= 32:
                # When behind schedule, still yield now and then so that
                # replies and samples are read.
                unyielded = 0
                await asyncio.sleep(max(wait, 0))
                if stop.is_set():
                    device.unread()
                    return
            unyielded += 1
            phase.lags.append(clock() - due)
            device.writer.write(payload)
            offered += events
            self._sent(device, phase, kind, events, due, expected)

    async def _flood(self, device: Device, phase: Phase, stop) -> None:
        """Hand whole suite passes to the socket at once."""
        frames = device.whole_runs(SATURATION_PASSES * len(device.runs))
        now = time.perf_counter()
        device.writer.write(b"".join(frame[1] for frame, _ in frames))
        for (kind, _, events), expected in frames:
            self._sent(device, phase, kind, events, now, expected)

    async def run_phase(self, rate: Optional[float], seconds: float = 0.0,
                        min_checks: int = 0) -> Phase:
        """Offer ``rate`` events/s for ``seconds`` and ``min_checks``, or
        (``rate`` None) flood the daemon; return once every owed reply
        has arrived."""
        phase = Phase(rate)
        stop = asyncio.Event()
        feed = self._offer if rate is not None else self._flood
        loop = asyncio.get_running_loop()
        senders = [loop.create_task(feed(d, phase, stop))
                   for d in self.devices]
        started = time.perf_counter()
        try:
            while not self.broken:
                await asyncio.sleep(SAMPLE_EVERY_S)
                if rate is None:
                    phase.slices.append(daemon_cpu_slice())
                    if not any(d.pending for d in self.devices):
                        break
                    continue
                depth = (await self.admin.stats())["queue_depth"]
                phase.queue_depth_max = max(phase.queue_depth_max, depth)
                unsent = sum(d.writer.transport.get_write_buffer_size()
                             for d in self.devices)
                phase.backlog.append(depth + unsent / self.bytes_per_event)
                if (time.perf_counter() - started >= seconds
                        and phase.checks >= min_checks):
                    break
        finally:
            stop.set()
            for sender in senders:
                await sender
        stopped = time.perf_counter()
        await self._settle()
        # Saturation is timed to the last owed verdict: everything sent
        # before it has been tracked by then.
        phase.seconds = (stopped if rate is not None else self.last_reply) \
            - started
        return phase

    async def _settle(self) -> None:
        """Wait until every reply owed so far has arrived."""
        deadline = time.perf_counter() + REPLY_TIMEOUT_S
        while any(d.pending for d in self.devices) and not self.broken:
            if time.perf_counter() > deadline:
                missing = sum(len(d.pending) for d in self.devices)
                for _ in range(missing):
                    self.failures.check(False, "verdict never arrived")
                self.broken = f"{missing} replies missing"
                return
            await asyncio.sleep(0.001)


def daemon_cpu_slice() -> float:
    """One calibration slice on the daemon's CPU, in thread CPU time."""
    if not PINNED:
        return calibration_slice(time.thread_time)
    os.sched_setaffinity(0, {DAEMON_CPU})
    try:
        return calibration_slice(time.thread_time)
    finally:
        os.sched_setaffinity(0, {GENERATOR_CPU})


class Daemon:
    """A ``repro serve`` process on a unix socket inside the checkout."""

    def __init__(self, root: str, tag: str, coloured: bool,
                 spans: Optional[str] = None) -> None:
        self.sock = os.path.join(".perfbench", f"{os.getpid()}-{tag}.sock")
        self.log = os.path.join(".perfbench", f"{os.getpid()}-{tag}.log")
        serve_args = ["serve", "--unix", self.sock, "--ni", str(NI),
                      "--nt", str(NT)]
        if coloured:
            serve_args.append("--colours")
        if spans is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            launcher = os.path.join(os.path.dirname(__file__), "daemon.py")
            command = [sys.executable, launcher, "--spans", spans,
                       "--"] + serve_args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        with open(self.log, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                stderr=log,
            )
        if PINNED:
            os.sched_setaffinity(self.proc.pid, {DAEMON_CPU})
            os.sched_setaffinity(0, {GENERATOR_CPU})

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            with open(self.log, encoding="utf-8") as log:
                if "pift-serve ready" in log.read():
                    return
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited: see {self.log}")
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon never became ready")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def cpu_s(self) -> float:
        return process_cpu_s(self.proc.pid)

    def stop(self, kill: bool = False) -> None:
        """Reap the process (after a ``shutdown`` verb, or kill it)."""
        if kill:
            self.proc.kill()
        try:
            self.proc.wait(timeout=REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if os.path.exists(self.sock):
            os.unlink(self.sock)


class _Session:
    """A ready daemon plus the fleet connected to it, torn down on exit."""

    def __init__(self, daemon: Daemon, runs, seed, coloured, failures):
        self.daemon = daemon
        self.fleet = Fleet(daemon.sock, runs, seed, coloured, failures)

    async def __aenter__(self):
        self.daemon.wait_ready()
        await self.fleet.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.daemon.proc.poll() is None:
            try:
                await self.fleet.close()
            finally:
                self.daemon.stop()
        else:
            self.daemon.stop(kill=True)
        if self.fleet.broken:
            self.fleet.failures.check(
                False, f"stream broken: {self.fleet.broken}")


def _record():
    import repro.apps.droidbench as droidbench

    apps = droidbench.record_suite()
    return apps, build_runs(apps)


def run(seed: int, seconds: float, trace: bool, root: str,
        out_dir: str) -> Tuple[Dict[str, float], Failures, dict]:
    failures = Failures()
    notes: dict = {}
    if trace:
        return asyncio.run(_traced(seed, root, out_dir, failures, notes))
    # Set-up is not normalised for host speed: the daemons start on their
    # own CPU, whose speed a calibration loop here cannot see.
    setups = []
    daemons: List[Daemon] = []
    try:
        for _ in range(SETUPS):
            for daemon in daemons:
                daemon.stop(kill=True)
            started = time.perf_counter()
            apps, runs = _record()
            daemons = [Daemon(root, "plain", coloured=False),
                       Daemon(root, "coloured", coloured=True)]
            for daemon in daemons:
                daemon.wait_ready()
            setups.append(time.perf_counter() - started)
        expected_verdicts(apps, runs, coloured=False)
        expected_verdicts(apps, runs, coloured=True)
        metrics = asyncio.run(
            _measure(seed, seconds, runs, daemons, failures, notes))
    finally:
        for daemon in daemons:
            if daemon.proc.poll() is None:
                daemon.stop(kill=True)
    metrics["setup_s"] = median(setups)
    return metrics, failures, notes


async def _measure(seed, seconds, runs, daemons, failures, notes):
    plain_daemon, coloured_daemon = daemons
    rates: Dict[str, List[float]] = {"plain": [], "coloured": []}
    raw: Dict[str, List[float]] = {"plain": [], "coloured": []}
    async with _Session(plain_daemon, runs, seed, False, failures) as plain, \
            _Session(coloured_daemon, runs, seed, True, failures) as coloured:
        fixed = await plain.fleet.run_phase(
            FIXED_RATE, FIXED_SHARE * seconds, FIXED_MIN_CHECKS)
        for _ in range(FLOODS):
            for kind, session in (("plain", plain), ("coloured", coloured)):
                flood = await session.fleet.run_phase(None)
                rates[kind].append(flood.tracked_rate())
                raw[kind].append(flood.events / flood.seconds)
        rss = plain_daemon.peak_rss_mb()
    latencies_ms = fixed.latencies_ms()
    notes.update({
        "fixed_checks": len(latencies_ms),
        "verdict_p50_ms": median(latencies_ms),
        "verdict_p99_ms": percentile(latencies_ms, 99),
        "fixed_backlog_growing": fixed.growing(),
        "fixed_queue_depth_max": fixed.queue_depth_max,
        "gen_lag_p99_ms": percentile(fixed.lags, 99) * 1e3,
        "gen_lag_max_ms": max(fixed.lags) * 1e3,
        "flood_rates": rates,
        "raw_flood_rates": raw,
    })
    return {
        "events_per_s": median(rates["plain"]),
        "coloured_events_per_s": median(rates["coloured"]),
        "peak_rss_mb": rss,
    }


async def _traced(seed, root, out_dir, failures, notes):
    """The open-loop phase against an untraced then a traced daemon; the
    daemon's CPU time per offered event gives the tracing overhead."""
    tracer = Tracer()
    layers.install(tracer, "setup")
    apps, runs = _record()
    tracer.uninstall()
    expected_verdicts(apps, runs, coloured=False)
    spans = os.path.join(out_dir, f"spans-serve_stream-{seed}-daemon.jsonl")
    cpu_per_event = []
    phases = []
    for tag, span_path in (("untraced", None), ("traced", spans)):
        daemon = Daemon(root, tag, coloured=False, spans=span_path)
        async with _Session(daemon, runs, seed, False, failures) as session:
            cpu0 = daemon.cpu_s()
            phase = await session.fleet.run_phase(
                FIXED_RATE, 5.0, FIXED_MIN_CHECKS)
            cpu_per_event.append((daemon.cpu_s() - cpu0) / phase.events)
            phases.append(phase)
    untraced, traced = phases
    with open(spans, encoding="utf-8") as dumped:
        tracer.merge(json.loads(dumped.readline())["summary"])
    tracer.dump(os.path.join(out_dir, f"spans-serve_stream-{seed}.jsonl"))
    extra = {
        "serve.queue_depth_max": traced.queue_depth_max,
        "gen.lag_p99_ms": percentile(traced.lags, 99) * 1e3,
        "gen.lag_max_ms": max(traced.lags) * 1e3,
        "gen.events_offered": traced.events,
        "gen.checks_sent": traced.checks,
        "trace.overhead_frac": cpu_per_event[1] / cpu_per_event[0] - 1.0,
        "e2e.verdict_p50_ms": median(untraced.latencies_ms()),
        "e2e.verdict_p99_ms": percentile(untraced.latencies_ms(), 99),
    }
    notes["daemon_cpu_us_per_event"] = [c * 1e6 for c in cpu_per_event]
    return layers.layer_metrics(tracer, extra), failures, notes
