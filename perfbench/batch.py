"""The batch workloads: ``fig11_grid``, ``lgroot_replay``, ``dense_payload``.

Each workload records (or generates) its input in this process, primes
replay plans and columns, replays a fixed set of cells for the timed
window, and checks every replay it timed against the scalar reference
(``vectorized=False``) outside the timers.  Inputs are never copied or
mutated: ``replay_plan_for`` caches its plan on the run itself.

All replays go through the module attributes of ``repro.analysis.replay``
and ``repro.sweep.engine`` so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

import layers
from common import (
    Failures, calibration_slices, median, peak_rss_mb, speed_factor,
)
from tracer import Tracer

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

FIG11_WINDOWS = tuple(range(1, 21))
FIG11_CAPS = tuple(range(1, 11))
#: The coloured attribution pass of the grid runs at the paper's NI.
FIG11_COLOURED_NI = 13

#: Figures 14-17 cells, sparse to dense.
LGROOT_CELLS = ((1, 1), (5, 2), (13, 3), (17, 6), (20, 10))
LGROOT_WORK = 160

DENSE_CELLS = ((13, 3), (13, 6), (21, 3), (34, 6))
DENSE_EVENTS = 80_000
#: Plain replays per cell per round: plain is ~80x faster than coloured
#: here, so it is repeated to give it a fair share of the window.
DENSE_PLAIN_REPEATS = 20


def _config(ni: int, nt: int, vectorized: bool = True):
    from repro.core.config import PIFTConfig

    return PIFTConfig(ni, nt, vectorized=vectorized)


def _outcomes(result, colours: bool = True) -> List[tuple]:
    return [
        (o.sink_name, o.channel, o.instruction_index, o.pid, o.tainted)
        + ((o.colours,) if colours else ())
        for o in result.sink_outcomes
    ]


def _same(result, reference) -> bool:
    """Sink outcomes and TrackerStats equal the reference replay's."""
    return (
        _outcomes(result) == _outcomes(reference)
        and result.stats.as_dict() == reference.stats.as_dict()
    )


def _events(result) -> int:
    return result.stats.loads_observed + result.stats.stores_observed


def _prime(recorded) -> None:
    """Build the plan, columns and numpy column arrays users pay once."""
    from repro.analysis.replay import replay_plan_for

    replay_plan_for(recorded)
    recorded.trace.columns().arrays()


def dense_run(seed: int):
    """A taint-dense two-source run: each step loads the ``imei`` source
    then stores three times into the tainted ``buffer``, so Algorithm 1
    acts on every event."""
    from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
    from repro.core.events import load, store
    from repro.core.ranges import AddressRange

    source_lo, source_hi = 0, 4_095
    buffer_lo, buffer_hi = 8_192, 73_727
    rng = random.Random(seed)
    run = RecordedRun()
    run.sources.append(
        SourceRegistration(AddressRange(source_lo, source_hi), 0, "imei"))
    run.sources.append(
        SourceRegistration(AddressRange(buffer_lo, buffer_hi), 0, "buffer"))
    for i in range(DENSE_EVENTS):
        index = i + 1
        if i % 4 == 0:
            a = rng.randrange(source_lo, source_hi - 8)
            run.trace.append(load(a, a + 3, index))
        else:
            a = rng.randrange(buffer_lo, buffer_hi - 8)
            run.trace.append(store(a, a + 7, index))
    run.trace.note_instruction(DENSE_EVENTS + 1)
    run.sink_checks.append(SinkCheck(
        AddressRange(buffer_lo, buffer_lo + 63), DENSE_EVENTS + 1,
        "network", "socket"))
    return run


KINDS = ("plain", "coloured")


class _Timed:
    """Timed figures per round, raw and at the reference machine speed.

    A round is made of units (a fig11 grid row, or one cell of the other
    workloads).  Calibration slices are taken between units, and each
    unit's times are divided by the speed factor of the slices just
    before and just after it.  A unit's timers run inside :meth:`region`,
    which in a traced pass installs the layer wrappers around them and
    around nothing else."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.rounds: List[dict] = []
        #: Raw seconds inside default-dispatch and scalar-reference replay
        #: calls, over the same replays.
        self.replay_s = dict.fromkeys(KINDS, 0.0)
        self.scalar_s = dict.fromkeys(KINDS, 0.0)
        self._before = calibration_slices()

    @contextlib.contextmanager
    def region(self):
        if self.tracer is None:
            yield
            return
        layers.install(self.tracer, "batch")
        try:
            yield
        finally:
            self.tracer.uninstall()

    def start_round(self) -> None:
        self.rounds.append({
            "events": dict.fromkeys(KINDS, 0),
            "seconds": dict.fromkeys(KINDS, 0.0),
            "raw_seconds": dict.fromkeys(KINDS, 0.0),
        })

    def unit(self, seconds: Dict[str, float], events: Dict[str, int],
             replay_s: Optional[Dict[str, float]] = None) -> None:
        """Record one unit's timed seconds and events per kind, and (fig11,
        whose timed seconds include sweep bookkeeping) the seconds inside
        replay calls alone."""
        after = calibration_slices()
        factor = speed_factor(self._before + after)
        self._before = after
        current = self.rounds[-1]
        for kind in KINDS:
            current["events"][kind] += events[kind]
            current["seconds"][kind] += seconds[kind] / factor
            current["raw_seconds"][kind] += seconds[kind]
            self.replay_s[kind] += (replay_s or seconds)[kind]

    def scalar(self, seconds: Dict[str, float]) -> None:
        """Record the scalar reference's seconds for the replays of the
        last unit."""
        for kind in KINDS:
            self.scalar_s[kind] += seconds[kind]

    def auto_over_scalar(self) -> Dict[str, float]:
        return {kind: self.replay_s[kind] / self.scalar_s[kind]
                for kind in KINDS}

    def rate(self, kind: str, per_pass: int, raw: bool = False) -> float:
        """Events per second of each complete pass (``per_pass`` rounds:
        the rounds of a pass differ, those of two passes do not), median
        over passes."""
        seconds = "raw_seconds" if raw else "seconds"
        passes = [self.rounds[i:i + per_pass]
                  for i in range(0, len(self.rounds) - per_pass + 1,
                                 per_pass)]
        return median(
            sum(r["events"][kind] for r in rounds)
            / sum(r[seconds][kind] for r in rounds)
            for rounds in passes
        )


# -- fig11_grid ------------------------------------------------------------


class Fig11Grid:
    """All 57 DroidBench runs under every (NI, NT) in 1..20 x 1..10."""

    name = "fig11_grid"

    def __init__(self, seed: int) -> None:
        self.seed = seed  # the recorded suite is deterministic

    def setup(self) -> None:
        import repro.apps.droidbench as droidbench
        from repro.sweep.cache import TraceCache

        self.runs = droidbench.record_suite()
        for app in self.runs:
            _prime(app.recorded)
        self.index = {id(app.recorded): i for i, app in enumerate(self.runs)}
        self.cache = TraceCache(droidbench=self.runs)

    def _reference(self, nt: int, timed: _Timed):
        """Scalar replays of grid row ``nt``, plain and coloured, timed.

        Run after the row's timed region and dropped with the row, so
        that the run never holds more than one row's reference."""
        replay_mod = importlib.import_module("repro.analysis.replay")
        from repro.analysis.accuracy import AccuracyReport

        plain: Dict[Tuple[int, int], object] = {}
        reports: Dict[int, dict] = {}
        spent = dict.fromkeys(KINDS, 0.0)
        for ni in FIG11_WINDOWS:
            config = _config(ni, nt, vectorized=False)
            report = AccuracyReport()
            started = time.perf_counter()
            results = [replay_mod.replay(a.recorded, config)
                       for a in self.runs]
            spent["plain"] += time.perf_counter() - started
            for i, (app, result) in enumerate(zip(self.runs, results)):
                plain[(i, ni)] = result
                report.record(app.name, app.leaks, result.alarm)
            reports[ni] = report.as_dict()
        config = _config(FIG11_COLOURED_NI, nt, vectorized=False)
        started = time.perf_counter()
        coloured = [replay_mod.replay_coloured(a.recorded, config)
                    for a in self.runs]
        spent["coloured"] += time.perf_counter() - started
        timed.scalar(spent)
        return plain, reports, coloured

    def _row(self, nt: int, timed: _Timed, failures: Failures) -> None:
        replay_mod = importlib.import_module("repro.analysis.replay")
        from repro.sweep import engine
        from repro.sweep.specs import GridSpec

        captured: List[tuple] = []
        coloured_config = _config(FIG11_COLOURED_NI, nt)
        coloured = []
        with timed.region():
            inner = replay_mod.replay

            def capture(recorded, config, *args, **kwargs):
                started = time.perf_counter()
                result = inner(recorded, config, *args, **kwargs)
                captured.append((recorded, config, result,
                                 time.perf_counter() - started))
                return result

            replay_mod.replay = capture
            try:
                started = time.perf_counter()
                sweep = engine.run_sweep(
                    GridSpec(window_sizes=FIG11_WINDOWS,
                             propagation_caps=(nt,)),
                    cache=self.cache, jobs=1,
                )
                plain_s = time.perf_counter() - started
            finally:
                replay_mod.replay = inner
            started = time.perf_counter()
            for app in self.runs:
                coloured.append(replay_mod.replay_coloured(
                    app.recorded, coloured_config))
            coloured_s = time.perf_counter() - started
        timed.unit(
            {"plain": plain_s, "coloured": coloured_s},
            {"plain": sum(cell.events_tracked for cell in sweep.cells),
             "coloured": sum(map(_events, coloured))},
            {"plain": sum(c[3] for c in captured), "coloured": coloured_s},
        )

        # Correctness, outside the timers.
        ref, ref_reports, ref_coloured = self._reference(nt, timed)
        for recorded, config, result, _ in captured:
            key = (self.index[id(recorded)], config.window_size)
            failures.check(config.max_propagations == nt
                           and _same(result, ref[key]),
                           f"fig11 plain {key + (nt,)}")
        failures.check(len(captured) == len(FIG11_WINDOWS) * len(self.runs),
                       f"fig11 row {nt} replay count {len(captured)}")
        for cell in sweep.cells:
            ni = cell.config.window_size
            refs = [ref[(i, ni)] for i in range(len(self.runs))]
            failures.check(
                cell.report.as_dict() == ref_reports[ni]
                and cell.events_tracked == sum(map(_events, refs))
                and cell.operations == sum(
                    r.stats.total_operations for r in refs),
                f"fig11 cell ({ni},{nt}) payload",
            )
        for i, result in enumerate(coloured):
            failures.check(
                _same(result, ref_coloured[i])
                and _outcomes(result, colours=False)
                == _outcomes(ref[(i, FIG11_COLOURED_NI)], colours=False),
                f"fig11 coloured ({i},{FIG11_COLOURED_NI},{nt})",
            )

    def timed_rounds(self) -> List[Callable]:
        return [
            (lambda timed, failures, nt=nt: self._row(nt, timed, failures))
            for nt in FIG11_CAPS
        ]


# -- lgroot_replay / dense_payload ------------------------------------------


class CellReplays:
    """One recorded run replayed plain then coloured under fixed cells."""

    def __init__(self, name: str, seed: int, cells, plain_repeats: int,
                 make_run: Callable) -> None:
        self.name = name
        self.seed = seed
        self.cells = cells
        self.plain_repeats = plain_repeats
        self.make_run = make_run
        self.ref: Optional[dict] = None

    def setup(self) -> None:
        self.recorded = self.make_run(self.seed)
        _prime(self.recorded)

    def _reference(self) -> dict:
        """Scalar replays of every cell, plain and coloured, each timed
        (plain counted once per repeat, as the timed rounds replay it)."""
        replay_mod = importlib.import_module("repro.analysis.replay")

        ref = {}
        for ni, nt in self.cells:
            config = _config(ni, nt, vectorized=False)
            started = time.perf_counter()
            plain = replay_mod.replay(self.recorded, config)
            middle = time.perf_counter()
            coloured = replay_mod.replay_coloured(self.recorded, config)
            spent = {"plain": (middle - started) * self.plain_repeats,
                     "coloured": time.perf_counter() - middle}
            ref[(ni, nt)] = (plain, coloured, spent)
        return ref

    def _round(self, timed: _Timed, failures: Failures) -> None:
        replay_mod = importlib.import_module("repro.analysis.replay")

        if self.ref is None:
            self.ref = self._reference()
        done = []
        for ni, nt in self.cells:
            config = _config(ni, nt)
            seconds = dict.fromkeys(KINDS, 0.0)
            events = dict.fromkeys(KINDS, 0)
            with timed.region():
                for _ in range(self.plain_repeats):
                    started = time.perf_counter()
                    plain = replay_mod.replay(self.recorded, config)
                    seconds["plain"] += time.perf_counter() - started
                    events["plain"] += _events(plain)
                    done.append(("plain", ni, nt, plain))
                started = time.perf_counter()
                coloured = replay_mod.replay_coloured(self.recorded, config)
                seconds["coloured"] += time.perf_counter() - started
            events["coloured"] += _events(coloured)
            done.append(("coloured", ni, nt, coloured))
            timed.unit(seconds, events)
            timed.scalar(self.ref[(ni, nt)][2])
        for kind, ni, nt, result in done:
            plain_ref, coloured_ref, _ = self.ref[(ni, nt)]
            if kind == "plain":
                ok = _same(result, plain_ref)
            else:
                ok = _same(result, coloured_ref) and (
                    _outcomes(result, colours=False)
                    == _outcomes(plain_ref, colours=False)
                )
            failures.check(ok, f"{self.name} {kind} ({ni},{nt})")

    def timed_rounds(self) -> List[Callable]:
        return [self._round]


def _lgroot(seed: int):
    import repro.apps.malware as malware

    return malware.record_lgroot_trace(work=LGROOT_WORK)


def make_workload(name: str, seed: int):
    if name == "fig11_grid":
        return Fig11Grid(seed)
    if name == "lgroot_replay":
        return CellReplays(name, seed, LGROOT_CELLS, 1, _lgroot)
    if name == "dense_payload":
        return CellReplays(name, seed, DENSE_CELLS, DENSE_PLAIN_REPEATS,
                           dense_run)
    raise ValueError(name)


# -- driving ---------------------------------------------------------------


def _passes(workload, failures: Failures, seconds: float = 0.0,
            tracer: Optional[Tracer] = None) -> Tuple[_Timed, int]:
    """Run the workload's rounds cyclically: at least one full pass, and
    until ``seconds`` have gone by; with ``tracer``, the timed regions
    are traced.  Returns the timings and the number of rounds run."""
    timed = _Timed(tracer)
    rounds = workload.timed_rounds()
    started = time.perf_counter()
    i = 0
    while i < len(rounds) or time.perf_counter() - started < seconds:
        timed.start_round()
        rounds[i % len(rounds)](timed, failures)
        i += 1
    return timed, i


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: str) -> Tuple[Dict[str, float], Failures, dict]:
    """Run one batch workload; returns (metrics, failures, notes).

    Times and rates are expressed at the reference machine speed
    (:func:`common.speed_factor` of calibration slices taken around every
    set-up and every timed unit); the raw figures go into the notes."""
    failures = Failures()
    notes: dict = {}
    if not trace:
        setups = []
        for _ in range(SETUPS):
            # Drop the last set-up's input before recording the next, so
            # that the peak memory holds one input only.
            workload = None
            gc.collect()
            workload = make_workload(name, seed)
            before = calibration_slices()
            started = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - started
            setups.append(
                (elapsed, elapsed / speed_factor(before + calibration_slices())))
        timed, rounds = _passes(workload, failures, seconds)
        per_pass = len(workload.timed_rounds())
        metrics = {
            "setup_s": median(s for _, s in setups),
            "events_per_s": timed.rate("plain", per_pass),
            "coloured_events_per_s": timed.rate("coloured", per_pass),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes.update({
            "rounds": rounds,
            "auto_over_scalar": timed.auto_over_scalar(),
            "raw": {
                "setup_s": median(raw for raw, _ in setups),
                "events_per_s": timed.rate("plain", per_pass, raw=True),
                "coloured_events_per_s": timed.rate(
                    "coloured", per_pass, raw=True),
            },
        })
        return metrics, failures, notes

    # Set-up under the set-up wrappers, then one untraced pass with no
    # wrappers at all, then one pass with the layer wrappers around its
    # timed regions.
    tracer = Tracer()
    layers.install(tracer, "setup")
    try:
        workload = make_workload(name, seed)
        workload.setup()
    finally:
        tracer.uninstall()
    untraced, _ = _passes(workload, failures)
    traced, _ = _passes(workload, failures, tracer=tracer)
    tracer.dump(f"{out_dir}/spans-{name}-{seed}.jsonl")
    walls = [
        sum(r["seconds"][kind] for r in timed.rounds for kind in KINDS)
        for timed in (untraced, traced)
    ]
    extra = {
        f"kernel.auto_over_scalar.{kind}": ratio
        for kind, ratio in untraced.auto_over_scalar().items()
    }
    extra["trace.overhead_frac"] = walls[1] / walls[0] - 1.0
    notes.update({
        "untraced_wall_s": walls[0], "traced_wall_s": walls[1],
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
    })
    return layers.layer_metrics(tracer, extra), failures, notes
