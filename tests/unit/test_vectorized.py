"""Unit tests for the vectorised columnar kernel and its dispatch gates.

The property suite (``tests/property/test_batch_parity.py``) proves
observational equivalence on random streams; these tests pin the
*mechanics* — dispatcher gating, column/interval mirror caching, block
adaptation, and the dense-trace bail-out — with deterministic traces.
"""

import random
from dataclasses import replace

import pytest

from repro.core import vectorized
from repro.core.config import PIFTConfig
from repro.core.events import ColumnArrays, EventColumns, load, store
from repro.core.ranges import AddressRange, RangeSet
from repro.core.taint_storage import paper_default_storage
from repro.core.tracker import (
    _VECTORIZED_MIN_EVENTS,
    ColourTracker,
    KernelCounters,
    PIFTTracker,
)

SOURCE = AddressRange(0, 15)


def untainted_stream(count, start_index=0, pid=0):
    """Loads/stores far away from SOURCE: every event is irrelevant."""
    out = []
    for i in range(count):
        base = 10_000 + 16 * i
        maker = load if i % 2 == 0 else store
        out.append(maker(base, base + 3, start_index + i, pid))
    return out


def tainting_stream(count, start_index=0, pid=0):
    """Every load hits SOURCE: maximally relevant (dense) trace."""
    out = []
    for i in range(count):
        maker = load if i % 2 == 0 else store
        out.append(maker(0, 3, start_index + i, pid))
    return out


def churn_stream(count, start_index=0, pid=0):
    """Taint/untaint churn: every store is a content mutation.

    With ``window_size=50, max_propagations=1``: each triple is a hit
    load (reopens the window), a store tainting a fresh disjoint range
    (cap reached), then a store over the previous triple's range — past
    the cap and overlapping, so it untaints.  The dense executor's cost
    rule hands off at once, forcing the density bail-out.
    """
    out = []
    for i in range(count):
        k = start_index + i
        phase = i % 3
        if phase == 0:
            out.append(load(0, 3, k, pid))
        elif phase == 1:
            base = 20_000 + i * 8
            out.append(store(base, base + 3, k, pid))
        else:
            base = 20_000 + (i - 1) * 8
            out.append(store(base, base + 3, k, pid))
    return out


def make_tracker(vectorized_on=True, **kwargs):
    tracker = PIFTTracker(PIFTConfig(vectorized=vectorized_on), **kwargs)
    tracker.taint_source(SOURCE)
    return tracker


class TestDispatch:
    def test_long_rangeset_slice_uses_kernel(self, monkeypatch):
        calls = []
        real = vectorized.observe_columns
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: calls.append(a) or real(*a),
        )
        tracker = make_tracker()
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS)
            )
        )
        assert len(calls) == 1

    def test_short_slice_stays_scalar(self, monkeypatch):
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: pytest.fail("kernel used on short slice"),
        )
        tracker = make_tracker()
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS - 1)
            )
        )
        assert tracker.stats.loads_observed > 0

    def test_config_off_stays_scalar(self, monkeypatch):
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: pytest.fail("kernel used with vectorized=False"),
        )
        tracker = make_tracker(vectorized_on=False)
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS * 2)
            )
        )

    def test_bounded_backend_stays_scalar(self, monkeypatch):
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: pytest.fail("kernel used with bounded backend"),
        )
        tracker = PIFTTracker(
            PIFTConfig(vectorized=True), state_factory=paper_default_storage
        )
        tracker.taint_source(SOURCE)
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS * 2)
            )
        )

    def test_telemetry_shadow_stays_per_event(self, monkeypatch):
        from repro.telemetry import Telemetry

        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: pytest.fail("kernel used under telemetry shadow"),
        )
        tracker = PIFTTracker(
            PIFTConfig(vectorized=True), telemetry=Telemetry()
        )
        tracker.taint_source(SOURCE)
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS * 2)
            )
        )
        assert tracker.stats.loads_observed > 0

    def test_forced_hook_runs_kernel_on_short_slices(self, monkeypatch):
        calls = []
        real = vectorized.observe_columns
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: calls.append(a) or real(*a),
        )
        tracker = make_tracker()
        tracker.observe_columns_vectorized(
            EventColumns.from_events(untainted_stream(8))
        )
        assert len(calls) == 1


class TestColumnArrays:
    def test_arrays_cached_per_columns(self):
        columns = EventColumns.from_events(untainted_stream(10))
        first = columns.arrays()
        assert isinstance(first, ColumnArrays)
        assert columns.arrays() is first

    def test_arrays_match_columns(self):
        stream = untainted_stream(6, pid=3) + tainting_stream(
            6, start_index=6, pid=5
        )
        arrays = EventColumns.from_events(stream).arrays()
        assert arrays.starts.tolist() == [
            e.address_range.start for e in stream
        ]
        assert arrays.ends.tolist() == [e.address_range.end for e in stream]
        assert arrays.is_load.tolist() == [e.is_load for e in stream]
        assert arrays.indices.tolist() == [
            e.instruction_index for e in stream
        ]
        assert arrays.pids.tolist() == [e.pid for e in stream]
        assert arrays.pid_values == (3, 5)


class TestRangeSetMirror:
    def test_mirror_matches_and_caches(self):
        rs = RangeSet()
        rs.add(AddressRange(10, 19))
        rs.add(AddressRange(40, 49))
        starts, ends = rs.as_arrays()
        assert starts.tolist() == [10, 40]
        assert ends.tolist() == [19, 49]
        again = rs.as_arrays()
        assert again[0] is starts and again[1] is ends

    def test_mirror_refreshes_on_mutation(self):
        rs = RangeSet()
        rs.add(AddressRange(10, 19))
        rs.as_arrays()
        rs.add(AddressRange(30, 39))
        starts, ends = rs.as_arrays()
        assert starts.tolist() == [10, 30]
        rs.remove(AddressRange(10, 19))
        starts, ends = rs.as_arrays()
        assert starts.tolist() == [30]
        assert ends.tolist() == [39]

    def test_total_size_incremental(self):
        rs = RangeSet()
        rs.add(AddressRange(0, 9))
        rs.add(AddressRange(20, 29))
        assert rs.total_size == 20
        rs.add(AddressRange(5, 24))  # merges everything into [0, 29]
        assert rs.total_size == 30
        rs.remove(AddressRange(10, 19))
        assert rs.total_size == 20
        rs.clear()
        assert rs.total_size == 0


class TestKernelMechanics:
    def test_skip_accounts_counters_exactly(self):
        stream = untainted_stream(2000)
        reference = make_tracker(vectorized_on=False)
        reference.observe_columns(EventColumns.from_events(stream))
        tracker = make_tracker()
        tracker.observe_columns_vectorized(EventColumns.from_events(stream))
        assert tracker.stats.as_dict() == reference.stats.as_dict()

    def test_multi_pid_skip_accounting(self):
        stream = []
        for i in range(400):
            stream.extend(untainted_stream(1, start_index=i, pid=i % 3))
        reference = make_tracker(vectorized_on=False)
        reference.observe_columns(EventColumns.from_events(stream))
        tracker = make_tracker()
        tracker.observe_columns_vectorized(EventColumns.from_events(stream))
        assert tracker.stats.as_dict() == reference.stats.as_dict()
        assert tracker.instructions_per_pid == reference.instructions_per_pid

    def test_dense_trace_executes_vectorised(self, monkeypatch):
        # The taint-dense regime that used to bail out wholesale now runs
        # through the dense executor: window evolution and contained
        # taint-adds are bulk-committed, with no scalar spans at all.
        stream = tainting_stream(vectorized.BAILOUT_AFTER * 4)
        columns = EventColumns.from_events(stream)
        tracker = make_tracker()
        monkeypatch.setattr(
            tracker,
            "observe_columns_scalar",
            lambda *a, **k: pytest.fail("scalar loop used on dense trace"),
        )
        tracker.observe_columns_vectorized(columns)
        reference = make_tracker(vectorized_on=False)
        reference.observe_columns(columns)
        assert tracker.stats.as_dict() == reference.stats.as_dict()

    def test_churn_trace_bails_out_bounded_and_reprobes(self, monkeypatch):
        # Taint/untaint churn defeats the dense executor (every event is
        # a content mutation), so the density bail-out engages — but in
        # bounded REPROBE_EVERY chunks, and once the sparse tail starts
        # the kernel re-probes and regains wholesale skipping.
        prefix = churn_stream(vectorized.BAILOUT_AFTER * 6)
        tail_start = len(prefix)
        stream = prefix + untainted_stream(
            vectorized.REPROBE_EVERY * 4, start_index=tail_start
        )
        columns = EventColumns.from_events(stream)
        config = PIFTConfig(window_size=50, max_propagations=1)
        tracker = PIFTTracker(config)
        tracker.taint_source(SOURCE)
        spans = []
        real = tracker.observe_columns_scalar

        def spy(cols, start=0, stop=None):
            spans.append((start, stop))
            return real(cols, start, stop)

        monkeypatch.setattr(tracker, "observe_columns_scalar", spy)
        tracker.observe_columns_vectorized(columns)
        assert spans, "churn prefix should force scalar spans"
        # Satellite: no span may hand the whole remainder to the scalar
        # loop — every bail-out chunk is bounded.
        assert all(
            stop - start <= vectorized.REPROBE_EVERY
            for start, stop in spans
        )
        # The sparse tail is re-probed and skipped, not nibbled scalar.
        tail_margin = tail_start + vectorized.REPROBE_EVERY
        assert all(start < tail_margin for start, _ in spans)
        reference = PIFTTracker(config)
        reference.taint_source(SOURCE)
        reference.observe_columns_scalar(columns)
        assert tracker.stats.as_dict() == reference.stats.as_dict()
        assert tracker.snapshot() == reference.snapshot()

    def test_window_lower_edge_excludes_regressed_stores(self):
        # A store whose per-PID index regressed below the window-opening
        # load is outside the tainting window (the window is the NI
        # instructions *following* the load) — on all three paths.
        config = PIFTConfig(
            window_size=10, max_propagations=4, untainting=False
        )
        stream = [load(0, 3, 100)]  # opens the window at k=100
        stream += [store(5_000, 5_003, 50)]  # regressed: below the load
        stream += [store(6_000, 6_003, 105)]  # inside [100, 110]
        stream += untainted_stream(1200, start_index=200)
        columns = EventColumns.from_events(stream)
        trackers = []
        for _ in range(3):
            tracker = PIFTTracker(config)
            tracker.taint_source(SOURCE)
            trackers.append(tracker)
        for event in columns.events:
            trackers[0].observe(event)
        trackers[1].observe_columns_scalar(columns)
        trackers[2].observe_columns_vectorized(columns)
        for tracker in trackers:
            assert tracker.stats.taint_operations == 1
            assert not tracker.check(AddressRange(5_000, 5_003))
            assert tracker.check(AddressRange(6_000, 6_003))
        assert trackers[0].snapshot() == trackers[1].snapshot()
        assert trackers[1].snapshot() == trackers[2].snapshot()

    def test_numpy_absence_falls_back_scalar_with_one_warning(
        self, monkeypatch
    ):
        stream = tainting_stream(600)
        columns = EventColumns.from_events(stream)
        monkeypatch.setattr(vectorized, "_np", None)
        monkeypatch.setattr(vectorized, "_numpy_fallback_warned", False)
        monkeypatch.setattr(
            EventColumns,
            "arrays",
            lambda self: pytest.fail("fallback must not build numpy arrays"),
        )
        tracker = make_tracker()
        with pytest.warns(RuntimeWarning, match="falling back"):
            tracker.observe_columns_vectorized(columns)
        reference = make_tracker(vectorized_on=False)
        reference.observe_columns_scalar(columns)
        assert tracker.stats.as_dict() == reference.stats.as_dict()
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # second call: no warning
            tracker.observe_columns_vectorized(columns)

    def test_mostly_untainted_trace_skips_wholesale(self, monkeypatch):
        stream = untainted_stream(vectorized.BLOCK_MIN * 8)
        columns = EventColumns.from_events(stream)
        tracker = make_tracker()
        monkeypatch.setattr(
            tracker,
            "observe_columns_scalar",
            lambda *a, **k: pytest.fail(
                "scalar loop used on fully-irrelevant trace"
            ),
        )
        tracker.observe_columns_vectorized(columns)
        assert tracker.stats.loads_observed == len(columns) // 2
        assert tracker.stats.stores_observed == len(columns) - (
            len(columns) // 2
        )

    def test_kernel_respects_slice_bounds(self):
        stream = untainted_stream(1500)
        columns = EventColumns.from_events(stream)
        tracker = make_tracker()
        tracker.observe_columns_vectorized(columns, 100, 900)
        reference = make_tracker(vectorized_on=False)
        reference.observe_columns(columns, 100, 900)
        assert tracker.stats.as_dict() == reference.stats.as_dict()

    def test_window_relevance_catches_far_stores(self):
        # A tainted load opens a window; a store to a far-away address
        # inside the window must still be classified relevant (it gets
        # tainted), not skipped as "no overlap".
        config = PIFTConfig(window_size=10, max_propagations=2)
        stream = [load(0, 3, 0)]  # tainted load at SOURCE
        stream += [store(50_000 + 8 * i, 50_003 + 8 * i, 2 + i) for i in range(4)]
        stream += untainted_stream(1200, start_index=100)
        columns = EventColumns.from_events(stream)
        tracker = PIFTTracker(config)
        tracker.taint_source(SOURCE)
        tracker.observe_columns_vectorized(columns)
        reference = PIFTTracker(config)
        reference.taint_source(SOURCE)
        reference.observe_columns_scalar(columns)
        assert tracker.stats.as_dict() == reference.stats.as_dict()
        assert tracker.snapshot() == reference.snapshot()
        assert tracker.stats.taint_operations >= 2


def events_observed(tracker):
    return tracker.stats.loads_observed + tracker.stats.stores_observed


def counted_events(tracker):
    kernel = tracker.kernel
    return kernel.skipped_events + kernel.dense_events + kernel.scalar_events


class TestKernelCounters:
    def test_scalar_loop_counts_every_event(self):
        tracker = make_tracker(vectorized_on=False)
        tracker.observe_columns(EventColumns.from_events(churn_stream(900)))
        assert tracker.kernel.scalar_events == 900
        assert counted_events(tracker) == events_observed(tracker)

    def test_sparse_trace_counts_as_skipped(self):
        tracker = make_tracker()
        columns = EventColumns.from_events(untainted_stream(2000))
        tracker.observe_columns_vectorized(columns)
        assert tracker.kernel.skipped_events == 2000
        assert tracker.kernel.dense_spans == 0

    def test_counters_stay_out_of_tracker_stats(self):
        # Stats are compared across strategies; the counters differ by
        # construction, so they must never leak into ``as_dict``.
        tracker = make_tracker()
        tracker.observe_columns_vectorized(
            EventColumns.from_events(tainting_stream(1000))
        )
        assert tracker.kernel.dense_events
        assert not set(tracker.stats.as_dict()) & set(
            tracker.kernel.as_dict()
        )

    @pytest.mark.parametrize("cls", [PIFTTracker, ColourTracker])
    def test_reset_and_restore_clear_counters(self, cls):
        tracker = cls(PIFTConfig())
        tracker.taint_source(SOURCE)
        tracker.observe_columns_vectorized(
            EventColumns.from_events(tainting_stream(1000))
        )
        assert tracker.kernel != KernelCounters()
        snapshot = tracker.snapshot()
        tracker.reset()
        assert tracker.kernel == KernelCounters()
        tracker.observe_columns_vectorized(
            EventColumns.from_events(tainting_stream(1000))
        )
        tracker.restore(snapshot)
        assert tracker.kernel == KernelCounters()


def dense_payload_stream(steps, seed=5):
    """The taint-dense payload shape: one load from the ``imei`` source,
    then three stores into an already-tainted buffer, per step."""
    rng = random.Random(seed)
    out = []
    index = 0
    for _ in range(steps):
        index += 1
        a = rng.randrange(0, 4_095 - 8)
        out.append(load(a, a + 3, index))
        for _ in range(3):
            index += 1
            b = rng.randrange(8_192, 73_727 - 8)
            out.append(store(b, b + 7, index))
    return out


class TestCostRule:
    """Count-based checks of the dense executor's cost rule (no timing)."""

    def test_largest_droidbench_run_stays_within_the_rule(self, monkeypatch):
        from repro.analysis.replay import replay
        from repro.apps.droidbench import record_suite

        recorded = max(
            (app.recorded for app in record_suite()),
            key=lambda run: len(run.trace),
        )
        spans = []
        real_span, real_simulate = vectorized._dense_span, vectorized._simulate

        def span(tracker, columns, arrays, lo, limit):
            spans.append([0, 0])
            consumed, scalar_events = real_span(
                tracker, columns, arrays, lo, limit
            )
            spans[-1][1] = consumed
            return consumed, scalar_events

        def simulate(*args):
            spans[-1][0] += 1
            return real_simulate(*args)

        monkeypatch.setattr(vectorized, "_dense_span", span)
        monkeypatch.setattr(vectorized, "_simulate", simulate)
        config = PIFTConfig(window_size=13, max_propagations=3)
        auto = replay(recorded, config)
        assert any(sims for sims, _ in spans), "dense executor never ran"
        for sims, events in spans:
            # A simulation only runs while the ones before it cost no
            # more than the span's scalar price.
            assert sims <= events // vectorized.RESIM_COST + 1
        scalar = replay(recorded, replace(config, vectorized=False))
        assert auto.sink_outcomes == scalar.sink_outcomes
        assert auto.stats.as_dict() == scalar.stats.as_dict()

    def test_dense_payload_shape_runs_vectorised(self):
        columns = EventColumns.from_events(dense_payload_stream(2_000))
        trackers = []
        for vectorized_on in (True, False):
            tracker = PIFTTracker(
                PIFTConfig(window_size=13, vectorized=vectorized_on)
            )
            tracker.taint_source(AddressRange(0, 4_095))
            tracker.taint_source(AddressRange(8_192, 73_727))
            tracker.observe_columns(columns)
            trackers.append(tracker)
        auto, scalar = trackers
        kernel = auto.kernel
        assert counted_events(auto) == events_observed(auto) == len(columns)
        assert kernel.skipped_events + kernel.dense_events >= 0.9 * len(
            columns
        )
        assert auto.stats.as_dict() == scalar.stats.as_dict()
        assert auto.snapshot() == scalar.snapshot()

    @pytest.mark.parametrize("cls", [PIFTTracker, ColourTracker])
    @pytest.mark.parametrize("slack, handoffs", [(0, 0), (-1, 1)])
    def test_span_at_the_handoff_threshold(self, cls, slack, handoffs):
        # One same-PID span: a tainted load opens a wide window, then two
        # stores taint fresh bytes (two content mutations).  From the
        # first cut, ``2 * RESIM_COST + slack`` events remain, so the
        # rule's ``cuts * RESIM_COST > remaining`` sits exactly on the
        # boundary (stay dense) or one event past it (hand off).
        cost = vectorized.RESIM_COST
        lead = 10
        remaining = 2 * cost + slack
        stream = [load(0, 3, 0)]
        stream += [
            load(10_000 + 16 * i, 10_003 + 16 * i, 1 + i) for i in range(lead)
        ]
        stream += [
            store(50_000, 50_003, lead + 1),
            load(20_000, 20_003, lead + 2),
            store(50_100, 50_103, lead + 3),
        ]
        stream += [
            load(30_000 + 16 * i, 30_003 + 16 * i, lead + 4 + i)
            for i in range(remaining - 3)
        ]
        columns = EventColumns.from_events(stream)
        config = PIFTConfig(window_size=10_000, max_propagations=8)
        trackers = []
        for force in (True, False):
            tracker = cls(config)
            tracker.taint_source(SOURCE)
            if force:
                tracker.observe_columns_vectorized(columns)
            else:
                tracker.observe_columns_scalar(columns)
            trackers.append(tracker)
        vector, scalar = trackers
        assert vector.kernel.dense_spans == 1
        assert vector.kernel.cost_handoffs == handoffs
        assert vector.kernel.scalar_events == (remaining if handoffs else 0)
        assert counted_events(vector) == events_observed(vector)
        assert vector.stats.taint_operations == 2
        assert vector.stats.as_dict() == scalar.stats.as_dict()
        assert vector.snapshot() == scalar.snapshot()

    def test_run_shorter_than_one_simulation_stays_scalar(self):
        short = vectorized.RESIM_COST - 1
        tracker = make_tracker()
        tracker.observe_columns_vectorized(
            EventColumns.from_events(tainting_stream(short))
        )
        assert tracker.kernel.dense_spans == 0
        assert tracker.kernel.scalar_events == short

    @pytest.mark.parametrize("cls", [PIFTTracker, ColourTracker])
    @pytest.mark.parametrize("seed", range(6))
    def test_forced_dense_execution_matches_scalar(
        self, monkeypatch, cls, seed
    ):
        # With re-simulation priced at zero the executor never hands off,
        # so bulk adds under the range-count guard, untaint runs, mask
        # patches and multi-range colour loads all run on long mutating
        # single-PID streams; every one must match the scalar loop.
        monkeypatch.setattr(vectorized, "RESIM_COST", 0)
        rng = random.Random(seed)
        stream = []
        for k in range(1_500):
            if rng.random() < 0.3:
                a = rng.randrange(0, 36)
                stream.append(load(a, a + rng.randrange(0, 8), k))
            else:
                a = rng.randrange(1_000, 1_400)
                stream.append(store(a, a + rng.randrange(0, 8), k))
        columns = EventColumns.from_events(stream)
        config = PIFTConfig(
            window_size=rng.randrange(4, 30),
            max_propagations=rng.randrange(1, 6),
            untainting=seed % 3 != 0,
        )
        trackers = []
        for force in (True, False):
            tracker = cls(config)
            if cls is ColourTracker:
                tracker.taint_source(AddressRange(0, 15), colour="imei")
                tracker.taint_source(AddressRange(16, 31), colour="gps")
            else:
                tracker.taint_source(AddressRange(0, 31))
            if force:
                tracker.observe_columns_vectorized(columns)
            else:
                tracker.observe_columns_scalar(columns)
            trackers.append(tracker)
        vector, scalar = trackers
        assert vector.kernel.cost_handoffs == 0
        assert vector.kernel.dense_events > 0
        assert counted_events(vector) == events_observed(vector)
        assert vector.stats.as_dict() == scalar.stats.as_dict()
        assert vector.snapshot() == scalar.snapshot()


class TestNumpyAbsentReplayDegradation:
    """Replay-level numpy degradation: with numpy gone, both the plain and
    the coloured replay must fall back to the scalar loop behind exactly
    one RuntimeWarning — and produce verdicts identical to the
    numpy-enabled run (the fallback is an execution strategy, never a
    semantics change)."""

    @staticmethod
    def _recorded_run():
        import random

        from repro.android.device import (
            RecordedRun, SinkCheck, SourceRegistration,
        )
        from repro.core.events import load as mk_load, store as mk_store

        rng = random.Random(7)
        run = RecordedRun()
        for slot, name in enumerate(("imei", "location")):
            lo = slot * 8192
            run.sources.append(
                SourceRegistration(AddressRange(lo, lo + 4095), 0, name)
            )
        index = 0
        for i in range(800):
            index += 1
            if i % 5 == 0:
                lo = (i // 5) % 2 * 8192
                a = lo + rng.randrange(0, 4080)
                run.trace.append(mk_load(a, a + 3, index))
            else:
                a = 1 << 16 | rng.randrange(0, 2040)
                run.trace.append(mk_store(a, a + 7, index))
        run.trace.note_instruction(index + 1)
        run.sink_checks.append(
            SinkCheck(
                AddressRange(1 << 16, (1 << 16) + 255),
                index + 1, "network", "socket",
            )
        )
        return run

    def test_replays_degrade_with_one_warning_and_identical_verdicts(
        self, monkeypatch
    ):
        import warnings

        from repro.analysis.replay import replay, replay_coloured
        from repro.core import PIFTConfig

        recorded = self._recorded_run()
        config = PIFTConfig(window_size=13, max_propagations=3)

        def verdicts(result):
            return [
                (o.sink_name, o.channel, o.instruction_index, o.pid,
                 o.tainted, o.colours)
                for o in result.sink_outcomes
            ]

        with_numpy_plain = verdicts(replay(recorded, config))
        with_numpy_coloured = verdicts(replay_coloured(recorded, config))

        monkeypatch.setattr(vectorized, "_np", None)
        monkeypatch.setattr(vectorized, "_numpy_fallback_warned", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            without_numpy_plain = verdicts(replay(recorded, config))
            without_numpy_coloured = verdicts(replay_coloured(recorded, config))
        fallback_warnings = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "falling back" in str(w.message)
        ]
        assert len(fallback_warnings) == 1  # one-shot across both replays

        assert without_numpy_plain == with_numpy_plain
        assert without_numpy_coloured == with_numpy_coloured
        # The replay actually exercised taint: at least one tainted
        # verdict with attributed colours, or the parity claim is vacuous.
        assert any(v[4] for v in without_numpy_coloured)
        assert all(v[4] == bool(v[5]) for v in without_numpy_coloured)
