"""Lane-parallel grid replay: the lane set behind ``replay`` and its use
by ``run_sweep`` (the kernel's differential oracle is
``tests/property/test_lane_parity.py``)."""

import importlib
import json
import pickle
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.analysis.replay import lane_set, replay, replay_lanes
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core.config import PIFTConfig
from repro.core.events import load, store
from repro.core.lanes import MAX_LANE_WINDOW, LaneGrid
from repro.core.ranges import AddressRange
from repro.sweep import GridSpec, SweepCell, TraceCache, run_cell, run_sweep

# The module: the package re-exports its ``replay`` function by name.
replay_mod = importlib.import_module("repro.analysis.replay")


def small_run(source=AddressRange(0, 7)) -> RecordedRun:
    """Source load, two in-window stores, a later load of the copy."""
    run = RecordedRun()
    run.sources.append(SourceRegistration(source, 0, "imei"))
    for event in (
        load(0, 3, 1), store(100, 103, 2), store(200, 203, 4),
        store(300, 303, 30), load(200, 201, 40), store(400, 407, 41),
    ):
        run.trace.append(event)
    run.sink_checks.append(
        SinkCheck(AddressRange(400, 407), 42, "network", "socket")
    )
    return run


def reference(run, config):
    return replay(run, replace(config, vectorized=False))


def same(result, expected) -> bool:
    return (
        result.stats.as_dict() == expected.stats.as_dict()
        and result.sink_outcomes == expected.sink_outcomes
    )


class TestLaneSet:
    def test_eligible_calls_are_served_from_one_lane_replay(self):
        run = small_run()
        configs = [PIFTConfig(ni, nt) for ni in (1, 3, 13) for nt in (1, 2)]
        with lane_set(configs) as lanes:
            results = [replay(run, config) for config in configs]
            # Outside the set, or with a timeline: the per-cell path.
            replay(run, PIFTConfig(7, 2))
            replay(run, configs[0], record_timeline=True)
        assert (lanes.sets, lanes.replays) == (1, len(configs))
        for config, result in zip(configs, results):
            assert result.config is config
            assert same(result, reference(run, config))

    def test_each_call_gets_its_own_stats(self):
        run = small_run()
        config = PIFTConfig(13, 3)
        with lane_set([config]):
            first = replay(run, config)
            first.stats.taint_operations += 100
            first.sink_outcomes.clear()
            second = replay(run, config)
        assert same(second, reference(run, config))

    def test_swapped_source_recomputes(self):
        run = small_run()
        config = PIFTConfig(13, 3)
        with lane_set([config]) as lanes:
            before = replay(run, config)
            run.sources[0] = replace(
                run.sources[0], address_range=AddressRange(500, 507)
            )
            after = replay(run, config)
        assert lanes.sets == 2
        assert before.alarm and not after.alarm
        assert same(after, reference(run, config))

    def test_results_are_dropped_on_exit_and_on_error(self):
        run = small_run()
        config = PIFTConfig(13, 3)
        with lane_set([config]) as lanes:
            replay(run, config)
            assert lanes._results
        assert not lanes._results
        with pytest.raises(RuntimeError):
            with lane_set([config]) as failed:
                replay(run, config)
                raise RuntimeError("cell failed")
        assert not failed._results
        assert replay_mod._ACTIVE_LANES.get() is None

    def test_lane_tables_stay_out_of_pickles(self):
        """Sweep workers get runs by pickle and never use lane tables."""
        run = small_run()
        config = PIFTConfig(13, 3)
        replay_lanes(run, [config])
        assert hasattr(run, "_lane_tables")
        copied = pickle.loads(pickle.dumps(run))
        assert not hasattr(copied, "_lane_tables")
        assert same(replay_lanes(copied, [config])[0], reference(run, config))

    def test_address_spans_beyond_int64(self):
        """Byte totals past int64 are summed exactly, in Python ints."""
        run = small_run(source=AddressRange(0, (1 << 63) - 1))
        run.trace.append(store(1 << 62, (1 << 63) - 1, 43))
        configs = [PIFTConfig(13, 3), PIFTConfig(13, 3, untainting=False)]
        for config, result in zip(configs, replay_lanes(run, configs)):
            assert same(result, reference(run, config))
            assert result.stats.max_tainted_bytes >= 1 << 63

    def test_grid_refuses_an_oversized_window_table(self):
        with pytest.raises(ValueError):
            LaneGrid([PIFTConfig(MAX_LANE_WINDOW + 1, 1)])
        with pytest.raises(ValueError):
            LaneGrid([])


class TestSweepLanes:
    @pytest.fixture(scope="class")
    def cache(self):
        cache = TraceCache(droidbench=TraceCache().droidbench_runs()[:10])
        cache.prime_replay_state()
        return cache

    def test_mixed_grid_matches_per_cell_runs(self, cache):
        """Fault-free rangeset cells take lanes; faulted, bounded,
        coloured-attribution and scalar cells keep their own paths, and
        every cell equals the same cell run alone (no lane set)."""
        cells = list(GridSpec(
            window_sizes=(3, 13), propagation_caps=(1, 3),
            rates=(0.0, 0.01), seed=5, colours=True,
        ).cells())
        extra = [
            SweepCell(index=100, config=PIFTConfig(13, 3),
                      state_spec="paper_storage"),
            SweepCell(index=101, config=PIFTConfig(5, 2, vectorized=False)),
            SweepCell(index=102, config=PIFTConfig(5, 2, untainting=False)),
        ]
        result = run_sweep(cells + extra, cache=cache)
        alone = [run_cell(cell, cache).as_dict() for cell in cells + extra]
        assert json.dumps([c.as_dict() for c in result.cells]) == (
            json.dumps(alone)
        )
        runs = len(cache.droidbench_runs())
        eligible = sum(cell.rate == 0 for cell in cells) + 1
        timings = result.timings()
        assert timings["lane_sets"] == runs
        assert timings["lane_replays"] == eligible * runs

    def test_lane_results_are_dropped_when_run_sweep_ends(
        self, cache, monkeypatch
    ):
        opened = []
        real = replay_mod.lane_set

        @contextmanager
        def spy(configs):
            with real(configs) as lanes:
                opened.append(lanes)
                yield lanes

        monkeypatch.setattr(replay_mod, "lane_set", spy)
        spec = GridSpec(window_sizes=(5, 13), propagation_caps=(2,))
        run_sweep(spec, cache=cache)

        def stop(result, done, total):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, cache=cache, progress=stop)
        assert len(opened) == 2
        for lanes in opened:
            assert lanes.sets > 0 and not lanes._results
        assert replay_mod._ACTIVE_LANES.get() is None

    def test_no_vectorized_and_parallel_runs_take_no_lanes(self, cache):
        scalar = GridSpec(window_sizes=(5, 13), propagation_caps=(2,),
                          vectorized=False)
        assert run_sweep(scalar, cache=cache).timings()["lane_replays"] == 0
        spec = GridSpec(window_sizes=(5, 13), propagation_caps=(2,))
        serial = run_sweep(spec, cache=cache)
        parallel = run_sweep(spec, cache=cache, jobs=2)
        assert serial.timings()["lane_replays"] > 0
        assert parallel.timings()["lane_replays"] == 0
        assert serial.as_dict() == parallel.as_dict()

    def test_telemetry_counts_lane_work(self, cache):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        spec = GridSpec(window_sizes=(5, 13), propagation_caps=(2,))
        result = run_sweep(spec, cache=cache, telemetry=telemetry)
        family = telemetry.snapshot()["sweep"]
        assert family["sweep.lane_sets"]["value"] == result.lane_sets > 0
        assert family["sweep.lane_replays"]["value"] == (
            result.lane_replays
        ) == 2 * result.lane_sets
