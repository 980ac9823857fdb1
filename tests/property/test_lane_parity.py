"""Differential oracle: the lane-parallel replay equals per-cell replay.

``replay_lanes(run, configs)`` replays every config in one pass
(:mod:`repro.core.lanes`); each of its results must equal
``replay(run, config)`` with the exact scalar loop
(``vectorized=False``) on every ``TrackerStats`` field and every sink
outcome.  Runs are random multi-PID traces whose per-PID instruction
indices may regress, with sources and sink checks registered mid-trace;
grids are random sets of ``(NI, NT, untainting)`` cells, sometimes more
than the 64 lanes of one machine word."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.replay import replay, replay_lanes
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core.config import PIFTConfig
from repro.core.events import AccessKind, MemoryAccess
from repro.core.ranges import AddressRange

#: ``(kind, start, size, step, pid)``: ``step`` below zero regresses the
#: PID's instruction index (clamped at 0).  The address space is small,
#: so that loads often hit and lanes part ways: windows opened by
#: different loads, stores taken by some lanes only, and steps of 0 (a
#: store at its window's opening index).
events = st.tuples(
    st.sampled_from([AccessKind.LOAD, AccessKind.STORE]),
    st.integers(0, 60),
    st.integers(1, 12),
    st.integers(-2, 4),
    st.integers(0, 2),
)

#: ``(start, size, pid, position)``: registered before the event at
#: ``position`` (as a fraction of the trace, so mid-trace).
rows = st.tuples(
    st.integers(0, 60), st.integers(1, 24), st.integers(0, 3),
    st.floats(0, 1),
)

cells = st.tuples(st.integers(1, 24), st.integers(1, 9), st.booleans())


def build_run(raw_events, raw_sources, raw_checks) -> RecordedRun:
    run = RecordedRun()
    cursors = {}
    indices = []
    for kind, start, size, step, pid in raw_events:
        cursors[pid] = max(0, cursors.get(pid, 0) + step)
        indices.append(cursors[pid])
        run.trace.append(MemoryAccess(
            kind, AddressRange.from_base_size(start, size), cursors[pid], pid
        ))

    def index_at(position: float) -> int:
        if not indices:
            return 0
        return indices[min(len(indices) - 1, int(position * len(indices)))]

    for n, (start, size, pid, position) in enumerate(raw_sources):
        run.sources.append(SourceRegistration(
            AddressRange.from_base_size(start, size), index_at(position),
            f"source{n}", pid,
        ))
    for n, (start, size, pid, position) in enumerate(raw_checks):
        run.sink_checks.append(SinkCheck(
            AddressRange.from_base_size(start, size), index_at(position),
            f"sink{n}", "network", pid,
        ))
    return run


def assert_lanes_match(run: RecordedRun, configs) -> None:
    results = replay_lanes(run, configs)
    assert [result.config for result in results] == list(configs)
    for config, result in zip(configs, results):
        reference = replay(run, replace(config, vectorized=False))
        assert result.stats.as_dict() == reference.stats.as_dict(), config
        assert result.sink_outcomes == reference.sink_outcomes, config


@settings(max_examples=300, deadline=None)
@given(
    st.lists(events, max_size=90),
    st.lists(rows, min_size=1, max_size=4),
    st.lists(rows, max_size=5),
    st.lists(cells, min_size=1, max_size=12),
)
def test_lanes_match_per_cell_replay(raw_events, sources, checks, grid):
    run = build_run(raw_events, sources, checks)
    assert_lanes_match(run, [PIFTConfig(*cell) for cell in grid])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(events, min_size=1, max_size=70),
    st.lists(rows, min_size=1, max_size=3),
    st.lists(rows, min_size=1, max_size=4),
    st.lists(cells, min_size=65, max_size=90),
)
def test_lanes_beyond_one_word(raw_events, sources, checks, grid):
    """More than 64 lanes: the stats pass unpacks several words a mask."""
    run = build_run(raw_events, sources, checks)
    assert_lanes_match(run, [PIFTConfig(*cell) for cell in grid])
