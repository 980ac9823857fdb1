"""Offline replay: re-run a recorded execution under any PIFT configuration.

The paper's methodology (§5): app executions are traced once on the
simulator, and "the PIFT analysis code" consumes the trace together with
the source/sink address ranges.  That makes parameter sweeps cheap — the
200-point Figure 11/14/17 grids re-run the *tracker*, not the app.

Replay is the sweep hot path, so it is batched: a :class:`ReplayPlan`
(computed once per recorded run, cached on the run) pre-segments the event
stream at the instruction indices where source registrations or sink
checks interleave, and each segment is fed through
:meth:`~repro.core.tracker.PIFTTracker.observe_columns` over the trace's
cached column encoding.  Re-tracking the same run under another
``(NI, NT)`` cell reuses both the plan and the columns — record once,
replay many.

A sweep goes one step further: inside :func:`lane_set`, the first
:func:`replay` of a run under any of the set's configs replays every
config at once through the lane kernel (:mod:`repro.core.lanes`), and
the other configs' calls are answered from its results.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.config import PIFTConfig
from repro.core.ranges import RangeSet
from repro.core.tracker import ColourTracker, PIFTTracker, StateFactory, TrackerStats
from repro.android.device import RecordedRun


@dataclass(frozen=True)
class SinkOutcome:
    """The tracker's verdict for one recorded sink check."""

    sink_name: str
    channel: str
    instruction_index: int
    tainted: bool
    pid: int = 0
    #: Contributing source colours, in colour-registration order.  Always
    #: empty under the plain (single-bit) replay; filled by
    #: :func:`replay_coloured`.  ``tainted`` is exactly ``bool(colours)``
    #: there — the union projection.
    colours: Tuple[str, ...] = ()

    @classmethod
    def of(
        cls, check, tainted: bool, colours: Tuple[str, ...] = ()
    ) -> "SinkOutcome":
        """The verdict ``tainted`` for one recorded sink check."""
        return cls(
            check.sink_name, check.channel, check.instruction_index,
            tainted, check.pid, colours,
        )


@dataclass
class ReplayResult:
    """Outcome of replaying one recorded run under one configuration."""

    config: PIFTConfig
    stats: TrackerStats
    sink_outcomes: List[SinkOutcome] = field(default_factory=list)

    @property
    def alarm(self) -> bool:
        """Did any sink check come back tainted (the app-level verdict)?"""
        return any(outcome.tainted for outcome in self.sink_outcomes)


@dataclass(frozen=True)
class ReplayPlan:
    """Config-independent segmentation of a recorded run.

    ``boundaries`` holds ``(event_position, sources_due, checks_due)``
    triples: before observing the event at ``event_position``, drain that
    many pending source registrations and sink checks (both in recorded
    instruction order, sources first — exactly the order the per-event
    replay loop used).  ``final_sources`` / ``final_checks`` drain after
    the last event, bounded by the run's total instruction count.
    """

    sources: Tuple
    checks: Tuple
    boundaries: Tuple[Tuple[int, int, int], ...]
    final_sources: int
    final_checks: int


def build_replay_plan(recorded: RecordedRun) -> ReplayPlan:
    """Segment ``recorded`` once; every config replays the same plan."""
    sources = tuple(
        sorted(recorded.sources, key=lambda s: s.instruction_index)
    )
    checks = tuple(
        sorted(recorded.sink_checks, key=lambda c: c.instruction_index)
    )
    # Each key list ends in a sentinel no index reaches.
    source_keys = [source.instruction_index for source in sources]
    source_keys.append(float("inf"))
    check_keys = [check.instruction_index for check in checks]
    check_keys.append(float("inf"))
    boundaries: List[Tuple[int, int, int]] = []
    source_i = check_i = 0
    # Before each event, and finally at the run's instruction count,
    # everything not yet due with an index up to that point falls due.
    uptos = [event.instruction_index for event in recorded.trace]
    uptos.append(recorded.instruction_count)
    for position, upto in enumerate(uptos):
        if upto < source_keys[source_i] and upto < check_keys[check_i]:
            continue
        source_next = bisect_right(source_keys, upto, source_i)
        check_next = bisect_right(check_keys, upto, check_i)
        boundaries.append(
            (position, source_next - source_i, check_next - check_i)
        )
        source_i, check_i = source_next, check_next
    final = (0, 0, 0)
    if boundaries and boundaries[-1][0] == len(recorded.trace):
        final = boundaries.pop()
    return ReplayPlan(
        sources=sources,
        checks=checks,
        boundaries=tuple(boundaries),
        final_sources=final[1],
        final_checks=final[2],
    )


def _content_key(recorded: RecordedRun) -> tuple:
    """What a run's derived replay structures depend on.

    Sources and checks are frozen records, so the key holds their
    contents: swapping one in place (or editing a deep copy, which
    carries the caches along) compares unequal, not just a grown list.
    """
    return (
        tuple(recorded.sources),
        tuple(recorded.sink_checks),
        len(recorded.trace),
    )


def replay_plan_for(recorded: RecordedRun) -> ReplayPlan:
    """The run's cached plan, rebuilt if its sources, sink checks or
    trace length changed since last use (:func:`_content_key`)."""
    cached = getattr(recorded, "_replay_plan", None)
    key = _content_key(recorded)
    if cached is None or cached[0] != key:
        recorded._replay_plan = (key, build_replay_plan(recorded))
        cached = recorded._replay_plan
    return cached[1]


def replay_with_provenance(
    recorded: RecordedRun, config: PIFTConfig
) -> Dict[int, frozenset]:
    """Replay with per-source labels: which sources reach each sink check?

    Returns a mapping from each sink check's position in
    ``recorded.sink_checks`` to the frozenset of source names whose taint
    reaches it (empty set = clean) — the Raksha-style multi-label view
    (see :mod:`repro.core.provenance`).
    """
    from repro.core.provenance import ProvenanceTracker

    tracker = ProvenanceTracker(config)
    checks = recorded.sink_checks
    # The plan orders checks by a stable sort on instruction index; the
    # same sort of positions maps each outcome back to its check.
    order = sorted(
        range(len(checks)), key=lambda i: checks[i].instruction_index
    )
    outcomes = _walk_plan(
        recorded,
        replay_plan_for(recorded),
        tracker.observe_columns,
        lambda source: tracker.taint_source(
            source.source_name, source.address_range, pid=source.pid
        ),
        lambda check: tracker.check(
            check.address_range, pid=check.pid, sink_name=check.sink_name
        ),
    )
    return dict(zip(order, outcomes))


def replay(
    recorded: RecordedRun,
    config: PIFTConfig,
    state_factory: StateFactory = RangeSet,
    record_timeline: bool = False,
    telemetry=None,
) -> ReplayResult:
    """Feed a recorded run through a fresh tracker in instruction order.

    Source registrations and sink checks interleave with the memory-event
    stream at the instruction indices (and PIDs) they originally occurred
    at; the event segments between them run through the batched column
    path.

    Inside :func:`lane_set`, a call whose ``config`` is in the set, over
    the default :class:`RangeSet` with no timeline and no telemetry, is
    answered from the run's lane-parallel replay (:func:`replay_lanes`),
    which is equal on every stat and verdict.
    """
    lanes = _ACTIVE_LANES.get()
    if (
        lanes is not None
        and config in lanes.configs
        and state_factory is RangeSet
        and not record_timeline
        and telemetry is None
    ):
        return lanes.serve(recorded, config)
    tracker = PIFTTracker(
        config,
        state_factory=state_factory,
        record_timeline=record_timeline,
        telemetry=telemetry,
    )
    result = ReplayResult(config=config, stats=tracker.stats)
    result.sink_outcomes = _walk_plan(
        recorded,
        replay_plan_for(recorded),
        tracker.observe_columns,
        lambda source: tracker.taint_source(
            source.address_range, pid=source.pid
        ),
        lambda check: SinkOutcome.of(
            check, tracker.check(check.address_range, pid=check.pid)
        ),
    )
    return result


def replay_lanes(recorded: RecordedRun, configs) -> List[ReplayResult]:
    """Replay ``recorded`` under every config of ``configs`` in one pass.

    ``configs`` is a sequence of :class:`PIFTConfig` (or a prepared
    :class:`~repro.core.lanes.LaneGrid`); the results come back in its
    order, each equal to ``replay(recorded, config)`` over the default
    :class:`RangeSet` on every stat and sink outcome.  The run's atom
    tables are built on first use and cached on the run.
    """
    from repro.core.lanes import LaneGrid, LaneKernel

    grid = configs if isinstance(configs, LaneGrid) else LaneGrid(configs)
    plan = replay_plan_for(recorded)
    kernel = LaneKernel(grid, _lane_tables_for(recorded, plan))
    masks = _walk_plan(
        recorded, plan, kernel.observe, kernel.register, kernel.judge
    )
    # Two shared outcomes per check: clean and tainted.
    verdicts = [
        (SinkOutcome.of(check, False), SinkOutcome.of(check, True))
        for check in plan.checks
    ]
    return [
        ReplayResult(
            config=config,
            stats=stats,
            sink_outcomes=[
                pair[(mask >> lane) & 1]
                for pair, mask in zip(verdicts, masks)
            ],
        )
        for lane, (config, stats) in enumerate(
            zip(grid.configs, kernel.lane_stats())
        )
    ]


def _lane_tables_for(recorded: RecordedRun, plan: ReplayPlan):
    """The run's cached :class:`~repro.core.lanes.LaneTables`, rebuilt
    when :func:`_content_key` changed, like the plan.

    Built on the first lane replay only, never with the plan: single
    replays do not pay for them."""
    from repro.core.lanes import LaneTables

    cached = getattr(recorded, "_lane_tables", None)
    key = _content_key(recorded)
    if cached is None or cached[0] != key:
        tables = LaneTables(
            recorded.trace.columns(), plan.sources, plan.checks
        )
        recorded._lane_tables = cached = (key, tables)
    return cached[1]


class LaneSet:
    """The lane results of one sweep: per run, every config at once.

    Created by :func:`lane_set`.  ``sets`` counts lane replays computed
    (one per run, recomputed if the run changed) and ``replays`` the
    :func:`replay` calls answered from them.
    """

    def __init__(self, configs: Iterable[PIFTConfig]) -> None:
        ordered = tuple(dict.fromkeys(configs))
        self.configs = frozenset(ordered)
        self._grid = None
        if ordered:
            from repro.core.lanes import LaneGrid

            self._grid = LaneGrid(ordered)
        self.sets = 0
        self.replays = 0
        #: ``id(run) -> (run, content key, {config: result})``; holding
        #: the run keeps its id from being reused.
        self._results: Dict[int, tuple] = {}

    def serve(self, recorded: RecordedRun, config: PIFTConfig) -> ReplayResult:
        """``config``'s result for ``recorded``: a fresh
        :class:`ReplayResult` with its own :class:`TrackerStats`."""
        key = _content_key(recorded)
        entry = self._results.get(id(recorded))
        if entry is None or entry[1] != key:
            results = replay_lanes(recorded, self._grid)
            entry = (
                recorded, key, {result.config: result for result in results}
            )
            self._results[id(recorded)] = entry
            self.sets += 1
        self.replays += 1
        held = entry[2][config]
        return ReplayResult(
            config=config,
            stats=replace(held.stats, timeline=[]),
            sink_outcomes=list(held.sink_outcomes),
        )

    def clear(self) -> None:
        self._results.clear()


_ACTIVE_LANES: ContextVar[Optional[LaneSet]] = ContextVar(
    "repro_lane_set", default=None
)


@contextmanager
def lane_set(configs: Iterable[PIFTConfig]) -> Iterator[LaneSet]:
    """Serve :func:`replay` calls under ``configs`` from lane replays.

    Within the block, a run's first eligible :func:`replay` computes
    all of ``configs`` for that run; the results are dropped when the
    block exits, normally or by an exception.
    """
    lanes = LaneSet(configs)
    token = _ACTIVE_LANES.set(lanes)
    try:
        yield lanes
    finally:
        _ACTIVE_LANES.reset(token)
        lanes.clear()


def _walk_plan(
    recorded: RecordedRun,
    plan: ReplayPlan,
    observe: Callable,
    register: Callable,
    judge: Callable,
) -> list:
    """Replay ``recorded`` along ``plan``; returns ``judge``'s results.

    This is the one replay schedule: the event segment before each
    boundary goes to ``observe(columns, lo, hi)`` over the trace's
    cached column encoding, then the boundary's due sources go to
    ``register`` and its due checks to ``judge``, in plan order.  The
    last segment always ends at ``len(columns)``, before the final
    boundary.
    """
    sources = plan.sources
    checks = plan.checks
    columns = recorded.trace.columns()
    outcomes = []
    position = source_i = check_i = 0
    final = ((len(columns), plan.final_sources, plan.final_checks),)
    for boundary, sources_due, checks_due in plan.boundaries + final:
        if boundary > position:
            observe(columns, position, boundary)
            position = boundary
        for source in sources[source_i:source_i + sources_due]:
            register(source)
        source_i += sources_due
        for check in checks[check_i:check_i + checks_due]:
            outcomes.append(judge(check))
        check_i += checks_due
    return outcomes


def source_colour(source) -> str:
    """The provenance colour of a source registration: its explicit
    ``colour`` when set, else its source name — so DroidBench apps get
    per-source attribution (imei vs location vs phone_number) with no
    recording changes."""
    return source.colour if source.colour is not None else source.source_name


def replay_coloured(
    recorded: RecordedRun,
    config: PIFTConfig,
    record_timeline: bool = False,
) -> ReplayResult:
    """:func:`replay` over the coloured tracker: same plan, same batched
    column path, but every sink outcome additionally names the
    contributing source colours.

    The union projection is exact: each outcome's ``tainted`` equals the
    plain replay's verdict bit for bit (enforced by the parity suite), so
    this is an *attribution* pass, never a second opinion on verdicts.
    Colour bits are pre-registered in recorded instruction order, making
    mask assignment — and therefore attribution tuples — deterministic.
    """
    tracker = ColourTracker(config, record_timeline=record_timeline)
    result = ReplayResult(config=config, stats=tracker.stats)
    plan = replay_plan_for(recorded)
    for source in plan.sources:
        tracker.colours.register(source_colour(source))

    def judge(check) -> SinkOutcome:
        mask = tracker.check_mask(check.address_range, pid=check.pid)
        colours = tracker.colours.names_for(mask)
        return SinkOutcome.of(check, bool(mask), colours)

    result.sink_outcomes = _walk_plan(
        recorded,
        plan,
        tracker.observe_columns,
        lambda source: tracker.taint_source(
            source.address_range,
            pid=source.pid,
            colour=source_colour(source),
        ),
        judge,
    )
    return result
