"""The PIFT taint-propagation heuristic — Algorithm 1 of the paper.

Conceptually: a memory load that overlaps a tainted address range opens a
*Tainting Window* (TW) of ``NI`` instructions, measured from the tainted
load.  The target address ranges of up to ``NT`` store instructions inside
the window are tainted.  A store outside every window (or past the NT cap)
is optionally *untainted* — its target range is removed from the taint
state, because it was likely overwritten with non-sensitive data.

The tracker is process-aware: the PIFT front-end maintains a per-process
instruction counter (indexed by PID / TTBR per §3.3), so window state and
taint state are both kept per PID.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import vectorized
from repro.core.colours import ColourRangeSet, ColourSpace
from repro.core.config import PIFTConfig
from repro.core.events import (
    EventColumns, EventTrace, MemoryAccess, typed_field,
)
from repro.core.ranges import AddressRange, RangeSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.telemetry import Telemetry


#: Below this many events the numpy kernel's per-call setup outweighs the
#: scalar loop; short slices (tiny replay segments between source/sink
#: boundaries, whole DroidBench-app traces) stay scalar.  Long traces —
#: where skipping can amortise — go through the kernel, which itself
#: bails back to scalar if the slice turns out to be taint-dense.
_VECTORIZED_MIN_EVENTS = 512

#: Any object with the RangeSet mutation/query surface can back the tracker —
#: the software-reference ``RangeSet`` or a hardware model from
#: :mod:`repro.core.taint_storage`.
StateFactory = Callable[[], "TaintStateLike"]


class TaintStateLike:
    """Structural interface the tracker requires of its taint state.

    Algorithm 1 runs once, over colour masks: a load asks
    ``mask_bounds(start, end)`` (the OR of the overlapped ranges' colour
    masks; 0 means untainted) and an in-window store calls
    ``add_bounds(start, end, mask)`` with its window's mask.  Plain
    states are the one-colour case: they answer 0 or 1 and ignore the
    mask.  ``overlaps_bounds`` is the untaint test and ``remove_bounds``
    the untaint.  Bounds are inclusive integers, as the column path
    carries them; each has an :class:`AddressRange` twin
    (``mask_overlapping``, ``add``, ``overlaps``, ``remove``) that
    delegates to it, for per-event callers and sink checks.
    """

    def overlaps_bounds(self, start: int, end: int) -> bool:  # pragma: no cover
        raise NotImplementedError

    def mask_bounds(self, start: int, end: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def add_bounds(
        self, start: int, end: int, mask: int
    ) -> None:  # pragma: no cover
        raise NotImplementedError

    def remove_bounds(self, start: int, end: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def overlaps(self, query: AddressRange) -> bool:  # pragma: no cover
        raise NotImplementedError

    def mask_overlapping(self, query: AddressRange) -> int:  # pragma: no cover
        raise NotImplementedError

    def add(self, item: AddressRange, mask: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def remove(self, item: AddressRange) -> None:  # pragma: no cover
        raise NotImplementedError

    @property
    def total_size(self) -> int:  # pragma: no cover
        raise NotImplementedError

    @property
    def range_count(self) -> int:  # pragma: no cover
        raise NotImplementedError

    def snapshot(self) -> dict:  # pragma: no cover - checkpoint support
        raise NotImplementedError

    def restore(self, snapshot: dict) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclass
class TimelinePoint:
    """One sample of taint-state evolution, taken at each taint/untaint op."""

    instruction_index: int
    tainted_bytes: int
    range_count: int
    cumulative_operations: int


@dataclass
class TrackerStats:
    """Counters and high-water marks accumulated while tracking.

    ``taint_operations`` and ``untaint_operations`` together are the
    operation count of the paper's Figure 16; ``max_tainted_bytes`` is
    Figure 14/15/18's metric and ``max_range_count`` Figure 17/19's.
    An untaint is only counted as an operation when it actually removed
    tainted bytes (a store over never-tainted memory is a no-op).

    ``instructions_observed`` sums the per-PID instruction high-water
    marks (instruction indices are per process, §3.3), so multi-process
    traces count every process's instructions, not just the busiest one's.
    """

    instructions_observed: int = 0
    loads_observed: int = 0
    stores_observed: int = 0
    tainted_loads: int = 0
    taint_operations: int = 0
    untaint_operations: int = 0
    max_tainted_bytes: int = 0
    max_range_count: int = 0
    timeline: List[TimelinePoint] = field(default_factory=list)

    @property
    def total_operations(self) -> int:
        return self.taint_operations + self.untaint_operations

    @classmethod
    def from_dict(cls, payload: dict) -> "TrackerStats":
        """Inverse of :meth:`as_dict` (checkpoint restore).  Every field
        must be an exact integer (:func:`~repro.core.events.typed_field`):
        a string or float is refused, not coerced."""
        counters = {
            f.name: typed_field(payload, f.name, int)
            for f in fields(cls) if f.name != "timeline"
        }
        return cls(
            **counters,
            timeline=[
                TimelinePoint(**{
                    f.name: typed_field(point, f.name, int)
                    for f in fields(TimelinePoint)
                })
                for point in typed_field(payload, "timeline", list)
            ],
        )

    def as_dict(self) -> dict:
        """JSON-ready form (feeds the telemetry/CLI exporters)."""
        return {
            "instructions_observed": self.instructions_observed,
            "loads_observed": self.loads_observed,
            "stores_observed": self.stores_observed,
            "tainted_loads": self.tainted_loads,
            "taint_operations": self.taint_operations,
            "untaint_operations": self.untaint_operations,
            "total_operations": self.total_operations,
            "max_tainted_bytes": self.max_tainted_bytes,
            "max_range_count": self.max_range_count,
            "timeline": [
                {
                    "instruction_index": p.instruction_index,
                    "tainted_bytes": p.tainted_bytes,
                    "range_count": p.range_count,
                    "cumulative_operations": p.cumulative_operations,
                }
                for p in self.timeline
            ],
        }


@dataclass
class KernelCounters:
    """Which execution strategy handled how much of the column path.

    Strategy observability, kept apart from :class:`TrackerStats` on
    purpose: the stats are the semantic result and must compare equal
    across strategies (parity suites, ``perfbench``), while these
    counters differ by construction.  Every event that enters
    :meth:`PIFTTracker.observe_columns` lands in exactly one of the
    three event counters, so on the column path
    ``skipped_events + dense_events + scalar_events`` equals the events
    observed.  Per-event :meth:`PIFTTracker.observe` calls (including
    the telemetry shadow) are not counted.
    """

    #: Events bulk-accounted as irrelevant by numpy classification.
    skipped_events: int = 0
    #: Events committed by the dense executor's vectorised simulation.
    dense_events: int = 0
    #: Events run through the exact scalar loop.
    scalar_events: int = 0
    #: Dense-executor spans entered (runs long enough to simulate).
    dense_spans: int = 0
    #: Spans the cost rule finished in the scalar loop.
    cost_handoffs: int = 0
    #: Bounded scalar chunks handed over by the density bail-out, after
    #: which the kernel re-probes.
    reprobe_handoffs: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class _WindowState:
    """Per-process Algorithm-1 state: LTLT and the propagation counter."""

    last_tainted_load: Optional[int] = None  # LTLT; None encodes -infinity
    propagations: int = 0  # n_t
    #: Per-PID instruction high-water mark (max index + 1).  Instruction
    #: indices are per process (§3.3), so the tracker-wide
    #: ``stats.instructions_observed`` is the *sum* of these, never a
    #: single global high-water mark.
    instructions_retired: int = 0
    #: Telemetry-only bookkeeping: has a window_open event been emitted for
    #: the currently live window?  Never touched when telemetry is off.
    telemetry_open: bool = False
    #: Colour mask carried by the live window (the OR of the masks of
    #: every tainted range the window-opening load overlapped); 1 on a
    #: plain state, which holds one colour.
    colour_mask: int = 0

    def covers(self, k: int, window_size: int) -> bool:
        """Is instruction ``k`` inside the tainting window?

        The window is the NI instructions *following* the tainted load
        (§3.1), so both edges are checked: a store whose per-PID index
        regressed below the window-opening load (an out-of-order front
        end, a counter reset) is outside it.
        """
        last = self.last_tainted_load
        return last is not None and last <= k <= last + window_size


class _TrackerInstruments:
    """Bound metric handles, resolved once so the hot path skips registry
    lookups.  Built only when the tracker has an active telemetry hub."""

    __slots__ = (
        "events", "loads", "stores", "tainted_loads", "taint_ops",
        "untaint_ops", "windows_opened", "windows_closed", "sources",
        "checks", "tainted_bytes", "range_count",
    )

    def __init__(self, telemetry: "Telemetry") -> None:
        m = telemetry.metrics
        self.events = m.counter("tracker.events", "memory events observed")
        self.loads = m.counter("tracker.loads", "load events observed")
        self.stores = m.counter("tracker.stores", "store events observed")
        self.tainted_loads = m.counter(
            "tracker.tainted_loads", "loads that hit tainted state"
        )
        self.taint_ops = m.counter(
            "tracker.taint_ops", "in-window store taint operations"
        )
        self.untaint_ops = m.counter(
            "tracker.untaint_ops", "effective untaint operations"
        )
        self.windows_opened = m.counter(
            "tracker.windows_opened", "tainting windows opened"
        )
        self.windows_closed = m.counter(
            "tracker.windows_closed", "tainting windows closed"
        )
        self.sources = m.counter("tracker.sources", "source ranges registered")
        self.checks = m.counter("tracker.checks", "sink-range taint queries")
        self.tainted_bytes = m.gauge(
            "tracker.tainted_bytes", "current tainted bytes"
        )
        self.range_count = m.gauge(
            "tracker.range_count", "current taint-state range count"
        )


class PIFTTracker:
    """Predictive information-flow tracker over a load/store event stream.

    Usage mirrors the paper's software stack: *register* a sensitive source
    range with :meth:`taint_source`, feed the instruction stream's memory
    events through :meth:`observe` (or :meth:`run`), then *check* a sink
    argument's range with :meth:`check`.

    Args:
        config: the ``(NI, NT, untainting)`` parameters.
        state_factory: builds the per-process taint state; defaults to the
            unbounded software :class:`~repro.core.ranges.RangeSet`.  Pass a
            bounded hardware model from :mod:`repro.core.taint_storage` to
            study capacity effects.
        record_timeline: when True, every taint/untaint operation appends a
            :class:`TimelinePoint` (needed for the Figure 15/16 curves;
            off by default to keep tracking cheap).
        telemetry: optional :class:`~repro.telemetry.Telemetry` hub.  When
            absent (or disabled) the observe loop is untouched — the
            instrumented variants are only *bound over* ``observe`` /
            ``taint_source`` / ``check`` (as instance attributes) when a
            live hub is supplied, so the disabled path costs nothing.
            When active, per-event counters, taint-state gauges, and
            per-mutation JSONL events are recorded.
    """

    def __init__(
        self,
        config: PIFTConfig,
        state_factory: StateFactory = RangeSet,
        record_timeline: bool = False,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self.config = config
        self._state_factory = state_factory
        self._states: Dict[int, TaintStateLike] = {}
        self._windows: Dict[int, _WindowState] = {}
        self.stats = TrackerStats()
        #: Per-strategy event counts (:class:`KernelCounters`): pure
        #: execution-strategy state, cleared on reset/restore so a reused
        #: tracker's counts do not depend on a previous run.
        self.kernel = KernelCounters()
        self._record_timeline = record_timeline
        self._tel: Optional["Telemetry"] = None
        self._instruments: Optional[_TrackerInstruments] = None
        if telemetry is not None and telemetry.enabled:
            self._tel = telemetry
            self._instruments = _TrackerInstruments(telemetry)
            self.observe = self._observe_with_telemetry
            self.taint_source = self._taint_source_with_telemetry
            self.check = self._check_with_telemetry

    # -- taint state access ------------------------------------------------

    def state(self, pid: int = 0) -> TaintStateLike:
        """The taint state for process ``pid``, created on first use."""
        if pid not in self._states:
            self._states[pid] = self._state_factory()
            self._windows[pid] = _WindowState()
        return self._states[pid]

    def taint_source(self, address_range: AddressRange, pid: int = 0) -> None:
        """Source registration: mark ``address_range`` sensitive (Figure 3)."""
        self.state(pid).add(address_range)
        self._after_mutation(pid, instruction_index=self.stats.instructions_observed)

    def check(self, address_range: AddressRange, pid: int = 0) -> bool:
        """Sink query: is any byte of ``address_range`` tainted?"""
        return self.state(pid).overlaps(address_range)

    def reset(self) -> None:
        """Clear windows, taint states, and stats for reuse across runs.

        Configuration, state factory, and telemetry wiring are preserved;
        only the accumulated tracking state is discarded, so one tracker
        (and its attached instruments) can serve many runs.
        """
        self._states.clear()
        self._windows.clear()
        self.stats = TrackerStats()
        self.kernel = KernelCounters()

    # -- checkpoint / restore --------------------------------------------

    def snapshot(self) -> dict:
        """JSON-compatible checkpoint of config, taint state, and stats.

        Per-process taint states delegate to their own ``snapshot()``
        (both :class:`~repro.core.ranges.RangeSet` and the bounded
        :class:`~repro.core.taint_storage.BoundedRangeCache` implement
        the pair), so a faulted run can be resumed, and long sweeps can
        checkpoint mid-stream.  Restore with :meth:`restore` on a
        tracker built with the *same* ``state_factory``.
        """
        return {
            "config": {
                "window_size": self.config.window_size,
                "max_propagations": self.config.max_propagations,
                "untainting": self.config.untainting,
            },
            "states": {
                pid: state.snapshot() for pid, state in self._states.items()
            },
            "windows": {
                pid: {
                    "last_tainted_load": window.last_tainted_load,
                    "propagations": window.propagations,
                    "instructions_retired": window.instructions_retired,
                    "telemetry_open": window.telemetry_open,
                }
                for pid, window in self._windows.items()
            },
            "stats": self.stats.as_dict(),
        }

    def restore(self, snapshot: dict) -> None:
        """Restore a :meth:`snapshot` exactly, replacing current state."""
        config = snapshot["config"]
        # ``vectorized`` is an execution-strategy flag, deliberately absent
        # from snapshots (so checkpoints stay comparable across strategies);
        # carry the current tracker's choice over.
        self.config = PIFTConfig(
            window_size=int(config["window_size"]),
            max_propagations=int(config["max_propagations"]),
            untainting=bool(config["untainting"]),
            vectorized=self.config.vectorized,
        )
        self._states = {}
        self._windows = {}
        for pid, payload in snapshot["states"].items():
            state = self._state_factory()
            state.restore(payload)
            self._states[int(pid)] = state
        for pid, payload in snapshot["windows"].items():
            last = payload["last_tainted_load"]
            self._windows[int(pid)] = _WindowState(
                last_tainted_load=None if last is None else int(last),
                propagations=int(payload["propagations"]),
                instructions_retired=int(payload.get("instructions_retired", 0)),
                telemetry_open=bool(payload["telemetry_open"]),
            )
        self.stats = TrackerStats.from_dict(snapshot["stats"])
        # Strategy counters are execution-strategy state, deliberately
        # absent from snapshots (like ``vectorized``); start them fresh so
        # counts after a restore do not inherit the donor's history.
        self.kernel = KernelCounters()

    @property
    def instructions_per_pid(self) -> Dict[int, int]:
        """Instructions retired per PID (max index + 1 for each process)."""
        return {
            pid: window.instructions_retired
            for pid, window in self._windows.items()
        }

    @property
    def tainted_bytes(self) -> int:
        return sum(s.total_size for s in self._states.values())

    @property
    def range_count(self) -> int:
        return sum(s.range_count for s in self._states.values())

    # -- Algorithm 1 ---------------------------------------------------------

    def observe(self, event: MemoryAccess) -> None:
        """Process one memory event per Algorithm 1.

        The event's ``instruction_index`` is the per-process instruction
        sequence number *k*; it must be non-decreasing per PID.
        """
        state = self.state(event.pid)
        window = self._windows[event.pid]
        k = event.instruction_index
        if k >= window.instructions_retired:
            self.stats.instructions_observed += k + 1 - window.instructions_retired
            window.instructions_retired = k + 1

        if event.is_load:
            self.stats.loads_observed += 1
            mask = state.mask_overlapping(event.address_range)
            if mask:
                # Tainted load: start (or restart) the tainting window,
                # carrying the colours the load read.
                window.last_tainted_load = k
                window.propagations = 0
                window.colour_mask = mask
                self.stats.tainted_loads += 1
        else:
            self.stats.stores_observed += 1
            if (
                window.covers(k, self.config.window_size)
                and window.propagations < self.config.max_propagations
            ):
                state.add(event.address_range, window.colour_mask)
                window.propagations += 1
                self.stats.taint_operations += 1
                self._after_mutation(event.pid, k)
            elif self.config.untainting:
                if state.overlaps(event.address_range):
                    state.remove(event.address_range)
                    self.stats.untaint_operations += 1
                    self._after_mutation(event.pid, k)

    def run(self, events: Iterable[MemoryAccess]) -> TrackerStats:
        """Feed a whole event stream through the batch fast path."""
        self.observe_batch(events)
        return self.stats

    # -- batch fast path --------------------------------------------------

    def observe_batch(self, events: Iterable[MemoryAccess]) -> None:
        """Process a whole event run with per-event overhead hoisted out.

        Semantically identical to calling :meth:`observe` per event
        (parity-tested, ``tests/property/test_batch_parity.py``), but the
        attribute lookups, per-PID dict probes, and window-bound reads are
        lifted out of the loop, which makes replay-heavy ``(NI, NT)``
        sweeps measurably faster.  With a live telemetry hub attached the
        per-event instrumented path is used instead, so event streams and
        counters stay exact.
        """
        if "observe" in self.__dict__:
            # Telemetry (or another shadow) is bound over observe; the
            # batch loop would bypass it.  Fall back to per-event calls.
            observe = self.observe
            if isinstance(events, EventColumns):
                events = events.events
            for event in events:
                observe(event)
            return
        if isinstance(events, EventTrace):
            columns = events.columns()
        elif isinstance(events, EventColumns):
            columns = events
        else:
            columns = EventColumns.from_events(events)
        self.observe_columns(columns)

    def observe_columns(
        self, columns: EventColumns, start: int = 0, stop: Optional[int] = None
    ) -> None:
        """Algorithm 1 over a pre-encoded column slice (``[start, stop)``).

        Dispatches between three observationally identical strategies
        (parity-tested in ``tests/property/test_batch_parity.py``):

        * a live telemetry hub binds a shadow over ``observe`` — fall
          back to per-event calls so instrumentation stays exact;
        * the vectorised pre-filter kernel (:mod:`repro.core.vectorized`)
          when ``config.vectorized`` is on, the slice is long enough to
          amortise the numpy setup, and the taint backend is an
          unbounded :class:`~repro.core.ranges.RangeSet` or
          :class:`~repro.core.colours.ColourRangeSet` (bounded hardware
          models mutate on queries/eviction, so skipping their calls
          would change behaviour);
        * the scalar loop (:meth:`observe_columns_scalar`) otherwise.
        """
        if "observe" in self.__dict__:
            observe = self.observe
            for event in columns.events[start:stop]:
                observe(event)
            return
        if stop is None:
            stop = len(columns)
        if (
            self.config.vectorized
            and stop - start >= _VECTORIZED_MIN_EVENTS
            and self._state_factory in (RangeSet, ColourRangeSet)
            and vectorized.HAVE_NUMPY
        ):
            vectorized.observe_columns(self, columns, start, stop)
            return
        self.observe_columns_scalar(columns, start, stop)

    def observe_columns_vectorized(
        self, columns: EventColumns, start: int = 0, stop: Optional[int] = None
    ) -> None:
        """Force the numpy pre-filter kernel regardless of slice length.

        Differential-test / benchmark hook; requires numpy and
        :class:`~repro.core.ranges.RangeSet` or
        :class:`~repro.core.colours.ColourRangeSet` taint states.
        """
        if stop is None:
            stop = len(columns)
        vectorized.observe_columns(self, columns, start, stop)

    def observe_columns_scalar(
        self, columns: EventColumns, start: int = 0, stop: Optional[int] = None
    ) -> None:
        """The exact scalar replay loop over a column slice.

        One Python frame for the whole slice, locals for the config
        bounds and stats counters, and taint-state methods re-bound only
        on PID switches.  Mutation bookkeeping (high-water marks,
        optional timeline) matches :meth:`_after_mutation` exactly, in
        O(1) per mutation: only the current PID's state changes inside
        the loop, so the other PIDs' byte and range totals are summed
        once per PID switch (lazily, at its first mutation) and the
        current state's own counts are added on top.  The vectorised
        kernel drops into this loop around relevant events.  Loads take
        their window's colour mask from ``mask_bounds`` and stores taint
        with it, so plain and coloured states share the loop.  Bounds
        come straight from the ``starts``/``ends`` columns: the loop
        builds no :class:`AddressRange`.
        """
        if "observe" in self.__dict__:
            observe = self.observe
            for event in columns.events[start:stop]:
                observe(event)
            return
        if stop is None:
            stop = len(columns)
        self.kernel.scalar_events += stop - start
        window_size = self.config.window_size
        max_propagations = self.config.max_propagations
        untainting = self.config.untainting
        stats = self.stats
        states = self._states
        windows = self._windows
        state_values = states.values()
        record_timeline = self._record_timeline
        timeline = stats.timeline
        is_loads = columns.is_loads
        starts = columns.starts
        ends = columns.ends
        indices = columns.indices
        pids = columns.pids
        loads = stats.loads_observed
        stores = stats.stores_observed
        tainted_loads = stats.tainted_loads
        taints = stats.taint_operations
        untaints = stats.untaint_operations
        instructions = stats.instructions_observed
        max_tainted = stats.max_tainted_bytes
        max_ranges = stats.max_range_count
        current_pid: Optional[int] = None
        window: _WindowState = None  # type: ignore[assignment]
        # Tainted bytes / ranges held by every PID but the current one;
        # None until the current PID's first mutation.
        other_size = other_count = None
        mask_bounds = overlaps_bounds = add_bounds = remove_bounds = None
        try:
            for i in range(start, stop):
                pid = pids[i]
                if pid != current_pid:
                    state = states.get(pid)
                    if state is None:
                        state = states[pid] = self._state_factory()
                        windows[pid] = _WindowState()
                    window = windows[pid]
                    mask_bounds = state.mask_bounds
                    overlaps_bounds = state.overlaps_bounds
                    add_bounds = state.add_bounds
                    remove_bounds = state.remove_bounds
                    current_pid = pid
                    other_size = None
                k = indices[i]
                if k >= window.instructions_retired:
                    instructions += k + 1 - window.instructions_retired
                    window.instructions_retired = k + 1
                first = starts[i]
                final = ends[i]
                if is_loads[i]:
                    loads += 1
                    mask = mask_bounds(first, final)
                    if mask:
                        window.last_tainted_load = k
                        window.propagations = 0
                        window.colour_mask = mask
                        tainted_loads += 1
                    continue
                stores += 1
                last = window.last_tainted_load
                if (
                    last is not None
                    and last <= k <= last + window_size
                    and window.propagations < max_propagations
                ):
                    add_bounds(first, final, window.colour_mask)
                    window.propagations += 1
                    taints += 1
                elif untainting and overlaps_bounds(first, final):
                    remove_bounds(first, final)
                    untaints += 1
                else:
                    continue
                if other_size is None:
                    other_size = other_count = 0
                    for other in state_values:
                        if other is not state:
                            other_size += other.total_size
                            other_count += other.range_count
                size = other_size + state.total_size
                count = other_count + state.range_count
                if size > max_tainted:
                    max_tainted = size
                if count > max_ranges:
                    max_ranges = count
                if record_timeline:
                    timeline.append(
                        TimelinePoint(
                            instruction_index=k,
                            tainted_bytes=size,
                            range_count=count,
                            cumulative_operations=taints + untaints,
                        )
                    )
        finally:
            stats.loads_observed = loads
            stats.stores_observed = stores
            stats.tainted_loads = tainted_loads
            stats.taint_operations = taints
            stats.untaint_operations = untaints
            stats.instructions_observed = instructions
            stats.max_tainted_bytes = max_tainted
            stats.max_range_count = max_ranges

    # -- telemetry shadow methods ---------------------------------------
    #
    # Bound over the plain methods (as instance attributes) only when a
    # live telemetry hub is attached.  They delegate to the unmodified
    # Algorithm-1 code above and derive what happened from the stats
    # deltas, so the algorithm exists exactly once and the disabled hot
    # path carries no telemetry branches at all.

    def _observe_with_telemetry(self, event: MemoryAccess) -> None:
        stats = self.stats
        before_tainted_loads = stats.tainted_loads
        before_taints = stats.taint_operations
        before_untaints = stats.untaint_operations
        type(self).observe(self, event)
        ins = self._instruments
        ins.events.inc()
        k = event.instruction_index
        window = self._windows[event.pid]
        if event.is_load:
            ins.loads.inc()
            if stats.tainted_loads != before_tainted_loads:
                ins.tainted_loads.inc()
                if not window.telemetry_open:
                    window.telemetry_open = True
                    ins.windows_opened.inc()
                    self._tel.event(
                        "window_open",
                        pid=event.pid,
                        index=k,
                        start=event.address_range.start,
                        size=event.address_range.size,
                    )
            return
        ins.stores.inc()
        mutated = True
        if stats.taint_operations != before_taints:
            ins.taint_ops.inc()
            self._tel.event(
                "taint",
                pid=event.pid,
                index=k,
                start=event.address_range.start,
                size=event.address_range.size,
                propagation=window.propagations,
            )
        elif stats.untaint_operations != before_untaints:
            ins.untaint_ops.inc()
            self._tel.event(
                "untaint",
                pid=event.pid,
                index=k,
                start=event.address_range.start,
                size=event.address_range.size,
            )
        else:
            mutated = False
        if window.telemetry_open and not window.covers(
            k, self.config.window_size
        ):
            # First out-of-window store after a live window: close it.  (A
            # window can also lapse with no further store; such windows
            # are only closed — and counted — when store traffic resumes.)
            window.telemetry_open = False
            ins.windows_closed.inc()
            self._tel.event(
                "window_close",
                pid=event.pid,
                index=k,
                opened_at=window.last_tainted_load,
                propagations=window.propagations,
            )
        if mutated:
            ins.tainted_bytes.set(self.tainted_bytes)
            ins.range_count.set(self.range_count)

    def _taint_source_with_telemetry(
        self, address_range: AddressRange, pid: int = 0, **kwargs
    ) -> None:
        # Extra keyword arguments (the coloured tracker's ``colour``)
        # pass straight through to the real registration.
        type(self).taint_source(self, address_range, pid=pid, **kwargs)
        ins = self._instruments
        ins.sources.inc()
        ins.tainted_bytes.set(self.tainted_bytes)
        ins.range_count.set(self.range_count)
        self._tel.event(
            "source_taint",
            pid=pid,
            index=self.stats.instructions_observed,
            start=address_range.start,
            size=address_range.size,
        )

    def _check_with_telemetry(
        self, address_range: AddressRange, pid: int = 0
    ) -> bool:
        self._instruments.checks.inc()
        return type(self).check(self, address_range, pid=pid)

    # -- bookkeeping -----------------------------------------------------

    def _after_mutation(self, pid: int, instruction_index: int) -> None:
        size = self.tainted_bytes
        count = self.range_count
        if size > self.stats.max_tainted_bytes:
            self.stats.max_tainted_bytes = size
        if count > self.stats.max_range_count:
            self.stats.max_range_count = count
        if self._record_timeline:
            self.stats.timeline.append(
                TimelinePoint(
                    instruction_index=instruction_index,
                    tainted_bytes=size,
                    range_count=count,
                    cumulative_operations=self.stats.total_operations,
                )
            )


class ColourTracker(PIFTTracker):
    """Algorithm 1 with per-source provenance labels ("colours").

    Sources register with a colour name (:meth:`taint_source`'s
    ``colour``); taint state is a :class:`~repro.core.colours.ColourRangeSet`
    whose intervals carry 64-bit colour masks.  A tainted load's window
    carries the OR of every overlapped range's mask; in-window stores
    taint their target with that window mask; untainting removes bytes
    wholesale — so the tainted/untainted *classification* of every event
    never consults masks, only coverage.  The union projection (any
    non-zero mask == tainted) of a coloured run is therefore
    byte-identical to a plain :class:`PIFTTracker` on the same trace:
    identical verdicts and counters, with ``max_range_count`` the single
    permitted exception under multiple live colours (equal-mask-only
    coalescing can keep more intervals).  With one registered colour,
    every counter — including ``max_range_count`` — is identical
    (``tests/property/test_colour_parity.py``).

    Sink queries gain :meth:`check_mask` / :meth:`check_colours` for
    attribution; the inherited boolean :meth:`check` is unchanged.
    Algorithm 1 itself is the base tracker's, which already carries the
    window mask: this class only picks the coloured state.
    """

    def __init__(
        self,
        config: PIFTConfig,
        colours: Optional[ColourSpace] = None,
        record_timeline: bool = False,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        super().__init__(
            config,
            state_factory=ColourRangeSet,
            record_timeline=record_timeline,
            telemetry=telemetry,
        )
        self.colours = colours if colours is not None else ColourSpace()

    # -- labelled sources and sink queries -------------------------------

    def taint_source(
        self,
        address_range: AddressRange,
        pid: int = 0,
        colour: Optional[str] = None,
    ) -> None:
        """Source registration carrying a colour label.

        ``colour`` defaults to ``"source"`` so colour-unaware callers
        (the base class's API) still get a well-formed single-colour run.
        """
        mask = self.colours.register("source" if colour is None else colour)
        self.state(pid).add(address_range, mask)
        self._after_mutation(
            pid, instruction_index=self.stats.instructions_observed
        )

    def check_mask(self, address_range: AddressRange, pid: int = 0) -> int:
        """Sink query: OR of the colour masks overlapping ``address_range``."""
        return self.state(pid).mask_overlapping(address_range)

    def check_colours(
        self, address_range: AddressRange, pid: int = 0
    ) -> Tuple[str, ...]:
        """Sink query: contributing source names, in registration order."""
        return self.colours.names_for(
            self.check_mask(address_range, pid=pid)
        )

    # The benchmark's per-layer tracer (perfbench/tracer.py) wraps these
    # through each class's own ``__dict__`` to label spans plain or coloured.
    observe_columns = PIFTTracker.observe_columns
    observe_columns_scalar = PIFTTracker.observe_columns_scalar

    # -- checkpoint / restore --------------------------------------------

    def snapshot(self) -> dict:
        snap = super().snapshot()
        for pid, window in self._windows.items():
            snap["windows"][pid]["colour_mask"] = window.colour_mask
        snap["colours"] = self.colours.snapshot()
        return snap

    def restore(self, snapshot: dict) -> None:
        super().restore(snapshot)
        for pid, payload in snapshot["windows"].items():
            window = self._windows[int(pid)]
            # Snapshots from a plain tracker carry no mask; a live window
            # restored from one defaults to the first colour so in-window
            # adds stay well-formed.
            default = 1 if window.last_tainted_load is not None else 0
            window.colour_mask = int(payload.get("colour_mask", default))
        if "colours" in snapshot:
            self.colours = ColourSpace.from_snapshot(snapshot["colours"])


def track_trace(
    events: Iterable[MemoryAccess],
    sources: Iterable[Tuple[AddressRange, int]],
    config: PIFTConfig,
    record_timeline: bool = False,
    telemetry: Optional["Telemetry"] = None,
) -> PIFTTracker:
    """One-shot helper: taint ``sources`` (range, pid pairs), run ``events``."""
    tracker = PIFTTracker(
        config, record_timeline=record_timeline, telemetry=telemetry
    )
    for address_range, pid in sources:
        tracker.taint_source(address_range, pid=pid)
    tracker.run(events)
    return tracker
