"""Differential oracle for the buffer's column-slice FIFO.

``BufferedPIFT.enqueue_columns`` appends a whole column slice at once,
cutting it only where a per-event enqueue would act (capacity, watermark
crossings).  The claim is that this is invisible: feeding a random
multi-PID stream one event at a time through ``on_memory_event`` and
feeding the same stream as randomly split column slices give identical
verdicts, ``BufferStats``, late detections, snapshots and
``on_backpressure`` call sequences, with the FIFO depth at each call —
under every overflow policy, for random capacities, drain batches and
watermarks, with blocking and immediate checks interleaved, on plain and
coloured trackers.  A snapshot taken between two slices of one chunk and
restored into a fresh buffer must finish the stream identically too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffered import BufferedPIFT
from repro.core.colours import ColourSpace
from repro.core.config import OverflowPolicy, PIFTConfig
from repro.core.events import AccessKind, EventColumns, MemoryAccess
from repro.core.faults import FaultPlan
from repro.core.ranges import AddressRange

SOURCES = (
    ("imei", AddressRange(0, 15)),
    ("location", AddressRange(32, 47)),
)

raw_events = st.lists(
    st.tuples(
        st.booleans(),  # is_load
        st.integers(0, 120),  # start
        st.integers(1, 8),  # size
        st.integers(0, 4),  # index gap
        st.integers(0, 2),  # pid
    ),
    min_size=1,
    max_size=40,
)

check_ops = st.tuples(
    st.sampled_from(["blocking", "immediate"]),
    st.integers(0, 120),
    st.integers(1, 40),
    st.integers(0, 2),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("events"), raw_events,
                  st.lists(st.integers(0, 40), max_size=4)),
        st.tuples(st.just("check"), check_ops),
    ),
    min_size=1,
    max_size=12,
)


@st.composite
def buffer_shapes(draw):
    capacity = draw(st.integers(1, 24))
    high = draw(st.integers(1, capacity))
    return {
        "capacity": capacity,
        "drain_batch": draw(st.integers(1, capacity + 4)),
        "policy": draw(st.sampled_from(list(OverflowPolicy))),
        "high_watermark": high,
        "low_watermark": draw(st.integers(0, high - 1)),
    }


def materialise(ops):
    """Resolve per-PID index gaps into absolute instruction indices."""
    cursors = {}
    resolved = []
    for op in ops:
        if op[0] != "events":
            resolved.append(op)
            continue
        _, raw, cuts = op
        events = []
        for is_load, start, size, gap, pid in raw:
            cursors[pid] = cursors.get(pid, 0) + gap
            events.append(MemoryAccess(
                AccessKind.LOAD if is_load else AccessKind.STORE,
                AddressRange.from_base_size(start, size),
                cursors[pid],
                pid,
            ))
        resolved.append(("events", events, cuts))
    return resolved


def wire_columns(events):
    """Column-only encoding (no MemoryAccess objects), as the wire has."""
    return EventColumns(
        None,
        [event.is_load for event in events],
        [event.address_range.start for event in events],
        [event.address_range.end for event in events],
        [event.instruction_index for event in events],
        [event.pid for event in events],
    )


def slice_bounds(count, cuts):
    points = sorted({cut % (count + 1) for cut in cuts} | {0, count})
    return list(zip(points, points[1:]))


class Feed:
    """One buffer, its backpressure log and the verdicts it gave."""

    def __init__(self, config, shape, coloured, calls=None):
        self.calls = [] if calls is None else calls
        self.verdicts = []
        self.coloured = coloured
        self.buffered = BufferedPIFT(
            config,
            colours=ColourSpace() if coloured else None,
            on_backpressure=self.on_backpressure,
            **shape,
        )

    def on_backpressure(self, engaged):
        # The depth pins down *when* the call came, not just its order.
        self.calls.append((engaged, self.buffered.queue_depth))

    def register_sources(self):
        for pid in range(3):
            for name, address_range in SOURCES:
                self.buffered.taint_source(
                    address_range, pid=pid,
                    colour=name if self.coloured else None,
                )

    def check(self, op):
        mode, start, size, pid = op
        address_range = AddressRange.from_base_size(start, size)
        if mode == "blocking":
            self.verdicts.append(
                self.buffered.check_blocking(address_range, pid=pid)
            )
        else:
            self.verdicts.append(self.buffered.check_immediate_verdict(
                address_range, pid=pid, sink_name=f"sink-{start}",
            ))

    def outcome(self):
        buffered = self.buffered
        buffered.drain_all()
        return (
            self.verdicts,
            buffered.stats.as_dict(),
            buffered.late_detections,
            buffered.snapshot(),
            self.calls,
        )


def per_event(config, shape, coloured, ops):
    feed = Feed(config, shape, coloured)
    feed.register_sources()
    for op in ops:
        if op[0] == "events":
            for event in op[1]:
                feed.buffered.on_memory_event(event)
        else:
            feed.check(op[1])
    return feed.outcome()


def sliced(config, shape, coloured, ops, snapshot_at=None):
    """Feed ``ops`` as column slices; with ``snapshot_at``, move the
    buffer to a fresh one after that many slices, mid-chunk included."""
    feed = Feed(config, shape, coloured)
    feed.register_sources()
    slices_fed = 0
    for op in ops:
        if op[0] != "events":
            feed.check(op[1])
            continue
        _, events, cuts = op
        columns = wire_columns(events)
        for lo, hi in slice_bounds(len(events), cuts):
            if slices_fed == snapshot_at:
                heir = Feed(config, shape, coloured, calls=feed.calls)
                heir.verdicts = feed.verdicts
                heir.buffered.restore(feed.buffered.snapshot())
                feed = heir
            feed.buffered.enqueue_columns(columns, lo, hi)
            slices_fed += 1
    return feed.outcome()


@settings(max_examples=150, deadline=None)
@given(
    operations,
    buffer_shapes(),
    st.builds(PIFTConfig, st.integers(1, 12), st.integers(1, 4),
              st.booleans()),
    st.booleans(),
)
def test_slices_match_per_event_enqueue(ops, shape, config, coloured):
    ops = materialise(ops)
    assert sliced(config, shape, coloured, ops) == per_event(
        config, shape, coloured, ops
    )


@settings(max_examples=80, deadline=None)
@given(
    operations,
    buffer_shapes(),
    st.builds(PIFTConfig, st.integers(1, 12), st.integers(1, 4),
              st.booleans()),
    st.booleans(),
    st.integers(1, 12),
)
def test_snapshot_between_slices_resumes_identically(
    ops, shape, config, coloured, snapshot_at
):
    ops = materialise(ops)
    assert sliced(
        config, shape, coloured, ops, snapshot_at=snapshot_at
    ) == per_event(config, shape, coloured, ops)


def test_block_splits_at_capacity_and_watermarks():
    # One 40-event slice into a 16-slot FIFO: the drains, the depth
    # high-water and the backpressure calls match 40 single enqueues.
    events = [
        MemoryAccess(AccessKind.STORE, AddressRange(i, i), i, 0)
        for i in range(40)
    ]
    shape = {"capacity": 16, "drain_batch": 6, "policy": OverflowPolicy.BLOCK,
             "high_watermark": 12, "low_watermark": 3}
    config = PIFTConfig(5, 2)
    one = Feed(config, shape, coloured=False)
    for event in events:
        one.buffered.on_memory_event(event)
    bulk = Feed(config, shape, coloured=False)
    bulk.buffered.enqueue_columns(wire_columns(events))
    assert bulk.buffered.stats == one.buffered.stats
    assert bulk.buffered.stats.drains == one.buffered.stats.drains > 0
    assert bulk.calls == one.calls == [(True, 12)]
    assert bulk.buffered.snapshot() == one.buffered.snapshot()


def test_fault_plan_sees_every_event_of_a_slice():
    # Event faults strike per event, so a faulted buffer routes a slice
    # through its per-event fault path and ends up where single
    # enqueues do.
    plan = FaultPlan.from_spec("drop=0.1,dup=0.1,reorder=0.1,corrupt=0.05",
                               seed=5)
    events = [
        MemoryAccess(AccessKind.LOAD if i % 3 == 0 else AccessKind.STORE,
                     AddressRange(i % 40, i % 40 + 3), i, i % 2)
        for i in range(200)
    ]
    shape = {"capacity": 16, "drain_batch": 5}
    config = PIFTConfig(5, 2)
    one = BufferedPIFT(config, faults=plan, **shape)
    bulk = BufferedPIFT(config, faults=plan, **shape)
    for buffered in (one, bulk):
        buffered.taint_source(AddressRange(0, 15))
    for event in events:
        one.on_memory_event(event)
    columns = wire_columns(events)
    bulk.enqueue_columns(columns, 0, 70)
    bulk.enqueue_columns(columns, 70)
    one.drain_all()
    bulk.drain_all()
    assert bulk.fault_stats == one.fault_stats
    assert bulk.fault_stats.total_injections > 0
    assert bulk.snapshot() == one.snapshot()
