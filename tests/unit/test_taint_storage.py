"""Unit tests for the hardware taint-storage models (paper section 3.3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.replay import replay
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core.colours import ColourRangeSet
from repro.core.config import PIFTConfig
from repro.core.events import EventTrace, load, store
from repro.core.ranges import AddressRange, RangeSet
from repro.core.taint_storage import (
    ENTRY_BYTES_WITH_PID,
    ENTRY_BYTES_WITHOUT_PID,
    BoundedRangeCache,
    EvictionPolicy,
    entry_capacity,
    paper_default_storage,
)
from repro.core.tracker import PIFTTracker


class TestEntryCapacity:
    def test_paper_sizing_with_pid(self):
        # "a small on-chip memory, for example, of 32KB can accommodate
        #  approximately 2730 ranges"
        assert entry_capacity(32 * 1024, ENTRY_BYTES_WITH_PID) == 2730

    def test_paper_sizing_without_pid(self):
        # "we can remove the process-specific identification ... and thus
        #  can store 4096 entries in the 32KB memory"
        assert entry_capacity(32 * 1024, ENTRY_BYTES_WITHOUT_PID) == 4096

    def test_too_small_storage_rejected(self):
        with pytest.raises(ValueError):
            entry_capacity(4, ENTRY_BYTES_WITH_PID)


class TestBoundedRangeCacheBasics:
    def test_add_and_lookup(self):
        cache = BoundedRangeCache(capacity_entries=4)
        cache.add(AddressRange(0x100, 0x10F))
        assert cache.overlaps(AddressRange(0x108, 0x108))
        assert not cache.overlaps(AddressRange(0x110, 0x120))

    def test_remove(self):
        cache = BoundedRangeCache(capacity_entries=4)
        cache.add(AddressRange(0x100, 0x10F))
        cache.remove(AddressRange(0x104, 0x107))
        assert cache.overlaps(AddressRange(0x100, 0x103))
        assert not cache.overlaps(AddressRange(0x104, 0x107))
        assert cache.overlaps(AddressRange(0x108, 0x10F))
        assert cache.range_count == 2

    def test_coalescing_keeps_entry_count_down(self):
        cache = BoundedRangeCache(capacity_entries=2)
        cache.add(AddressRange(0x100, 0x103))
        cache.add(AddressRange(0x104, 0x107))  # adjacent: merges
        assert cache.range_count == 1
        assert cache.stats.evictions == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BoundedRangeCache(capacity_entries=0)

    def test_stats_hits_and_misses(self):
        cache = BoundedRangeCache(capacity_entries=4)
        cache.add(AddressRange(0x100, 0x10F))
        cache.overlaps(AddressRange(0x100, 0x100))  # hit
        cache.overlaps(AddressRange(0x900, 0x900))  # miss
        assert cache.stats.lookups == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1


class TestSpillPolicy:
    def test_overflow_spills_to_secondary_without_losing_taint(self):
        cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
        ranges = [AddressRange(base, base + 3) for base in (0x100, 0x200, 0x300)]
        for r in ranges:
            cache.add(r)
        assert cache.stats.evictions == 1
        assert cache.on_chip_range_count == 2
        assert cache.spilled_range_count == 1
        # No accuracy loss: every range still answers positive.
        for r in ranges:
            assert cache.overlaps(r)

    def test_secondary_hit_promotes(self):
        cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
        for base in (0x100, 0x200, 0x300):
            cache.add(AddressRange(base, base + 3))
        # 0x100 was LRU-evicted; querying it is a 'cache miss' serviced from
        # main memory, after which it is promoted back on chip.
        assert cache.overlaps(AddressRange(0x100, 0x103))
        assert cache.stats.secondary_hits == 1
        assert cache.overlaps(AddressRange(0x100, 0x103))
        assert cache.stats.secondary_hits == 1  # now a plain hit

    def test_lru_victim_is_least_recently_touched(self):
        cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
        cache.add(AddressRange(0x100, 0x103))
        cache.add(AddressRange(0x200, 0x203))
        cache.overlaps(AddressRange(0x100, 0x100))  # touch 0x100: now MRU
        cache.add(AddressRange(0x300, 0x303))  # evicts 0x200
        assert cache.on_chip_range_count == 2
        assert cache.overlaps(AddressRange(0x200, 0x203))  # from secondary
        assert cache.stats.secondary_hits == 1

    def test_remove_erases_spilled_state_too(self):
        cache = BoundedRangeCache(capacity_entries=1, policy=EvictionPolicy.SPILL)
        cache.add(AddressRange(0x100, 0x103))
        cache.add(AddressRange(0x200, 0x203))  # spills 0x100
        cache.remove(AddressRange(0x100, 0x103))
        assert not cache.overlaps(AddressRange(0x100, 0x103))

    def test_total_size_spans_both_levels(self):
        cache = BoundedRangeCache(capacity_entries=1, policy=EvictionPolicy.SPILL)
        cache.add(AddressRange(0x100, 0x103))
        cache.add(AddressRange(0x200, 0x203))
        assert cache.total_size == 8
        assert cache.range_count == 2


class TestDropPolicy:
    def test_overflow_drops_and_may_lose_taint(self):
        cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.DROP)
        for base in (0x100, 0x200, 0x300):
            cache.add(AddressRange(base, base + 3))
        assert cache.stats.dropped_ranges == 1
        assert cache.stats.dropped_bytes == 4
        # The dropped range is a potential false negative.
        assert not cache.overlaps(AddressRange(0x100, 0x103))
        assert cache.overlaps(AddressRange(0x300, 0x303))


class TestFixedGranularity:
    def test_add_taints_whole_blocks(self):
        cache = BoundedRangeCache(capacity_entries=8, granularity_bits=2)
        cache.add(AddressRange(0x101, 0x102))
        # The whole 4-byte block [0x100, 0x103] is tainted: over-tainting.
        assert cache.overlaps(AddressRange(0x100, 0x100))
        assert cache.overlaps(AddressRange(0x103, 0x103))
        assert not cache.overlaps(AddressRange(0x104, 0x104))

    def test_remove_only_fully_covered_blocks(self):
        cache = BoundedRangeCache(capacity_entries=8, granularity_bits=2)
        cache.add(AddressRange(0x100, 0x10B))  # blocks 0x100, 0x104, 0x108
        cache.remove(AddressRange(0x102, 0x109))  # fully covers only 0x104
        assert cache.overlaps(AddressRange(0x100, 0x103))
        assert not cache.overlaps(AddressRange(0x104, 0x107))
        assert cache.overlaps(AddressRange(0x108, 0x10B))

    def test_remove_smaller_than_block_is_noop(self):
        cache = BoundedRangeCache(capacity_entries=8, granularity_bits=4)
        cache.add(AddressRange(0x100, 0x10F))
        cache.remove(AddressRange(0x102, 0x104))  # covers no whole 16B block
        assert cache.overlaps(AddressRange(0x102, 0x104))


class TestTrackerIntegration:
    def test_tracker_runs_on_bounded_storage(self):
        config = PIFTConfig(window_size=5, max_propagations=2)
        tracker = PIFTTracker(
            config, state_factory=lambda: BoundedRangeCache(capacity_entries=16)
        )
        tracker.taint_source(AddressRange(0x1000, 0x1003))
        tracker.observe(load(0x1000, 0x1003, 0))
        tracker.observe(store(0x2000, 0x2003, 1))
        assert tracker.check(AddressRange(0x2000, 0x2003))

    def test_drop_policy_can_cause_false_negative(self):
        config = PIFTConfig(window_size=5, max_propagations=3, untainting=False)
        tracker = PIFTTracker(
            config,
            state_factory=lambda: BoundedRangeCache(
                capacity_entries=1, policy=EvictionPolicy.DROP
            ),
        )
        tracker.taint_source(AddressRange(0x1000, 0x1003))
        tracker.observe(load(0x1000, 0x1003, 0))
        tracker.observe(store(0x2000, 0x2003, 1))
        tracker.observe(store(0x3000, 0x3003, 2))
        # Capacity 1: earlier state was dropped somewhere along the way.
        total_positive = sum(
            tracker.check(r)
            for r in (
                AddressRange(0x1000, 0x1003),
                AddressRange(0x2000, 0x2003),
                AddressRange(0x3000, 0x3003),
            )
        )
        assert total_positive == 1

    def test_paper_default_storage_shape(self):
        storage = paper_default_storage()
        assert storage.capacity_entries == 2730
        assert storage.policy is EvictionPolicy.SPILL


operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "query"]),
        st.builds(
            lambda start, size: AddressRange(start, start + size),
            st.integers(0, 200),
            st.integers(0, 12),
        ),
    ),
    max_size=60,
)


class TestMaskOverlapping:
    """Plain states are the one-colour case of the coloured state: a load
    lookup answers 0 or 1, and ``add`` ignores the mask."""

    @given(operations)
    @settings(max_examples=100, deadline=None)
    def test_rangeset_mask_is_the_overlap_bit(self, ops):
        state, reference = RangeSet(), RangeSet()
        for op, item in ops:
            if op == "add":
                state.add(item, 0b101)
                reference.add(item)
            elif op == "remove":
                state.remove(item)
                reference.remove(item)
            assert state.mask_overlapping(item) == int(state.overlaps(item))
            assert state == reference

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    @given(ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_cache_mask_is_one_overlaps_call(self, policy, ops):
        """Twin caches take the same operations; one answers queries with
        ``mask_overlapping``, the other with ``overlaps``.  The answers
        agree, and so do the LRU order, spilled state and stats."""
        masked = BoundedRangeCache(capacity_entries=2, policy=policy)
        plain = BoundedRangeCache(capacity_entries=2, policy=policy)
        for op, item in ops:
            if op == "add":
                masked.add(item, 0b101)
                plain.add(item)
            elif op == "remove":
                masked.remove(item)
                plain.remove(item)
            else:
                assert masked.mask_overlapping(item) == int(
                    plain.overlaps(item)
                )
            assert masked.snapshot() == plain.snapshot()


class TestIntegerBounds:
    """Each integer-bound method is its :class:`AddressRange` twin: twin
    states take the same operations, one through the range forms and one
    through the bound forms, and must agree on every answer and, after
    every step, on their whole state — for the bounded caches that
    includes the LRU order and :class:`StorageStats`."""

    FACTORIES = {
        "rangeset": RangeSet,
        "colour": ColourRangeSet,
        "spill": lambda: BoundedRangeCache(2, EvictionPolicy.SPILL),
        "drop": lambda: BoundedRangeCache(2, EvictionPolicy.DROP),
        "spill_blocks": lambda: BoundedRangeCache(
            2, EvictionPolicy.SPILL, granularity_bits=2
        ),
        "drop_blocks": lambda: BoundedRangeCache(
            2, EvictionPolicy.DROP, granularity_bits=2
        ),
    }

    @staticmethod
    def state_of(state):
        if isinstance(state, BoundedRangeCache):
            # The snapshot carries cache, secondary, stats and the LRU
            # entries in dict order.
            return state.snapshot()
        return state.snapshot(), state.total_size, state.range_count

    @pytest.mark.parametrize("kind", sorted(FACTORIES))
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "overlaps", "mask"]),
                st.integers(0, 200),
                st.integers(0, 12),
                st.sampled_from([1, 2, 4, 3]),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_methods_equal_range_methods(self, kind, ops):
        by_range = self.FACTORIES[kind]()
        by_bounds = self.FACTORIES[kind]()
        for op, start, size, mask in ops:
            end = start + size
            item = AddressRange(start, end)
            if op == "add":
                by_range.add(item, mask)
                by_bounds.add_bounds(start, end, mask)
            elif op == "remove":
                by_range.remove(item)
                by_bounds.remove_bounds(start, end)
            elif op == "overlaps":
                assert by_range.overlaps(item) == by_bounds.overlaps_bounds(
                    start, end
                )
            else:
                assert by_range.mask_overlapping(item) == (
                    by_bounds.mask_bounds(start, end)
                )
            assert self.state_of(by_range) == self.state_of(by_bounds)


def pinned_run() -> RecordedRun:
    """A fixed two-PID run whose stores scatter over 48 slots, so a
    4-entry range cache evicts, spills and hits secondary storage."""
    rng = random.Random(2016)
    events = []
    index = {0: 0, 1: 0}
    for _ in range(600):
        pid = rng.randrange(2)
        index[pid] += rng.randrange(1, 4)
        base = 0x1000 + 0x10 * rng.randrange(48)
        size = rng.randrange(1, 9)
        access = load if rng.random() < 0.45 else store
        events.append(access(base, base + size - 1, index[pid], pid=pid))
    recorded = RecordedRun(trace=EventTrace(events, instruction_count=2000))
    for pid in (0, 1):
        recorded.sources.append(
            SourceRegistration(AddressRange(0x1000, 0x103F), 0, "src", pid=pid)
        )
    for i, at in enumerate((200, 500, 900, 1500)):
        recorded.sink_checks.append(
            SinkCheck(AddressRange(0x1000, 0x12FF), at, f"sink{i}", "sms",
                      pid=i % 2)
        )
    recorded.sink_checks.append(
        SinkCheck(AddressRange(0x9000, 0x90FF), 1900, "clean", "sms")
    )
    return recorded


class TestPinnedBoundedReplay:
    """A bounded-cache replay of :func:`pinned_run` under ``(8, 3)``, with
    every tracker and storage counter pinned: how the tracker queries its
    state (one lookup per load, one per untaint candidate) must not move
    the cache's LRU order, spills or stats."""

    @pytest.mark.parametrize("policy, tracker_stats, storage_stats", [
        (
            EvictionPolicy.SPILL,
            (1176, 277, 323, 127, 174, 51, 425, 72),
            [(206, 26, 53, 106, 0, 0), (225, 22, 81, 157, 0, 0)],
        ),
        (
            EvictionPolicy.DROP,
            (1176, 277, 323, 24, 48, 23, 134, 8),
            [(258, 26, 0, 14, 14, 123), (299, 25, 0, 13, 13, 114)],
        ),
    ])
    def test_counters_pinned(self, policy, tracker_stats, storage_stats):
        caches = []

        def factory():
            caches.append(BoundedRangeCache(4, policy=policy))
            return caches[-1]

        result = replay(pinned_run(), PIFTConfig(8, 3), state_factory=factory)
        stats = result.stats
        assert (
            stats.instructions_observed, stats.loads_observed,
            stats.stores_observed, stats.tainted_loads,
            stats.taint_operations, stats.untaint_operations,
            stats.max_tainted_bytes, stats.max_range_count,
        ) == tracker_stats
        assert [
            (c.stats.lookups, c.stats.hits, c.stats.secondary_hits,
             c.stats.evictions, c.stats.dropped_ranges,
             c.stats.dropped_bytes)
            for c in caches
        ] == storage_stats
        assert [o.tainted for o in result.sink_outcomes] == [
            True, True, True, True, False
        ]
