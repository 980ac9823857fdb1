"""Lane-parallel Algorithm 1: every cell of a grid in one pass over a run.

A parameter sweep replays one recorded run under many ``(NI, NT,
untainting)`` cells, and the per-cell replays differ only in their window
bounds.  This kernel runs the cells side by side as *lanes*: bit ``i`` of
every Python-int mask below belongs to cell ``i``, the way multi-colour
DIFT follows several tags at once ("multiple bits can be followed using
different colors") and :class:`~repro.core.colours.ColourRangeSet` carries
its 64-bit provenance masks.  Python ints grow, so a lane set may hold any
number of cells.

* **Atoms.**  Each PID's address space is cut at every bound (``start``
  and ``end + 1``) of that PID's events, sources and checks.  Every range
  the replay touches is then a run of whole atoms, so one lane mask per
  atom is the whole taint state of every cell, and each event carries its
  ``(atom_lo, atom_hi)`` span (:class:`LaneTables`, built once per run).
* **Windows.**  Each PID keeps ``{(opened_at, stores): lane_mask}``: the
  lanes whose live window was opened by the tainted load at ``opened_at``
  and has taken ``stores`` propagations.  A hit load moves its hit lanes
  to ``(k, 0)``; an in-window store moves its lanes to ``(opened_at,
  stores + 1)``.  A group only keeps lanes whose NT cap is above its
  store count: a lane with its cap spent is out of window until its next
  tainted load, exactly as if it held no window at all.
* **Stats without a lanes x atoms matrix.**  Counters are logged as lane
  masks (hit loads, taints, effective untaints).  Byte and range totals
  are logged as deltas: one ``(mask, +-size)`` row per changed atom, and
  one ``(mask, +-1)`` row per changed *run start* (an atom tainted in a
  lane whose left neighbour is not).  :class:`~repro.core.ranges.RangeSet`
  coalesces adjacent ranges, so a lane's range count is its number of
  runs.  After the walk one numpy pass unpacks the masks to per-lane bits
  and takes the prefix sums at every mutation's end, which gives
  ``max_tainted_bytes`` and ``max_range_count`` per lane.

The result matches a per-cell :class:`~repro.core.tracker.PIFTTracker`
over :class:`~repro.core.ranges.RangeSet` on every
:class:`~repro.core.tracker.TrackerStats` field and every sink verdict
(``tests/property/test_lane_parity.py``).  Timelines, telemetry, bounded
states and colours have no lane form.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence

import numpy

from repro.core.config import PIFTConfig
from repro.core.events import EventColumns
from repro.core.tracker import TrackerStats

#: The window table holds one mask per distance ``0..max NI``; cells with
#: a wider window stay on the per-cell path so the table stays small.
MAX_LANE_WINDOW = 1 << 16

#: Log rows per numpy chunk in the stats pass, which bounds its working
#: set at ``_CHUNK_ROWS x lanes`` integers.
_CHUNK_ROWS = 4096

_INT64_MAX = (1 << 63) - 1


class LaneGrid:
    """The lane layout of one lane set: lane ``i`` is ``configs[i]``.

    ``ni_at_least[d]`` holds the lanes whose window reaches distance
    ``d`` (``NI >= d``) and ``nt_above[s]`` the lanes whose cap allows a
    ``s + 1``-th propagation (``NT > s``).  Built once per lane set and
    shared by every run replayed under it.
    """

    __slots__ = ("configs", "lanes", "full", "untainting", "ni_at_least",
                 "nt_above")

    def __init__(self, configs: Sequence[PIFTConfig]) -> None:
        self.configs = tuple(configs)
        if not self.configs:
            raise ValueError("a lane grid needs at least one config")
        widest = max(config.window_size for config in self.configs)
        if widest > MAX_LANE_WINDOW:
            raise ValueError(
                f"window {widest} exceeds the lane window limit "
                f"{MAX_LANE_WINDOW}"
            )
        self.lanes = len(self.configs)
        self.full = (1 << self.lanes) - 1
        self.untainting = 0
        # Each lane's bit at its own bound, then suffix ORs.
        ni_at_least = [0] * (widest + 1)
        nt_above = [0] * max(
            config.max_propagations for config in self.configs
        )
        for lane, config in enumerate(self.configs):
            bit = 1 << lane
            if config.untainting:
                self.untainting |= bit
            ni_at_least[config.window_size] |= bit
            nt_above[config.max_propagations - 1] |= bit
        for table in (ni_at_least, nt_above):
            for d in range(len(table) - 2, -1, -1):
                table[d] |= table[d + 1]
        self.ni_at_least = ni_at_least
        self.nt_above = nt_above


class LaneTables:
    """Config-independent atom tables of one recorded run.

    ``sizes[pid]`` lists the byte size of each of the PID's atoms, in
    address order.  ``event_lo[i]``/``event_hi[i]`` give event ``i``'s
    atom span ``[lo, hi)`` in its PID's atoms, and ``source_spans`` /
    ``check_spans`` the ``(pid, lo, hi)`` spans of the replay plan's
    sources and checks, in plan order.  The counters every cell shares
    (loads, stores, instructions) are computed here once.
    """

    __slots__ = ("sizes", "event_lo", "event_hi", "source_spans",
                 "check_spans", "loads", "stores", "instructions",
                 "total_bytes")

    def __init__(self, columns: EventColumns, sources, checks) -> None:
        count = len(columns)
        arrays = columns.arrays()
        extra: Dict[int, List[int]] = {}
        for row in tuple(sources) + tuple(checks):
            bounds = extra.setdefault(row.pid, [])
            bounds.append(row.address_range.start)
            bounds.append(row.address_range.end + 1)
        pid_values = arrays.pid_values
        event_lo = numpy.zeros(count, numpy.int64)
        event_hi = numpy.zeros(count, numpy.int64)
        cuts_by_pid: Dict[int, List[int]] = {}
        self.sizes: Dict[int, List[int]] = {}
        self.instructions = 0
        for pid in sorted(set(pid_values) | set(extra)):
            # ``end + 1`` of an int64 end can reach 2**63: cut in uint64.
            parts = [numpy.array(extra.get(pid, ()), numpy.uint64)]
            select = None
            if pid in pid_values:
                select = (
                    slice(None) if len(pid_values) == 1
                    else arrays.pids == pid
                )
                starts = arrays.starts[select].astype(numpy.uint64)
                stops = arrays.ends[select].astype(numpy.uint64) + 1
                parts += [starts, stops]
            cuts = numpy.unique(numpy.concatenate(parts))
            if select is not None:
                event_lo[select] = numpy.searchsorted(cuts, starts)
                event_hi[select] = numpy.searchsorted(cuts, stops)
                self.instructions += max(
                    0, int(arrays.indices[select].max()) + 1
                )
            cuts_by_pid[pid] = cuts.tolist()
            self.sizes[pid] = numpy.diff(cuts).tolist()
        self.event_lo = event_lo.tolist()
        self.event_hi = event_hi.tolist()

        def spans(rows) -> List[tuple]:
            out = []
            for row in rows:
                cuts = cuts_by_pid[row.pid]
                out.append((
                    row.pid,
                    bisect_left(cuts, row.address_range.start),
                    bisect_left(cuts, row.address_range.end + 1),
                ))
            return out

        self.source_spans = spans(sources)
        self.check_spans = spans(checks)
        self.loads = int(arrays.is_load.sum())
        self.stores = count - self.loads
        self.total_bytes = sum(sum(sizes) for sizes in self.sizes.values())


class LaneKernel:
    """One lane-parallel replay of a run: feed it along the replay plan
    (:meth:`observe`, :meth:`register`, :meth:`judge`, in the plan's
    order), then read :meth:`lane_stats`."""

    def __init__(self, grid: LaneGrid, tables: LaneTables) -> None:
        self.grid = grid
        self.tables = tables
        self.atoms = {pid: [0] * len(sizes)
                      for pid, sizes in tables.sizes.items()}
        self.groups: Dict[int, dict] = {pid: {} for pid in tables.sizes}
        self.hits: List[int] = []
        self.taints: List[int] = []
        self.untaints: List[int] = []
        # Delta logs: parallel mask and weight rows, and the row count at
        # the end of every mutation (the points a tracker samples).
        self.byte_masks: List[int] = []
        self.byte_weights: List[int] = []
        self.run_masks: List[int] = []
        self.run_weights: List[int] = []
        self.byte_ends: List[int] = []
        self.run_ends: List[int] = []
        self._sources = 0
        self._checks = 0

    # -- the walk ----------------------------------------------------------

    def observe(self, columns: EventColumns, start: int, stop: int) -> None:
        """Algorithm 1 over events ``[start, stop)`` in every lane."""
        grid = self.grid
        ni_at_least = grid.ni_at_least
        widest = len(ni_at_least) - 1
        nt_above = grid.nt_above
        caps = len(nt_above)
        untainting = grid.untainting
        is_loads = columns.is_loads
        indices = columns.indices
        pids = columns.pids
        event_lo = self.tables.event_lo
        event_hi = self.tables.event_hi
        all_atoms = self.atoms
        all_groups = self.groups
        hits = self.hits
        taints = self.taints
        untaints = self.untaints
        mutate = self._mutate
        current = None
        atoms = groups = None
        for i in range(start, stop):
            pid = pids[i]
            if pid != current:
                current = pid
                atoms = all_atoms[pid]
                groups = all_groups[pid]
            lo = event_lo[i]
            hi = event_hi[i]
            present = atoms[lo]
            for j in range(lo + 1, hi):
                present |= atoms[j]
            if is_loads[i]:
                if present:
                    # Hit lanes leave their old windows and open one at k.
                    hits.append(present)
                    key = (indices[i], 0)
                    if groups:
                        keep = ~present
                        for old, lanes in list(groups.items()):
                            lanes &= keep
                            if lanes:
                                groups[old] = lanes
                            else:
                                del groups[old]
                    groups[key] = groups.get(key, 0) | present
                continue
            taint = 0
            if groups:
                k = indices[i]
                moves = None
                for key, lanes in groups.items():
                    d = k - key[0]
                    if 0 <= d <= widest:
                        moved = lanes & ni_at_least[d]
                        if moved:
                            taint |= moved
                            if moves is None:
                                moves = []
                            moves.append((key, lanes & ~moved, moved))
                if moves is not None:
                    # Take every mover out first: a mover's next key may
                    # be another mover's current one.
                    for key, rest, _ in moves:
                        if rest:
                            groups[key] = rest
                        else:
                            del groups[key]
                    for (opened, stores), _, moved in moves:
                        stores += 1
                        if stores < caps:
                            moved &= nt_above[stores]
                            if moved:
                                key = (opened, stores)
                                groups[key] = groups.get(key, 0) | moved
                    taints.append(taint)
            untaint = untainting & ~taint & present
            if untaint:
                untaints.append(untaint)
            elif not taint:
                continue
            mutate(pid, lo, hi, taint, untaint)

    def register(self, source) -> None:
        """A source registration: taint its range in every lane."""
        pid, lo, hi = self.tables.source_spans[self._sources]
        self._sources += 1
        self._mutate(pid, lo, hi, self.grid.full, 0)

    def judge(self, check) -> int:
        """A sink check: the mask of lanes in which its range is tainted."""
        pid, lo, hi = self.tables.check_spans[self._checks]
        self._checks += 1
        atoms = self.atoms[pid]
        mask = 0
        for j in range(lo, hi):
            mask |= atoms[j]
        return mask

    def _mutate(self, pid: int, lo: int, hi: int, taint: int,
                untaint: int) -> None:
        """Set ``taint`` and clear ``untaint`` (disjoint lane masks) over
        atoms ``[lo, hi)`` of ``pid``, logging the byte and run deltas as
        one mutation."""
        atoms = self.atoms[pid]
        sizes = self.tables.sizes[pid]
        byte_masks = self.byte_masks
        byte_weights = self.byte_weights
        run_masks = self.run_masks
        run_weights = self.run_weights
        keep = ~untaint
        before_prev = after_prev = atoms[lo - 1] if lo else 0
        # The atom after the span changes no bits, but its run start can.
        last = hi + 1 if hi < len(atoms) else hi
        for j in range(lo, last):
            before = atoms[j]
            after = before
            if j < hi:
                after = (before | taint) & keep
                if after != before:
                    atoms[j] = after
                    size = sizes[j]
                    up = after & ~before
                    if up:
                        byte_masks.append(up)
                        byte_weights.append(size)
                    down = before & ~after
                    if down:
                        byte_masks.append(down)
                        byte_weights.append(-size)
            starts_before = before & ~before_prev
            starts_after = after & ~after_prev
            if starts_before != starts_after:
                up = starts_after & ~starts_before
                if up:
                    run_masks.append(up)
                    run_weights.append(1)
                down = starts_before & ~starts_after
                if down:
                    run_masks.append(down)
                    run_weights.append(-1)
            before_prev = before
            after_prev = after
        self.byte_ends.append(len(byte_masks))
        self.run_ends.append(len(run_masks))

    # -- per-lane results ----------------------------------------------------

    def lane_stats(self) -> List[TrackerStats]:
        """Every lane's :class:`TrackerStats`, in lane order."""
        lanes = self.grid.lanes
        tables = self.tables
        tainted_loads = _lane_counts(self.hits, lanes)
        taint_ops = _lane_counts(self.taints, lanes)
        untaint_ops = _lane_counts(self.untaints, lanes)
        max_bytes = _lane_peaks(
            self.byte_masks, self.byte_weights, self.byte_ends, lanes,
            tables.total_bytes > _INT64_MAX,
        )
        max_ranges = _lane_peaks(
            self.run_masks, self.run_weights, self.run_ends, lanes, False
        )
        return [
            TrackerStats(
                instructions_observed=tables.instructions,
                loads_observed=tables.loads,
                stores_observed=tables.stores,
                tainted_loads=tainted_loads[lane],
                taint_operations=taint_ops[lane],
                untaint_operations=untaint_ops[lane],
                max_tainted_bytes=max_bytes[lane],
                max_range_count=max_ranges[lane],
            )
            for lane in range(lanes)
        ]


def _unpack(masks: Sequence[int], lanes: int):
    """A ``len(masks) x lanes`` uint8 bit matrix, lane ``i`` in column
    ``i``; masks are cut into little-endian 64-lane words."""
    width = 8 * ((lanes + 63) // 64)
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    return numpy.unpackbits(
        numpy.frombuffer(raw, numpy.uint8).reshape(len(masks), width),
        axis=1, count=lanes, bitorder="little",
    )


def _lane_counts(masks: Sequence[int], lanes: int) -> List[int]:
    """How many of ``masks`` hold each lane."""
    total = numpy.zeros(lanes, numpy.int64)
    for at in range(0, len(masks), _CHUNK_ROWS):
        total += _unpack(masks[at:at + _CHUNK_ROWS], lanes).sum(
            axis=0, dtype=numpy.int64
        )
    return total.tolist()


def _lane_peaks(masks: Sequence[int], weights: Sequence[int],
                ends: Sequence[int], lanes: int, wide: bool) -> List[int]:
    """Per lane, the highest prefix sum of ``weights`` over the rows whose
    mask holds the lane, sampled at the row counts in ``ends`` (and 0).

    ``wide`` sums in Python integers, for runs whose address spans could
    overflow int64."""
    dtype = object if wide else numpy.int64
    peak = numpy.zeros(lanes, dtype)
    level = numpy.zeros(lanes, dtype)
    ends = numpy.asarray(ends, numpy.int64)
    for at in range(0, len(masks), _CHUNK_ROWS):
        chunk = masks[at:at + _CHUNK_ROWS]
        stop = at + len(chunk)
        rows = _unpack(chunk, lanes).astype(dtype)
        rows *= numpy.asarray(weights[at:stop], dtype)[:, None]
        sums = numpy.cumsum(rows, axis=0)
        sums += level
        sampled = ends[(ends > at) & (ends <= stop)] - at - 1
        if sampled.size:
            peak = numpy.maximum(peak, sums[sampled].max(axis=0))
        level = sums[-1]
    return [int(value) for value in peak]
