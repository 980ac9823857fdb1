"""Vectorised columnar pre-filter for the replay hot loop.

Hardware DIFT engines get their speed by processing taint checks as wide
parallel bit operations off the critical path; this module is the numpy
analogue for PIFT's Algorithm 1.  The observation: on the traces PIFT
cares about (DroidBench apps, malware payloads, long background
workloads) the overwhelming majority of memory events are *irrelevant* —
they advance counters but cannot change window or taint state:

* a **load** that overlaps no tainted range opens no window;
* a **store** with no open (and unexhausted) tainting window in its
  process is not a taint candidate, and — when untainting is off, or the
  store overlaps no tainted range — not an untaint candidate either.

Both conditions are pure functions of state that only changes at the
*relevant* events themselves (tainted loads, taints, untaints, source
registrations).  So the kernel classifies whole blocks of the column
encoding with ``np.searchsorted`` overlap tests against a sorted-interval
numpy mirror of each PID's :class:`~repro.core.ranges.RangeSet`
(:meth:`~repro.core.ranges.RangeSet.as_arrays`, refreshed on mutation via
the range set's version counter), bulk-accounts the irrelevant prefix run
in O(distinct PIDs), and drops into the exact scalar loop
(:meth:`~repro.core.tracker.PIFTTracker.observe_columns_scalar`) only
around events that can matter.

Soundness argument (the property suite in
``tests/property/test_batch_parity.py`` checks this bit-for-bit):

* classification happens at a *sync point* where no event has been
  skipped past; skipped events are exactly those whose scalar processing
  would touch nothing but ``loads_observed`` / ``stores_observed`` and
  the per-PID instruction high-water marks, which the bulk accounting
  reproduces exactly (the high-water updates telescope, so applying the
  per-PID maximum equals applying every index in sequence);
* a relevant event can invalidate the remaining classification (a taint
  grows the overlap set; a tainted load opens a window), so the kernel
  never skips past one — it scalar-processes a short run and re-syncs;
* untaints and propagation-cap exhaustion only *shrink* the relevant
  set, so a stale classification stays conservative, never unsound.

The kernel is an execution strategy, not a semantics change: it requires
an unbounded :class:`~repro.core.ranges.RangeSet` or
:class:`~repro.core.colours.ColourRangeSet` backend (bounded
hardware models mutate on eviction inside ``add`` and may keep LRU state,
so skipping their queries would change behaviour) and is bypassed
entirely when a telemetry shadow is bound over ``observe``.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING

from repro.core.colours import ColourRangeSet

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatched stubs
    _np = None

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.events import ColumnArrays, EventColumns
    from repro.core.tracker import PIFTTracker

#: Is the kernel usable at all (numpy importable)?
HAVE_NUMPY = _np is not None

#: First classification block; doubled after every fully-irrelevant block.
BLOCK_MIN = 512

#: Classification block ceiling — caps per-sync numpy work so taint-dense
#: regions never pay more than O(BLOCK_MAX) per relevant event.
BLOCK_MAX = 65536

#: Events handed to the scalar loop after each relevant hit before the
#: kernel re-classifies.  Amortises classification cost in dense regions.
SCALAR_RUN = 64

#: Density bail-out: once this many events have gone through the scalar
#: loop, the kernel compares vector-handled (skipped + dense-committed)
#: vs scalar-handled counts and, if fewer than half were handled
#: vectorised, hands a *bounded* chunk (:data:`REPROBE_EVERY`) to the
#: scalar loop and re-probes — a dense-prefix/sparse-tail trace regains
#: the fast path once the tail starts, instead of staying scalar forever.
BAILOUT_AFTER = 512

#: Events handed to the scalar loop per density bail-out before the
#: kernel re-probes with a fresh classification window.
REPROBE_EVERY = 4096

#: Ceiling on one dense-executor span (a same-PID run executed with
#: vectorised window evolution and bulk range-set commits).
DENSE_SPAN = 4096

#: The cost of one dense-executor window simulation (with the mutation
#: run and mask patch that follow it), priced in scalar-loop events.
#: Measured, not tuned: see DESIGN.md, "Dense executor", step 5.  The
#: cost rule (:func:`_finish_scalar`) compares simulations still owed
#: against the scalar cost of the events they would save, and a same-PID
#: run shorter than one simulation's price never enters the executor.
RESIM_COST = 128

#: One-shot flag for the numpy-absence fallback warning.
_numpy_fallback_warned = False


def _pid_relevance(
    tracker: "PIFTTracker",
    pid: int,
    loads_m,
    query_start,
    query_end,
    query_index,
):
    """Relevance mask for one PID's events, given the sync-point state.

    Relevance:

    * load overlapping the PID's taint state (would open a window),
    * store inside the PID's open, unexhausted window (would taint),
    * store overlapping the PID's taint state while untainting is on
      (would untaint).
    """
    config = tracker.config
    state = tracker._states.get(pid)
    if state is not None and len(state):
        starts, ends = state.as_arrays()
        candidate = _np.searchsorted(starts, query_end, side="right") - 1
        hit = (candidate >= 0) & (ends[candidate] >= query_start)
        # Overlapping loads open windows; overlapping stores untaint
        # (when untainting is on).
        rel = hit if config.untainting else hit & loads_m
    else:
        rel = None
    window = tracker._windows.get(pid)
    if (
        window is not None
        and window.last_tainted_load is not None
        and window.propagations < config.max_propagations
    ):
        # Both window edges: the window is the NI instructions *following*
        # the tainted load, so an index below the window-opening load is
        # outside it (matches the scalar loop's two-edge test; without the
        # lower edge, regressed-index stores were classified relevant).
        last = window.last_tainted_load
        in_window = (
            ~loads_m
            & (query_index >= last)
            & (query_index <= last + config.window_size)
        )
        rel = in_window if rel is None else rel | in_window
    return rel


def _first_relevant(
    tracker: "PIFTTracker",
    arrays: "ColumnArrays",
    lo: int,
    hi: int,
) -> int:
    """Index of the first event in ``[lo, hi)`` that can matter, else ``hi``."""
    loads_m = arrays.is_load[lo:hi]
    query_start = arrays.starts[lo:hi]
    query_end = arrays.ends[lo:hi]
    query_index = arrays.indices[lo:hi]
    pid_values = arrays.pid_values
    if len(pid_values) == 1:
        relevant = _pid_relevance(
            tracker, pid_values[0], loads_m, query_start, query_end,
            query_index,
        )
    else:
        block_pids = arrays.pids[lo:hi]
        relevant = None
        for pid in pid_values:
            member = block_pids == pid
            if not member.any():
                continue
            rel = _pid_relevance(
                tracker, pid, loads_m[member], query_start[member],
                query_end[member], query_index[member],
            )
            if rel is not None and rel.any():
                if relevant is None:
                    relevant = _np.zeros(hi - lo, dtype=bool)
                relevant[member] = rel
    if relevant is None:
        return hi
    hits = _np.flatnonzero(relevant)
    return lo + int(hits[0]) if hits.size else hi


def _skip_run(tracker: "PIFTTracker", arrays: "ColumnArrays", lo: int, hi: int) -> None:
    """Bulk-account the irrelevant events in ``[lo, hi)``.

    Matches what the scalar loop would have done for them: bump the
    load/store counters and advance each PID's instruction high-water
    mark (whose per-event updates telescope to a single per-PID max),
    creating taint state / window entries for first-seen PIDs exactly as
    the scalar loop does on a PID switch.
    """
    stats = tracker.stats
    load_count = int(_np.count_nonzero(arrays.is_load[lo:hi]))
    stats.loads_observed += load_count
    stats.stores_observed += (hi - lo) - load_count
    windows = tracker._windows
    pid_values = arrays.pid_values
    if len(pid_values) == 1:
        pid = pid_values[0]
        if pid not in windows:
            tracker.state(pid)
        window = windows[pid]
        # Per-PID indices are normally non-decreasing, but the scalar
        # loop tolerates regressions via its high-water update; max()
        # (not the last element) keeps the telescoped form identical.
        top = int(arrays.indices[lo:hi].max())
        if top >= window.instructions_retired:
            stats.instructions_observed += top + 1 - window.instructions_retired
            window.instructions_retired = top + 1
        return
    block_pids = arrays.pids[lo:hi]
    block_indices = arrays.indices[lo:hi]
    for pid in pid_values:
        member = block_pids == pid
        if not member.any():
            continue
        if pid not in windows:
            tracker.state(pid)
        window = windows[pid]
        top = int(block_indices[member].max())
        if top >= window.instructions_retired:
            stats.instructions_observed += top + 1 - window.instructions_retired
            window.instructions_retired = top + 1


def _overlap_masks(state, query_start, query_end):
    """Exact ``(hit, contained, c)`` for query ranges against ``state``.

    ``hit`` is the paper's overlap test; ``contained`` is full coverage
    by a single stored range (a contained taint-add changes no content,
    so the dense executor can commit it as pure counter updates).  One
    ``searchsorted`` serves both: ``c`` is the last stored range starting
    at or before each query's end, and since stored ranges are disjoint,
    a range covering the whole query can only be that one.
    """
    starts, ends = state.as_arrays()
    if not starts.size:
        zeros = _np.zeros(len(query_start), dtype=bool)
        return zeros, zeros.copy(), None
    c = _np.searchsorted(starts, query_end, side="right") - 1
    valid = c >= 0
    c = _np.maximum(c, 0)
    c_ends = ends[c]
    hit = valid & (c_ends >= query_start)
    contained = hit & (c_ends >= query_end) & (starts[c] <= query_start)
    return hit, contained, c


def _finish_scalar(cuts_left: int, remaining: int, sims: int, n: int) -> bool:
    """The dense executor's cost rule: should the rest of the span go to
    the scalar loop?

    ``cuts_left`` content mutations remain in the span under the current
    masks, each costing at least one more simulation (:data:`RESIM_COST`
    scalar events apiece), and ``remaining`` events remain after the
    next cut.  Finish scalar when the projected simulations cost more
    than the events they would save; and, as a backstop against mask
    patches that keep uncovering new mutations, once the ``sims``
    already run cost as much as the whole ``n``-event span in the
    scalar loop — so a span never pays more than about twice its
    scalar cost.
    """
    return cuts_left * RESIM_COST > remaining or sims * RESIM_COST > n


def _simulate(K, L, hit, p, last, props, config):
    """Algorithm 1's window evolution over ``[p, n)`` under fixed masks.

    Tainted-load positions segment the run; each store's governing
    window opens at the last hit load before it (or at the carried-in
    ``last``), both window edges apply, and a per-segment rank against
    the NT cap (seeded with the carried-in ``props`` for the head
    segment) decides taint.  Returns ``(hl, seg, taint, untaint)``:
    absolute hit-load positions, each event's governing hit-load ordinal
    (-1 before the first), and the taint and untaint-candidate masks
    relative to ``p``.
    """
    ni = config.window_size
    nt = config.max_propagations
    hlm = L[p:] & hit[p:]
    hl = _np.flatnonzero(hlm) + p
    seg = _np.cumsum(hlm) - 1
    kk = K[p:]
    stores = ~L[p:]
    if hl.size:
        in_seg = seg >= 0
        clamped = _np.maximum(seg, 0)
        gov = K[hl[clamped]]
        if last is not None:
            gov = _np.where(in_seg, gov, last)
            in_win = stores & (kk >= gov) & (kk <= gov + ni)
        else:
            in_win = stores & in_seg & (kk >= gov) & (kk <= gov + ni)
        ranks = _np.cumsum(in_win)
        base = _np.where(in_seg, ranks[hl - p][clamped], 0)
        cap = _np.where(in_seg, nt, nt - props)
        taint = in_win & (ranks - 1 - base < cap)
    elif last is not None:
        in_win = stores & (kk >= last) & (kk <= last + ni)
        taint = in_win & (_np.cumsum(in_win) <= nt - props)
    else:
        taint = _np.zeros(len(kk), dtype=bool)
    untaint = stores & ~taint & hit[p:] if config.untainting else None
    return hl, seg, taint, untaint


def _commit_prefix(stats, window, K, L, hl, seg, taint, p, cut, last, props):
    """Bulk-commit the mutation-free prefix ``[p, cut)`` of a simulation.

    Counters via ``count_nonzero``, the PID's instruction high-water mark
    via a max (the per-event updates telescope), and the window state at
    the cut.  Returns ``(last, props, last_load)``, ``last_load`` being
    the position of the prefix's last hit load or ``None``.
    """
    sl = slice(p, cut)
    load_count = int(_np.count_nonzero(L[sl]))
    stats.loads_observed += load_count
    stats.stores_observed += (cut - p) - load_count
    loads_hit = int(seg[cut - p - 1]) + 1
    stats.tainted_loads += loads_hit
    taint_count = int(_np.count_nonzero(taint[: cut - p]))
    stats.taint_operations += taint_count
    top = int(K[sl].max())
    if top >= window.instructions_retired:
        stats.instructions_observed += top + 1 - window.instructions_retired
        window.instructions_retired = top + 1
    if loads_hit:
        last_load = int(hl[loads_hit - 1])
        last = int(K[last_load])
        props = int(_np.count_nonzero(taint[last_load + 1 - p : cut - p]))
        return last, props, last_load
    if last is not None:
        props += taint_count
    return last, props, None


def _untaint_run(stats, state, S, E, L, hit, taint, p, cut, other_size, other_count):
    """Execute the maximal run of consecutive non-taint stores at ``cut``.

    Untaint candidates resolve sequentially inside ``remove_many`` (an
    earlier untaint can void a later candidate), reported per step
    because a split *raises* the range count.  Untaints are colour-blind
    (an overwrite destroys all taint), so plain and coloured states take
    the same path.
    Returns ``(j, extent)``: the run's end and the mutated address hull,
    or ``None`` when no candidate was effective.
    """
    n = len(L)
    stop_rel = _np.flatnonzero(L[cut:] | taint[cut - p :])
    j = cut + (int(stop_rel[0]) if stop_rel.size else n - cut)
    cand = _np.flatnonzero(hit[cut:j]) + cut
    steps = state.remove_many([(int(S[i]), int(E[i])) for i in cand])
    effective = [
        (i, total_after, count_after)
        for (i, (ok, total_after, count_after)) in zip(cand, steps)
        if ok
    ]
    for _, total_after, count_after in effective:
        stats.untaint_operations += 1
        size = other_size + total_after
        count = other_count + count_after
        if size > stats.max_tainted_bytes:
            stats.max_tainted_bytes = size
        if count > stats.max_range_count:
            stats.max_range_count = count
    stats.stores_observed += j - cut
    if not effective:
        return j, None
    return j, (
        int(min(S[i] for i, _, _ in effective)),
        int(max(E[i] for i, _, _ in effective)),
    )


def _suspects(S, E, j, extent):
    """Events after ``j`` overlapping the mutated ``extent``: the only
    ones whose coverage masks a mutation can have changed."""
    extent_lo, extent_hi = extent
    return _np.flatnonzero((S[j:] <= extent_hi) & (E[j:] >= extent_lo)) + j


def _colour_masks(state, query_start, query_end, query_load):
    """``(hit, contained, omask, cover_mask)`` for query ranges against a
    :class:`~repro.core.colours.ColourRangeSet`.

    ``hit``/``contained`` match :func:`_overlap_masks`; ``omask`` is the
    OR of every overlapped range's colour mask (the window mask a tainted
    load would carry), ``cover_mask`` the covering range's mask for
    contained queries (the superset test for absorbed taint-adds).  Only
    a hit *load*'s ``omask`` is ever read, so it is computed for those
    queries alone and left 0 elsewhere.  Queries overlapping a single
    stored range — the overwhelming case, since coloured intervals are
    coalesced per colour — resolve in one gather; multi-range stragglers
    take a few extra vector passes.
    """
    hit, contained, last = _overlap_masks(state, query_start, query_end)
    omask = _np.zeros(len(query_start), dtype=_np.uint64)
    if last is None:
        return hit, contained, omask, omask.copy()
    rmasks = state.mask_array()
    loads = _np.flatnonzero(hit & query_load)
    if loads.size:
        _, ends = state.as_arrays()
        # A hit query overlaps stored ranges first..last (inclusive).
        first = _np.searchsorted(ends, query_start[loads], side="left")
        depth = last[loads] - first
        load_masks = rmasks[first]
        top = int(depth.max())
        # OR the remaining overlapped ranges' masks in, sweeping by
        # overlap *depth*: iteration d ORs the (first+d)-th overlapped
        # range of every query still deep enough.  Depth is bounded by
        # the fattest query (accesses are a few bytes wide), so this
        # runs a handful of vector passes, not a loop per query.
        for d in range(1, top + 1):
            live = depth >= d
            load_masks[live] |= rmasks[first[live] + d]
        omask[loads] = load_masks
    # A contained query's covering range is ``last`` (see _overlap_masks).
    cover_mask = _np.where(contained, rmasks[last], _np.uint64(0))
    return hit, contained, omask, cover_mask


def _add_run(stats, state, pairs, gmask, other_size, other_count):
    """Commit a run of taint-adds (with colour ``gmask``, or ``None`` on a
    plain state) with per-mutation high-water bookkeeping; returns the
    merged extent the mask patch must cover."""
    if gmask is not None:
        # A coloured add spanning k gapped differently-masked ranges can
        # raise the range count by k+1 — no static per-add budget proves
        # the bulk run sets no new high-water mark.  add_many_steps
        # reports (total, count) after every add, so the non-monotone
        # maxima fold exactly as the scalar loop's bookkeeping.
        extent, steps = state.add_many_steps(pairs, gmask)
    elif other_count + state.range_count + len(pairs) <= stats.max_range_count:
        # No intermediate step can set a new range-count high-water mark
        # (a plain add raises the count by at most one) and tainted bytes
        # only grow, so the final totals reproduce per-step bookkeeping.
        extent = state.add_many(pairs)
        steps = ((state.total_size, state.range_count),)
    else:
        steps = []
        for pair_start, pair_end in pairs:
            state.add_bounds(pair_start, pair_end)
            steps.append((state.total_size, state.range_count))
        starts, ends = state.as_arrays()
        hull_lo = min(s for s, _ in pairs)
        hull_hi = max(e for _, e in pairs)
        i0 = int(_np.searchsorted(ends, hull_lo, side="left"))
        i1 = int(_np.searchsorted(starts, hull_hi, side="right")) - 1
        extent = (int(starts[i0]), int(ends[i1]))
    max_bytes = stats.max_tainted_bytes
    max_ranges = stats.max_range_count
    for total_after, count_after in steps:
        if other_size + total_after > max_bytes:
            max_bytes = other_size + total_after
        if other_count + count_after > max_ranges:
            max_ranges = other_count + count_after
    stats.max_tainted_bytes = max_bytes
    stats.max_range_count = max_ranges
    return extent


def _dense_span(
    tracker: "PIFTTracker",
    columns: "EventColumns",
    arrays: "ColumnArrays",
    lo: int,
    limit: int,
):
    """Vectorised *execution* of one same-PID run starting at ``lo``.

    The dense-regime engine: instead of handing relevant events to the
    scalar loop one short run at a time, simulate Algorithm 1's window
    evolution for the whole run under fixed overlap masks, bulk-commit
    everything up to the first *content* mutation (taint of uncovered
    bytes, or an effective untaint), process the mutation run through the
    bulk range-set primitives, patch the masks from the merged extent,
    and continue — until the cost rule (:func:`_finish_scalar`) says the
    scalar loop is cheaper for the rest of the run.  Returns
    ``(consumed, scalar_events)`` so the caller's density accounting can
    tell vector-handled events from scalar ones.

    Soundness (checked bit-for-bit by the parity suite): taint decisions
    depend only on window evolution — hit-load positions, the two window
    edges, and the propagation cap — never on taint *content*, so they
    stay valid across content mutations as long as the masks feeding the
    hit-load positions do; the executor therefore never advances past a
    content mutation without patching the masks, and every quantity it
    bulk-commits (counters, telescoped high-water marks, window state at
    the cut) equals the scalar loop's value by construction.  Contained
    taint-adds mutate no content (a contained add merges into exactly its
    covering range), so they commit as counter updates; per-mutation
    ``max_range_count`` bookkeeping is reproduced either by the
    can't-exceed-the-high-water guard or by per-step fallback.

    On a :class:`~repro.core.colours.ColourRangeSet` state the same
    executor carries colour: each governing hit load's overlap
    mask becomes the window mask, a consecutive taint run (which contains
    no loads, hence has one governing window) commits with that single
    mask, and a contained taint-add only counts as content-free when its
    covering range's mask is a *superset* of the window mask — otherwise
    the add would OR new colour bits in, which is a content mutation the
    mask patch must see.  Untaints stay colour-blind (an overwrite
    destroys all taint).
    """
    run_hi = arrays.same_pid_run(lo, min(lo + DENSE_SPAN, limit))
    n = run_hi - lo
    if n < RESIM_COST:
        # Shorter than one simulation's price: the scalar loop is cheaper
        # even if the run holds no content mutation at all.
        consumed = min(SCALAR_RUN, limit - lo)
        tracker.observe_columns_scalar(columns, lo, lo + consumed)
        return consumed, consumed
    pid = int(arrays.pids[lo])
    if pid not in tracker._windows:
        tracker.state(pid)
    state = tracker._states[pid]
    coloured = isinstance(state, ColourRangeSet)
    window = tracker._windows[pid]
    config = tracker.config
    stats = tracker.stats
    tracker.kernel.dense_spans += 1
    # Other PIDs' states do not change inside a same-PID span.
    other_size = tracker.tainted_bytes - state.total_size
    other_count = tracker.range_count - state.range_count

    K = arrays.indices[lo:run_hi]
    S = arrays.starts[lo:run_hi]
    E = arrays.ends[lo:run_hi]
    L = arrays.is_load[lo:run_hi]
    hit, contained, _ = _overlap_masks(state, S, E)
    # Colour arrays ``(omask, cover_mask)`` of a coloured span, built
    # against the current state on first need and patched from then on:
    # a span the cost rule hands off at its first cut never needs them.
    colours = None

    last = window.last_tainted_load
    props = window.propagations
    wmask = window.colour_mask
    p = 0
    sims = 0
    while p < n:
        sims += 1
        hl, seg, taint, untaint = _simulate(K, L, hit, p, last, props, config)
        absorbed = taint & contained[p:]
        if coloured and absorbed.any():
            # A contained taint-add is content-free only when its
            # covering range's mask holds every bit of the governing
            # window mask: its hit load's overlap mask, or the carried-in
            # window's before the first hit load.
            if colours is None:
                colours = _colour_masks(state, S, E, L)[2:]
            omask, cover_mask = colours
            if hl.size:
                gmasks = omask[hl[_np.maximum(seg, 0)]]
                if last is not None:
                    gmasks = _np.where(seg >= 0, gmasks, _np.uint64(wmask))
            else:
                gmasks = _np.full(n - p, wmask, dtype=_np.uint64)
            absorbed &= (cover_mask[p:] & gmasks) == gmasks
        content_mut = taint & ~absorbed
        if untaint is not None:
            content_mut |= untaint
        cuts = _np.flatnonzero(content_mut)
        cut = (int(cuts[0]) + p) if cuts.size else n
        if cut > p:
            last, props, last_load = _commit_prefix(
                stats, window, K, L, hl, seg, taint, p, cut, last, props
            )
            if last_load is not None:
                # The prefix is mutation-free, so the state still holds
                # what the window-opening load saw (1 on a plain state).
                wmask = (
                    int(colours[0][last_load]) if colours is not None
                    else state.mask_bounds(
                        columns.starts[lo + last_load],
                        columns.ends[lo + last_load],
                    )
                )
        if cut >= n:
            break

        # -- a content mutation: execute its run via bulk primitives ----
        if _finish_scalar(cuts.size, n - cut, sims, n):
            window.last_tainted_load = last
            window.propagations = props
            window.colour_mask = wmask
            tracker.kernel.cost_handoffs += 1
            tracker.kernel.dense_events += cut
            tracker.observe_columns_scalar(columns, lo + cut, run_hi)
            return n, n - cut
        if taint[cut - p]:
            # Maximal run of consecutive taint-decision stores: decisions
            # are content-independent, so the whole run is committed with
            # one sorted-merge bulk add.
            stop_rel = _np.flatnonzero(~taint[cut - p :])
            j = cut + (int(stop_rel[0]) if stop_rel.size else n - cut)
            pairs = list(zip(
                columns.starts[lo + cut:lo + j], columns.ends[lo + cut:lo + j]
            ))
            # A taint run holds no loads, so the window mask at the cut
            # (``wmask``, just committed) colours the whole run.
            extent = _add_run(
                stats, state, pairs, wmask if coloured else None,
                other_size, other_count,
            )
            stats.stores_observed += j - cut
            stats.taint_operations += j - cut
            props += j - cut
        else:
            j, extent = _untaint_run(
                stats, state, S, E, L, hit, taint, p, cut,
                other_size, other_count,
            )
        top = int(K[cut:j].max())
        if top >= window.instructions_retired:
            stats.instructions_observed += top + 1 - window.instructions_retired
            window.instructions_retired = top + 1

        # -- patch the masks: only events overlapping the mutated extent
        #    can have changed coverage (or colours) ------------------------
        if extent is not None and j < n:
            suspects = _suspects(S, E, j, extent)
            if suspects.size:
                if colours is not None:
                    (hit[suspects], contained[suspects], omask[suspects],
                     cover_mask[suspects]) = _colour_masks(
                        state, S[suspects], E[suspects], L[suspects]
                    )
                else:
                    hit[suspects], contained[suspects], _ = _overlap_masks(
                        state, S[suspects], E[suspects]
                    )
        p = j
    window.last_tainted_load = last
    window.propagations = props
    window.colour_mask = wmask
    tracker.kernel.dense_events += n
    return n, 0


def observe_columns(
    tracker: "PIFTTracker", columns: "EventColumns", start: int, stop: int
) -> None:
    """Algorithm 1 over ``columns[start:stop)`` with vectorised skipping
    *and* vectorised dense-regime execution.

    Alternates between bulk-skipping classified-irrelevant prefix runs
    and the dense executor (:func:`_dense_span`) on relevant events; the
    executor's cost rule hands mutation-heavy spans to the scalar loop.
    Every event is counted in ``tracker.kernel`` as skipped, dense or
    scalar.  The block size doubles (up to :data:`BLOCK_MAX`) while blocks keep coming
    back fully irrelevant and resets after every relevant hit.  Slices
    where the scalar loop ends up doing most of the work (vector-handled
    share below one half after :data:`BAILOUT_AFTER` scalar events) hand
    a bounded :data:`REPROBE_EVERY` chunk to the scalar loop, then
    re-probe — so a dense-prefix/sparse-tail trace regains the fast path.

    Timeline recording forces per-mutation :class:`TimelinePoint`
    appends, which the bulk commits deliberately elide; with
    ``record_timeline`` on, relevant events take the exact scalar loop
    instead (classification/skipping is unaffected — skipped events never
    mutate).  Without numpy the whole call degrades to
    :meth:`~repro.core.tracker.PIFTTracker.observe_columns_scalar` with a
    one-shot warning (equivalent to ``--no-vectorized``).
    """
    if _np is None:
        global _numpy_fallback_warned
        if not _numpy_fallback_warned:
            _numpy_fallback_warned = True
            warnings.warn(
                "numpy is unavailable; the vectorised kernel is falling "
                "back to the scalar loop (equivalent to --no-vectorized)",
                RuntimeWarning,
                stacklevel=2,
            )
        tracker.observe_columns_scalar(columns, start, stop)
        return
    arrays = columns.arrays()
    scalar = tracker.observe_columns_scalar
    dense_ok = not tracker._record_timeline
    position = start
    block = BLOCK_MIN
    vector_handled = 0
    scalar_handled = 0
    while position < stop:
        block_end = min(position + block, stop)
        first = _first_relevant(tracker, arrays, position, block_end)
        if first > position:
            _skip_run(tracker, arrays, position, first)
            tracker.kernel.skipped_events += first - position
            vector_handled += first - position
            position = first
        if position >= block_end:
            # Whole block irrelevant: widen the next classification.
            block = min(block * 2, BLOCK_MAX)
            continue
        # A relevant event: execute a span through the dense engine (or
        # the exact scalar loop when timeline recording demands
        # per-mutation samples), then re-sync against the updated state.
        if dense_ok:
            consumed, dense_scalar = _dense_span(
                tracker, columns, arrays, position, stop
            )
        else:
            consumed = min(SCALAR_RUN, stop - position)
            scalar(columns, position, position + consumed)
            dense_scalar = consumed
        position += consumed
        scalar_handled += dense_scalar
        vector_handled += consumed - dense_scalar
        block = BLOCK_MIN
        if scalar_handled >= BAILOUT_AFTER:
            if vector_handled < scalar_handled:
                # Density bail-out, bounded: scalar a chunk, re-probe.
                tracker.kernel.reprobe_handoffs += 1
                chunk_end = min(position + REPROBE_EVERY, stop)
                scalar(columns, position, chunk_end)
                position = chunk_end
            vector_handled = 0
            scalar_handled = 0
