"""Memory-event model — what the PIFT front-end hands to the tracker.

The paper's §3.3 front-end logic watches the CPU instruction unit and, for
each *memory access* instruction, sends to the PIFT hardware module:

1. the process-specific ID (PID / TTBR),
2. the process-specific instruction counter,
3. the access type (load or store),
4. the read or written address range.

Non-memory instructions advance the instruction counter but generate no
event.  ``MemoryAccess`` is that 4-tuple; the ISA simulator and the malware /
DroidBench traces all speak this type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.ranges import AddressRange


class AccessKind(enum.Enum):
    """Whether a memory instruction reads or writes memory."""

    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True)
class MemoryAccess:
    """One memory access observed by the PIFT front-end.

    ``instruction_index`` is the per-process instruction sequence number *k*
    from Algorithm 1 — it counts every CPU instruction, not just memory
    ones, because the tainting window NI is measured in instructions.
    """

    kind: AccessKind
    address_range: AddressRange
    instruction_index: int
    pid: int = 0

    @property
    def is_load(self) -> bool:
        return self.kind is AccessKind.LOAD

    @property
    def is_store(self) -> bool:
        return self.kind is AccessKind.STORE


def load(start: int, end: int, instruction_index: int, pid: int = 0) -> MemoryAccess:
    """Convenience constructor for a load event over ``[start, end]``."""
    return MemoryAccess(AccessKind.LOAD, AddressRange(start, end), instruction_index, pid)


def store(start: int, end: int, instruction_index: int, pid: int = 0) -> MemoryAccess:
    """Convenience constructor for a store event over ``[start, end]``."""
    return MemoryAccess(AccessKind.STORE, AddressRange(start, end), instruction_index, pid)


class ColumnArrays:
    """Contiguous numpy encodings of an :class:`EventColumns` instance.

    ``starts``/``ends``/``indices``/``pids`` are int64 arrays, ``is_load``
    is a bool array — the layout the vectorised pre-filter kernel
    (:mod:`repro.core.vectorized`) runs its ``searchsorted`` overlap
    tests over.  ``pid_values`` is the sorted tuple of distinct PIDs, so
    the kernel's per-block classification skips the per-PID machinery
    entirely on single-process traces.  Built once per column encoding
    and cached (:meth:`EventColumns.arrays`).
    """

    __slots__ = ("starts", "ends", "is_load", "indices", "pids", "pid_values")

    def __init__(self, starts, ends, is_load, indices, pids, pid_values) -> None:
        self.starts = starts
        self.ends = ends
        self.is_load = is_load
        self.indices = indices
        self.pids = pids
        self.pid_values = pid_values

    def same_pid_run(self, lo: int, hi: int) -> int:
        """End of the run of consecutive same-PID events starting at ``lo``.

        Returns the smallest ``j`` in ``(lo, hi]`` such that every event
        in ``[lo, j)`` shares ``pids[lo]``'s PID and either ``j == hi``
        or ``pids[j]`` differs.  The dense executor segments the event
        stream into these runs so window evolution and bulk range-set
        commits stay per-process, matching the scalar loop's per-PID
        state exactly.
        """
        if len(self.pid_values) == 1:
            return hi
        window = self.pids[lo:hi]
        switches = window != window[0]
        if not switches.any():
            return hi
        import numpy

        return lo + int(numpy.argmax(switches))


class EventColumns:
    """A pre-encoded column view of an event stream — the batch fast path.

    ``PIFTTracker.observe_columns`` iterates these parallel lists instead
    of per-event attribute chains (``event.pid``, ``event.is_load``, ...),
    which is where most of the per-event Python overhead lives.  Encode
    once (``EventTrace.columns()`` caches the encoding), replay many times
    — the record-once/replay-many shape every ``(NI, NT)`` sweep has.

    Address ranges are two parallel int lists, ``starts`` and ``ends``
    (inclusive bounds, the §3.3 front end's four integers per access),
    and the taint state's integer-bound methods take them as they are:
    the column path builds no :class:`AddressRange` per event.

    ``events`` may be passed as ``None`` by a producer that has only the
    columns (:func:`decode_columns`, a restored buffer snapshot): the
    :class:`MemoryAccess` objects are then built on first access to
    :attr:`events`, which only a per-event consumer (a
    telemetry shadow, a fault injector) ever makes.
    """

    __slots__ = (
        "_events", "is_loads", "starts", "ends", "indices", "pids", "_arrays",
    )

    def __init__(
        self,
        events: Optional[Sequence[MemoryAccess]],
        is_loads: List[bool],
        starts: List[int],
        ends: List[int],
        indices: List[int],
        pids: List[int],
    ) -> None:
        self._events = events
        self.is_loads = is_loads
        self.starts = starts
        self.ends = ends
        self.indices = indices
        self.pids = pids
        self._arrays: Optional[ColumnArrays] = None

    @property
    def events(self) -> Sequence[MemoryAccess]:
        """The per-event objects, built from the columns on first use."""
        if self._events is None:
            load_kind, store_kind = AccessKind.LOAD, AccessKind.STORE
            self._events = [
                MemoryAccess(load_kind if is_load else store_kind,
                             AddressRange(start, end), index, pid)
                for is_load, start, end, index, pid in zip(
                    self.is_loads, self.starts, self.ends, self.indices,
                    self.pids,
                )
            ]
        return self._events

    @classmethod
    def from_events(cls, events: Iterable[MemoryAccess]) -> "EventColumns":
        materialised = list(events)
        is_loads: List[bool] = []
        starts: List[int] = []
        ends: List[int] = []
        indices: List[int] = []
        pids: List[int] = []
        for event in materialised:
            is_loads.append(event.kind is AccessKind.LOAD)
            starts.append(event.address_range.start)
            ends.append(event.address_range.end)
            indices.append(event.instruction_index)
            pids.append(event.pid)
        return cls(materialised, is_loads, starts, ends, indices, pids)

    def arrays(self) -> ColumnArrays:
        """The cached :class:`ColumnArrays` numpy view (built on first use)."""
        if self._arrays is None:
            import numpy

            count = len(self.indices)
            pids = numpy.fromiter(self.pids, numpy.int64, count)
            self._arrays = ColumnArrays(
                starts=numpy.fromiter(self.starts, numpy.int64, count),
                ends=numpy.fromiter(self.ends, numpy.int64, count),
                is_load=numpy.fromiter(self.is_loads, numpy.bool_, count),
                indices=numpy.fromiter(self.indices, numpy.int64, count),
                pids=pids,
                pid_values=tuple(int(p) for p in numpy.unique(pids)),
            )
        return self._arrays

    def __len__(self) -> int:
        return len(self.indices)


# -- the column codec: one encoding of an event slice for ``events``
# frames, tracefiles and suite artifacts, and one validating decoder.

#: The integer columns beside the ``l``/``s`` ``kinds`` string.
_INT_COLUMNS = ("starts", "sizes", "indices", "pids")

#: Every integer must fit the int64 column arrays the tracker's
#: vectorised kernel builds; an address range must end inside it too.
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


class ColumnFormatError(ValueError):
    """An encoded event body the codec refuses; the message names the
    first problem.  Each boundary re-raises it as its own error."""


def encode_columns(
    columns: EventColumns, lo: int = 0, hi: Optional[int] = None
) -> dict:
    """The ``kinds``/``starts``/``sizes``/``indices``/``pids`` encoding
    of ``columns[lo:hi]``."""
    starts = columns.starts[lo:hi]
    return {
        "kinds": "".join(
            ["l" if is_load else "s" for is_load in columns.is_loads[lo:hi]]
        ),
        "starts": starts,
        "sizes": [
            end - start + 1 for start, end in zip(starts, columns.ends[lo:hi])
        ],
        "indices": columns.indices[lo:hi],
        "pids": columns.pids[lo:hi],
    }


def check_int_column(name: str, column: object) -> None:
    """Refuse ``column`` unless it is a list of JSON integers, checked
    in bulk by exact type, so ``true`` and ``1.0`` are refused."""
    if type(column) is not list:
        raise ColumnFormatError(f"'{name}' is not an array")
    if column and set(map(type, column)) != {int}:
        raise ColumnFormatError(f"'{name}' holds a non-integer entry")


_KIND_NAMES = {
    int: "an integer", bool: "a boolean", str: "a string",
    list: "an array", dict: "an object",
}


def typed_field(row: object, name: str, kind: type, default=None):
    """``row[name]`` when ``row`` is an object and the value has exactly
    type ``kind`` (``default`` when absent); else
    :class:`ColumnFormatError`.  ``type``, not ``int()``, so that null,
    strings, floats and booleans are refused instead of coerced."""
    if type(row) is not dict:
        raise ColumnFormatError(f"expected an object, got {row!r:.60}")
    value = row.get(name, default)
    if type(value) is not kind:
        raise ColumnFormatError(
            f"field '{name}' is not {_KIND_NAMES[kind]}: {value!r:.60}"
        )
    return value


def row_range(row: dict) -> AddressRange:
    """The ``start``/``size`` pair of a source or sink-check row as a
    range that ends inside int64; else :class:`ColumnFormatError`."""
    start, size = typed_field(row, "start", int), typed_field(row, "size", int)
    if start < 0 or size < 1 or start + size - 1 > INT64_MAX:
        raise ColumnFormatError(f"no valid range at {start}, size {size}")
    return AddressRange(start, start + size - 1)


def decode_columns(body: dict) -> EventColumns:
    """The :class:`EventColumns` (``events`` left ``None``) of an
    :func:`encode_columns` body, which is checked whole before anything
    is built; raises :class:`ColumnFormatError`."""
    try:
        kinds = body["kinds"]
        columns = [body[name] for name in _INT_COLUMNS]
    except KeyError as error:
        raise ColumnFormatError(f"missing {error}") from error
    if type(kinds) is not str:
        raise ColumnFormatError("'kinds' is not a string")
    for name, column in zip(_INT_COLUMNS, columns):
        check_int_column(name, column)
        if len(column) != len(kinds):
            raise ColumnFormatError("columns disagree on length")
    starts, sizes, indices, pids = columns
    if kinds:
        if kinds.count("l") + kinds.count("s") != len(kinds):
            raise ColumnFormatError(
                "'kinds' holds a character other than 'l'/'s'"
            )
        if min(sizes) < 1:
            raise ColumnFormatError("holds a size < 1")
        if min(starts) < 0:
            raise ColumnFormatError("holds a start < 0")
        if max(starts) + max(sizes) - 1 > INT64_MAX:
            raise ColumnFormatError("holds a range beyond 64 bits")
        for name, column in (("indices", indices), ("pids", pids)):
            if min(column) < INT64_MIN or max(column) > INT64_MAX:
                raise ColumnFormatError(
                    f"'{name}' holds an entry beyond 64 bits"
                )
    return EventColumns(
        None,
        list(map("l".__eq__, kinds)),
        starts,
        [start + size - 1 for start, size in zip(starts, sizes)],
        indices,
        pids,
    )


class EventTrace:
    """A materialised sequence of memory events plus the total instruction count.

    The total count matters because metrics such as the paper's Figure 2c
    (distance between consecutive loads) and the tainting window itself are
    measured in *instructions*, of which memory events are a strict subset.

    Instruction indices are *per process* (§3.3), so the total instruction
    count of a multi-process trace is the **sum of per-PID maxima**, not the
    single highest index seen; a per-PID high-water dict keeps the sum
    exact.  Non-memory instructions (which generate no event) are accounted
    via :meth:`note_instruction`.
    """

    def __init__(self, events: Iterable[MemoryAccess] = (), instruction_count: int = 0) -> None:
        self.events: List[MemoryAccess] = list(events)
        self._retired: Dict[int, int] = {}
        for event in self.events:
            if event.instruction_index >= self._retired.get(event.pid, 0):
                self._retired[event.pid] = event.instruction_index + 1
        self._floor = instruction_count
        self._columns: Optional[EventColumns] = None

    @classmethod
    def from_columns(
        cls, columns: EventColumns, instruction_count: int = 0
    ) -> "EventTrace":
        """A trace over decoded columns, which become its column cache."""
        trace = cls(columns.events, instruction_count)
        trace._columns = columns
        return trace

    @property
    def instruction_count(self) -> int:
        """Total instructions across all processes (sum of per-PID maxima)."""
        return max(self._floor, sum(self._retired.values()))

    @instruction_count.setter
    def instruction_count(self, value: int) -> None:
        # Legacy direct assignment acts as a floor on the derived total.
        self._floor = value

    @property
    def per_pid_instruction_counts(self) -> Dict[int, int]:
        """Instructions retired per PID (max index + 1 for each process)."""
        return dict(self._retired)

    def note_instruction(self, instruction_index: int, pid: int = 0) -> None:
        """Account a non-memory instruction (advances the PID's counter)."""
        if instruction_index >= self._retired.get(pid, 0):
            self._retired[pid] = instruction_index + 1

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.events)

    def append(self, event: MemoryAccess) -> None:
        self.events.append(event)
        if event.instruction_index >= self._retired.get(event.pid, 0):
            self._retired[event.pid] = event.instruction_index + 1
        self._columns = None

    def columns(self) -> EventColumns:
        """The cached column encoding (rebuilt after any :meth:`append`)."""
        if self._columns is None or len(self._columns) != len(self.events):
            self._columns = EventColumns.from_events(self.events)
        return self._columns

    def __getstate__(self) -> dict:
        # The column cache is derived data; drop it so pickled traces
        # (sweep-worker payloads) don't carry it twice.
        state = self.__dict__.copy()
        state["_columns"] = None
        return state

    @property
    def load_count(self) -> int:
        return sum(1 for e in self.events if e.is_load)

    @property
    def store_count(self) -> int:
        return sum(1 for e in self.events if e.is_store)

    def loads(self) -> Iterator[MemoryAccess]:
        return (e for e in self.events if e.is_load)

    def stores(self) -> Iterator[MemoryAccess]:
        return (e for e in self.events if e.is_store)
