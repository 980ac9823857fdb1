"""The `repro serve` wire protocol — newline-delimited JSON frames.

One frame per line, UTF-8 JSON with an ``op`` discriminator.  The format
is deliberately boring: every frame is independently parseable, a stream
is debuggable with ``nc``/``socat`` + a JSON pretty-printer, and the
device side needs nothing beyond a socket and ``json.dumps``.

Device-side ops (one connection == one device stream):

* ``hello``   — handshake; names the device and negotiates colours.
* ``source``  — a source registration (optionally colour-labelled).
* ``events``  — a *chunk* of memory events in the shared column
  encoding of :mod:`repro.core.events` (kinds as an ``l``/``s`` string,
  parallel ``starts`` / ``sizes`` / ``indices`` / ``pids`` arrays), the
  one tracefiles and suite artifacts use too.  Chunking is the
  streaming unit: a device never has to materialise its whole trace.
* ``check``   — a sink check; the server answers with a ``verdict``.
* ``reset``   — drop the device's shards (app restart / next run).
* ``end``     — end of stream; the server answers with a summary.

Admin/query ops (any connection):

* ``query``   — per-device verdict log + colour attribution.
* ``stats``   — server-wide shard/ingest accounting.
* ``drain``   — snapshot a shard and park it (the migration primitive).
* ``restore`` — revive a parked shard from a snapshot, on any worker.
* ``migrate`` — server-side drain + restore to another worker.
* ``shutdown``— stop the daemon.

:func:`run_to_frames` turns a :class:`~repro.android.device.RecordedRun`
into the canonical frame sequence.  It walks the *replay plan* — the
same config-independent segmentation batch replay uses
(:func:`repro.analysis.replay.replay_plan_for`) — so sources, events,
and checks interleave in exactly the order the batch path drains them.
That shared ordering is what makes the fleet parity claim well-defined:
the verdict stream a device receives lines up 1:1 with the
``sink_outcomes`` list of a batch replay of the same run.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.replay import _walk_plan, replay_plan_for, source_colour
from repro.analysis.tracefile import check_row, source_row
from repro.android.device import RecordedRun
from repro.core.events import (
    ColumnFormatError,
    EventColumns,
    decode_columns,
    encode_columns,
    row_range,
    typed_field,
)
from repro.core.ranges import AddressRange

PROTOCOL_VERSION = 1

#: Default events per ``events`` frame — the chunk a device buffers at
#: most.  Small enough to stream, large enough to amortise JSON cost.
DEFAULT_CHUNK = 512


class ProtocolError(ValueError):
    """A frame that cannot be parsed or violates the protocol."""


def encode_frame(frame: dict) -> bytes:
    """One frame -> one newline-terminated JSON line (compact, sorted)."""
    return json.dumps(
        frame, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict:
    """Inverse of :func:`encode_frame`; raises :class:`ProtocolError`."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"unparseable frame: {error}") from error
    if not isinstance(frame, dict) or "op" not in frame:
        raise ProtocolError("frame is not an object with an 'op' key")
    return frame


def hello_frame(device: str, colours: bool = False) -> dict:
    return {
        "op": "hello",
        "device": device,
        "version": PROTOCOL_VERSION,
        "colours": colours,
    }


def source_frame(source) -> dict:
    """A :class:`~repro.android.device.SourceRegistration` as a frame.

    The colour rides along unconditionally (defaulting to the source
    name, mirroring :func:`repro.analysis.replay.source_colour`); the
    server ignores it on a plain (colour-free) daemon.
    """
    colour = source_colour(source)
    return {"op": "source", **source_row(source), "colour": colour}


def check_frame(check) -> dict:
    """A :class:`~repro.android.device.SinkCheck` as a frame."""
    row = check_row(check)
    return {"op": "check", "sink": row.pop("name"), **row}


def events_frame(
    columns: EventColumns, lo: int = 0, hi: Optional[int] = None
) -> dict:
    """``columns[lo:hi]`` as an ``events`` frame (the shared column
    encoding, :func:`repro.core.events.encode_columns`)."""
    return {"op": "events", **encode_columns(columns, lo, hi)}


def decode_events(frame: dict) -> List[Tuple[int, EventColumns]]:
    """The ``(pid, EventColumns)`` groups of an ``events`` frame.

    The whole frame is validated first by the shared decoder
    (:func:`repro.core.events.decode_columns`), whose refusal becomes a
    :class:`ProtocolError`.  Groups come in order of each PID's first
    event, and each keeps its PID's events in stream order.  No
    :class:`MemoryAccess` or :class:`AddressRange` is built: the columns
    go to the shard FIFOs as they are, and :attr:`EventColumns.events`
    is built only if something asks for it.
    """
    try:
        columns = decode_columns(frame)
    except ColumnFormatError as error:
        raise ProtocolError(f"events frame {error}") from error
    pids = columns.pids
    if not pids:
        return []
    first = pids[0]
    if pids.count(first) == len(pids):
        return [(first, columns)]
    is_loads, starts, ends = columns.is_loads, columns.starts, columns.ends
    indices = columns.indices
    positions: Dict[int, List[int]] = {}
    for position, pid in enumerate(pids):
        positions.setdefault(pid, []).append(position)
    return [
        (pid, EventColumns(
            None,
            [is_loads[i] for i in group],
            [starts[i] for i in group],
            [ends[i] for i in group],
            [indices[i] for i in group],
            [pid] * len(group),
        ))
        for pid, group in positions.items()
    ]


def int_field(frame: dict, name: str, default: Optional[int] = None) -> int:
    """``frame[name]`` when it is a JSON integer (``default`` when the
    field is absent and one is given); raises :class:`ProtocolError`
    otherwise, refusing null, arrays, strings, floats and booleans."""
    try:
        return typed_field(frame, name, int, default)
    except ColumnFormatError as error:
        raise ProtocolError(f"{frame.get('op')} frame {error}") from error


def frame_range(frame: dict) -> AddressRange:
    """The ``start``/``size`` pair of a source/check frame as a range."""
    try:
        return row_range(frame)
    except ColumnFormatError as error:
        raise ProtocolError(f"{frame.get('op')} frame {error}") from error


def run_to_frames(
    recorded: RecordedRun, chunk: int = DEFAULT_CHUNK
) -> Iterator[dict]:
    """A recorded run as the canonical device frame sequence.

    Returns the ``source`` / ``events`` / ``check`` frames in replay-plan
    order: the events before each plan boundary (chunked to ``chunk``),
    then that boundary's due sources, then its due checks — byte for
    byte the interleaving :func:`repro.analysis.replay.replay` drains,
    so streamed verdicts align 1:1 with batch ``sink_outcomes``.  The
    trailing ``end`` frame is the caller's to send (the client appends
    it once per *stream*, not per run).
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    frames: List[dict] = []

    def emit_events(columns: EventColumns, lo: int, hi: int) -> None:
        frames.extend(
            events_frame(columns, start, min(start + chunk, hi))
            for start in range(lo, hi, chunk)
        )

    _walk_plan(
        recorded,
        replay_plan_for(recorded),
        emit_events,
        lambda source: frames.append(source_frame(source)),
        lambda check: frames.append(check_frame(check)),
    )
    return iter(frames)


def verdict_key(verdict: dict) -> tuple:
    """The comparable identity of one verdict, mirroring batch
    :class:`~repro.analysis.replay.SinkOutcome` fields (colours included
    when present, so coloured parity diffs attribution too)."""
    return (
        verdict.get("sink"),
        verdict.get("channel"),
        verdict.get("index"),
        verdict.get("pid"),
        bool(verdict.get("tainted")),
        tuple(verdict.get("colours") or ()),
    )


def outcome_key(outcome) -> tuple:
    """Batch-side twin of :func:`verdict_key` for a ``SinkOutcome``."""
    return (
        outcome.sink_name,
        outcome.channel,
        outcome.instruction_index,
        outcome.pid,
        bool(outcome.tainted),
        tuple(outcome.colours),
    )


def error_frame(message: str, op: Optional[str] = None) -> dict:
    frame: Dict[str, object] = {"op": "error", "error": message}
    if op is not None:
        frame["request"] = op
    return frame
