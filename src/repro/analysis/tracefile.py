"""Trace persistence — store recorded runs the way the paper stores gem5
traces, so expensive executions can be analysed repeatedly offline.

Format: one gzip-compressed JSON document.  Memory events use the one
column codec of :mod:`repro.core.events` that ``events`` frames use too
(kinds as an ``l``/``s`` string, ranges as ``start``/``size`` pairs),
with indices stored as deltas and an all-zero ``pids`` column left out.
That keeps a ~10^5-event trace at a few hundred kilobytes while staying
debuggable with standard tools (``zcat trace.pift.gz | python -m
json.tool``).

Reading is strict: the accumulated delta column and the rest go
through the shared validating decoder, source and sink-check rows get
the same exact-type checks the wire uses, and every failure is a
:class:`TraceFormatError` naming the first problem, never a raw
exception or a silently truncated or coerced run.
"""

from __future__ import annotations

import gzip
import json
from itertools import accumulate
from operator import sub
from pathlib import Path
from typing import Union

from repro.core.events import (
    ColumnFormatError,
    EventTrace,
    check_int_column,
    decode_columns,
    encode_columns,
    row_range,
    typed_field,
)
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration

FORMAT_NAME = "pift-trace"
FORMAT_VERSION = 3

#: Older versions this reader still accepts.  Version 2 lacks ``pid``
#: fields on sources/sink checks (implicitly PID 0).
COMPATIBLE_VERSIONS = (2, FORMAT_VERSION)


class TraceFormatError(ValueError):
    """The file is not a readable pift-trace document."""


def encode_recorded_run(recorded: RecordedRun) -> dict:
    """The JSON-ready body of one recorded run (no format envelope).

    Shared by the single-run tracefile format below and the
    :mod:`repro.store` suite artifacts, so both persist runs with the
    same (versioned) encoding.
    """
    trace = recorded.trace
    columns = encode_columns(trace.columns())
    indices = columns["indices"]
    events = {
        "kinds": columns["kinds"],
        "index_deltas": list(map(sub, indices, [0] + indices[:-1])),
        "starts": columns["starts"],
        "sizes": columns["sizes"],
        "instruction_count": trace.instruction_count,
    }
    if any(columns["pids"]):
        events["pids"] = columns["pids"]
    return {
        "events": events,
        "sources": [source_row(source) for source in recorded.sources],
        "sink_checks": [check_row(check) for check in recorded.sink_checks],
    }


def source_row(source: SourceRegistration) -> dict:
    """One source registration as its tracefile (and frame) row."""
    row = {
        "start": source.address_range.start,
        "size": source.address_range.size,
        "index": source.instruction_index,
        "name": source.source_name,
        "pid": source.pid,
    }
    # The explicit colour is an *optional* key: omitted when unset, so
    # documents written before (or without) colour labels stay
    # byte-identical — no version bump needed.
    if source.colour is not None:
        row["colour"] = source.colour
    return row


def check_row(check: SinkCheck) -> dict:
    """One sink check as its tracefile (and frame) row."""
    return {
        "start": check.address_range.start,
        "size": check.address_range.size,
        "index": check.instruction_index,
        "name": check.sink_name,
        "channel": check.channel,
        "pid": check.pid,
    }


def decode_recorded_run(body: dict) -> RecordedRun:
    """Rebuild a :class:`RecordedRun` from :func:`encode_recorded_run`;
    raises :class:`TraceFormatError` naming the first problem."""
    try:
        events = typed_field(body, "events", dict)
        deltas = typed_field(events, "index_deltas", list)
        check_int_column("index_deltas", deltas)
        # An absent ``pids`` column means all zero; ``indices`` are
        # rebuilt from the type-checked deltas.
        columns = decode_columns({
            "pids": [0] * len(deltas),
            **events,
            "indices": list(accumulate(deltas)),
        })
        recorded = RecordedRun(trace=EventTrace.from_columns(
            columns, typed_field(events, "instruction_count", int)
        ))
        for source in typed_field(body, "sources", list):
            recorded.sources.append(SourceRegistration(
                row_range(source),
                typed_field(source, "index", int),
                typed_field(source, "name", str),
                pid=typed_field(source, "pid", int, 0),
                colour=(
                    typed_field(source, "colour", str)
                    if source.get("colour") is not None else None
                ),
            ))
        for check in typed_field(body, "sink_checks", list):
            recorded.sink_checks.append(SinkCheck(
                row_range(check),
                typed_field(check, "index", int),
                typed_field(check, "name", str),
                typed_field(check, "channel", str),
                pid=typed_field(check, "pid", int, 0),
            ))
    except ColumnFormatError as error:
        raise TraceFormatError(f"run {error}") from error
    return recorded


def save_recorded_run(recorded: RecordedRun, path: Union[str, Path]) -> Path:
    """Serialise a recorded run to ``path`` (gzip JSON).  Returns the path."""
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        **encode_recorded_run(recorded),
    }
    path = Path(path)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
    return path


def load_recorded_run(path: Union[str, Path]) -> RecordedRun:
    """Load a recorded run previously written by :func:`save_recorded_run`."""
    try:
        with gzip.open(Path(path), "rt", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, EOFError, ValueError) as error:
        raise TraceFormatError(f"cannot read {path}: {error}") from error
    if type(document) is not dict or document.get("format") != FORMAT_NAME:
        raise TraceFormatError(f"{path} is not a {FORMAT_NAME} file")
    if document.get("version") not in COMPATIBLE_VERSIONS:
        raise TraceFormatError(
            f"{path} has version {document.get('version')}, "
            f"expected one of {COMPATIBLE_VERSIONS}"
        )
    try:
        return decode_recorded_run(document)
    except TraceFormatError as error:
        raise TraceFormatError(f"{path}: {error}") from error
