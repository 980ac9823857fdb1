"""Wire protocol and streaming loaders for `repro serve`.

Covers frame encode/decode, the replay-plan-ordered ``run_to_frames``
framing (the ordering contract behind fleet parity), and the two
streaming loaders the fleet client feeds on: the incremental
``iter_suite_runs`` suite reader and ``ArtifactStore.stream_runs``.
"""

import gzip
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.accuracy import AppRun
from repro.analysis.replay import replay, replay_plan_for
from repro.analysis.tracefile import (
    FORMAT_VERSION,
    TraceFormatError,
    load_recorded_run,
    save_recorded_run,
)
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core.config import PIFTConfig
from repro.core.events import (
    AccessKind,
    EventColumns,
    EventTrace,
    MemoryAccess,
    load,
    store,
)
from repro.core.ranges import AddressRange
from repro.serve import protocol
from repro.serve.shard import TrackerShard
from repro.store import ArtifactStore, StoreKey
from repro.store.suitefile import (
    dump_suite_bytes,
    iter_suite_runs,
    load_suite_bytes,
)

CONFIG = PIFTConfig(5, 2)


def events_frame(events):
    """An ``events`` frame over a list of events."""
    return protocol.events_frame(EventColumns.from_events(events))


#: Hostile ``events`` bodies as ``(column, position, value, reason)``:
#: a ``None`` position replaces the whole column (deletes it when the
#: value is ``None`` too), and a position one past the end appends.
BAD_EVENT_COLUMNS = [
    ("sizes", None, None, "missing 'sizes'"),
    ("indices", 2, 9, "length"),
    ("kinds", None, ["l", "s"], "'kinds' is not a string"),
    ("kinds", None, "lx", "other than 'l'/'s'"),
    ("pids", None, {"a": 1}, "'pids' is not an array"),
    ("starts", 0, None, "'starts' holds a non-integer"),
    ("pids", 1, True, "'pids' holds a non-integer"),
    ("indices", 0, 1.0, "'indices' holds a non-integer"),
    ("indices", 0, "1", "'indices' holds a non-integer"),
    ("sizes", 1, 0, "size < 1"),
    ("starts", 0, -4, "start < 0"),
    ("indices", 0, 1 << 64, "beyond 64 bits"),
    ("starts", 0, (1 << 63) - 2, "range beyond 64 bits"),
]


def corrupt(body, path, value):
    """Apply one table row inside a JSON object: ``path`` is the keys
    down to the column, then a list position (or entry key), with
    ``None`` positions read as :data:`BAD_EVENT_COLUMNS` says."""
    *parents, key, position = path
    for parent in parents:
        body = body[parent]
    if position is None and value is None:
        del body[key]
    elif position is None:
        body[key] = value
    elif position == len(body[key]):
        body[key].append(value)
    else:
        body[key][position] = value


def decoded_events(frame):
    """The materialised events of every (pid, columns) group of a frame."""
    return [
        event
        for _pid, columns in protocol.decode_events(frame)
        for event in columns.events
    ]


def make_run(pids=(0,), rounds=6, leak=True):
    """A synthetic multi-PID recorded run with one check per PID."""
    events, sources, checks = [], [], []
    top = 0
    for i, pid in enumerate(pids):
        src = 0x1000 + 0x100000 * i
        dst = 0x8000 + 0x100000 * i
        sources.append(
            SourceRegistration(
                AddressRange(src, src + 0xF), 0, f"src-{pid}", pid=pid
            )
        )
        index = 1
        for r in range(rounds):
            events.append(load(src, src + 3, index, pid))
            if leak:
                events.append(
                    store(dst + 4 * r, dst + 4 * r + 3, index + 1, pid)
                )
            index += 3
        checks.append(
            SinkCheck(
                AddressRange(dst, dst + 4 * rounds - 1), index,
                f"sink-{pid}", "net", pid=pid,
            )
        )
        checks.append(
            SinkCheck(
                AddressRange(0xF0000, 0xF0003), index + 1,
                f"clean-{pid}", "sms", pid=pid,
            )
        )
        top += index + 2
    return RecordedRun(
        trace=EventTrace(events, instruction_count=top),
        sources=sources,
        sink_checks=checks,
    )


class TestFrames:
    def test_encode_decode_round_trip(self):
        frame = {"op": "hello", "device": "d", "n": 3}
        assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    def test_encoding_is_one_sorted_compact_line(self):
        line = protocol.encode_frame({"b": 1, "a": 2, "op": "x"})
        assert line == b'{"a":2,"b":1,"op":"x"}\n'

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"[1,2]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b'{"no_op":1}\n')

    def test_events_frame_round_trip(self):
        events = [load(0x10, 0x13, 1, 0), store(0x20, 0x23, 2, 7)]
        decoded = decoded_events(events_frame(events))
        assert decoded == events

    def test_events_frame_length_mismatch_rejected(self):
        frame = events_frame([load(0x10, 0x13, 1, 0)])
        frame["pids"] = []
        with pytest.raises(protocol.ProtocolError, match="length"):
            decoded_events(frame)

    def test_decode_groups_by_pid_in_stream_order(self):
        events = [
            load(0x10, 0x13, 1, 3), store(0x20, 0x23, 2, 0),
            store(0x30, 0x33, 4, 3), load(0x40, 0x47, 5, 0),
        ]
        groups = protocol.decode_events(events_frame(events))
        assert [pid for pid, _ in groups] == [3, 0]
        assert [list(columns.events) for _, columns in groups] == [
            [events[0], events[2]], [events[1], events[3]],
        ]
        assert protocol.decode_events(events_frame([])) == []

    @pytest.mark.parametrize(
        "column, position, value, reason", BAD_EVENT_COLUMNS
    )
    def test_bad_events_frames_rejected_with_a_reason(
        self, column, position, value, reason
    ):
        frame = events_frame(
            [load(0x10, 0x13, 1, 0), store(0x20, 0x23, 2, 7)]
        )
        corrupt(frame, (column, position), value)
        with pytest.raises(protocol.ProtocolError) as error:
            protocol.decode_events(frame)
        assert reason in str(error.value)

    @pytest.mark.parametrize("reader", [
        "load_recorded_run", "load_suite_bytes", "iter_suite_runs",
    ])
    @pytest.mark.parametrize("path, value, reason", [
        (("events", column, position), value, reason)
        for column, position, value, reason in BAD_EVENT_COLUMNS
    ] + [
        (("events", "index_deltas", 0), 1.5,
         "'index_deltas' holds a non-integer"),
        (("events", "index_deltas", 1), True,
         "'index_deltas' holds a non-integer"),
        (("sources", 0, "start"), None, "'start' is not an integer"),
        (("events", None), None, "'events' is not an object"),
    ])
    def test_bad_event_bodies_rejected_by_every_file_reader(
        self, tmp_path, reader, path, value, reason
    ):
        """The frame table above, plus cases only a file body has, is
        refused with a :class:`TraceFormatError` by the tracefile and by
        both suite readers.  A file stores indices as deltas, so an
        ``indices`` row corrupts ``index_deltas`` (the same entry at
        position 0)."""
        if path[1] == "indices":
            path = ("events", "index_deltas", path[2])
            reason = reason.replace("'indices'", "'index_deltas'")
        recorded = RecordedRun(
            trace=EventTrace(
                [load(0x10, 0x13, 1, 0), store(0x20, 0x23, 2, 7)],
                instruction_count=4,
            ),
            sources=[SourceRegistration(AddressRange(0x10, 0x1F), 0, "src")],
            sink_checks=[SinkCheck(AddressRange(0x20, 0x23), 3, "s", "net")],
        )
        if reader == "load_recorded_run":
            trace_path = save_recorded_run(recorded, tmp_path / "t.gz")
            with gzip.open(trace_path, "rt") as handle:
                document = json.load(handle)
            corrupt(document, path, value)
            with gzip.open(trace_path, "wt") as handle:
                json.dump(document, handle)
            read = lambda: load_recorded_run(trace_path)  # noqa: E731
        else:
            document = json.loads(gzip.decompress(dump_suite_bytes(
                [AppRun("app", recorded, leaks=True)]
            )))
            corrupt(document["runs"][0]["run"], path, value)
            payload = gzip.compress(json.dumps(
                document, sort_keys=True, separators=(",", ":")
            ).encode())
            read = {
                "load_suite_bytes": lambda: load_suite_bytes(payload),
                "iter_suite_runs": lambda: list(iter_suite_runs(payload)),
            }[reader]
        with pytest.raises(TraceFormatError) as error:
            read()
        assert reason in str(error.value)

    def test_frame_range_rejects_missing_fields(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_range({"op": "check"})

    @pytest.mark.parametrize("value", [None, [1], "12", 3.7, True, {}])
    def test_int_field_refuses_instead_of_coercing(self, value):
        with pytest.raises(protocol.ProtocolError, match="'pid'"):
            protocol.int_field({"op": "check", "pid": value}, "pid", 0)

    def test_int_field_takes_integers_and_defaults(self):
        assert protocol.int_field({"pid": 12}, "pid", 0) == 12
        assert protocol.int_field({}, "pid", 0) == 0
        with pytest.raises(protocol.ProtocolError):
            protocol.int_field({}, "start")


wire_events = st.lists(
    st.builds(
        lambda is_load, start, size, index, pid: MemoryAccess(
            AccessKind.LOAD if is_load else AccessKind.STORE,
            AddressRange.from_base_size(start, size),
            index,
            pid,
        ),
        st.booleans(),
        st.integers(0, (1 << 40)),
        st.integers(1, 64),
        st.integers(0, 1 << 32),
        st.sampled_from([0, 1, 7, 1 << 20]),
    ),
    max_size=60,
)


class TestIntegerColumns:
    """The wire decoder and ``EventColumns.from_events`` are two roads to
    the same integer-bound columns."""

    @given(wire_events)
    @settings(max_examples=200, deadline=None)
    def test_decode_equals_from_events_per_pid(self, events):
        line = protocol.encode_frame(events_frame(events))
        groups = protocol.decode_events(protocol.decode_frame(line))
        expected = {}
        for event in events:
            expected.setdefault(event.pid, []).append(event)
        assert [pid for pid, _ in groups] == list(expected)
        for pid, columns in groups:
            want = EventColumns.from_events(expected[pid])
            assert not hasattr(columns, "ranges")
            for name in ("is_loads", "starts", "ends", "indices", "pids"):
                assert getattr(columns, name) == getattr(want, name), name
            got_arrays, want_arrays = columns.arrays(), want.arrays()
            for name in ("starts", "ends", "is_load", "indices", "pids"):
                assert (
                    getattr(got_arrays, name).tolist()
                    == getattr(want_arrays, name).tolist()
                ), name
            assert got_arrays.pid_values == want_arrays.pid_values
            assert list(columns.events) == expected[pid]

    @pytest.mark.parametrize("coloured", [False, True])
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_decode_and_drain_build_no_address_range(
        self, monkeypatch, coloured, vectorized
    ):
        """One 512-event frame, decoded and drained through a shard,
        constructs zero :class:`AddressRange` objects — in the scalar
        loop and in the dense executor (prefix commits, a taint run, an
        untaint run), plain and coloured."""
        events = []
        index = 1
        for step in range(128):
            if step == 40:
                # The one content mutation run: two fresh taints, then
                # an out-of-window store that untaints the first.
                fresh = 0x9000
                events += [
                    load(0x1000, 0x1003, index),
                    store(fresh, fresh + 3, index + 1),
                    store(fresh + 8, fresh + 11, index + 2),
                    store(fresh, fresh + 3, index + 30),
                ]
            else:
                # Taint-adds the source range already covers.
                events += [
                    load(0x1000, 0x1003, index),
                    store(0x1010, 0x1013, index + 1),
                    load(0x5000, 0x5003, index + 2),
                    store(0x1020, 0x1023, index + 3),
                ]
            index += 40
        line = protocol.encode_frame(events_frame(events))
        shard = TrackerShard(
            ("dev", 0), PIFTConfig(5, 2, vectorized=vectorized),
            capacity=1024, coloured=coloured,
        )
        shard.register_source(AddressRange(0x1000, 0x10FF))
        built = []
        original = AddressRange.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(AddressRange, "__post_init__", counting)
        [(pid, columns)] = protocol.decode_events(protocol.decode_frame(line))
        shard.ingest(columns)
        assert shard.drain() == 512
        constructed = len(built)
        columns.events  # the control: materialising does build ranges
        monkeypatch.undo()
        assert constructed == 0
        assert len(built) == 512
        stats = shard.buffered.tracker.stats
        assert (stats.taint_operations, stats.untaint_operations) == (256, 1)
        kernel = shard.buffered.tracker.kernel
        strategy = "dense_events" if vectorized else "scalar_events"
        assert getattr(kernel, strategy) == 512


class TestRunToFrames:
    def test_framing_matches_replay_plan_order(self):
        recorded = make_run(pids=(0, 3))
        plan = replay_plan_for(recorded)
        frames = list(protocol.run_to_frames(recorded, chunk=4))

        # Reconstruct the three streams and check each is complete and
        # in recorded order.
        events = [
            e for f in frames if f["op"] == "events"
            for e in decoded_events(f)
        ]
        assert events == recorded.trace.events
        names = [f["name"] for f in frames if f["op"] == "source"]
        assert names == [s.source_name for s in plan.sources]
        sinks = [f["sink"] for f in frames if f["op"] == "check"]
        assert sinks == [c.sink_name for c in plan.checks]

        # The interleaving respects every plan boundary: when a
        # source/check frame appears, exactly the events before its
        # boundary position have been streamed.
        position = source_i = check_i = 0
        bounds = {}
        for boundary, sources_due, checks_due in plan.boundaries:
            for _ in range(sources_due):
                bounds[("s", source_i)] = boundary
                source_i += 1
            for _ in range(checks_due):
                bounds[("c", check_i)] = boundary
                check_i += 1
        source_i = check_i = 0
        for frame in frames:
            if frame["op"] == "events":
                position += len(frame["starts"])
            elif frame["op"] == "source":
                expected = bounds.get(("s", source_i), len(events))
                assert position == expected
                source_i += 1
            else:
                expected = bounds.get(("c", check_i), len(events))
                assert position == expected
                check_i += 1

    def test_chunking_bounds_frame_size(self):
        recorded = make_run(rounds=10)
        frames = list(protocol.run_to_frames(recorded, chunk=3))
        sizes = [
            len(f["starts"]) for f in frames if f["op"] == "events"
        ]
        assert sizes and max(sizes) <= 3
        with pytest.raises(ValueError):
            list(protocol.run_to_frames(recorded, chunk=0))

    def test_verdict_key_mirrors_outcome_key(self):
        recorded = make_run()
        result = replay(recorded, CONFIG)
        for outcome in result.sink_outcomes:
            verdict = {
                "sink": outcome.sink_name,
                "channel": outcome.channel,
                "index": outcome.instruction_index,
                "pid": outcome.pid,
                "tainted": outcome.tainted,
                "colours": list(outcome.colours),
            }
            assert (
                protocol.verdict_key(verdict)
                == protocol.outcome_key(outcome)
            )


def make_suite(count=3):
    return [
        AppRun(
            name=f"app-{i}",
            recorded=make_run(pids=(0, i + 1), rounds=3 + i),
            leaks=bool(i % 2),
            category="synthetic",
        )
        for i in range(count)
    ]


class TestStreamingSuiteIterator:
    def equivalent(self, left, right):
        assert left.name == right.name
        assert left.leaks == right.leaks
        assert left.category == right.category
        assert left.recorded.trace.events == right.recorded.trace.events
        assert (
            replay(left.recorded, CONFIG).sink_outcomes
            == replay(right.recorded, CONFIG).sink_outcomes
        )

    def test_streamed_equals_bulk_load(self, tmp_path):
        payload = dump_suite_bytes(make_suite())
        bulk = load_suite_bytes(payload)
        streamed = list(iter_suite_runs(payload))
        assert len(streamed) == len(bulk) == 3
        for left, right in zip(streamed, bulk):
            self.equivalent(left, right)
        # Path and file-object sources behave identically.
        path = tmp_path / "suite.gz"
        path.write_bytes(payload)
        assert [r.name for r in iter_suite_runs(str(path))] == [
            r.name for r in bulk
        ]

    def test_empty_suite_streams_empty(self):
        assert list(iter_suite_runs(dump_suite_bytes([]))) == []

    def test_truncated_payload_raises(self):
        payload = dump_suite_bytes(make_suite(2))
        raw = gzip.decompress(payload)
        truncated = gzip.compress(raw[: len(raw) // 2], mtime=0)
        with pytest.raises(TraceFormatError):
            list(iter_suite_runs(truncated))

    def test_non_canonical_document_rejected(self):
        raw = b'{"runs":[],"format":"pift-suite","version":3}'
        with pytest.raises(TraceFormatError, match="canonical"):
            list(iter_suite_runs(gzip.compress(raw, mtime=0)))

    def test_version_mismatch_detected_at_tail(self):
        payload = dump_suite_bytes(make_suite(2))
        raw = gzip.decompress(payload).replace(
            f'"version":{FORMAT_VERSION}'.encode(), b'"version":9999'
        )
        runs = []
        with pytest.raises(TraceFormatError, match="version"):
            for run in iter_suite_runs(gzip.compress(raw, mtime=0)):
                runs.append(run.name)
        # The canonical key order puts version at the tail, so the runs
        # themselves streamed before the mismatch surfaced.
        assert len(runs) == 2


KEY = StoreKey(kind="serve-test", inputs=(("suite", "synthetic"),))


class TestStoreStreamRuns:
    def put(self, tmp_path, runs):
        store_dir = ArtifactStore(tmp_path / "store")
        store_dir.put_runs(KEY, runs)
        return store_dir, KEY

    def test_stream_matches_get(self, tmp_path):
        suite = make_suite()
        store, key = self.put(tmp_path, suite)
        streamed = list(store.stream_runs(key))
        bulk = store.get_runs(key)
        assert [r.name for r in streamed] == [r.name for r in bulk]
        for left, right in zip(streamed, bulk):
            assert left.recorded.trace.events == right.recorded.trace.events

    def test_stream_miss_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.stream_runs(KEY) is None

    def test_stream_corruption_quarantines(self, tmp_path):
        store, key = self.put(tmp_path, make_suite(1))
        payload_path, _meta = store._entry_paths(key.digest)
        payload_path.write_bytes(b"garbage")
        assert store.stream_runs(key) is None
        assert not payload_path.exists()  # quarantined away
