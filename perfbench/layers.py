"""Which repro functions each layer's spans wrap, and the per-layer metrics.

:data:`LAYERS` is the map every later performance claim is stated in:
for each layer, its metrics, the end-to-end metric a change to it should
move, and the workload that shows it.  :func:`install` wraps the listed
public functions; :func:`layer_metrics` turns a :class:`Tracer`'s
aggregates into the per-layer metric values.
"""

from __future__ import annotations

import importlib
from typing import Dict, Optional

from tracer import Tracer

KINDS = ("plain", "coloured")

#: layer -> (modules, metrics, end-to-end metrics it should move, workloads)
LAYERS = {
    "simulator": (
        "repro.isa, repro.dalvik, repro.android",
        ["sim.record_s", "sim.events_recorded", "sim.events_per_s"],
        ["setup_s"],
        ["fig11_grid", "lgroot_replay", "serve_stream"],
    ),
    "plan+columns": (
        "repro.analysis.replay, repro.core.events",
        ["plan.lookups", "plan.builds", "plan.build_s", "columns.build_s",
         "replay.calls", "replay.self_us_per_run"],
        ["events_per_s", "setup_s"],
        ["fig11_grid"],
    ),
    "sweep": (
        "repro.sweep",
        ["sweep.cells", "sweep.cell_s_sum", "sweep.overhead_s"],
        ["events_per_s"],
        ["fig11_grid"],
    ),
    "kernel": (
        "repro.core.tracker, repro.core.vectorized",
        [f"{m}.{k}" for m in (
            "kernel.dispatch_calls", "kernel.dispatch_s",
            "kernel.scalar_events", "kernel.scalar_s",
            "kernel.vectorized_calls", "kernel.vectorized_self_s",
            "kernel.auto_over_scalar",
        ) for k in KINDS],
        ["events_per_s", "coloured_events_per_s"],
        ["lgroot_replay", "dense_payload"],
    ),
    "taint state": (
        "repro.core.ranges, repro.core.colours",
        [f"{m}.{k}" for m in (
            "state.add_calls", "state.remove_calls", "state.bulk_calls",
            "state.mutation_s", "tracker.taint_ops", "tracker.untaint_ops",
            "tracker.max_range_count",
        ) for k in KINDS],
        ["coloured_events_per_s"],
        ["dense_payload"],
    ),
    "wire": (
        "repro.serve.protocol",
        ["protocol.frames", "protocol.bytes_in", "protocol.decode_s"],
        ["events_per_s"],
        ["serve_stream"],
    ),
    "buffer": (
        "repro.core.buffered",
        ["buffer.enqueue_calls", "buffer.enqueue_s", "buffer.drain_calls",
         "buffer.drain_s", "buffer.drained_events",
         "buffer.backpressure_engagements", "buffer.forced_drops"],
        ["events_per_s"],
        ["serve_stream"],
    ),
    "shard+router": (
        "repro.serve.shard, repro.serve.router, repro.serve.server",
        ["shard.ingest_s", "shard.check_s", "shard.drain_s",
         "router.shards_created", "serve.queue_depth_max"],
        ["events_per_s", "coloured_events_per_s", "peak_rss_mb"],
        ["serve_stream"],
    ),
    "verdict latency": (
        "sink checks in the serve_stream open loop, ungated: its "
        "run-to-run spread exceeds the largest bound",
        ["e2e.verdict_p50_ms", "e2e.verdict_p99_ms"],
        [],
        ["serve_stream"],
    ),
    "generator": (
        "perfbench (open-loop load generator)",
        ["gen.lag_p99_ms", "gen.lag_max_ms", "gen.events_offered",
         "gen.checks_sent"],
        [],
        ["serve_stream"],
    ),
    "tracing": (
        "perfbench (this tracer)",
        ["trace.overhead_frac"],
        [],
        ["fig11_grid", "lgroot_replay", "dense_payload", "serve_stream"],
    ),
}


def all_metrics():
    return [m for _, metrics, _, _ in LAYERS.values() for m in metrics]


def install(tracer: Tracer, group: str) -> Optional[dict]:
    """Wrap one group of layers: ``setup`` (recording, plan and column
    builds, which happen once per recording), ``batch`` (replay, sweep,
    kernel, taint state) or ``daemon``.

    The ``daemon`` group returns a holder that receives the daemon's
    ``ShardRouter`` and a ``fold`` that counts a set of shards' buffer and
    tracker stats (shards are dropped on ``reset``, so their stats are
    folded in then, and for the live ones at shutdown)."""
    if group == "setup":
        import repro.apps.droidbench as droidbench
        import repro.apps.malware as malware
        from repro.core.events import EventColumns

        replay_mod = importlib.import_module("repro.analysis.replay")

        def recorded(args, result):
            runs = result if isinstance(result, list) else [result]
            tracer.count("sim.events", sum(
                len(getattr(run, "recorded", run).trace) for run in runs
            ))

        tracer.wrap(droidbench, "record_suite", "sim.record", after=recorded)
        tracer.wrap(malware, "record_lgroot_trace", "sim.record",
                    after=recorded)
        tracer.wrap(replay_mod, "build_replay_plan", "plan.build")
        tracer.wrap(EventColumns, "from_events", "columns.build")
    elif group == "batch":
        _install_batch(tracer)
    elif group == "daemon":
        return _install_daemon(tracer)
    else:
        raise ValueError(f"unknown layer group {group!r}")
    return None


def _install_batch(tracer: Tracer) -> None:
    replay_mod = importlib.import_module("repro.analysis.replay")
    import repro.sweep.engine as engine
    from repro.core import vectorized
    from repro.core.colours import ColourRangeSet
    from repro.core.ranges import RangeSet
    from repro.core.tracker import ColourTracker, PIFTTracker

    cell = {"index": None, "run": 0}

    def enter_cell(args):
        cell["index"] = args[0].index
        cell["run"] = 0

    def cell_done(args, result):
        tracer.count("sweep.cell_s", result.duration_seconds)

    def enter_replay(args):
        if cell["index"] is not None:
            tracer.request = f"cell{cell['index']}/run{cell['run']}"
            cell["run"] += 1

    def replayed(kind):
        def after(args, result):
            stats = result.stats
            tracer.count(f"tracker.taint_ops.{kind}", stats.taint_operations)
            tracer.count(f"tracker.untaint_ops.{kind}",
                         stats.untaint_operations)
            key = f"tracker.max_range_count.{kind}"
            tracer.counters[key] = max(
                tracer.counters.get(key, 0), stats.max_range_count
            )
        return after

    def sweep_done(args, result):
        tracer.request = None
        cell["index"] = None

    tracer.wrap(engine, "run_sweep", "sweep.run", after=sweep_done)
    tracer.wrap(engine, "run_cell", "sweep.cell", before=enter_cell,
                after=cell_done)
    tracer.wrap(replay_mod, "replay", "replay.plain", before=enter_replay,
                after=replayed("plain"))
    tracer.wrap(replay_mod, "replay_coloured", "replay.coloured",
                before=enter_replay, after=replayed("coloured"))
    tracer.wrap(replay_mod, "replay_plan_for", "plan.lookup")

    def scalar_events(kind):
        def before(args):
            columns, start = args[1], args[2] if len(args) > 2 else 0
            stop = args[3] if len(args) > 3 and args[3] is not None \
                else len(columns)
            tracer.count(f"kernel.scalar_events.{kind}", stop - start)
        return before

    for cls, kind in ((PIFTTracker, "plain"), (ColourTracker, "coloured")):
        tracer.wrap(cls, "observe_columns", f"kernel.dispatch.{kind}")
        tracer.wrap(cls, "observe_columns_scalar", f"kernel.scalar.{kind}",
                    before=scalar_events(kind))
    tracer.wrap(vectorized, "observe_columns", lambda args: (
        "kernel.vectorized.coloured" if isinstance(args[0], ColourTracker)
        else "kernel.vectorized.plain"
    ))

    for cls, kind, bulk in (
        (RangeSet, "plain", ("add_many", "remove_many")),
        (ColourRangeSet, "coloured", ("add_many_steps", "remove_many")),
    ):
        tracer.wrap(cls, "add", f"state.add.{kind}")
        tracer.wrap(cls, "remove", f"state.remove.{kind}")
        for attr in bulk:
            tracer.wrap(cls, attr, f"state.bulk.{kind}")


def _install_daemon(tracer: Tracer) -> dict:
    """Wrap the daemon layers; returns a holder the router lands in."""
    from repro.core.buffered import BufferedPIFT
    from repro.serve import protocol
    from repro.serve.router import ShardRouter
    from repro.serve.shard import TrackerShard

    holder: dict = {"router": None}

    def frame_in(args):
        tracer.count("protocol.bytes_in", len(args[0]))

    def check_request(args):
        shard = args[0]
        tracer.request = f"{shard.key[0]}/{shard.key[1]}#{shard.checks_answered}"

    def fold_shards(args):
        router, device = args[0], args[1]
        fold(s for key, s in router.shards.items() if key[0] == device)

    def fold(shards):
        for shard in shards:
            stats = shard.buffered.stats
            tracker = shard.buffered.tracker.stats
            tracer.count("buffer.backpressure_engagements",
                         stats.backpressure_engagements)
            tracer.count("buffer.forced_drops", stats.forced_drops)
            tracer.count("tracker.taint_ops.plain", tracker.taint_operations)
            tracer.count("tracker.untaint_ops.plain",
                         tracker.untaint_operations)
            tracer.counters["tracker.max_range_count.plain"] = max(
                tracer.counters.get("tracker.max_range_count.plain", 0),
                tracker.max_range_count,
            )

    holder["fold"] = fold
    tracer.wrap(protocol, "decode_frame", "protocol.decode_frame",
                before=frame_in)
    tracer.wrap(protocol, "decode_events", "protocol.decode_events",
                consume=True)
    tracer.wrap(BufferedPIFT, "on_memory_event", "buffer.enqueue")
    tracer.wrap(BufferedPIFT, "drain", "buffer.drain",
                after=lambda args, n: tracer.count("buffer.drained_events", n))
    tracer.wrap(TrackerShard, "__init__", "shard.create")
    tracer.wrap(TrackerShard, "ingest", "shard.ingest")
    tracer.wrap(TrackerShard, "check", "shard.check", before=check_request)
    tracer.wrap(TrackerShard, "drain", "shard.drain")
    tracer.wrap(ShardRouter, "reset_device", "router.reset",
                before=fold_shards)
    tracer.wrap(ShardRouter, "__init__", "router.init",
                after=lambda args, _: holder.__setitem__("router", args[0]))
    return holder


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from the tracer (0 where a layer is idle)."""
    t, c = tracer, tracer.counters
    values: Dict[str, float] = {name: 0.0 for name in all_metrics()}
    record_s = t.total_s("sim.record")
    values["sim.record_s"] = record_s
    values["sim.events_recorded"] = c.get("sim.events", 0)
    values["sim.events_per_s"] = (
        c.get("sim.events", 0) / record_s if record_s else 0.0
    )
    values["plan.lookups"] = t.calls("plan.lookup")
    values["plan.builds"] = t.calls("plan.build")
    values["plan.build_s"] = t.total_s("plan.build")
    values["columns.build_s"] = t.self_s("columns.build")
    replays = t.calls("replay.plain") + t.calls("replay.coloured")
    values["replay.calls"] = replays
    if replays:
        values["replay.self_us_per_run"] = 1e6 * (
            t.self_s("replay.plain") + t.self_s("replay.coloured")
        ) / replays
    values["sweep.cells"] = t.calls("sweep.cell")
    values["sweep.cell_s_sum"] = c.get("sweep.cell_s", 0.0)
    if t.calls("sweep.run"):
        values["sweep.overhead_s"] = (
            t.total_s("sweep.run") - c.get("sweep.cell_s", 0.0)
        )
    for kind in KINDS:
        values[f"kernel.dispatch_calls.{kind}"] = t.calls(
            f"kernel.dispatch.{kind}")
        values[f"kernel.dispatch_s.{kind}"] = t.self_s(
            f"kernel.dispatch.{kind}")
        values[f"kernel.scalar_events.{kind}"] = c.get(
            f"kernel.scalar_events.{kind}", 0)
        values[f"kernel.scalar_s.{kind}"] = t.self_s(f"kernel.scalar.{kind}")
        values[f"kernel.vectorized_calls.{kind}"] = t.calls(
            f"kernel.vectorized.{kind}")
        values[f"kernel.vectorized_self_s.{kind}"] = t.self_s(
            f"kernel.vectorized.{kind}")
        values[f"state.add_calls.{kind}"] = t.calls(f"state.add.{kind}")
        values[f"state.remove_calls.{kind}"] = t.calls(f"state.remove.{kind}")
        values[f"state.bulk_calls.{kind}"] = t.calls(f"state.bulk.{kind}")
        values[f"state.mutation_s.{kind}"] = sum(
            t.self_s(f"state.{op}.{kind}") for op in ("add", "remove", "bulk")
        )
        for stat in ("taint_ops", "untaint_ops", "max_range_count"):
            values[f"tracker.{stat}.{kind}"] = c.get(
                f"tracker.{stat}.{kind}", 0)
    values["protocol.frames"] = t.calls("protocol.decode_frame")
    values["protocol.bytes_in"] = c.get("protocol.bytes_in", 0)
    values["protocol.decode_s"] = (
        t.total_s("protocol.decode_frame")
        + t.total_s("protocol.decode_events")
    )
    values["buffer.enqueue_calls"] = t.calls("buffer.enqueue")
    values["buffer.enqueue_s"] = t.self_s("buffer.enqueue")
    values["buffer.drain_calls"] = t.calls("buffer.drain")
    values["buffer.drain_s"] = t.self_s("buffer.drain")
    values["buffer.drained_events"] = c.get("buffer.drained_events", 0)
    values["buffer.backpressure_engagements"] = c.get(
        "buffer.backpressure_engagements", 0)
    values["buffer.forced_drops"] = c.get("buffer.forced_drops", 0)
    values["shard.ingest_s"] = t.total_s("shard.ingest")
    values["shard.check_s"] = t.total_s("shard.check")
    values["shard.drain_s"] = t.total_s("shard.drain")
    values["router.shards_created"] = t.calls("shard.create")
    values.update(extra)
    return values
