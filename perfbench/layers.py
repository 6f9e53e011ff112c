"""Which program functions the traced run wraps, and the per-layer metrics.

Layer names follow the modules: ``cdr``, ``network``, ``busy``
(``core.busy``), ``preprocess``, ``fused``, ``mapreduce``, ``clustering``,
``report``, ``service``, ``simulate``, ``mobility``, ``twin``.  Every
``*_s`` metric is the layer's self time in seconds; counts are taken at
the same call boundaries.  A workload that never calls a layer reports 0
for it -- that is the prediction for its paired workload.
"""

from __future__ import annotations

import importlib
import time
from collections.abc import Callable
from dataclasses import replace
from typing import Any

import harness
from tracing import Tracer

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("cdr.load_trace_s", "s"),
    ("cdr.rows", "count"),
    ("cdr.read_batch_cdrz_s", "s"),
    ("network.build_topology_s", "s"),
    ("network.day_series_calls", "count"),
    ("busy.mask_table_s", "s"),
    ("busy.cells", "count"),
    ("preprocess.preprocess_lazy_s", "s"),
    ("preprocess.rows_kept", "count"),
    ("preprocess.ghosts_dropped", "count"),
    ("fused.consume_s", "s"),
    ("fused.finalize_s", "s"),
    ("fused.rows_per_s", "1/s"),
    ("fused.finalize_fused_s", "s"),
    ("mapreduce.map_shards_fused_s", "s"),
    ("mapreduce.shards_mapped", "count"),
    ("mapreduce.workers", "count"),
    ("mapreduce.fold_fused_partials_s", "s"),
    ("clustering.cluster_busy_cells_s", "s"),
    ("report.format_report_s", "s"),
    ("service.refresh_s", "s"),
    ("service.query_s", "s"),
    ("service.route_build_s", "s"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.http_overhead_ms", "ms"),
    ("simulate.generate_s", "s"),
    ("simulate.build_substrates_s", "s"),
    ("simulate.records_generated", "count"),
    ("simulate.records_per_s", "1/s"),
    ("mobility.route_calls", "count"),
    ("mobility.route_s", "s"),
    ("twin.summarize_source_s", "s"),
    ("twin.summarize_candidate_s", "s"),
    ("twin.candidates_generated", "count"),
    ("twin.n_evaluations", "count"),
    ("twin.divergence_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.covered_share", "ratio"),
    ("trace.op_p50_ms", "ms"),
)

UNITS = dict(PER_LAYER)


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; undo with ``tracer.restore()``."""
    # Packages re-export functions under their submodules' names
    # (``repro.core.preprocess``), so resolve modules by dotted path.
    mod = importlib.import_module
    cdr_io, store = mod("repro.cdr.io"), mod("repro.cdr.store")
    busy, clustering = mod("repro.core.busy"), mod("repro.core.clustering")
    fused, mapreduce = mod("repro.core.fused"), mod("repro.core.mapreduce")
    preprocess, report = mod("repro.core.preprocess"), mod("repro.core.report")
    routing = mod("repro.mobility.routing")
    load, topology = mod("repro.network.load"), mod("repro.network.topology")
    routes, state = mod("repro.service.routes"), mod("repro.service.state")
    generator, parallel = mod("repro.simulate.generator"), mod("repro.simulate.parallel")
    search, summary = mod("repro.twin.search"), mod("repro.twin.summary")

    def fn(func: Any, name: str, **kw: Any) -> None:
        tracer.patch_function(func, tracer.timed(func, name, **kw))

    def method(cls: type, attr: str, name: str, **kw: Any) -> None:
        tracer.patch_method(cls, attr, tracer.timed(getattr(cls, attr), name, **kw))

    def rows_loaded(args: Any, kwargs: Any, batch: Any) -> None:
        tracer.count("cdr.rows", len(batch))

    def mask_cells(args: Any, kwargs: Any, table: Any) -> None:
        tracer.maximum("busy.cells", len(table[0]))

    def kept(args: Any, kwargs: Any, pre: Any) -> None:
        tracer.count("preprocess.rows_kept", pre.n_kept)
        tracer.count("preprocess.ghosts_dropped", pre.n_dropped_ghosts)

    def consumed(args: Any, kwargs: Any, result: Any) -> None:
        tracer.count("fused.rows", len(args[1]))

    def mapped(args: Any, kwargs: Any, partials: Any) -> None:
        tracer.count("mapreduce.shards_mapped", len(partials))
        workers = min(int(kwargs.get("workers", 1)), len(partials))
        tracer.maximum("mapreduce.workers", workers)

    def generated(args: Any, kwargs: Any, dataset: Any) -> None:
        tracer.count("simulate.records_generated", dataset.n_records)

    fn(cdr_io.load_trace, "cdr.load_trace", after=rows_loaded)
    fn(store.read_batch_cdrz, "cdr.read_batch_cdrz")
    fn(topology.build_topology, "network.build_topology")
    tracer.patch_method(
        load.CellLoadModel,
        "day_series",
        tracer.counted(load.CellLoadModel.day_series, "network.day_series_calls"),
    )
    method(busy.BusySchedule, "mask_table", "busy.mask_table", after=mask_cells)
    fn(preprocess.preprocess_lazy, "preprocess.preprocess_lazy", after=kept)
    method(fused.FusedEngine, "consume", "fused.consume", after=consumed)
    method(fused.FusedEngine, "finalize", "fused.finalize")
    fn(fused.finalize_fused, "fused.finalize_fused")
    fn(mapreduce.map_shards_fused, "mapreduce.map_shards_fused", after=mapped)
    fn(fused.fold_fused_partials, "mapreduce.fold_fused_partials")
    fn(clustering.cluster_busy_cells, "clustering.cluster_busy_cells")
    fn(report.format_report, "report.format_report")
    method(state.ServiceState, "refresh", "service.refresh")
    method(state.ServiceState, "query", "service.query")
    for kind, route in list(routes.ANALYSIS_ROUTES.items()):
        build = tracer.timed(route.build, "service.route_build")
        tracer.patch_item(routes.ANALYSIS_ROUTES, kind, replace(route, build=build))
    method(parallel.ParallelTraceGenerator, "generate", "simulate.generate", after=generated)
    fn(generator.build_substrates, "simulate.build_substrates")
    method(routing.Router, "route", "mobility.route", aggregate=True)
    fn(summary.summarize_source, "twin.summarize_source")
    fn(search.summarize_candidate, "twin.summarize_candidate")
    fn(search.divergence, "twin.divergence")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric the tracer can supply (the rest stay 0)."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name, seconds in tracer.self_seconds().items():
        key = f"{name}_s"
        if key in out:
            out[key] = seconds
    for name, value in tracer.counts.items():
        if name in out:
            out[name] = float(value)
    consume_s = out["fused.consume_s"]
    if consume_s > 0:
        out["fused.rows_per_s"] = tracer.counts.get("fused.rows", 0) / consume_s
    generate_s = tracer.total_seconds("simulate.generate")
    if generate_s > 0:
        out["simulate.records_per_s"] = out["simulate.records_generated"] / generate_s
    out["mobility.route_calls"] = float(tracer.calls("mobility.route"))
    out["twin.candidates_generated"] = float(tracer.calls("twin.summarize_candidate"))
    wall, covered = tracer.coverage()
    out["trace.wall_s"] = wall
    out["trace.covered_share"] = covered
    return out


def repeat_replays(
    ctx: harness.Context, deadline: float, replay: Callable[[Tracer], tuple[bool, str]]
) -> tuple[dict[str, float], harness.Tally, Tracer]:
    """Replay a command in process, traced, until ``ctx.seconds`` have passed.

    ``replay`` runs the command once under the tracer it is given and
    returns whether its output passed the workload's check, and why not.
    Each metric is the median over replays; the last replay's tracer is
    returned for its spans.
    """
    tally = harness.Tally()
    runs: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        import_s, reference_s = harness.time_import(ctx, ctx.work / "import")
        tracer = Tracer()
        instrument(tracer)
        try:
            ok, why = replay(tracer)
        finally:
            tracer.restore()
        tally.record(ok, why)
        metrics = layer_metrics(tracer)
        metrics["cli.import_s"] = import_s
        op_s = metrics["trace.wall_s"] + import_s
        metrics["trace.op_p50_ms"] = harness.corrected(op_s, reference_s) * 1e3
        runs.append(metrics)
        now = time.perf_counter()
        if now - start >= ctx.seconds or now > deadline:
            break
    ctx.info.update(replays=len(runs))
    return harness.medians(runs), tally, tracer
