"""``analyze_cold``: one cold ``repro-cars analyze --engine fused`` after another.

Each invocation gets a fresh copy of the shard directory and fresh home,
cache and temp directories, so no invocation finds anything an earlier
one left.  Its stdout must equal, byte for byte, the report the
reference engine (the kept oracle) renders for the same trace, computed
once per benchmark run.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import harness
import inputs
import layers
from tracing import Tracer

SCENARIO = "default"


@dataclass(frozen=True)
class Size:
    cars: int = 200
    days: int = 30
    shard_rows: int = 40_000


@dataclass
class Prepared:
    trace: Path
    #: The reference engine's report, as ``analyze`` must print it.
    expected: bytes


def prepare(ctx: harness.Context, size: Size) -> Prepared:
    batch = inputs.generate(SCENARIO, size.cars, size.days, ctx.seed)
    trace = ctx.scratch("input") / "trace"
    shards = inputs.write_shards(batch, trace, size.shard_rows)
    ctx.info.update(
        scenario=SCENARIO, cars=size.cars, days=size.days,
        input_rows=len(batch), shards=shards,
    )
    return Prepared(trace, oracle(trace, size))


def oracle(trace: Path, size: Size) -> bytes:
    """What ``analyze`` must print: the reference engine's report."""
    from repro.algorithms.timebins import StudyClock
    from repro.cdr.io import load_trace
    from repro.core.pipeline import AnalysisPipeline
    from repro.core.report import format_report
    from repro.network.load import CellLoadModel
    from repro.network.topology import build_topology
    from repro.simulate.scenarios import scenario

    config = scenario(SCENARIO, n_cars=1, n_days=size.days)
    clock = StudyClock(n_days=size.days)
    topology = build_topology(config.topology)
    load_model = CellLoadModel(topology, clock, seed=config.load_seed)
    pipeline = AnalysisPipeline(clock, load_model, topology.cells)
    report = pipeline.run(
        load_trace(trace), with_clustering=True, engine="reference"
    )
    return (format_report(report) + "\n").encode()


def cli_args(trace: Path, size: Size) -> list[str]:
    return [
        "analyze", "--engine", "fused", "--scenario", SCENARIO,
        "--days", str(size.days), "--trace", str(trace), "--workers", "1",
    ]


def check(
    inv: harness.Invocation, expected: bytes, ctx: harness.Context
) -> tuple[bool, str]:
    if inv.timed_out:
        return False, "timed out"
    if inv.returncode != 0:
        return False, f"exit {inv.returncode}: {inv.stderr[-300:]!r}"
    if ctx.tamper("analyze.stdout", inv.stdout) != expected:
        return False, "report differs from the reference engine's"
    return True, ""


def run(
    ctx: harness.Context, deadline: float, size: Size = Size()
) -> tuple[dict[str, float], harness.Tally]:
    prep = prepare(ctx, size)

    def invoke(home: Path) -> tuple[harness.Invocation, bool, str]:
        trace = home / "trace"
        shutil.copytree(prep.trace, trace)
        timeout = max(1.0, deadline - time.perf_counter())
        inv = harness.run_program(ctx, cli_args(trace, size), home / "proc", timeout)
        return (inv, *check(inv, prep.expected, ctx))

    return harness.repeat_invocations(ctx, invoke)


def replay(trace: Path, size: Size, tracer: Tracer) -> str:
    """``cmd_analyze`` with ``--workers 1``, step for step, in process."""
    from repro.algorithms.timebins import StudyClock
    from repro.cdr import io as cdr_io
    from repro.core import report as report_mod
    from repro.core.pipeline import AnalysisPipeline
    from repro.network import topology as topology_mod
    from repro.network.load import CellLoadModel
    from repro.simulate.scenarios import scenario

    with tracer.span("run.analyze"):
        config = scenario(SCENARIO, n_cars=1, n_days=size.days)
        clock = StudyClock(n_days=size.days)
        topology = topology_mod.build_topology(config.topology)
        load_model = CellLoadModel(topology, clock, seed=config.load_seed)
        batch = cdr_io.load_trace(str(trace))
        pipeline = AnalysisPipeline(clock, load_model, topology.cells)
        report = pipeline.run(batch, with_clustering=True, engine="fused")
        return report_mod.format_report(report) + "\n"


def run_traced(
    ctx: harness.Context, deadline: float, size: Size = Size()
) -> tuple[dict[str, float], harness.Tally, Tracer]:
    prep = prepare(ctx, size)

    def replay_checked(tracer: Tracer) -> tuple[bool, str]:
        text = replay(prep.trace, size, tracer)
        ok = ctx.tamper("analyze.stdout", text.encode()) == prep.expected
        return ok, "" if ok else "traced report differs from the reference engine's"

    return layers.repeat_replays(ctx, deadline, replay_checked)
