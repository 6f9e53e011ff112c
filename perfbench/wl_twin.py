"""``twin_search``: ``repro-cars twin`` calibrating against a seeded target.

The target is a ``smoke`` trace of 50 cars x 14 days generated from the
benchmark seed; the search runs one coordinate sweep over every tunable
knob.  Each invocation must exit 0, write a config that round-trips
through ``GeneratorConfig.from_json_dict(...).build()`` and equals the
report's config, score its best fit no worse than the default-config
baseline, and write the same config as every other invocation of the
run (the search is deterministic).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import harness
import inputs
import layers
from tracing import Tracer

SCENARIO = "smoke"
#: One coordinate sweep over the knobs.
ROUNDS = 1


@dataclass(frozen=True)
class Size:
    cars: int = 25
    days: int = 7
    #: ``None`` searches every tunable knob.
    knobs: tuple[str, ...] | None = None


def prepare(ctx: harness.Context, size: Size) -> Path:
    batch = inputs.generate(SCENARIO, size.cars, size.days, ctx.seed)
    target = ctx.scratch("input") / "target"
    shards = inputs.write_shards(batch, target, shard_rows=40_000)
    ctx.info.update(
        scenario=SCENARIO, cars=size.cars, days=size.days, input_rows=len(batch),
        shards=shards, rounds=ROUNDS, knobs=list(size.knobs or ["all"]),
    )
    return target


def cli_args(target: Path, out: Path, size: Size) -> list[str]:
    args = [
        "twin", str(target), "--scenario", SCENARIO, "--days", str(size.days),
        "--cars", str(size.cars), "--rounds", str(ROUNDS),
        "--out", str(out / "config.json"), "--report", str(out / "report.json"),
    ]
    if size.knobs:
        args += ["--knobs", ",".join(size.knobs)]
    return args


def check_outputs(config_text: bytes, report_text: bytes) -> tuple[bool, str]:
    """The contract every twin result must meet."""
    from repro.twin import GeneratorConfig

    try:
        config_doc = json.loads(config_text)
        report = json.loads(report_text)
        config = GeneratorConfig.from_json_dict(config_doc)
        config.build()
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"config does not load: {exc}"
    round_trip = GeneratorConfig.from_json_dict(config.to_json_dict())
    if config.to_json_dict() != config_doc or round_trip != config:
        return False, "config does not round-trip"
    if report.get("config") != config_doc:
        return False, "report names another config"
    best, baseline = report["report"]["score"], report["baseline"]["score"]
    if not best <= baseline:
        return False, f"best score {best} worse than baseline {baseline}"
    return True, ""


def run(
    ctx: harness.Context, deadline: float, size: Size = Size()
) -> tuple[dict[str, float], harness.Tally]:
    target = prepare(ctx, size)
    configs: set[bytes] = set()

    def invoke(home: Path) -> tuple[harness.Invocation, bool, str]:
        timeout = max(1.0, deadline - time.perf_counter())
        inv = harness.run_program(ctx, cli_args(target, home, size), home / "proc", timeout)
        if inv.returncode != 0 or inv.timed_out:
            return inv, False, f"exit {inv.returncode}: {inv.stderr[-300:]!r}"
        config = ctx.tamper("twin.config", (home / "config.json").read_bytes())
        report = ctx.tamper("twin.report", (home / "report.json").read_bytes())
        configs.add(config)
        if len(configs) > 1:
            return inv, False, "search is not deterministic across invocations"
        return (inv, *check_outputs(config, report))

    return harness.repeat_invocations(ctx, invoke)


def replay(target: Path, out: Path, size: Size, tracer: Tracer) -> int:
    """``cmd_twin`` step for step, in process; returns the evaluations."""
    from repro.twin import search as search_mod
    from repro.twin import summary as summary_mod

    with tracer.span("run.twin"):
        twin_ctx = summary_mod.twin_context(SCENARIO, size.days)
        summary = summary_mod.summarize_source(str(target), twin_ctx, workers=1)
        result = search_mod.calibrate(
            summary, twin_ctx, scenario_name=SCENARIO, n_cars=size.cars,
            knobs=size.knobs, rounds=ROUNDS, workers=1,
        )
        doc = dict(result.to_json_dict())
        doc["target"] = summary.to_json_dict()
        for name, payload in (("config", result.config.to_json_dict()), ("report", doc)):
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            (out / f"{name}.json").write_text(text)
    return result.n_evaluations


def run_traced(
    ctx: harness.Context, deadline: float, size: Size = Size()
) -> tuple[dict[str, float], harness.Tally, Tracer]:
    target = prepare(ctx, size)

    def replay_checked(tracer: Tracer) -> tuple[bool, str]:
        out = ctx.scratch("traced")
        tracer.count("twin.n_evaluations", replay(target, out, size, tracer))
        return check_outputs(
            ctx.tamper("twin.config", (out / "config.json").read_bytes()),
            ctx.tamper("twin.report", (out / "report.json").read_bytes()),
        )

    return layers.repeat_replays(ctx, deadline, replay_checked)
