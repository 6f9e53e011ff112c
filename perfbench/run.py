"""Benchmark of the ``repro-cars`` program, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 [--trace 1]

With ``--trace 0`` the workload drives the program as a subprocess and
reports the end-to-end metrics; with ``--trace 1`` it replays the same
commands in process with spans around every layer and reports the
per-layer metrics.  The last line of stdout is the result as JSON.
``--workload all`` runs every workload, each in a fresh interpreter,
and prints one table (with
``--trace 1``: the per-layer table and the tracing overhead as well).
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every run, set-up included, must end well inside three minutes.
BUDGET_S = 165.0

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
)

_MODULES = {
    "analyze_cold": "wl_analyze",
    "serve_mixed": "wl_serve",
    "twin_search": "wl_twin",
}
WORKLOAD_NAMES = tuple(_MODULES)


def _workload(name: str) -> ModuleType:
    import importlib

    return importlib.import_module(_MODULES[name])


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def _environment() -> dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool
) -> tuple[dict[str, object], dict[str, Any]]:
    """One run of one workload: ``(info, result)``."""
    import harness

    work = ROOT / ".perfbench" / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = harness.Context(root=ROOT, work=work, seed=seed, seconds=seconds)
    ctx.info.update(workload=name, seed=seed, seconds=seconds, traced=traced)
    ctx.info.update(_environment())
    deadline = time.perf_counter() + BUDGET_S
    module = _workload(name)
    try:
        if traced:
            import layers

            values, tally, tracer = module.run_traced(ctx, deadline)
            spans = ROOT / ".perfbench" / "spans" / f"{name}-seed{seed}.json"
            tracer.write(spans)
            ctx.info["spans_file"] = str(spans.relative_to(ROOT))
            units = layers.UNITS
        else:
            values, tally = module.run(ctx, deadline)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ctx.info["failed_share"] = tally.failed / max(tally.attempted, 1)
    if tally.reasons:
        ctx.info["failures"] = tally.reasons
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": value if math.isfinite(value) else 0.0, "unit": units[key]}
            for key, value in values.items()
        },
    }
    return ctx.info, result


def _print_metrics(result: dict[str, Any]) -> None:
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"  attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {result['correct']}"
    )


def _run_child(name: str, seed: int, seconds: float, traced: bool) -> dict[str, Any] | None:
    """One workload run in a fresh interpreter; prints its table, returns its result.

    A fresh process per run keeps one run's process-wide caches (topology,
    load model, masks) from warming the next.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
        cwd=ROOT, capture_output=True, text=True, timeout=BUDGET_S + 15.0,
    )
    lines = proc.stdout.splitlines()
    print(f"{name}: {'per layer' if traced else 'end to end'}")
    for line in lines[:-1]:
        print(line if line.startswith("  ") else f"  {line}")
    if proc.returncode != 0 or not lines:
        print(f"  failed with exit {proc.returncode}: {proc.stderr[-2000:]}")
        return None
    result: dict[str, Any] = json.loads(lines[-1])
    return result


def report_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload's end-to-end table; per-layer tables with ``traced``."""
    ok = True
    for name in WORKLOAD_NAMES:
        result = _run_child(name, seed, seconds, traced=False)
        ok &= result is not None and result["correct"]
        if not traced:
            continue
        traced_result = _run_child(name, seed, seconds, traced=True)
        ok &= traced_result is not None and traced_result["correct"]
        if result is None or traced_result is None:
            continue
        plain_ms = result["metrics"]["op_p50_ms"]["value"]
        traced_ms = traced_result["metrics"]["trace.op_p50_ms"]["value"]
        print(
            f"  tracing overhead: op_p50_ms {plain_ms:.6g} untraced, "
            f"{traced_ms:.6g} traced ({traced_ms / plain_ms - 1:+.1%})"
        )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell starts background jobs with SIGINT ignored, and a child
    # inherits that through exec; the daemon must stop on SIGINT as it does
    # when a user runs it, so handle SIGINT here, which exec resets to the
    # default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    _load_program()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return report_all(args.seed, args.seconds, bool(args.trace))
    info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_metrics(result)
    print(f"info {json.dumps(info, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
