"""Tiny-input self-test of every workload driver and its correctness checks.

Runs each workload on inputs small enough to finish in seconds, checks
that correct program output passes, that deliberately corrupted output is
counted as a failure, that traced runs name every per-layer metric, that
BENCHMARK.json matches the metric tables, and that the benchmark refuses
to run in a directory without the program's source::

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import wl_analyze  # noqa: E402
import wl_serve  # noqa: E402
import wl_twin  # noqa: E402

TINY = {
    "analyze_cold": (wl_analyze, wl_analyze.Size(cars=12, days=5, shard_rows=300)),
    "serve_mixed": (
        wl_serve,
        wl_serve.Size(cars=12, days=8, live_days=2, shard_rows=300),
    ),
    "twin_search": (
        wl_twin,
        wl_twin.Size(cars=8, days=5, knobs=("activity.telemetry_period_s",)),
    ),
}

#: For each workload, one program output to corrupt.
CORRUPTED = {
    "analyze_cold": "analyze.stdout",
    "serve_mixed": "serve.final.busy",
    "twin_search": "twin.report",
}


def _flip(data: bytes) -> bytes:
    """One bit of one byte in the middle flipped."""
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1 :]


def _worse_best(data: bytes) -> bytes:
    """A twin report whose best fit scores worse than its baseline."""
    doc = json.loads(data)
    doc["report"]["score"] = doc["baseline"]["score"] + 1.0
    return json.dumps(doc).encode()


def _tamper(target: str) -> Callable[[str, bytes], bytes]:
    mutate = _worse_best if target == "twin.report" else _flip

    def tamper(kind: str, data: bytes) -> bytes:
        return mutate(data) if kind == target else data

    return tamper


def _context(name: str, seconds: float) -> harness.Context:
    work = ROOT / ".perfbench" / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return harness.Context(root=ROOT, work=work, seed=7, seconds=seconds)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _run(name: str, traced: bool, tamper: Callable[[str, bytes], bytes] | None = None):
    module, size = TINY[name]
    ctx = _context(name, seconds=2.0 if name == "serve_mixed" else 0.5)
    if tamper is not None:
        ctx.tamper = tamper
    deadline = time.perf_counter() + run.BUDGET_S
    try:
        if traced:
            values, tally, _ = module.run_traced(ctx, deadline, size)
        else:
            values, tally = module.run(ctx, deadline, size)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    return values, tally


def test_workloads_pass_on_correct_output() -> None:
    for name in TINY:
        values, tally = _run(name, traced=False)
        _expect(tally.attempted >= 1 and tally.failed == 0, f"{name}: {tally.reasons}")
        _expect(
            list(values) == [m for m, _ in run.END_TO_END],
            f"{name}: end-to-end keys {sorted(values)}",
        )
        _expect(all(v > 0 for v in values.values()), f"{name}: zero metric in {values}")


def test_corrupted_output_counts_as_failure() -> None:
    for name, target in CORRUPTED.items():
        _, tally = _run(name, traced=False, tamper=_tamper(target))
        _expect(tally.failed >= 1, f"{name}: corrupted {target} went unnoticed")


def test_traced_runs_name_every_layer_metric() -> None:
    names = [m for m, _ in layers.PER_LAYER]
    for name in TINY:
        values, tally = _run(name, traced=True)
        _expect(tally.failed == 0, f"{name} traced: {tally.reasons}")
        _expect(sorted(values) == sorted(names), f"{name}: per-layer keys differ")
        _expect(values["trace.wall_s"] > 0, f"{name}: no traced wall time")
    _, tally = _run("analyze_cold", traced=True, tamper=_tamper("analyze.stdout"))
    _expect(tally.failed >= 1, "traced analyze: corrupted report went unnoticed")


def test_benchmark_json_matches_metric_tables() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES), "workloads")
    _expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "end_to_end metrics",
    )
    _expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER),
        "per_layer metrics",
    )


def test_refuses_to_run_without_program_source() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "analyze_cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(proc.returncode != 0, "benchmark ran without the program")
    _expect(b'"correct"' not in proc.stdout, "benchmark printed a result without the program")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        start = time.perf_counter()
        test()
        print(f"ok {test.__name__} ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
