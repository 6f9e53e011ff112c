"""Process, timing and statistics plumbing shared by every workload.

The program under test runs as ``python -c <entry> <cli args>`` with the
checkout's ``src`` on ``PYTHONPATH`` -- exactly what the ``repro-cars``
console script does (``repro.cli:main``), plus lines that record how
long ``import numpy`` took and when ``import repro.cli`` finished, so
every invocation also yields a set-up sample and a reference time (see
``corrected``).  Children run in their own session so a timeout or
teardown can stop the whole tree, and their home, cache and temp
directories point inside the run's work directory: nothing outlives a
run, and no invocation finds a cache an earlier one left.
"""

from __future__ import annotations

import http.client
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

#: The import ``repro-cars`` does, timing on the way the import of the
#: third-party packages ``repro.cli`` loads (the reference; see
#: ``corrected``).  ``import repro.cli`` imports them anyway, so importing
#: them a line earlier adds no work.
_IMPORT = (
    "import os, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy, scipy.spatial, networkx\n"
    "reference = time.perf_counter() - t0\n"
    "import repro.cli\n"
)
#: What ``repro-cars`` runs, plus a stamp of when the import finished and
#: of the reference.
_ENTRY = _IMPORT + (
    "with open(os.environ['PERFBENCH_READY'], 'w') as fh:\n"
    "    fh.write(f'{time.perf_counter()!r} {reference!r}')\n"
    "sys.exit(repro.cli.main(sys.argv[1:]))\n"
)

#: The reference import in a fresh process on the 2-CPU host the benchmark
#: was sized on, seconds; corrected times are expressed at that host speed.
REFERENCE_S = 0.5

#: RSS sampling period for process trees, seconds.
_RSS_PERIOD_S = 0.02


def _identity(kind: str, data: bytes) -> bytes:
    return data


def corrected(seconds: float, reference: float) -> float:
    """``seconds`` at the host speed at which the reference takes ``REFERENCE_S``.

    The shared host's speed drifts by a fifth and more within minutes,
    and the runs of a set drift with it.  A process's own reference import
    (mapping shared libraries, loading modules) slows down and speeds up
    with the rest of that process, so the ratio of the two stays put while
    the host drifts; a change to the program still moves the ratio in
    full.  ``reference`` must come from the process that took
    ``seconds``.
    """
    return seconds * REFERENCE_S / reference


@dataclass
class Context:
    """One benchmark run: where it works and what it was asked to do."""

    root: Path
    work: Path
    seed: int
    seconds: float
    #: Hook applied to every program output before its correctness check;
    #: the self-test swaps in one that corrupts outputs.
    tamper: Callable[[str, bytes], bytes] = _identity
    #: Facts recorded with the result (sizes, versions, sample counts).
    info: dict[str, object] = field(default_factory=dict)

    def scratch(self, name: str) -> Path:
        """A fresh, empty directory under the run's work directory."""
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def child_env(self, home: Path) -> dict[str, str]:
        """Environment for one program process rooted at ``home``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        for name in ("HOME", "XDG_CACHE_HOME", "TMPDIR"):
            env[name] = str(home)
        env.pop("PERFBENCH_READY", None)
        return env


@dataclass
class Tally:
    """Attempted and failed operations of one run, with failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, ok: bool, reason: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)
        return ok


# -- process trees ----------------------------------------------------------


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            continue
    return kids


def _tree(root_pid: int) -> list[int]:
    """A process and all its live descendants."""
    pids: list[int] = []
    stack = [root_pid]
    while stack:
        pid = stack.pop()
        pids.append(pid)
        stack.extend(_children(pid))
    return pids


def _field_kb(path: str, name: str) -> int | None:
    """The ``name:`` line of a ``/proc`` file, in KiB."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(name):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


class RssSampler:
    """Background sampler of a process tree's peak memory.

    The peak is the larger of two figures.  One is the root process's own
    resident-set high-water mark (``VmHWM``), which the kernel keeps, so
    no short spike of a single process is missed.  The other is, while
    the root has children, the largest tree total of proportional set
    sizes (``Pss`` from ``smaps_rollup``) seen on one tick: a page that
    forked processes share copy-on-write counts once in that total,
    where their resident sets would count it in each.  (``ru_maxrss``
    from ``wait4`` is useless here: a child inherits the spawning
    process's high-water mark through fork and exec.)
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            peak = _field_kb(f"/proc/{self.pid}/status", "VmHWM:") or 0
            pids = _tree(self.pid)
            if len(pids) > 1:
                peak = max(peak, sum(
                    _field_kb(f"/proc/{pid}/smaps_rollup", "Pss:") or 0 for pid in pids
                ))
            self._peak_kb = max(self._peak_kb, peak)
            self._stop.wait(_RSS_PERIOD_S)

    def stop(self) -> int:
        """Stop sampling; returns the tree's peak in KiB."""
        self._stop.set()
        self._thread.join()
        return self._peak_kb


@dataclass
class Invocation:
    """One finished program process."""

    returncode: int
    wall_s: float
    #: Spawn until ``import repro.cli`` finished; ``None`` if it never did.
    setup_s: float | None
    #: The process's reference import; ``None`` if it never finished.
    reference_s: float | None
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


class Program:
    """A running ``repro-cars`` process tree."""

    def __init__(self, ctx: Context, args: Sequence[str], home: Path) -> None:
        home.mkdir(parents=True, exist_ok=True)
        self.home = home
        self._ready_path = home / "ready"
        self._out = open(home / "stdout", "wb")
        self._err = open(home / "stderr", "wb")
        env = ctx.child_env(home)
        env["PERFBENCH_READY"] = str(self._ready_path)
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _ENTRY, *args],
            cwd=ctx.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._out,
            stderr=self._err,
            start_new_session=True,
        )
        self._sampler = RssSampler(self.proc.pid)
        self.timed_out = False

    def kill_tree(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def _expire(self) -> None:
        self.timed_out = True
        self.kill_tree()

    def wait(self, timeout: float) -> Invocation:
        """Wait for exit (killing the tree after ``timeout``) and reap it."""
        timer = threading.Timer(timeout, self._expire)
        timer.start()
        try:
            returncode = self.proc.wait()
        finally:
            timer.cancel()
        t_end = time.perf_counter()
        # Reap anything the program left behind in its session.
        self.kill_tree()
        peak_kb = self._sampler.stop()
        self._out.close()
        self._err.close()
        setup_s: float | None = None
        reference_s: float | None = None
        try:
            ready, reference = self._ready_path.read_text().split()
            setup_s = float(ready) - self.t_spawn
            reference_s = float(reference)
        except (OSError, ValueError):
            pass
        return Invocation(
            returncode=returncode,
            wall_s=t_end - self.t_spawn,
            setup_s=setup_s,
            reference_s=reference_s,
            peak_rss_mb=peak_kb / 1024.0,
            stdout=(self.home / "stdout").read_bytes(),
            stderr=(self.home / "stderr").read_bytes(),
            timed_out=self.timed_out,
        )

    def interrupt(self, timeout: float) -> Invocation:
        """Stop a long-running program the way an operator would (SIGINT)."""
        try:
            os.kill(self.proc.pid, signal.SIGINT)
        except ProcessLookupError:
            pass
        return self.wait(timeout)


def run_program(
    ctx: Context, args: Sequence[str], home: Path, timeout: float
) -> Invocation:
    """Run one ``repro-cars`` command to completion."""
    return Program(ctx, args, home).wait(timeout)


def repeat_invocations(
    ctx: Context, invoke: Callable[[Path], tuple[Invocation, bool, str]]
) -> tuple[dict[str, float], Tally]:
    """Invoke the program until ``ctx.seconds`` have passed; end-to-end metrics.

    ``invoke`` runs one command in the fresh directory it is given and
    returns the finished process, whether its output passed the workload's
    check, and why not.  The timings are medians of ``corrected`` times;
    the uncorrected medians go to ``info``.  The loop stops early at the
    first failure.
    """
    tally = Tally()
    walls: list[float] = []
    #: (wall, set-up, reference) of every invocation that got past its import.
    timed: list[tuple[float, float, float]] = []
    rss: list[float] = []
    start = time.perf_counter()
    while True:
        home = ctx.scratch(f"inv{len(walls)}")
        inv, ok, why = invoke(home)
        tally.record(ok, why)
        walls.append(inv.wall_s)
        rss.append(inv.peak_rss_mb)
        if inv.setup_s is not None and inv.reference_s is not None:
            timed.append((inv.wall_s, inv.setup_s, inv.reference_s))
        shutil.rmtree(home, ignore_errors=True)
        if not ok or time.perf_counter() - start >= ctx.seconds:
            break
    if not timed:
        return {"setup_s": float("nan"), "peak_rss_mb": median(rss), "op_p50_ms": float("nan")}, tally
    tail, label = p95(walls)
    ctx.info.update(
        invocations=len(walls),
        samples={"op": len(timed), "setup": len(timed)},
        op_raw_p50_ms=median([w for w, _, _ in timed]) * 1e3,
        setup_raw_s=median([s for _, s, _ in timed]),
        reference_p50_s=median([r for _, _, r in timed]),
        op_p95_ms=tail * 1e3,
        op_p95_is=label,
    )
    return {
        "setup_s": median([corrected(s, r) for _, s, r in timed]),
        "peak_rss_mb": median(rss),
        "op_p50_ms": median([corrected(w, r) for w, _, r in timed]) * 1e3,
    }, tally


def time_import(ctx: Context, home: Path) -> tuple[float, float]:
    """Interpreter start plus ``import repro.cli``, spawn to exit, and the
    process's reference time (as in ``_ENTRY``)."""
    env = ctx.child_env(home)
    home.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT + "print(repr(reference))\n"],
        cwd=ctx.root,
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    return time.perf_counter() - t0, float(proc.stdout)


# -- HTTP ---------------------------------------------------------------------


class HttpClient:
    """One keep-alive connection; the load side never uses program code."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str) -> tuple[int, bytes]:
        """``(status, body)``; status 0 means the connection failed."""
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout
                )
            self._conn.request(method, path)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, repr(exc).encode()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def medians(runs: Sequence[dict[str, float]]) -> dict[str, float]:
    """Per-key median over several replays' metric dicts."""
    return {key: median([run[key] for run in runs]) for key in runs[0]}


def p95(values: Sequence[float]) -> tuple[float, str]:
    """The 95th percentile, or the maximum when it is not supported.

    A percentile needs at least ten samples beyond it, so p95 needs 200;
    below that the maximum is reported, labelled as such.
    """
    if len(values) >= 200:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        return float(cuts[94]), "p95"
    return float(max(values)), "max"
