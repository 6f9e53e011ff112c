"""``serve_mixed``: a live daemon answering reads while new days are ingested.

``repro-cars serve --workers 2`` starts on days 0..9 of a 30-day trace (twice:
the first start only times set-up).  Two paced closed-loop client
connections (one thread each) then send a seeded read mix for
``--seconds``.  No request log of the daemon exists to copy a mix from,
so the mix is an assumption, kept as plain as the three read classes
allow -- each read is one of them with equal odds:

* one of the seven aggregate kinds with default parameters, each kind
  equally likely, as ``benchmarks/test_service_throughput.py`` fetches
  them (mostly cache hits);
* one of the three parameterised kinds with a fresh ``q``/``floor``
  drawn uniformly from the range the route accepts (cache misses that
  are cheap to build);
* ``timeline`` for a car drawn by Zipf's law (weight 1/rank), so popular
  cars hit the cache and the tail misses (one scan of every shard);

and, besides the reads, one ``twin`` query per epoch.

The window is split into 21 epochs.  At the start of epochs 1..20 the
first connection publishes the next day's shard -- written outside
the served directory, then moved in with ``os.replace`` -- and sends
``POST /ingest``.  The same connection sends each epoch's ``twin``
query after that epoch's ingest, so a twin query never overlaps an
ingest: when they overlapped, the daemon's peak memory depended on
whether they happened to.  The gated latency is the ingests' median.
Reads take a millisecond or a few, and their run-to-run spread on a
small shared host is mostly CPU wake-up jitter, so their figures go to
``info``.

Every request is checked: status 200, a JSON object, and the payload the
request asked for.  After the last ingest every aggregate kind must
equal, byte for byte, what a cold in-process ``ServiceState`` over the
full directory answers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

import harness
import inputs
import layers
from tracing import Tracer

if TYPE_CHECKING:
    from repro.service import ServiceConfig

SCENARIO = "default"
AGGREGATES = (
    "summary", "presence", "connect_time", "carriers",
    "busy", "segmentation", "handovers",
)
#: Kinds with a numeric parameter: (parameter, low, high), the range
#: ``repro.service.routes`` accepts.
PARAMETERISED = {
    "connect_time": ("q", 0.0, 100.0),
    "busy": ("floor", 0.0, 0.999),
    "handovers": ("q", 0.0, 100.0),
}
#: Reads per second each connection sends at most.  A connection waits
#: for every reply and then for its next slot, and skips the slots a slow
#: reply overran (no catch-up burst).  The rate is an assumption too: at
#: this mix's costs the reads keep about a fifth of one CPU busy in the
#: daemon, which leaves most of a 2-CPU host to the ingests.  Unpaced,
#: two closed-loop clients saturate both CPUs, and latency then measures
#: the host's other load more than the daemon.
READS_PER_S = 75.0
#: Pool workers of the daemon (``serve --workers``).
WORKERS = 2
#: Daemon start-ups per run; ``setup_s`` is their median, and the last one
#: serves the load.
STARTS = 2
#: Time the final comparison and teardown need after the load stops.
GIVE_UP_MARGIN_S = 30.0


@dataclass(frozen=True)
class Size:
    cars: int = 200
    days: int = 30
    live_days: int = 20
    #: Small enough that the initial days span several shards, so the
    #: initial fold fans out to the pool workers.
    shard_rows: int = 10_000


@dataclass
class Prepared:
    served: Path
    #: (staged file, name it is published under), one per live day.
    staged: list[tuple[Path, Path]]
    #: Cars with rows in the initially served days.
    cars: list[str]


def prepare(ctx: harness.Context, size: Size) -> Prepared:
    batch = inputs.generate(SCENARIO, size.cars, size.days, ctx.seed)
    first_live = size.days - size.live_days
    history, live = inputs.split_days(batch, first_live, size.days)
    if len(history) + sum(len(b) for b in live) != len(batch):
        raise RuntimeError("day split lost rows")
    root = ctx.scratch("input")
    served = root / "trace"
    shards = inputs.write_shards(history, served, size.shard_rows)
    staging = root / "staging"
    staging.mkdir()
    staged = []
    for offset, day_batch in enumerate(live):
        name = f"shard-9{first_live + offset:04d}.cdrz"
        inputs.write_batch(day_batch, staging / name)
        staged.append((staging / name, served / name))
    present = np.unique(history.car_code)
    cars = [history.car_ids[int(code)] for code in present]
    ctx.info.update(
        scenario=SCENARIO, cars=size.cars, days=size.days, input_rows=len(batch),
        shards=shards + len(staged), initial_shards=shards, initial_days=first_live,
        ingested_days=len(staged), workers=WORKERS, clients=2,
    )
    return Prepared(served, staged, cars)


# -- the load ----------------------------------------------------------------


@dataclass
class Load:
    """What both connections saw."""

    tally: harness.Tally = field(default_factory=harness.Tally)
    reads_s: list[float] = field(default_factory=list)
    ingests_s: list[float] = field(default_factory=list)
    twins_s: list[float] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, bucket: list[float], value: float) -> None:
        with self.lock:
            bucket.append(value)


class Mix:
    """One connection's seeded read sequence."""

    def __init__(self, seed: int, cars: list[str]) -> None:
        self._rng = np.random.default_rng(seed)
        order = self._rng.permutation(len(cars))
        self._cars = [cars[int(i)] for i in order]
        weights = 1.0 / np.arange(1, len(cars) + 1)
        self._cdf = np.cumsum(weights / weights.sum())

    def next(self) -> tuple[str, str, str]:
        """``(kind, path, expected key)`` of the next read."""
        read_class = int(self._rng.integers(3))
        if read_class == 0:
            kind = AGGREGATES[int(self._rng.integers(len(AGGREGATES)))]
            return kind, f"/query/{kind}", ""
        if read_class == 1:
            kinds = sorted(PARAMETERISED)
            kind = kinds[int(self._rng.integers(len(kinds)))]
            param, lo, hi = PARAMETERISED[kind]
            value = round(float(self._rng.uniform(lo, hi)), 6)
            return kind, f"/query/{kind}?{param}={value!r}", ""
        index = int(self._cdf.searchsorted(self._rng.random(), side="right"))
        car = self._cars[min(index, len(self._cars) - 1)]
        return "timeline", f"/timeline/{car}", car


def _valid(kind: str, body: bytes, car: str) -> bool:
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    if not isinstance(payload, dict):
        return False
    if kind == "timeline":
        return payload.get("car") == car
    if kind == "twin":
        return "n_records" in payload
    return bool(payload)


def _connection(
    index: int,
    port: int,
    prep: Prepared,
    ctx: harness.Context,
    load: Load,
    start: float,
    epoch_s: float,
    give_up: float,
    spans: Tracer | None,
) -> None:
    client = harness.HttpClient(port)
    mix = Mix(ctx.seed * 1009 + index, prep.cars)
    end = start + ctx.seconds
    period = 1.0 / READS_PER_S
    next_read = start
    next_ingest = 1
    next_twin = 0
    try:
        while True:
            now = time.perf_counter()
            if now > give_up:
                pending = len(prep.staged) - next_ingest + 1 if index == 0 else 0
                load.tally.record(pending == 0, f"time ran out with {pending} ingest(s) unsent")
                return
            ingest_due = start + next_ingest * epoch_s
            if index == 0 and next_ingest <= len(prep.staged):
                if now >= ingest_due:
                    src, dst = prep.staged[next_ingest - 1]
                    os.replace(src, dst)
                    t0 = time.perf_counter()
                    status, body = _request(client, "POST", "/ingest", spans)
                    load.add(load.ingests_s, time.perf_counter() - t0)
                    ok = status == 200 and _ingested(ctx.tamper("serve.ingest", body))
                    load.tally.record(ok, f"ingest {next_ingest}: {status} {body[:200]!r}")
                    next_ingest += 1
                    continue
                if now < next_read:
                    time.sleep(min(next_read, ingest_due) - now)
                    continue
            elif now >= end:
                return
            elif now < next_read:
                time.sleep(next_read - now)
                continue
            twin_due = start + next_twin * epoch_s
            if index == 0 and next_twin <= len(prep.staged) and now >= twin_due:
                kind, path, car = "twin", "/query/twin", ""
                next_twin += 1
            else:
                kind, path, car = mix.next()
            t0 = time.perf_counter()
            status, body = _request(client, "GET", path, spans)
            done = time.perf_counter()
            load.add(load.twins_s if kind == "twin" else load.reads_s, done - t0)
            ok = status == 200 and _valid(kind, ctx.tamper(f"serve.{kind}", body), car)
            load.tally.record(ok, f"{path}: {status} {body[:200]!r}")
            next_read = max(next_read + period, done)
    finally:
        client.close()


def _request(
    client: harness.HttpClient, method: str, path: str, spans: Tracer | None
) -> tuple[int, bytes]:
    if spans is None:
        return client.request(method, path)
    with spans.span("client.ingest" if method == "POST" else "client.read"):
        return client.request(method, path)


def _ingested(body: bytes) -> bool:
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    return (
        isinstance(payload, dict)
        and payload.get("changed") is True
        and payload.get("n_added") == 1
    )


def drive(
    port: int,
    prep: Prepared,
    ctx: harness.Context,
    load: Load,
    give_up: float,
    spans: Tracer | None = None,
) -> None:
    """Both connections, for the whole window, recording into ``load``.

    Connection 0 keeps going past the window until every day is ingested,
    but never past ``give_up``.
    """
    epoch_s = ctx.seconds / (len(prep.staged) + 1)
    start = time.perf_counter()
    errors: list[BaseException] = []

    def body(index: int) -> None:
        try:
            _connection(index, port, prep, ctx, load, start, epoch_s, give_up, spans)
        except BaseException as exc:  # surfaced on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def fetch_aggregates(port: int, ctx: harness.Context) -> dict[str, tuple[int, bytes]]:
    """Every aggregate kind as served after the last ingest."""
    client = harness.HttpClient(port)
    served = {}
    try:
        for kind in AGGREGATES:
            status, body = client.request("GET", f"/query/{kind}")
            served[kind] = (status, ctx.tamper(f"serve.final.{kind}", body))
    finally:
        client.close()
    return served


def _config(prep: Prepared, size: Size) -> ServiceConfig:
    """What ``serve --trace DIR --scenario S --days D --workers W`` runs with."""
    from repro.service import ServiceConfig

    return ServiceConfig(
        trace=str(prep.served), scenario=SCENARIO, days=size.days, workers=WORKERS
    )


def compare_with_cold(
    served: dict[str, tuple[int, bytes]], prep: Prepared, size: Size, load: Load
) -> None:
    """Each served aggregate must equal a cold in-process fold's bytes."""
    from repro.service import ServiceState

    cold = ServiceState(_config(prep, size))
    cold.refresh()
    for kind, (status, body) in served.items():
        ok = status == 200 and body == cold.query(kind, {})
        load.tally.record(ok, f"final {kind}: served bytes differ from a cold fold")


# -- untraced ----------------------------------------------------------------


def _wait_ready(port: int, program: harness.Program, deadline: float) -> float | None:
    """Seconds from spawn to the first successful query, or ``None``."""
    client = harness.HttpClient(port, timeout=30.0)
    try:
        while time.perf_counter() < deadline and program.proc.poll() is None:
            status, _ = client.request("GET", "/query/summary")
            if status == 200:
                return time.perf_counter() - program.t_spawn
            time.sleep(0.01)
    finally:
        client.close()
    return None


def run(
    ctx: harness.Context, deadline: float, size: Size = Size()
) -> tuple[dict[str, float], harness.Tally]:
    prep = prepare(ctx, size)
    load = Load()
    setups: list[float] = []
    #: Each daemon's reference time (see ``harness.corrected``).
    refs: list[float] = []
    for start in range(STARTS):
        port = harness.free_port()
        args = [
            "serve", "--trace", str(prep.served), "--scenario", SCENARIO,
            "--days", str(size.days), "--workers", str(WORKERS), "--port", str(port),
        ]
        program = harness.Program(ctx, args, ctx.work / f"daemon{start}")
        try:
            setup_s = _wait_ready(port, program, deadline)
            if setup_s is not None:
                setups.append(setup_s)
                if start == STARTS - 1:
                    drive(port, prep, ctx, load, deadline - GIVE_UP_MARGIN_S)
                    served = fetch_aggregates(port, ctx)
        finally:
            inv = program.interrupt(timeout=20.0)
        load.tally.record(
            setup_s is not None and inv.returncode == 0,
            f"daemon {start}: ready after {setup_s} s, exit {inv.returncode}: "
            f"{inv.stderr[-300:]!r}",
        )
        if setup_s is None or inv.reference_s is None:
            return {"setup_s": 0.0, "peak_rss_mb": inv.peak_rss_mb, "op_p50_ms": 0.0}, load.tally
        refs.append(inv.reference_s)
    compare_with_cold(served, prep, size, load)
    reads = load.reads_s + load.twins_s
    tail, label = harness.p95(load.ingests_s)
    read_tail, read_label = harness.p95(reads)
    ingest_s = harness.median(load.ingests_s)
    ctx.info.update(
        setup_raw_s=harness.median(setups),
        reference_p50_s=harness.median(refs),
        samples={
            "reads": len(reads),
            "twin": len(load.twins_s),
            "ingest": len(load.ingests_s),
            "setup": len(setups),
        },
        op_p95_ms=tail * 1e3,
        op_p95_is=label,
        first_ingest_ms=load.ingests_s[0] * 1e3,
        query_p50_ms=harness.median(reads) * 1e3,
        query_p95_ms=read_tail * 1e3,
        query_p95_is=read_label,
        query_qps=len(reads) / ctx.seconds,
        twin_p50_ms=harness.median(load.twins_s) * 1e3,
    )
    return {
        "setup_s": harness.median([harness.corrected(s, r) for s, r in zip(setups, refs)]),
        "peak_rss_mb": inv.peak_rss_mb,
        # Uncorrected: the ingests run up to half a minute after the
        # daemon's reference import, and scaling them by it did not steady them.
        "op_p50_ms": ingest_s * 1e3,
    }, load.tally


# -- traced ------------------------------------------------------------------


def run_traced(
    ctx: harness.Context, deadline: float, size: Size = Size()
) -> tuple[dict[str, float], harness.Tally, Tracer]:
    """The daemon's path in process: ``ServiceState`` behind ``ServiceThread``."""
    from repro.service import ServiceState, ServiceThread

    prep = prepare(ctx, size)
    import_s, _ = harness.time_import(ctx, ctx.work / "import")
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        state = ServiceState(_config(prep, size))
        with tracer.span("run.setup"):
            state.refresh()
        load = Load()
        with ServiceThread(state) as service:
            drive(service.port, prep, ctx, load, deadline - GIVE_UP_MARGIN_S, tracer)
            served = fetch_aggregates(service.port, ctx)
            # Let the daemon see the clients' connections close before it
            # stops, so no handler is cancelled mid-close.
            time.sleep(0.2)
        stats = state.cache_stats()
    finally:
        tracer.restore()
    compare_with_cold(served, prep, size, load)
    metrics = layers.layer_metrics(tracer)
    metrics["cli.import_s"] = import_s
    reads = load.reads_s + load.twins_s
    queries = [s for s in tracer.spans if s.name == "service.query"]
    query_mean_s = sum(s.end_ns - s.start_ns for s in queries) / 1e9 / max(len(queries), 1)
    metrics["service.http_overhead_ms"] = (sum(reads) / len(reads) - query_mean_s) * 1e3
    metrics["service.cache_hits"] = float(stats.hits)
    metrics["service.cache_misses"] = float(stats.misses)
    metrics["service.cache_hit_ratio"] = stats.hits / max(stats.hits + stats.misses, 1)
    metrics["trace.op_p50_ms"] = harness.median(load.ingests_s) * 1e3
    ctx.info.update(samples={"reads": len(reads), "ingest": len(load.ingests_s)})
    return metrics, load.tally, tracer
