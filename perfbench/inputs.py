"""Seeded workload inputs, written the way ``repro-cars generate`` writes them.

The benchmark seed becomes the generator's root seed (``generate
--seed``); the scenario's load seed, and with it the cell inventory and
busy masks, stays the scenario's own, as ``analyze`` expects.
Generation fans out over two processes -- the generator is identical at
any worker count -- and is never part of a timed metric.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cdr.columnar import ColumnarCDRBatch

DAY_S = 86_400.0
#: Generator processes; the trace is the same at any count.
GENERATOR_WORKERS = 2


def generate(scenario_name: str, cars: int, days: int, seed: int) -> ColumnarCDRBatch:
    """The trace ``generate --scenario S --cars C --days D --seed N`` makes."""
    from repro.simulate.parallel import ParallelTraceGenerator
    from repro.simulate.scenarios import scenario

    config = replace(scenario(scenario_name, n_cars=cars, n_days=days), seed=seed)
    dataset = ParallelTraceGenerator(config, n_workers=GENERATOR_WORKERS).generate()
    return dataset.batch.columnar()


def write_shards(batch: ColumnarCDRBatch, directory: Path, shard_rows: int) -> int:
    """``generate --format cdrz --shard-rows N``; returns the shard count."""
    from repro.cdr.store import write_sharded_cdrz

    return len(write_sharded_cdrz(directory, batch, shard_rows=shard_rows))


def split_days(
    batch: ColumnarCDRBatch, first_live_day: int, days: int
) -> tuple[ColumnarCDRBatch, list[ColumnarCDRBatch]]:
    """Rows starting before ``first_live_day``, then one batch per later day."""
    import numpy as np

    day = np.floor(batch.start / DAY_S).astype(np.int64)
    history = batch.take(np.flatnonzero(day < first_live_day))
    live = [batch.take(np.flatnonzero(day == d)) for d in range(first_live_day, days)]
    return history, live


def write_batch(batch: ColumnarCDRBatch, path: Path) -> None:
    from repro.cdr.store import write_batch_cdrz

    write_batch_cdrz(path, batch)
