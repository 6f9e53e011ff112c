"""Per-cell concurrency of cars (Section 4.4, Figures 8 and 10).

The paper declares cars concurrent when their connections straddle the same
15-minute time bin — a deliberately coarse window because the projected
impact (overlapping large downloads) extends connections and shares
bandwidth.  Figure 8 renders a single cell's 24 hours of per-car connections;
Figure 10 overlays a week of per-bin concurrent-car counts on the cell's PRB
curve.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.intervals import Interval, concatenate_gaps
from repro.algorithms.segments import ragged_ranges, segment_ids, segmented_cummax
from repro.algorithms.timebins import BIN_SECONDS, BINS_PER_WEEK, DAY, WEEK, StudyClock
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import CDRBatch, ConnectionRecord


def car_sessions_in_cell(
    records: list[ConnectionRecord], session_gap_s: float = 30.0
) -> dict[str, list[Interval]]:
    """Per-car aggregated sessions within one cell's record list.

    Applies the paper's 30-second concatenation rule per car, so one car
    counts once per bin no matter how fragmented its radio connections are.
    """
    per_car: dict[str, list[Interval]] = {}
    for rec in records:
        per_car.setdefault(rec.car_id, []).append(rec.interval)
    return {
        car: concatenate_gaps(ivs, session_gap_s) for car, ivs in per_car.items()
    }


def concurrency_counts(
    records: list[ConnectionRecord], session_gap_s: float = 30.0
) -> Counter[int]:
    """Concurrent cars per absolute 15-minute bin for one cell's records."""
    counts: Counter[int] = Counter()
    for sessions in car_sessions_in_cell(records, session_gap_s).values():
        seen: set[int] = set()
        for iv in sessions:
            seen.update(iv.bins_straddled(BIN_SECONDS))
        for b in seen:
            counts[b] += 1
    return counts


@dataclass(frozen=True)
class CellTimeline:
    """One cell's car connections over a day window (Figure 8).

    ``car_intervals`` maps each car to its connection intervals clipped to
    the window; ``concurrency`` counts concurrent cars per 15-minute bin of
    the window.
    """

    cell_id: int
    window_start: float
    window_end: float
    car_intervals: dict[str, list[Interval]]
    concurrency: npt.NDArray[np.int64]

    @property
    def n_cars(self) -> int:
        """Distinct cars connecting to the cell within the window."""
        return len(self.car_intervals)

    @property
    def max_concurrency(self) -> int:
        """Peak concurrent cars in any 15-minute bin of the window."""
        return int(self.concurrency.max()) if self.concurrency.size else 0

    @property
    def busiest_bin(self) -> int:
        """Window-relative index of the most concurrent 15-minute bin."""
        return int(self.concurrency.argmax()) if self.concurrency.size else 0


def cell_timeline(
    batch: CDRBatch, cell_id: int, start_day: int, n_days: int = 1
) -> CellTimeline:
    """Figure 8: per-car connections to one cell over ``n_days`` days."""
    if n_days <= 0:
        raise ValueError(f"n_days must be positive, got {n_days}")
    window_start = start_day * DAY
    window_end = window_start + n_days * DAY
    records = [
        rec
        for rec in batch.by_cell().get(cell_id, [])
        if rec.start < window_end and rec.end > window_start
    ]
    car_intervals: dict[str, list[Interval]] = {}
    for rec in records:
        clipped = rec.interval.clip(window_start, window_end)
        if clipped is not None:
            car_intervals.setdefault(rec.car_id, []).append(clipped)

    n_bins = int(n_days * DAY // BIN_SECONDS)
    concurrency = np.zeros(n_bins, dtype=np.int64)
    for intervals in car_intervals.values():
        seen: set[int] = set()
        for iv in concatenate_gaps(intervals, 30.0):
            seen.update(iv.bins_straddled(BIN_SECONDS))
        first_bin = int(window_start // BIN_SECONDS)
        for b in seen:
            rel = b - first_bin
            if 0 <= rel < n_bins:
                concurrency[rel] += 1
    return CellTimeline(
        cell_id=cell_id,
        window_start=window_start,
        window_end=window_end,
        car_intervals=car_intervals,
        concurrency=concurrency,
    )


def weekly_concurrency(
    records: list[ConnectionRecord],
    clock: StudyClock,
    session_gap_s: float = 30.0,
) -> npt.NDArray[np.float64]:
    """Mean concurrent cars per 15-minute bin of the week, 672 entries.

    Averages each hour-of-week bin's concurrent-car count over all complete
    weeks of the study, producing the per-cell vectors Figure 11 clusters
    (the paper's 96-bin day vectors are the same construction folded one
    step further; see :func:`fold_to_day`).
    """
    n_weeks = _complete_weeks(clock)
    counts = concurrency_counts(records, session_gap_s)
    folded = np.zeros(BINS_PER_WEEK)
    bins_per_week = int(WEEK // BIN_SECONDS)
    offset_bins = clock.start_weekday * int(DAY // BIN_SECONDS)
    for b, count in counts.items():
        if b >= n_weeks * bins_per_week:
            continue  # ignore the trailing partial week
        folded[(b + offset_bins) % bins_per_week] += count
    return folded / n_weeks


def weekly_concurrency_fused(
    col: ColumnarCDRBatch,
    cell_ids: Sequence[int],
    clock: StudyClock,
    session_gap_s: float = 30.0,
) -> npt.NDArray[np.float64]:
    """Columnar twin of :func:`weekly_concurrency` for many cells at once.

    Returns a ``(len(cell_ids), 672)`` array whose row ``i`` equals, bit
    for bit, ``weekly_concurrency`` over the records of ``col`` on cell
    ``cell_ids[i]``.  One vectorized pass replaces the per-cell loops:

    1. keep the rows on the requested cells and sort them by (cell, car,
       start) — rows tied on start need no order, the running max below
       absorbs them;
    2. join each (cell, car) group's rows into sessions under the
       ``session_gap_s`` rule, with a segmented running max of the ends
       (a session's end is the max of every earlier end in its group,
       because a row that opens a session ends after all of them);
    3. expand the 15-minute bins each session straddles;
    4. count each (cell, car, bin) once — a group's sessions are
       chronological and disjoint, so its bins come out non-decreasing and
       a repeat can only sit next to its twin;
    5. fold the counts of the complete weeks onto the 672-bin week.

    The counts are integers, so dividing by the number of weeks gives the
    reference's floats exactly.
    """
    n_weeks = _complete_weeks(clock)
    cells, slot_of = np.unique(
        np.asarray(cell_ids, dtype=np.int64), return_inverse=True
    )
    counts = np.zeros(cells.size * BINS_PER_WEEK, dtype=np.int64)
    pos = np.searchsorted(cells, col.cell_id)
    hit = pos < cells.size
    hit[hit] = cells[pos[hit]] == col.cell_id[hit]
    rows = np.flatnonzero(hit)
    if rows.size:
        start = col.start[rows]
        end = start + col.duration[rows]
        slot = pos[rows].astype(np.int64)
        car = col.car_code[rows]
        order = np.lexsort((start, car, slot))
        start, end, slot, car = start[order], end[order], slot[order], car[order]

        new_group = np.ones(rows.size, dtype=np.bool_)
        new_group[1:] = (slot[1:] != slot[:-1]) | (car[1:] != car[:-1])
        run_end = segmented_cummax(end, new_group)
        new_session = new_group.copy()
        new_session[1:] |= start[1:] - run_end[:-1] > session_gap_s
        firsts = np.flatnonzero(new_session)
        lasts = np.append(firsts[1:], rows.size) - 1

        # Interval.bins_straddled: an end exactly on a bin boundary leaves
        # that bin out, and a zero-length session keeps its start's bin.
        s_end = run_end[lasts]
        first_bin = np.floor_divide(start[firsts], BIN_SECONDS).astype(np.int64)
        last_bin = np.floor_divide(s_end, BIN_SECONDS).astype(np.int64)
        last_bin[np.mod(s_end, BIN_SECONDS) == 0] -= 1
        last_bin = np.maximum(last_bin, first_bin)

        owner, offset = ragged_ranges(last_bin - first_bin + 1)
        bins = first_bin[owner] + offset
        group = segment_ids(new_group)[firsts][owner]
        once = np.ones(bins.size, dtype=np.bool_)
        once[1:] = (group[1:] != group[:-1]) | (bins[1:] != bins[:-1])
        once &= bins < n_weeks * BINS_PER_WEEK  # drop the trailing partial week
        offset_bins = clock.start_weekday * int(DAY // BIN_SECONDS)
        week_bin = np.mod(bins[once] + offset_bins, BINS_PER_WEEK)
        counts = np.bincount(
            slot[firsts][owner][once] * BINS_PER_WEEK + week_bin,
            minlength=counts.size,
        )
    folded = counts.reshape(cells.size, BINS_PER_WEEK).astype(np.float64)
    out: npt.NDArray[np.float64] = (folded / n_weeks)[slot_of]
    return out


def _complete_weeks(clock: StudyClock) -> int:
    """Complete weeks in the study; the weekly fold needs at least one."""
    n_weeks = clock.duration // WEEK
    if n_weeks == 0:
        raise ValueError("study shorter than one week; cannot fold weekly")
    return n_weeks


def fold_to_day(weekly: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Collapse a 672-bin weekly vector to the 96-bin mean day."""
    w = np.asarray(weekly, dtype=float)
    if w.size != BINS_PER_WEEK:
        raise ValueError(f"expected {BINS_PER_WEEK} bins, got {w.size}")
    out: npt.NDArray[np.float64] = w.reshape(7, -1).mean(axis=0)
    return out
