"""Section 3 preprocessing: cleaning, truncation and session aggregation.

The paper applies three rules before any analysis:

1. *Drop erroneous records* whose connections "appear to have lasted exactly
   1 hour" — artifacts of periodic reporting without a recorded disconnect.
2. *Truncate* long single-cell connections to 600 seconds during analysis, to
   mitigate modems that improperly disconnect.
3. *Concatenate* connections up to 30 seconds apart into **aggregate
   sessions**, and (for handover analysis, Section 4.5) connections with gaps
   up to 10 minutes into **network sessions**.

:func:`preprocess` applies rule 1 once and exposes both full and truncated
views of the surviving records, because the paper repeatedly contrasts the
two (Figures 3 and 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.intervals import Interval, concatenate_gaps
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import CDRBatch, ConnectionRecord

#: Duration that marks a record as an erroneous periodic-reporting ghost.
GHOST_DURATION_S = 3600.0
#: Tolerance around exactly one hour when matching ghost records.
GHOST_TOLERANCE_S = 0.5


@dataclass(frozen=True)
class PreprocessConfig:
    """Thresholds of the Section 3 methodology, paper defaults."""

    truncate_s: float = 600.0
    session_gap_s: float = 30.0
    network_session_gap_s: float = 600.0

    def __post_init__(self) -> None:
        if self.truncate_s <= 0:
            raise ValueError(f"truncate_s must be positive, got {self.truncate_s}")
        if self.session_gap_s < 0 or self.network_session_gap_s < 0:
            raise ValueError("session gaps must be non-negative")


class PreprocessResult:
    """Cleaned views of a CDR batch.

    ``full`` holds the records with ghost one-hour rows removed, durations
    as reported; ``truncated`` holds the same records with durations capped
    at ``config.truncate_s``; ``n_dropped_ghosts`` counts the removed rows.
    Both batches carry their columnar views (:meth:`columnar_full` /
    :meth:`columnar_truncated`).

    When built by :func:`preprocess_lazy` both batches are *lazy*
    (:meth:`~repro.cdr.records.CDRBatch.lazy`): they hold only their
    columnar views and build record objects on the first record access.  The fused analysis engine and the Figure 11 vectors read the
    views alone, so a fused pipeline run builds no records at all.
    """

    def __init__(
        self,
        config: PreprocessConfig,
        n_dropped_ghosts: int,
        *,
        full: CDRBatch,
        truncated: CDRBatch,
    ) -> None:
        self.config = config
        self.n_dropped_ghosts = n_dropped_ghosts
        self.full = full
        self.truncated = truncated
        self._sessions: dict[str, list[Interval]] = {}
        self._network_sessions: dict[str, list[list[ConnectionRecord]]] = {}

    @property
    def n_kept(self) -> int:
        """Number of records surviving the ghost drop (no materialization)."""
        return len(self.full)

    def columnar_full(self) -> ColumnarCDRBatch:
        """Columnar view of ``full`` without materializing record objects."""
        return self.full.columnar()

    def columnar_truncated(self) -> ColumnarCDRBatch:
        """Columnar view of ``truncated``; no record objects are built."""
        return self.truncated.columnar()

    def aggregate_sessions(self, car_id: str) -> list[Interval]:
        """A car's aggregate sessions: truncated records joined over <=30 s gaps."""
        cached = self._sessions.get(car_id)
        if cached is None:
            cached = sessions_for(
                self.truncated.by_car().get(car_id, []), self.config.session_gap_s
            )
            self._sessions[car_id] = cached
        return cached

    def network_sessions(self, car_id: str) -> list[list[ConnectionRecord]]:
        """A car's network sessions: record runs with gaps <= 10 minutes.

        Unlike :meth:`aggregate_sessions` this keeps the records themselves
        (not just their union), because handover analysis needs the cell
        sequence inside each session.  Cached per car, like
        :meth:`aggregate_sessions`; ``by_car()`` groups are already
        chronological, so the grouping skips its defensive re-sort.
        """
        cached = self._network_sessions.get(car_id)
        if cached is None:
            cached = group_records_by_gap(
                self.truncated.by_car().get(car_id, []),
                self.config.network_session_gap_s,
                assume_sorted=True,
            )
            self._network_sessions[car_id] = cached
        return cached


def is_ghost_record(record: ConnectionRecord) -> bool:
    """Whether a record has the suspicious exactly-one-hour duration."""
    return abs(record.duration - GHOST_DURATION_S) <= GHOST_TOLERANCE_S


def preprocess(
    batch: CDRBatch, config: PreprocessConfig | None = None
) -> PreprocessResult:
    """Apply the Section 3 cleaning rules to a raw batch.

    Both rules run on the batch's columnar view: the ghost mask and the
    truncation are single vectorized array operations, and because dropping
    or capping rows of a time-sorted batch never reorders it, the cleaned
    batches are built with ``assume_sorted=True`` — no re-sort, no
    per-record Python predicates.
    """
    cfg = config or PreprocessConfig()
    records = batch.records
    kept_col, keep_idx = _drop_ghosts(batch.columnar())
    kept = records if keep_idx is None else [records[i] for i in keep_idx.tolist()]

    # Only the over-cap records need a fresh object; the rest are shared
    # with ``full``.  Capping durations cannot break the sort order because
    # min(d, cap) is monotone in d and duration is the last sort key.
    over_idx = np.flatnonzero(kept_col.duration > cfg.truncate_s)
    truncated = list(kept)
    for i in over_idx.tolist():
        truncated[i] = kept[i].truncated(cfg.truncate_s)

    full = CDRBatch(kept, assume_sorted=True)
    full._columnar = kept_col
    truncated_batch = CDRBatch(truncated, assume_sorted=True)
    truncated_batch._columnar = kept_col.truncated(cfg.truncate_s)
    return PreprocessResult(
        cfg, len(records) - len(kept), full=full, truncated=truncated_batch
    )


def preprocess_lazy(
    batch: CDRBatch, config: PreprocessConfig | None = None
) -> PreprocessResult:
    """Section 3 cleaning with deferred record materialization.

    Same rules and results as :func:`preprocess`, but only the columnar
    views are built: ``full`` is the source batch itself when no ghost was
    dropped, and otherwise, like ``truncated``, a lazy batch over its view
    (:meth:`~repro.cdr.records.CDRBatch.lazy`).  The source's records are
    never touched, so a lazily loaded trace stays record-free until some
    record-based analysis asks for records.
    """
    cfg = config or PreprocessConfig()
    kept_col, keep_idx = _drop_ghosts(batch.columnar())
    full = batch if keep_idx is None else CDRBatch.lazy(kept_col)
    truncated = CDRBatch.lazy(kept_col.truncated(cfg.truncate_s))
    return PreprocessResult(
        cfg, len(batch) - len(kept_col), full=full, truncated=truncated
    )


def _drop_ghosts(
    col: ColumnarCDRBatch,
) -> tuple[ColumnarCDRBatch, npt.NDArray[np.intp] | None]:
    """Rule 1: ``col`` without ghost rows, plus the kept row indices.

    The indices are ``None`` when no row is a ghost and ``col`` is
    returned as is.
    """
    ghost_mask = np.abs(col.duration - GHOST_DURATION_S) <= GHOST_TOLERANCE_S
    if not ghost_mask.any():
        return col, None
    keep_idx = np.flatnonzero(~ghost_mask)
    return col.take(keep_idx), keep_idx


def sessions_for(
    records: list[ConnectionRecord], max_gap_s: float
) -> list[Interval]:
    """Aggregate a car's records into sessions joined over gaps <= ``max_gap_s``."""
    return concatenate_gaps((rec.interval for rec in records), max_gap_s)


def group_records_by_gap(
    records: list[ConnectionRecord],
    max_gap_s: float,
    *,
    assume_sorted: bool = False,
) -> list[list[ConnectionRecord]]:
    """Split a chronological record list into runs with bounded gaps.

    A new group starts whenever a record begins more than ``max_gap_s``
    seconds after the latest end seen so far (records can overlap, so the
    group's extent — not the previous record — defines the gap).

    ``assume_sorted=True`` skips the defensive sort for callers whose input
    is already chronological (``by_car()`` groups of a sorted batch).
    """
    groups: list[list[ConnectionRecord]] = []
    group_end = float("-inf")
    for rec in records if assume_sorted else sorted(records):
        if not groups or rec.start - group_end > max_gap_s:
            groups.append([rec])
        else:
            groups[-1].append(rec)
        group_end = max(group_end, rec.end)
    return groups
