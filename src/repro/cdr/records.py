"""Connection records and batch containers.

A :class:`ConnectionRecord` is one radio-level connection: one car attached
to one cell on one carrier for some duration.  It mirrors the fields the
paper's CDRs expose (Section 3) — identities, cell, carrier, timing — and
deliberately carries no data volume, which the paper's data set lacks.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.algorithms.intervals import Interval
from repro.cdr.errors import CDRValidationError

if TYPE_CHECKING:
    from repro.cdr.columnar import ColumnarCDRBatch

#: Key function matching :class:`ConnectionRecord`'s field ordering; sorting
#: with an extracted key is ~2x faster than per-comparison tuple building.
_RECORD_SORT_KEY = attrgetter(
    "start", "car_id", "cell_id", "carrier", "technology", "duration"
)


class RecordConstructionCounter:
    """Mutable counter of :class:`ConnectionRecord` constructions."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


#: Active counter, or ``None`` when counting is off (the normal state).
_construction_counter: RecordConstructionCounter | None = None


@contextmanager
def count_record_constructions() -> Iterator[RecordConstructionCounter]:
    """Count every :class:`ConnectionRecord` built inside the ``with`` block.

    A test hook: the binary columnar load path (``repro.cdr.store``)
    guarantees it constructs *zero* record objects, and the guarantee is
    asserted rather than assumed::

        with count_record_constructions() as counter:
            batch = read_batch_cdrz(path)
        assert counter.count == 0

    Nesting restores the previous counter on exit; the hook costs one
    global ``None`` check per construction when inactive.
    """
    global _construction_counter
    counter = RecordConstructionCounter()
    previous = _construction_counter
    _construction_counter = counter
    try:
        yield counter
    finally:
        _construction_counter = previous


@dataclass(frozen=True, order=True, slots=True)
class ConnectionRecord:
    """One radio connection from a car to a cell.

    Ordering is by ``(start, car_id, cell_id)`` so sorting a record list
    yields a stable chronological trace.
    """

    start: float
    car_id: str
    cell_id: int
    carrier: str
    technology: str
    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise CDRValidationError(
                f"record duration must be non-negative, got {self.duration}"
            )
        if not self.car_id:
            raise CDRValidationError("record car_id must be non-empty")
        if _construction_counter is not None:
            _construction_counter.count += 1

    @property
    def end(self) -> float:
        """Timestamp at which the connection released."""
        return self.start + self.duration

    @property
    def interval(self) -> Interval:
        """The record's time extent as a half-open interval."""
        return Interval(self.start, self.end)

    def truncated(self, max_duration: float) -> "ConnectionRecord":
        """Copy with duration capped at ``max_duration`` (Section 3's 600 s)."""
        if self.duration <= max_duration:
            return self
        return ConnectionRecord(
            start=self.start,
            car_id=self.car_id,
            cell_id=self.cell_id,
            carrier=self.carrier,
            technology=self.technology,
            duration=max_duration,
        )


class CDRBatch:
    """A chronologically sorted collection of connection records.

    The batch owns its list; iterate it or use the grouping helpers, which
    are what every analysis in :mod:`repro.core` consumes.

    ``assume_sorted=True`` skips the construction sort.  It is for callers
    that can prove order is preserved — preprocessing drops/truncates rows
    of an already-sorted batch without reordering them — and makes batch
    construction O(n).  Passing unsorted records with ``assume_sorted=True``
    is a contract violation; grouping helpers would silently misbehave.

    A batch made by :meth:`lazy` holds only its columnar view and builds
    its record list on first record access (``records``, iteration,
    indexing, ``by_car``/``by_cell``, ``filtered`` or ``validate``).
    ``len()`` and :meth:`columnar` never build records, so array-only
    consumers such as the fused engine run without a single
    :class:`ConnectionRecord`.
    """

    def __init__(
        self,
        records: Iterable[ConnectionRecord],
        *,
        assume_sorted: bool = False,
    ) -> None:
        self._records: list[ConnectionRecord] | None
        if assume_sorted:
            self._records = list(records)
        else:
            self._records = sorted(records, key=_RECORD_SORT_KEY)
        self._by_car: dict[str, list[ConnectionRecord]] | None = None
        self._by_cell: dict[int, list[ConnectionRecord]] | None = None
        self._columnar: ColumnarCDRBatch | None = None

    @classmethod
    def lazy(cls, col: ColumnarCDRBatch) -> "CDRBatch":
        """Lazy batch over a columnar view already in record order.

        ``col``'s rows must already be sorted as the batch would sort them
        (``col.sort_order()`` is the identity);
        :meth:`ColumnarCDRBatch.to_batch` checks and sorts first.  The
        records are built from ``col.to_records()`` on first access.
        """
        batch = cls((), assume_sorted=True)
        batch._records = None
        batch._columnar = col
        return batch

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self.columnar())

    def __iter__(self) -> Iterator[ConnectionRecord]:
        return iter(self.records)

    def __getitem__(self, idx: int) -> ConnectionRecord:
        return self.records[idx]

    @property
    def records(self) -> list[ConnectionRecord]:
        """The sorted record list (not a copy; treat as read-only).

        A lazy batch builds the list here, once.
        """
        if self._records is None:
            if self._columnar is None:
                raise ValueError("CDRBatch holds neither records nor a view")
            self._records = self._columnar.to_records()
        return self._records

    def columnar(self) -> ColumnarCDRBatch:
        """This batch's columnar view, built once and cached.

        Returns a :class:`repro.cdr.columnar.ColumnarCDRBatch` sharing the
        batch's row order; vectorized cleaning and grouping go through it.
        """
        if self._columnar is None:
            from repro.cdr.columnar import ColumnarCDRBatch

            self._columnar = ColumnarCDRBatch.from_records(self.records)
        return self._columnar

    def by_car(self) -> dict[str, list[ConnectionRecord]]:
        """Records grouped per car, each group chronological."""
        if self._by_car is None:
            recs = self.records
            if self._columnar is not None:
                # One stable argsort over the car codes replaces a python
                # dict append per record; chronological order within each
                # group survives because the batch rows are time-sorted.
                self._by_car = {
                    car: [recs[i] for i in idx]
                    for car, idx in self._columnar.group_rows_by_car().items()
                }
            else:
                groups: dict[str, list[ConnectionRecord]] = defaultdict(list)
                for rec in recs:
                    groups[rec.car_id].append(rec)
                self._by_car = dict(groups)
        return self._by_car

    def by_cell(self) -> dict[int, list[ConnectionRecord]]:
        """Records grouped per cell, each group chronological."""
        if self._by_cell is None:
            recs = self.records
            if self._columnar is not None:
                # Same vectorized grouping as by_car(): one stable argsort
                # over the cell ids instead of a dict append per record.
                self._by_cell = {
                    cell: [recs[i] for i in idx]
                    for cell, idx in self._columnar.group_rows_by_cell().items()
                }
            else:
                groups: dict[int, list[ConnectionRecord]] = defaultdict(list)
                for rec in recs:
                    groups[rec.cell_id].append(rec)
                self._by_cell = dict(groups)
        return self._by_cell

    def car_ids(self) -> list[str]:
        """Distinct car ids, sorted."""
        return sorted(self.by_car())

    def cell_ids(self) -> list[int]:
        """Distinct cell ids, sorted."""
        return sorted(self.by_cell())

    def filtered(self, predicate: Callable[[ConnectionRecord], bool]) -> "CDRBatch":
        """New batch keeping records for which ``predicate(record)`` is true."""
        # Filtering a sorted list preserves its order, so the copy need not
        # re-sort.
        return CDRBatch(
            [rec for rec in self.records if predicate(rec)], assume_sorted=True
        )

    def validate(self, study_duration: float | None = None) -> None:
        """Raise :class:`CDRValidationError` on ill-formed batches.

        Checks chronological consistency per construction and, when
        ``study_duration`` is given, that every record starts inside the
        study window.
        """
        if study_duration is not None:
            for rec in self.records:
                if not 0 <= rec.start < study_duration:
                    raise CDRValidationError(
                        f"record at t={rec.start} outside study of "
                        f"{study_duration} s"
                    )
