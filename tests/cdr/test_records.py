"""Unit tests for connection records and batches."""

import pytest

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.errors import CDRValidationError
from repro.cdr.records import CDRBatch, ConnectionRecord, count_record_constructions


def rec(start=0.0, car="car-a", cell=1, carrier="C3", tech="4G", dur=60.0):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier=carrier, technology=tech, duration=dur
    )


class TestConnectionRecord:
    def test_end_and_interval(self):
        r = rec(start=100.0, dur=50.0)
        assert r.end == 150.0
        assert r.interval.start == 100.0
        assert r.interval.end == 150.0

    def test_rejects_negative_duration(self):
        with pytest.raises(CDRValidationError):
            rec(dur=-1.0)

    def test_rejects_empty_car_id(self):
        with pytest.raises(CDRValidationError):
            rec(car="")

    def test_truncated_caps(self):
        r = rec(dur=1000.0).truncated(600.0)
        assert r.duration == 600.0

    def test_truncated_noop_below_cap(self):
        r = rec(dur=100.0)
        assert r.truncated(600.0) is r

    def test_ordering_chronological(self):
        early = rec(start=10.0)
        late = rec(start=20.0)
        assert sorted([late, early]) == [early, late]


class TestCDRBatch:
    def _batch(self):
        return CDRBatch(
            [
                rec(start=30.0, car="car-b", cell=2),
                rec(start=10.0, car="car-a", cell=1),
                rec(start=20.0, car="car-a", cell=2),
            ]
        )

    def test_sorted_on_construction(self):
        batch = self._batch()
        starts = [r.start for r in batch]
        assert starts == sorted(starts)

    def test_len_and_getitem(self):
        batch = self._batch()
        assert len(batch) == 3
        assert batch[0].start == 10.0

    def test_by_car_groups_chronological(self):
        groups = self._batch().by_car()
        assert set(groups) == {"car-a", "car-b"}
        assert [r.start for r in groups["car-a"]] == [10.0, 20.0]

    def test_by_cell(self):
        groups = self._batch().by_cell()
        assert {r.car_id for r in groups[2]} == {"car-a", "car-b"}

    def test_car_and_cell_ids_sorted(self):
        batch = self._batch()
        assert batch.car_ids() == ["car-a", "car-b"]
        assert batch.cell_ids() == [1, 2]

    def test_filtered(self):
        batch = self._batch().filtered(lambda r: r.cell_id == 2)
        assert len(batch) == 2
        assert all(r.cell_id == 2 for r in batch)

    def test_validate_window(self):
        batch = self._batch()
        batch.validate(study_duration=100.0)  # fine
        with pytest.raises(CDRValidationError):
            batch.validate(study_duration=25.0)

    def test_empty_batch(self):
        batch = CDRBatch([])
        assert len(batch) == 0
        assert batch.car_ids() == []
        assert batch.by_cell() == {}


class TestAssumeSorted:
    def _sorted_records(self):
        return sorted(
            [
                rec(start=30.0, car="car-b", cell=2),
                rec(start=10.0, car="car-a", cell=1),
                rec(start=20.0, car="car-a", cell=2),
            ]
        )

    def test_preserves_given_order(self):
        records = self._sorted_records()
        batch = CDRBatch(records, assume_sorted=True)
        assert batch.records == records

    def test_matches_sorting_constructor(self):
        records = self._sorted_records()
        fast = CDRBatch(records, assume_sorted=True)
        slow = CDRBatch(list(reversed(records)))
        assert fast.records == slow.records
        assert fast.by_car().keys() == slow.by_car().keys()

    def test_filtered_batches_stay_sorted(self):
        # filtered() uses the fast path: dropping rows keeps order.
        batch = CDRBatch(self._sorted_records()).filtered(lambda r: r.cell_id == 2)
        starts = [r.start for r in batch]
        assert starts == sorted(starts)

    def test_columnar_view_matches_row_order(self):
        batch = CDRBatch(self._sorted_records(), assume_sorted=True)
        assert batch.columnar().to_records() == batch.records


class TestLazyBatch:
    """A batch over a columnar view builds its records on first access."""

    def _records(self):
        return sorted(
            [
                rec(start=30.0, car="car-b", cell=2, carrier="C4"),
                rec(start=10.0, car="car-a", cell=1, tech="3G"),
                rec(start=20.0, car="car-a", cell=2, dur=900.0),
                rec(start=20.0, car="car-c", cell=1, dur=0.0),
            ]
        )

    def _lazy(self):
        return ColumnarCDRBatch.from_records(self._records()).to_batch()

    def test_len_and_columnar_build_no_records(self):
        col = ColumnarCDRBatch.from_records(self._records())
        with count_record_constructions() as counter:
            batch = col.to_batch()
            assert len(batch) == 4
            assert len(batch.columnar()) == 4
        assert counter.count == 0

    def test_records_built_once_and_equal_to_records(self):
        batch = self._lazy()
        with count_record_constructions() as counter:
            first = batch.records
            again = batch.records
            list(batch)
            batch[0]
        assert counter.count == 4
        assert first is again
        assert first == batch.columnar().to_records() == self._records()

    def test_every_record_access_matches_an_eager_batch(self):
        eager = CDRBatch(self._records())
        accessors = {
            "iter": lambda b: list(b),
            "index": lambda b: [b[i] for i in range(len(b))],
            "records": lambda b: b.records,
            "by_car": lambda b: b.by_car(),
            "by_cell": lambda b: b.by_cell(),
            "car_ids": lambda b: b.car_ids(),
            "cell_ids": lambda b: b.cell_ids(),
            "filtered": lambda b: b.filtered(lambda r: r.cell_id == 2).records,
        }
        for name, access in accessors.items():
            lazy = self._lazy()
            assert access(lazy) == access(eager), name
            assert lazy._records is not None, name

    def test_validate_matches_an_eager_batch(self):
        for batch in (CDRBatch(self._records()), self._lazy()):
            batch.validate(study_duration=100.0)
        for batch in (CDRBatch(self._records()), self._lazy()):
            with pytest.raises(CDRValidationError, match="t=30.0"):
                batch.validate(study_duration=25.0)

    def test_to_batch_sorts_an_unsorted_view_first(self):
        col = ColumnarCDRBatch.from_records(list(reversed(self._records())))
        batch = col.to_batch()
        assert len(batch) == 4
        assert batch.records == self._records()

    def test_record_built_batch_keeps_its_objects(self):
        records = self._records()
        batch = CDRBatch(records, assume_sorted=True)
        assert len(batch) == 4
        assert all(a is b for a, b in zip(batch.records, records))
        with count_record_constructions() as counter:
            assert batch.columnar().to_batch().columnar() == batch.columnar()
        assert counter.count == 0
