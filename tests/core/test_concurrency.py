"""Unit tests for per-cell concurrency (Figures 8 and 10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.timebins import BIN_SECONDS, BINS_PER_WEEK, DAY, StudyClock
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.concurrency import (
    car_sessions_in_cell,
    cell_timeline,
    concurrency_counts,
    fold_to_day,
    weekly_concurrency,
    weekly_concurrency_fused,
)


def rec(start, dur=60.0, car="car-a", cell=1):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier="C3", technology="4G", duration=dur
    )


class TestCarSessions:
    def test_per_car_aggregation(self):
        records = [rec(0), rec(70, car="car-a"), rec(0, car="car-b")]
        sessions = car_sessions_in_cell(records)
        assert len(sessions["car-a"]) == 1  # 10 s gap joins at 30 s rule
        assert len(sessions["car-b"]) == 1

    def test_large_gap_splits(self):
        sessions = car_sessions_in_cell([rec(0), rec(1000)])
        assert len(sessions["car-a"]) == 2


class TestConcurrencyCounts:
    def test_one_car_counts_once_per_bin(self):
        # Two fragmented connections of the same car in the same bin.
        counts = concurrency_counts([rec(0), rec(300)])
        assert counts[0] == 1

    def test_two_cars_in_same_bin(self):
        counts = concurrency_counts([rec(0), rec(0, car="car-b")])
        assert counts[0] == 2

    def test_straddling_connection_counts_in_both_bins(self):
        counts = concurrency_counts([rec(BIN_SECONDS - 30, dur=60.0)])
        assert counts[0] == 1
        assert counts[1] == 1

    def test_empty(self):
        assert concurrency_counts([]) == {}


class TestCellTimeline:
    def test_window_filtering(self):
        batch = CDRBatch(
            [rec(0), rec(2 * DAY, car="car-b"), rec(DAY // 2, car="car-c")]
        )
        tl = cell_timeline(batch, cell_id=1, start_day=0, n_days=1)
        assert tl.n_cars == 2
        assert set(tl.car_intervals) == {"car-a", "car-c"}

    def test_concurrency_series_shape(self):
        batch = CDRBatch([rec(0)])
        tl = cell_timeline(batch, 1, 0)
        assert tl.concurrency.shape == (96,)

    def test_max_concurrency_and_busiest_bin(self):
        batch = CDRBatch(
            [rec(10 * BIN_SECONDS, car=f"car-{i}") for i in range(5)]
        )
        tl = cell_timeline(batch, 1, 0)
        assert tl.max_concurrency == 5
        assert tl.busiest_bin == 10

    def test_record_clipped_to_window(self):
        batch = CDRBatch([rec(DAY - 30, dur=120.0)])
        tl = cell_timeline(batch, 1, 0, n_days=1)
        iv = tl.car_intervals["car-a"][0]
        assert iv.end == DAY

    def test_unknown_cell_empty(self):
        tl = cell_timeline(CDRBatch([rec(0)]), cell_id=99, start_day=0)
        assert tl.n_cars == 0
        assert tl.max_concurrency == 0

    def test_rejects_bad_n_days(self):
        with pytest.raises(ValueError):
            cell_timeline(CDRBatch([]), 1, 0, n_days=0)

    def test_multi_day_window(self):
        batch = CDRBatch([rec(0), rec(DAY + 10, car="car-b")])
        tl = cell_timeline(batch, 1, 0, n_days=2)
        assert tl.n_cars == 2
        assert tl.concurrency.shape == (192,)


class TestWeeklyConcurrency:
    def test_shape(self):
        clock = StudyClock(start_weekday=0, n_days=14)
        weekly = weekly_concurrency([rec(0)], clock)
        assert weekly.shape == (BINS_PER_WEEK,)

    def test_averages_over_weeks(self):
        clock = StudyClock(start_weekday=0, n_days=14)
        # Same Monday-midnight bin in both study weeks.
        records = [rec(0), rec(7 * DAY, car="car-b")]
        weekly = weekly_concurrency(records, clock)
        assert weekly[0] == pytest.approx(1.0)  # (1 + 1) / 2 weeks

    def test_single_week_occurrence_halved(self):
        clock = StudyClock(start_weekday=0, n_days=14)
        weekly = weekly_concurrency([rec(0)], clock)
        assert weekly[0] == pytest.approx(0.5)

    def test_start_weekday_folding(self):
        # Study starts Wednesday; a record at study t=0 lands in the
        # Wednesday slot of the Monday-based weekly vector.
        clock = StudyClock(start_weekday=2, n_days=14)
        weekly = weekly_concurrency([rec(0)], clock)
        assert weekly[2 * 96] == pytest.approx(0.5)

    def test_partial_trailing_week_ignored(self):
        clock = StudyClock(start_weekday=0, n_days=10)
        weekly = weekly_concurrency([rec(9 * DAY)], clock)
        assert weekly.sum() == 0.0

    def test_too_short_study_raises(self):
        with pytest.raises(ValueError):
            weekly_concurrency([], StudyClock(n_days=5))


def assert_fused_matches_reference(records, cell_ids, clock, gap=30.0):
    """``weekly_concurrency_fused`` equals the per-cell reference bit for bit."""
    batch = CDRBatch(records)
    by_cell = batch.by_cell()
    expected = np.stack(
        [weekly_concurrency(by_cell.get(cid, []), clock, gap) for cid in cell_ids]
    )
    got = weekly_concurrency_fused(batch.columnar(), cell_ids, clock, gap)
    assert got.dtype == expected.dtype
    assert got.shape == (len(cell_ids), BINS_PER_WEEK)
    assert np.array_equal(got, expected)
    return got


TWO_WEEKS = StudyClock(start_weekday=0, n_days=14)


class TestWeeklyConcurrencyFused:
    def test_gap_of_exactly_the_rule_joins(self):
        # 30.0 s apart joins, so the car counts once across the boundary.
        records = [rec(BIN_SECONDS - 60, dur=30.0), rec(BIN_SECONDS, dur=10.0)]
        got = assert_fused_matches_reference(records, [1], TWO_WEEKS)
        assert got[0, 0] == got[0, 1] == 0.5
        # A gap shorter than a bin never skips one, so only a rule wider
        # than a bin shows the join in the counts: bins 1 and 2 are
        # covered by the joined session alone.
        records = [rec(0.0, dur=600.0), rec(600.0 + 1800.0, dur=10.0)]
        got = assert_fused_matches_reference(records, [1], TWO_WEEKS, gap=1800.0)
        assert got[0, :3].tolist() == [0.5, 0.5, 0.5]

    def test_gap_just_over_the_rule_splits(self):
        # Each second record starts one ulp after the first one's end + gap.
        records = [rec(100.0, dur=50.0), rec(np.nextafter(180.0, np.inf), dur=50.0)]
        assert_fused_matches_reference(records, [1], TWO_WEEKS)
        records = [
            rec(BIN_SECONDS - 60, dur=29.0),
            rec(np.nextafter(BIN_SECONDS - 1.0, np.inf), dur=1.0),
        ]
        assert_fused_matches_reference(records, [1], TWO_WEEKS)
        records = [rec(0.0, dur=600.0), rec(np.nextafter(2400.0, np.inf), dur=10.0)]
        got = assert_fused_matches_reference(records, [1], TWO_WEEKS, gap=1800.0)
        assert got[0, :3].tolist() == [0.5, 0.0, 0.5]

    def test_overlapping_and_contained_records_of_one_car(self):
        records = [
            rec(0.0, dur=2000.0),
            rec(100.0, dur=50.0),  # contained
            rec(1900.0, dur=400.0),  # overlaps the tail
            rec(2330.0, dur=5.0),  # 30 s after the running max end
            rec(5000.0, dur=10.0, car="car-b"),
        ]
        assert_fused_matches_reference(records, [1], TWO_WEEKS)

    def test_zero_and_sub_ulp_durations(self):
        big = 13 * DAY + 0.5
        records = [
            rec(BIN_SECONDS * 3, dur=0.0),  # zero length on a boundary
            rec(BIN_SECONDS * 5 + 7.0, dur=0.0, car="car-b"),
            rec(big, dur=1e-12, car="car-c"),  # start + dur == start
        ]
        got = assert_fused_matches_reference(records, [1], TWO_WEEKS)
        assert got[0, 3] == got[0, 5] == 0.5

    def test_session_ending_exactly_on_a_bin_boundary(self):
        records = [rec(BIN_SECONDS - 100, dur=80.0), rec(BIN_SECONDS - 50, dur=50.0)]
        got = assert_fused_matches_reference(records, [1], TWO_WEEKS)
        assert got[0, 0] == 0.5 and got[0, 1] == 0.0

    def test_trailing_partial_week_and_start_weekday(self):
        records = [
            rec(2 * DAY + 10, car="car-a"),
            rec(7 * DAY + 10, car="car-b"),
            rec(9 * DAY + 10, car="car-c"),  # in the partial week of 10 days
            rec(-30.0, dur=60.0, car="car-d"),  # straddles study start
        ]
        for weekday in range(7):
            clock = StudyClock(start_weekday=weekday, n_days=10)
            assert_fused_matches_reference(records, [1], clock)

    def test_empty_busy_cells_and_rows_elsewhere(self):
        records = [
            rec(0.0, cell=1),
            rec(50.0, cell=2, car="car-b"),  # not a requested cell
            rec(60.0, cell=777, car="car-c"),  # unknown to every topology
        ]
        got = assert_fused_matches_reference(records, [1, 5, 9], TWO_WEEKS)
        assert not got[1:].any()
        assert_fused_matches_reference(records, [4], TWO_WEEKS)
        assert_fused_matches_reference([], [1, 2], TWO_WEEKS)

    def test_repeated_and_unsorted_cell_ids(self):
        records = [rec(0.0, cell=3), rec(10.0, cell=1, car="car-b")]
        assert_fused_matches_reference(records, [3, 1, 3], TWO_WEEKS)

    def test_one_car_in_two_cells_counts_in_each(self):
        records = [rec(0.0, cell=1), rec(30.0, cell=2)]
        got = assert_fused_matches_reference(records, [1, 2], TWO_WEEKS)
        assert got[0, 0] == got[1, 0] == 0.5

    def test_too_short_study_raises_like_the_reference(self):
        with pytest.raises(ValueError, match="shorter than one week"):
            weekly_concurrency_fused(
                CDRBatch([rec(0.0)]).columnar(), [1], StudyClock(n_days=5)
            )


# Starts on a coarse grid (bin-boundary and 30 s-gap collisions are
# likely) plus a fine fraction; durations mix zero, sub-ulp, exact bins
# and the 600 s truncation cap.
_record_st = st.builds(
    rec,
    start=st.one_of(
        st.integers(-60, 16 * 96).map(lambda k: k * 450.0),
        st.integers(-60, 16 * 96).map(lambda k: k * 450.0 + 30.0),
        st.floats(-1000.0, 16 * DAY, allow_nan=False),
    ),
    dur=st.one_of(
        st.sampled_from([0.0, 1e-12, 30.0, 450.0, 600.0, 900.0, 1800.0]),
        st.floats(0.0, 3000.0, allow_nan=False),
    ),
    car=st.sampled_from(["car-a", "car-b", "car-c"]),
    cell=st.integers(1, 4),
)


@given(
    records=st.lists(_record_st, max_size=40),
    cell_ids=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    weekday=st.integers(0, 6),
    n_days=st.integers(7, 16),
    gap=st.sampled_from([0.0, 30.0, 900.0, 1800.0]),
)
@settings(max_examples=150, deadline=None)
def test_fused_matches_reference_on_random_batches(
    records, cell_ids, weekday, n_days, gap
):
    clock = StudyClock(start_weekday=weekday, n_days=n_days)
    assert_fused_matches_reference(records, cell_ids, clock, gap)


class TestFoldToDay:
    def test_shape_and_mean(self):
        weekly = np.tile(np.arange(96, dtype=float), 7)
        day = fold_to_day(weekly)
        assert day.shape == (96,)
        assert day == pytest.approx(np.arange(96, dtype=float))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            fold_to_day(np.zeros(100))
