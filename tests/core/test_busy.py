"""Unit tests for busy-cell exposure (Figure 7)."""

import numpy as np
import pytest

from repro.algorithms.timebins import BIN_SECONDS
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.busy import BusyExposure, BusySchedule, busy_exposure


def rec(start, dur, car="car-a", cell=1):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier="C3", technology="4G", duration=dur
    )


def schedule_with(cell_masks):
    """BusySchedule from explicit per-cell boolean bin masks."""
    series = {
        cid: np.where(np.asarray(mask, dtype=bool), 0.9, 0.1)
        for cid, mask in cell_masks.items()
    }
    return BusySchedule.from_series(series)


class TestBusySchedule:
    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            BusySchedule({}, threshold=0.0)

    def test_from_series(self):
        sched = BusySchedule.from_series({1: np.asarray([0.9, 0.5])})
        assert sched.is_busy(1, 0)
        assert not sched.is_busy(1, 1)

    def test_unknown_cell_never_busy(self):
        sched = schedule_with({1: [True]})
        assert not sched.is_busy(99, 0)
        assert sched.busy_mask(99) is None

    def test_out_of_range_bin_not_busy(self):
        sched = schedule_with({1: [True]})
        assert not sched.is_busy(1, 5)
        assert not sched.is_busy(1, -1)

    def test_from_load_model(self, load_model):
        sched = BusySchedule.from_load_model(load_model)
        cid = load_model.busy_cell_ids(0.7)[0]
        assert sched.busy_mask(cid).any()

    def test_mask_after_the_grid_is_its_row_bit_for_bit(self, load_model):
        per_cell = BusySchedule.from_load_model(load_model)
        gridded = BusySchedule.from_load_model(load_model)
        cells, lens, grid = gridded.mask_table()
        for row, cid in enumerate(cells.tolist()):
            mask = gridded.busy_mask(cid)
            assert np.shares_memory(mask, grid) and not mask.flags.writeable
            assert mask.dtype == np.bool_ and mask.size == lens[row]
            assert np.array_equal(mask, per_cell.busy_mask(cid))
            assert np.array_equal(mask, load_model.busy_bins(cid))
        assert gridded.busy_mask(max(cells.tolist()) + 1) is None

    def test_fota_simulator_reads_masks_from_the_grid(
        self, load_model, dataset, monkeypatch
    ):
        from repro.core.preprocess import preprocess
        from repro.core.segmentation import days_on_network
        from repro.fota import CampaignConfig, CampaignSimulator, NaivePolicy

        pre = preprocess(dataset.batch)
        days = days_on_network(pre.full, load_model.clock)
        config = CampaignConfig(update_bytes=5e8, window_days=3)
        # The old behaviour: each visited cell's mask synthesized on its own.
        per_cell = BusySchedule(
            {cid: load_model.busy_bins(cid) for cid in pre.truncated.cell_ids()}
        )
        expected = CampaignSimulator(pre.truncated, per_cell, days).run(
            NaivePolicy(), config
        )
        assert expected.busy_byte_fraction > 0

        def no_per_cell_series(*args, **kwargs):
            raise AssertionError("busy mask synthesized cell by cell")

        monkeypatch.setattr(load_model, "busy_bins", no_per_cell_series)
        schedule = BusySchedule.from_load_model(load_model)
        simulator = CampaignSimulator(pre.truncated, schedule, days)
        assert schedule._table is not None
        got = simulator.run(NaivePolicy(), config)
        assert got == expected


class TestBusyExposure:
    def test_all_time_busy(self):
        sched = schedule_with({1: [True, True]})
        batch = CDRBatch([rec(0, 2 * BIN_SECONDS)])
        exposure = busy_exposure(batch, sched)
        assert exposure.busy_share[0] == pytest.approx(1.0)
        assert exposure.fraction_all_busy() == 1.0

    def test_no_time_busy(self):
        sched = schedule_with({1: [False, False]})
        batch = CDRBatch([rec(0, 2 * BIN_SECONDS)])
        exposure = busy_exposure(batch, sched)
        assert exposure.busy_share[0] == 0.0
        assert exposure.nonbusy_share[0] == pytest.approx(1.0)

    def test_split_across_bins(self):
        # Busy in bin 0 only; record covers bins 0 and 1 equally.
        sched = schedule_with({1: [True, False]})
        batch = CDRBatch([rec(0, 2 * BIN_SECONDS)])
        exposure = busy_exposure(batch, sched)
        assert exposure.busy_share[0] == pytest.approx(0.5)

    def test_partial_bin_overlap_weighted_by_seconds(self):
        # Record covers 300 s of busy bin 0 and 600 s of quiet bin 1.
        sched = schedule_with({1: [True, False]})
        batch = CDRBatch([rec(600.0, 900.0)])
        exposure = busy_exposure(batch, sched)
        assert exposure.busy_share[0] == pytest.approx(300.0 / 900.0)

    def test_multiple_cars(self):
        sched = schedule_with({1: [True], 2: [False]})
        batch = CDRBatch(
            [rec(0, 100.0, car="a", cell=1), rec(0, 100.0, car="b", cell=2)]
        )
        exposure = busy_exposure(batch, sched)
        shares = dict(zip(exposure.car_ids, exposure.busy_share))
        assert shares["a"] == pytest.approx(1.0)
        assert shares["b"] == 0.0

    def test_fraction_above(self):
        sched = schedule_with({1: [True], 2: [False]})
        batch = CDRBatch(
            [rec(0, 100.0, car="a", cell=1), rec(0, 100.0, car="b", cell=2)]
        )
        exposure = busy_exposure(batch, sched)
        assert exposure.fraction_above(0.5) == pytest.approx(0.5)

    def test_share_distribution_sums_to_one(self):
        sched = schedule_with({1: [True], 2: [False]})
        batch = CDRBatch(
            [rec(0, 50.0, car=f"car-{i}", cell=1 + i % 2) for i in range(10)]
        )
        exposure = busy_exposure(batch, sched)
        dist = exposure.share_distribution()
        assert dist.sum() == pytest.approx(1.0)
        assert dist.shape == (10,)

    def test_empty_batch(self):
        exposure = busy_exposure(CDRBatch([]), schedule_with({}))
        assert exposure.fraction_above(0.5) == 0.0
        assert exposure.fraction_all_busy() == 0.0

    def test_unknown_cell_counts_as_nonbusy(self):
        sched = schedule_with({})
        batch = CDRBatch([rec(0, 100.0, cell=42)])
        exposure = busy_exposure(batch, sched)
        assert exposure.busy_share[0] == 0.0


class TestFig7bZoom:
    def test_distribution_above_floor(self):
        exposure = BusyExposure(
            car_ids=["a", "b", "c", "d"],
            busy_share=np.asarray([0.55, 0.65, 0.95, 0.1]),
            nonbusy_share=np.asarray([0.45, 0.35, 0.05, 0.9]),
        )
        zoom = exposure.share_distribution_above(0.5)
        assert zoom.shape == (5,)
        assert zoom.sum() == pytest.approx(1.0)
        assert zoom[0] == pytest.approx(1 / 3)  # 0.55 in [0.5, 0.6)
        assert zoom[4] == pytest.approx(1 / 3)  # 0.95 in [0.9, 1.0]

    def test_empty_tail_all_zero(self):
        exposure = BusyExposure(
            car_ids=["a"],
            busy_share=np.asarray([0.1]),
            nonbusy_share=np.asarray([0.9]),
        )
        assert exposure.share_distribution_above(0.5).sum() == 0.0

    def test_floor_validated(self):
        exposure = BusyExposure(
            car_ids=[], busy_share=np.zeros(0), nonbusy_share=np.zeros(0)
        )
        with pytest.raises(ValueError):
            exposure.share_distribution_above(1.0)
