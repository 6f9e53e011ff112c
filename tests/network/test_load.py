"""Unit tests for the PRB utilization model."""

import numpy as np
import pytest

from repro.algorithms.timebins import (
    BIN_SECONDS,
    BINS_PER_DAY,
    BINS_PER_WEEK,
    DAY,
    StudyClock,
)
from repro.core import busy
from repro.core.busy import BusySchedule
from repro.network.load import (
    CellLoadModel,
    LoadProfile,
    bin_of_hour,
    expected_peak_hours,
    weekday_shape,
    weekend_shape,
)


class TestShapes:
    def test_shapes_normalized(self):
        for shape in (weekday_shape(), weekend_shape()):
            assert shape.shape == (BINS_PER_DAY,)
            assert shape.max() == pytest.approx(1.0)
            assert shape.min() >= 0

    def test_weekday_evening_peak(self):
        shape = weekday_shape()
        evening = shape[int(18 * 4) : int(22 * 4)].mean()
        overnight = shape[int(2 * 4) : int(5 * 4)].mean()
        assert evening > 2 * overnight

    def test_weekday_morning_bump(self):
        shape = weekday_shape()
        assert shape[8 * 4] > shape[5 * 4]


class TestLoadProfile:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            LoadProfile(floor=0.9, ceiling=0.5, hot=False)
        with pytest.raises(ValueError):
            LoadProfile(floor=-0.1, ceiling=0.5, hot=False)


class TestCellLoadModel:
    def test_every_cell_has_profile(self, topology, load_model):
        for cell_id in topology.cells:
            prof = load_model.profile(cell_id)
            assert 0 <= prof.floor <= prof.ceiling <= 1

    def test_weekly_template_shape(self, load_model, topology):
        cid = next(iter(topology.cells))
        template = load_model.weekly_template(cid)
        assert template.shape == (BINS_PER_WEEK,)
        assert (template >= 0).all() and (template <= 1).all()

    def test_day_series_bounds(self, load_model, topology):
        cid = next(iter(topology.cells))
        series = load_model.day_series(cid, 0)
        assert series.shape == (BINS_PER_DAY,)
        assert (series >= 0.01).all() and (series <= 1.0).all()

    def test_deterministic(self, topology, clock):
        m1 = CellLoadModel(topology, clock, seed=5)
        m2 = CellLoadModel(topology, clock, seed=5)
        cid = next(iter(topology.cells))
        assert np.array_equal(m1.day_series(cid, 3), m2.day_series(cid, 3))

    def test_different_seed_differs(self, topology, clock, load_model):
        other = CellLoadModel(topology, clock, seed=6)
        cid = next(iter(topology.cells))
        assert not np.array_equal(
            other.day_series(cid, 3), load_model.day_series(cid, 3)
        )

    def test_utilization_matches_series(self, load_model, topology):
        cid = next(iter(topology.cells))
        t = 2 * DAY + 5 * BIN_SECONDS + 17.0
        assert load_model.utilization(cid, t) == pytest.approx(
            load_model.day_series(cid, 2)[5]
        )

    def test_series_length(self, load_model, topology, clock):
        cid = next(iter(topology.cells))
        assert load_model.series(cid).shape == (clock.n_days * BINS_PER_DAY,)
        assert load_model.series(cid, n_days=2).shape == (2 * BINS_PER_DAY,)

    def test_hot_cells_exist_and_are_busier(self, load_model, topology):
        hot = [c for c in topology.cells if load_model.profile(c).hot]
        cold = [c for c in topology.cells if not load_model.profile(c).hot]
        assert hot and cold
        hot_mean = np.mean([load_model.mean_weekly_utilization(c) for c in hot])
        cold_mean = np.mean([load_model.mean_weekly_utilization(c) for c in cold])
        assert hot_mean > cold_mean + 0.2

    def test_hotness_is_per_site(self, load_model, topology):
        for site in topology.sites:
            flags = {load_model.profile(c.cell_id).hot for c in site.cells}
            assert len(flags) == 1

    def test_busy_cell_ids_threshold(self, load_model):
        busy = load_model.busy_cell_ids(0.70)
        assert busy
        for cid in busy:
            assert load_model.mean_weekly_utilization(cid) >= 0.70

    def test_busy_bins_mask(self, load_model, topology, clock):
        cid = load_model.busy_cell_ids(0.70)[0]
        mask = load_model.busy_bins(cid, threshold=0.80)
        assert mask.dtype == bool
        assert mask.shape == (clock.n_days * BINS_PER_DAY,)
        assert mask.any()

    def test_weekend_profile_differs(self, load_model, topology):
        cid = next(iter(topology.cells))
        template = load_model.weekly_template(cid)
        monday = template[:BINS_PER_DAY]
        saturday = template[5 * BINS_PER_DAY : 6 * BINS_PER_DAY]
        assert not np.allclose(monday, saturday)


def _day_by_day(model, cells, n_days):
    """The stream-by-stream definition the block path must reproduce."""
    return np.stack(
        [np.concatenate([model.day_series(c, d) for d in range(n_days)]) for c in cells]
    )


class TestSeriesBlock:
    """``series_block`` is bit-identical to ``day_series`` stream by stream."""

    @pytest.mark.parametrize("seed", [0, 11, 40000, 10**15])
    def test_load_seeds(self, topology, seed):
        # 40000 gives two-word stream seeds, 10**15 three-word ones.
        model = CellLoadModel(topology, StudyClock(n_days=3), seed=seed)
        cells = sorted(topology.cells)[::97]
        got = model.series_block(cells)
        assert got.shape == (len(cells), 3 * BINS_PER_DAY)
        assert got.tobytes() == _day_by_day(model, cells, 3).tobytes()

    @pytest.mark.parametrize("start_weekday", range(7))
    def test_start_weekdays(self, topology, start_weekday):
        clock = StudyClock(start_weekday=start_weekday, n_days=7)
        model = CellLoadModel(topology, clock, seed=11)
        cells = sorted(topology.cells)[::331]
        assert (
            model.series_block(cells).tobytes()
            == _day_by_day(model, cells, 7).tobytes()
        )

    @pytest.mark.parametrize("n_days", [1, 7, 90])
    @pytest.mark.parametrize("noise_std", [0.0, 0.03])
    def test_study_lengths_and_noise(self, topology, n_days, noise_std):
        clock = StudyClock(start_weekday=4, n_days=n_days)
        model = CellLoadModel(topology, clock, seed=5, noise_std=noise_std)
        cells = sorted(topology.cells)[:: 400 if n_days == 90 else 150]
        expected = _day_by_day(model, cells, n_days)
        assert model.series_block(cells).tobytes() == expected.tobytes()
        for row, cid in enumerate(cells):
            assert model.series(cid).tobytes() == expected[row].tobytes()
            assert np.array_equal(model.busy_bins(cid, 0.8), expected[row] > 0.8)

    def test_n_days_override(self, load_model, topology):
        cells = sorted(topology.cells)[:3]
        assert (
            load_model.series_block(cells, n_days=2).tobytes()
            == _day_by_day(load_model, cells, 2).tobytes()
        )

    def test_mask_table_grid_is_series_over_threshold(self, topology, monkeypatch):
        # A small batch budget so the grid is filled over many batches.
        monkeypatch.setattr(busy, "MASK_BATCH_BYTES", 7 * 2 * BINS_PER_DAY * 8)
        model = CellLoadModel(topology, StudyClock(start_weekday=2, n_days=2), seed=3)
        schedule = BusySchedule.from_load_model(model, threshold=0.8)
        cell_ids, lens, grid = schedule.mask_table()
        assert cell_ids.tolist() == sorted(topology.cells)
        assert (lens == 2 * BINS_PER_DAY).all()
        series = _day_by_day(model, cell_ids.tolist(), 2)
        expected = np.stack([model.series(int(c)) > 0.8 for c in cell_ids])
        assert np.array_equal(expected, series > 0.8)
        assert grid.tobytes() == expected.tobytes()
        assert np.array_equal(schedule.busy_mask(int(cell_ids[5])), expected[5])

    def test_negative_seed_raises_numpys_error(self, topology, clock):
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(-1)
        with pytest.raises(ValueError) as got:
            CellLoadModel(topology, clock, seed=-1)
        assert str(got.value) == str(expected.value)
        model = CellLoadModel(topology, clock, seed=0)
        model.seed = -1
        with pytest.raises(ValueError) as got:
            model.series_block([1])
        assert str(got.value) == str(expected.value)

    def test_rejects_negative_noise_std(self, topology, clock):
        with pytest.raises(ValueError):
            CellLoadModel(topology, clock, noise_std=-0.01)


class TestHelpers:
    def test_expected_peak_hours(self):
        hours = expected_peak_hours()
        assert hours[0] == 14 and hours[-1] == 23

    def test_bin_of_hour(self):
        assert bin_of_hour(0) == 0
        assert bin_of_hour(13.25) == 53
        with pytest.raises(ValueError):
            bin_of_hour(24)
