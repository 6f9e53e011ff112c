"""Tests for scenario presets and fleet growth."""

import pytest

from repro.core.preprocess import preprocess
from repro.core.presence import daily_presence
from repro.simulate.generator import TraceGenerator
from repro.simulate.scenarios import (
    SCENARIOS,
    dense_urban_scenario,
    fleet_growth_scenario,
    rural_sprawl_scenario,
    scenario,
    smoke_scenario,
)


class TestScenarioLookup:
    def test_all_registered_scenarios_build(self):
        for name in SCENARIOS:
            cfg = scenario(name, n_cars=10, n_days=7)
            assert cfg.n_cars == 10
            assert cfg.clock.n_days == 7

    def test_unknown_scenario_lists_options(self):
        with pytest.raises(KeyError, match="dense-urban"):
            scenario("nope")

    def test_region_consistency(self):
        for name in SCENARIOS:
            cfg = scenario(name, n_cars=5, n_days=7)
            assert cfg.topology.width_km == cfg.roads.width_km
            assert cfg.topology.height_km == cfg.roads.height_km


class TestScenarioShapes:
    def test_dense_urban_smaller_than_sprawl(self):
        dense = dense_urban_scenario(n_cars=5, n_days=7)
        sprawl = rural_sprawl_scenario(n_cars=5, n_days=7)
        assert dense.topology.width_km < sprawl.topology.width_km
        assert dense.roads.street_speed_kmh < sprawl.roads.street_speed_kmh

    def test_smoke_scenario_generates_quickly(self):
        ds = TraceGenerator(smoke_scenario()).generate()
        assert ds.n_records > 100

    def test_one_day_study_generates(self):
        # With 3 cars one is RARE; its driving days must fit a 1-day study.
        ds = TraceGenerator(smoke_scenario(n_cars=3, n_days=1)).generate()
        assert ds.n_records > 0


class TestFleetGrowth:
    def test_growth_produces_positive_trend(self):
        cfg = fleet_growth_scenario(n_cars=80, n_days=28)
        ds = TraceGenerator(cfg).generate()
        pre = preprocess(ds.batch)
        presence = daily_presence(pre.full, ds.clock)
        no_growth = TraceGenerator(
            smoke_scenario(n_cars=80, n_days=28)
        ).generate()
        base = daily_presence(preprocess(no_growth.batch).full, no_growth.clock)
        assert presence.car_trend.slope > base.car_trend.slope
        assert presence.car_trend.slope > 0.001

    def test_late_cars_absent_early(self):
        cfg = fleet_growth_scenario(n_cars=60, n_days=28)
        ds = TraceGenerator(cfg).generate()
        late = [c for c in ds.cars if c.itinerary.activation_day >= 14]
        assert late  # the 25% growth share must include late activations
        by_car = ds.batch.by_car()
        for car in late:
            records = by_car.get(car.car_id, [])
            assert all(
                r.start >= car.itinerary.activation_day * 86400 for r in records
            )
