"""Bit-exact parity between the fused engine and the reference loops.

The fused engine promises *identical* outputs, not merely close ones: a
single pass over shared per-chunk intermediates must reproduce every
record-based reference bit for bit — at any chunk size, across pickled
cross-shard partials, and at any map-reduce worker count.  These tests hold
that promise on hand-built adversarial batches (overlapping records,
bin/day boundary straddling, ghosts, unknown cells, empty carriers,
single-record cars), on random hypothesis batches with random chunk sizes,
for a whole :class:`AnalysisPipeline` report, and end to end over sharded
``.cdrz`` stores.
"""

from __future__ import annotations

import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.timebins import BIN_SECONDS, DAY, StudyClock
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.cdr.store import write_sharded_cdrz
from repro.core.busy import BusySchedule, busy_exposure
from repro.core.carriers import carrier_usage
from repro.core.connect_time import connect_time_analysis
from repro.core.fused import (
    ChunkIntermediates,
    FusedEngine,
    busy_exposure_fused,
    carrier_usage_fused,
    connect_time_analysis_fused,
    daily_presence_fused,
    days_on_network_fused,
    finalize_fused,
    handover_analysis_fused,
)
from repro.core.handover import handover_analysis
from repro.core.mapreduce import analyze_shards, analyze_shards_fused
from repro.core.pipeline import AnalysisPipeline
from repro.core.preprocess import preprocess
from repro.core.presence import daily_presence
from repro.core.segmentation import days_on_network, segment_cars
from repro.core.streaming import StreamingAnalyzer
from repro.network.cells import CARRIERS, Cell
from repro.network.geometry import Point

CLOCK = StudyClock(start_weekday=0, n_days=7)

#: A small cell directory: two sectors on one base station plus a second
#: site, mixing carriers so every handover type is reachable.
CELLS = {
    1: Cell(1, base_station_id=10, sector_index=0, carrier=CARRIERS["C3"],
            location=Point(0.0, 0.0), azimuth_deg=0.0),
    2: Cell(2, base_station_id=10, sector_index=0, carrier=CARRIERS["C4"],
            location=Point(0.0, 0.0), azimuth_deg=0.0),
    3: Cell(3, base_station_id=10, sector_index=1, carrier=CARRIERS["C3"],
            location=Point(0.0, 0.0), azimuth_deg=120.0),
    4: Cell(4, base_station_id=20, sector_index=0, carrier=CARRIERS["C1"],
            location=Point(1.0, 1.0), azimuth_deg=0.0),
}


def rec(start, car="car-a", cell=1, carrier="C3", tech="4G", dur=60.0):
    return ConnectionRecord(
        start=float(start), car_id=car, cell_id=cell,
        carrier=carrier, technology=tech, duration=float(dur),
    )


def schedule_for(cell_ids, n_bins=None, period=3):
    """Deterministic busy masks: cell ``c`` is busy in bins where
    ``(bin + c) % period == 0``.  Cells outside ``cell_ids`` stay unknown."""
    n_bins = n_bins or CLOCK.n_days * DAY // BIN_SECONDS
    bins = np.arange(n_bins)
    return BusySchedule.from_series(
        {c: np.where((bins + c) % period == 0, 0.9, 0.1) for c in cell_ids}
    )


def chunked(col, size):
    for lo in range(0, len(col), size):
        yield col.rows(lo, min(lo + size, len(col)))


def assert_report_matches(report, pre, schedule, cells):
    """One fused report against every record-based reference, bit for bit
    (busy-exposure shares too: a single engine never splits a car's rows
    across partials, so even those reduce exactly)."""
    ref_p = daily_presence(pre.full, CLOCK)
    assert report.presence.n_cars_total == ref_p.n_cars_total
    assert report.presence.n_cells_total == ref_p.n_cells_total
    assert np.array_equal(report.presence.car_fraction, ref_p.car_fraction)
    assert np.array_equal(report.presence.cell_fraction, ref_p.cell_fraction)

    ref_d = days_on_network(pre.full, CLOCK)
    assert report.days == ref_d
    assert report.carriers == carrier_usage(pre.full)

    ref_c = connect_time_analysis(pre, CLOCK)
    assert report.connect_time.car_ids == ref_c.car_ids
    assert np.array_equal(report.connect_time.full_share, ref_c.full_share)
    assert np.array_equal(
        report.connect_time.truncated_share, ref_c.truncated_share
    )

    ref_b = busy_exposure(pre.truncated, schedule)
    assert report.exposure is not None
    assert report.exposure.car_ids == ref_b.car_ids
    assert np.array_equal(report.exposure.busy_share, ref_b.busy_share)
    assert np.array_equal(report.exposure.nonbusy_share, ref_b.nonbusy_share)
    assert report.segmentation == segment_cars(ref_d, ref_b)

    ref_h = handover_analysis(pre, cells)
    assert report.handovers is not None
    assert np.array_equal(report.handovers.per_session, ref_h.per_session)
    assert report.handovers.type_counts == ref_h.type_counts

    assert report.n_ghosts == pre.n_dropped_ghosts


def assert_fused_matches_reference(batch, schedule, cells):
    """Wrappers, whole-batch engine and chunked engines vs the references."""
    pre = preprocess(batch)
    if len(pre.full) == 0:
        return
    full_col = pre.full.columnar()

    ref_p = daily_presence(pre.full, CLOCK)
    fus_p = daily_presence_fused(full_col, CLOCK)
    assert fus_p.n_cars_total == ref_p.n_cars_total
    assert fus_p.n_cells_total == ref_p.n_cells_total
    assert np.array_equal(fus_p.car_fraction, ref_p.car_fraction)
    assert np.array_equal(fus_p.cell_fraction, ref_p.cell_fraction)

    assert days_on_network_fused(full_col, CLOCK) == days_on_network(
        pre.full, CLOCK
    )
    assert carrier_usage_fused(full_col) == carrier_usage(pre.full)

    ref_b = busy_exposure(pre.truncated, schedule)
    fus_b = busy_exposure_fused(full_col, schedule)
    assert fus_b.car_ids == ref_b.car_ids
    assert np.array_equal(fus_b.busy_share, ref_b.busy_share)
    assert np.array_equal(fus_b.nonbusy_share, ref_b.nonbusy_share)

    ref_c = connect_time_analysis(pre, CLOCK)
    fus_c = connect_time_analysis_fused(pre, CLOCK)
    assert fus_c.car_ids == ref_c.car_ids
    assert np.array_equal(fus_c.full_share, ref_c.full_share)
    assert np.array_equal(fus_c.truncated_share, ref_c.truncated_share)

    ref_h = handover_analysis(pre, cells)
    fus_h = handover_analysis_fused(pre, cells)
    assert np.array_equal(fus_h.per_session, ref_h.per_session)
    assert fus_h.type_counts == ref_h.type_counts

    # The engine consumes *raw* chunks (ghost cleaning happens inside the
    # shared intermediates), so chunking must slice the unpreprocessed view.
    raw = batch.columnar()
    for size in (1, 7, len(raw)):
        engine = FusedEngine(CLOCK, schedule=schedule, cells=cells)
        for chunk in chunked(raw, size):
            engine.consume(chunk)
        assert_report_matches(engine.finalize(), pre, schedule, cells)


class TestAdversarialBatches:
    def test_overlapping_records_one_car(self):
        batch = CDRBatch([
            rec(1000.0, dur=500.0),
            rec(1000.0, dur=200.0, cell=2, carrier="C4"),
            rec(1100.0, dur=50.0, cell=3),
            rec(1400.0, dur=300.0, cell=4, carrier="C1"),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2, 3, 4]), CELLS)

    def test_bin_day_boundaries_ghosts_and_zero_durations(self):
        batch = CDRBatch([
            rec(BIN_SECONDS - 100.0, dur=100.0),
            rec(2 * BIN_SECONDS, dur=0.0, cell=2, carrier="C4"),
            rec(DAY - 650.0, car="car-b", cell=3, dur=1300.0),
            # Exact ghost: must vanish inside the intermediates.
            rec(2 * DAY, car="car-b", cell=1, dur=3600.0),
            rec(3 * DAY + 1.0, car="car-b", cell=4, carrier="C1", dur=3599.0),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2, 3, 4]), CELLS)

    def test_unknown_cells_and_short_sessions(self):
        batch = CDRBatch([
            rec(100.0, cell=77, dur=950.0),
            rec(1100.0, cell=1, dur=100.0),
            rec(1250.0, cell=88, dur=40.0),
            rec(1300.0, cell=2, carrier="C4", dur=100.0),
            rec(9000.0, car="car-b", cell=99, dur=10.0),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2]), CELLS)

    def test_records_outside_study_window(self):
        batch = CDRBatch([
            rec(100.0),
            rec(CLOCK.n_days * DAY + 5.0, car="car-b", cell=2, carrier="C4"),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2]), CELLS)

    def test_all_ghost_chunk_between_real_chunks(self):
        # A middle chunk that cleans down to zero rows must be a no-op.
        batch = CDRBatch([
            rec(100.0, dur=50.0),
            rec(5000.0, car="car-b", cell=2, carrier="C4", dur=3600.0),
            rec(9000.0, car="car-b", cell=3, dur=70.0),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2, 3]), CELLS)

    def test_all_cells_unknown(self):
        batch = CDRBatch([rec(100.0, cell=99), rec(300.0, cell=98, car="car-b")])
        assert_fused_matches_reference(batch, schedule_for([]), CELLS)

    def test_empty_carriers_report_zero(self):
        batch = CDRBatch([
            rec(100.0, carrier="C2", tech="3G"),
            rec(400.0, carrier="C2", tech="3G"),
        ])
        pre = preprocess(batch)
        usage = carrier_usage_fused(pre.full.columnar())
        assert usage == carrier_usage(pre.full)
        for c in ("C1", "C3", "C4", "C5"):
            assert usage.cars_fraction[c] == 0.0
            assert usage.time_fraction[c] == 0.0
        assert_fused_matches_reference(batch, schedule_for([1]), CELLS)

    def test_single_record_cars(self):
        batch = CDRBatch([
            rec(100.0, car=f"car-{i}", cell=1 + i % 4, dur=10.0 * i + 1.0)
            for i in range(5)
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2, 3, 4]), CELLS)

    def test_session_below_min_records_with_unknown_cells(self):
        # A two-record session with one known cell is skipped by the
        # min-records rule; a one-record session is kept (count 0).
        batch = CDRBatch([
            rec(100.0, cell=1, dur=50.0),
            rec(200.0, cell=99, dur=50.0),
            rec(5000.0, cell=2, carrier="C4", dur=50.0),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2]), CELLS)

    def test_engine_rejects_vocabulary_change(self):
        a = CDRBatch([rec(100.0)]).columnar()
        b = CDRBatch([rec(200.0, car="car-z")]).columnar()
        engine = FusedEngine(CLOCK)
        engine.consume(a)
        with pytest.raises(ValueError, match="vocabulary"):
            engine.consume(b)

    def test_engine_with_no_chunks_refuses_to_finalize(self):
        with pytest.raises(ValueError, match="no chunks"):
            FusedEngine(CLOCK).finalize()


record_st = st.builds(
    ConnectionRecord,
    start=st.floats(min_value=0, max_value=7 * DAY + 500, allow_nan=False),
    car_id=st.sampled_from([f"car-{i}" for i in range(5)]),
    cell_id=st.integers(min_value=1, max_value=6),
    carrier=st.sampled_from(["C1", "C2", "C3", "C4", "C5"]),
    technology=st.sampled_from(["3G", "4G"]),
    duration=st.floats(min_value=0, max_value=2 * DAY, allow_nan=False),
)
batch_st = st.lists(record_st, min_size=1, max_size=50).map(CDRBatch)


@given(batch_st, st.integers(min_value=1, max_value=17))
@settings(max_examples=40, deadline=None)
def test_fused_agrees_on_random_batches_at_random_chunk_sizes(batch, size):
    pre = preprocess(batch)
    if len(pre.full) == 0:
        return
    schedule = schedule_for([1, 2, 3, 4])
    raw = batch.columnar()
    engine = FusedEngine(CLOCK, schedule=schedule, cells=CELLS)
    for chunk in chunked(raw, size):
        engine.consume(chunk)
    assert_report_matches(engine.finalize(), pre, schedule, CELLS)


@given(batch_st, st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_pickled_partial_folds_match_single_engine(batch, n_splits):
    """Cross-shard reduction: pickle each split's partial, absorb in order.

    Presence, days, carrier reach, connect time, handovers and the ghost
    count must fold *exactly*; busy-share tallies merge to reassociation
    precision (the documented contract), so those get ``allclose``.
    """
    pre = preprocess(batch)
    if len(pre.full) == 0:
        return
    schedule = schedule_for([1, 2, 3, 4])
    raw = batch.columnar()
    size = max(1, -(-len(raw) // n_splits))

    merged = None
    for chunk in chunked(raw, size):
        engine = FusedEngine(
            CLOCK, schedule=schedule, cells=CELLS, track_partials=True
        )
        engine.consume(chunk)
        partial = pickle.loads(pickle.dumps(engine.export_partial()))
        if merged is None:
            merged = partial
        else:
            merged.absorb_partial(partial)
    report = finalize_fused(merged, CLOCK)

    single = FusedEngine(
        CLOCK, schedule=schedule, cells=CELLS, track_partials=True
    )
    single.consume(raw)
    expected = single.finalize()

    assert np.array_equal(
        report.presence.car_fraction, expected.presence.car_fraction
    )
    assert np.array_equal(
        report.presence.cell_fraction, expected.presence.cell_fraction
    )
    assert report.presence.n_cells_total == expected.presence.n_cells_total
    assert report.days == expected.days
    assert report.carriers.cars_fraction == expected.carriers.cars_fraction
    assert report.carriers.n_cars == expected.carriers.n_cars
    np.testing.assert_allclose(
        [report.carriers.time_fraction[c] for c in report.carriers.time_fraction],
        [expected.carriers.time_fraction[c] for c in expected.carriers.time_fraction],
        rtol=1e-12,
    )
    assert report.connect_time.car_ids == expected.connect_time.car_ids
    assert np.array_equal(
        report.connect_time.full_share, expected.connect_time.full_share
    )
    assert np.array_equal(
        report.connect_time.truncated_share,
        expected.connect_time.truncated_share,
    )
    assert report.exposure is not None and expected.exposure is not None
    assert report.exposure.car_ids == expected.exposure.car_ids
    np.testing.assert_allclose(
        report.exposure.busy_share, expected.exposure.busy_share, rtol=1e-12
    )
    assert report.handovers is not None and expected.handovers is not None
    assert np.array_equal(
        report.handovers.per_session, expected.handovers.per_session
    )
    assert report.handovers.type_counts == expected.handovers.type_counts
    assert report.n_ghosts == expected.n_ghosts


def test_pipeline_engines_produce_identical_reports(dataset):
    pipeline = AnalysisPipeline(
        dataset.clock,
        load_model=dataset.load_model,
        cells=dataset.topology.cells,
    )
    assert inspect.signature(pipeline.run).parameters["engine"].default == "fused"
    ref = pipeline.run(dataset.batch, engine="reference")
    fus = pipeline.run(dataset.batch)

    assert np.array_equal(fus.presence.car_fraction, ref.presence.car_fraction)
    assert np.array_equal(fus.presence.cell_fraction, ref.presence.cell_fraction)
    assert fus.weekday_rows == ref.weekday_rows
    assert fus.connect_time.car_ids == ref.connect_time.car_ids
    assert np.array_equal(fus.connect_time.full_share, ref.connect_time.full_share)
    assert np.array_equal(
        fus.connect_time.truncated_share, ref.connect_time.truncated_share
    )
    assert fus.days == ref.days
    assert fus.exposure.car_ids == ref.exposure.car_ids
    assert np.array_equal(fus.exposure.busy_share, ref.exposure.busy_share)
    assert np.array_equal(fus.exposure.nonbusy_share, ref.exposure.nonbusy_share)
    assert fus.segmentation == ref.segmentation
    assert fus.carriers == ref.carriers
    assert fus.handovers is not None and ref.handovers is not None
    assert np.array_equal(fus.handovers.per_session, ref.handovers.per_session)
    assert fus.handovers.type_counts == ref.handovers.type_counts
    assert fus.notes == ref.notes


def test_pipeline_rejects_unknown_engine(dataset):
    pipeline = AnalysisPipeline(dataset.clock, load_model=dataset.load_model)
    for engine in ("vectorized", "turbo"):
        with pytest.raises(ValueError, match="engine"):
            pipeline.run(dataset.batch, engine=engine)


class TestStreamingIntermediates:
    def test_consume_intermediates_matches_consume_columnar(self):
        batch = CDRBatch([
            rec(100.0, dur=50.0),
            rec(500.0, car="car-b", cell=2, carrier="C4", dur=3600.0),
            rec(900.0, car="car-b", cell=3, dur=70.0),
        ])
        col = batch.columnar()
        via_columnar = StreamingAnalyzer(CLOCK)
        via_columnar.consume_columnar(col)
        a = via_columnar.finalize()
        via_inter = StreamingAnalyzer(CLOCK)
        via_inter.consume_intermediates(
            ChunkIntermediates(col, CLOCK, via_inter.truncate_s)
        )
        b = via_inter.finalize()
        assert a.n_records == b.n_records
        assert a.n_ghosts_dropped == b.n_ghosts_dropped
        assert a.duration_mean_full == b.duration_mean_full
        assert a.mean_connect_share_truncated == b.mean_connect_share_truncated

    def test_mismatched_clock_or_cutoff_is_rejected(self):
        col = CDRBatch([rec(100.0)]).columnar()
        analyzer = StreamingAnalyzer(CLOCK)
        with pytest.raises(ValueError, match="different clock"):
            analyzer.consume_intermediates(
                ChunkIntermediates(
                    col, StudyClock(n_days=3), analyzer.truncate_s
                )
            )
        with pytest.raises(ValueError, match="truncation cutoff"):
            analyzer.consume_intermediates(
                ChunkIntermediates(col, CLOCK, analyzer.truncate_s + 1.0)
            )


class TestFusedMapReduce:
    @pytest.fixture(scope="class")
    def sharded(self, tmp_path_factory, dataset):
        root = tmp_path_factory.mktemp("fused-shards")
        write_sharded_cdrz(root, dataset.batch.columnar(), shard_rows=701)
        return root

    @pytest.fixture(scope="class")
    def schedule(self, load_model):
        return BusySchedule.from_load_model(load_model)

    def test_worker_counts_are_bit_identical(
        self, sharded, dataset, topology, schedule, clock
    ):
        reports = {}
        for workers in (1, 2, 4):
            report, stats = analyze_shards_fused(
                sharded,
                clock,
                schedule=schedule,
                cells=topology.cells,
                workers=workers,
            )
            assert stats.workers == min(workers, stats.n_shards)
            reports[workers] = report
        base = reports[1]
        for workers in (2, 4):
            other = reports[workers]
            assert np.array_equal(
                other.presence.car_fraction, base.presence.car_fraction
            )
            assert other.days == base.days
            assert np.array_equal(
                other.connect_time.full_share, base.connect_time.full_share
            )
            assert np.array_equal(
                other.exposure.busy_share, base.exposure.busy_share
            )
            assert np.array_equal(
                other.handovers.per_session, base.handovers.per_session
            )
            assert other.handovers.type_counts == base.handovers.type_counts
            assert other.carriers == base.carriers

    def test_matches_in_memory_references(
        self, sharded, dataset, topology, schedule, clock
    ):
        report, stats = analyze_shards_fused(
            sharded, clock, schedule=schedule, cells=topology.cells, workers=2
        )
        pre = preprocess(dataset.batch)
        assert stats.n_records == len(pre.full)
        assert stats.n_ghosts_dropped == pre.n_dropped_ghosts

        ref_p = daily_presence(pre.full, clock)
        assert np.array_equal(report.presence.car_fraction, ref_p.car_fraction)
        assert np.array_equal(
            report.presence.cell_fraction, ref_p.cell_fraction
        )
        assert report.days == days_on_network(pre.full, clock)
        ref_c = connect_time_analysis(pre, clock)
        assert report.connect_time.car_ids == ref_c.car_ids
        assert np.array_equal(report.connect_time.full_share, ref_c.full_share)
        assert np.array_equal(
            report.connect_time.truncated_share, ref_c.truncated_share
        )
        ref_h = handover_analysis(pre, topology.cells)
        assert np.array_equal(
            report.handovers.per_session, ref_h.per_session
        )
        assert report.handovers.type_counts == ref_h.type_counts
        assert report.carriers.cars_fraction == carrier_usage(
            pre.full
        ).cars_fraction
        ref_b = busy_exposure(pre.truncated, schedule)
        assert report.exposure.car_ids == ref_b.car_ids
        np.testing.assert_allclose(
            report.exposure.busy_share, ref_b.busy_share, rtol=1e-12
        )

    def test_streaming_and_fused_mapreduce_agree_on_counts(
        self, sharded, clock
    ):
        # The fused fold and the streaming fold must count the same rows.
        fused_report, fused_stats = analyze_shards_fused(
            sharded, clock, workers=2
        )
        stream_result, stream_stats = analyze_shards(sharded, clock, workers=2)
        assert fused_stats.n_records == stream_result.n_records
        assert fused_stats.n_ghosts_dropped == stream_result.n_ghosts_dropped
        assert fused_stats.n_shards == stream_stats.n_shards
        assert fused_report.exposure is None
        assert fused_report.handovers is None

    def test_map_shard_fused_agrees_with_streaming_map_shard(
        self, sharded, clock
    ):
        # Per-shard parity: the fused mapper and the streaming mapper must
        # see the same rows and drop the same ghosts from identical bytes.
        from repro.cdr.store import resolve_shards
        from repro.core.mapreduce import (
            FusedMapSpec,
            MapSpec,
            map_shard,
            map_shard_fused,
        )
        from repro.core.preprocess import PreprocessConfig

        shards = tuple(resolve_shards(sharded))
        fused_spec = FusedMapSpec(
            shards=shards,
            clock=clock,
            config=PreprocessConfig(),
            schedule=None,
            cells=None,
            min_records=2,
            chunk_rows=256,
        )
        stream_spec = MapSpec(
            shards=shards,
            clock=clock,
            truncate_s=600.0,
            hll_precision=12,
            quantile_bin_s=1.0,
            chunk_rows=256,
        )
        for index in range(len(shards)):
            fused = map_shard_fused(fused_spec, index)
            stream = map_shard(stream_spec, index)
            assert fused is not None
            assert fused.n_records == stream.n_records
            assert fused.n_ghosts == stream.n_ghosts

    def test_map_shards_fused_partial_sweeps_fold_to_full_report(
        self, sharded, clock
    ):
        # Parity for the partial-sweep API: mapping disjoint index subsets
        # with map_shards_fused and folding must reproduce the one-sweep
        # analyze_shards_fused report bit for bit.
        from repro.cdr.store import resolve_shards
        from repro.core.fused import finalize_fused, fold_fused_partials
        from repro.core.mapreduce import FusedMapSpec, map_shards_fused
        from repro.core.preprocess import PreprocessConfig

        shards = tuple(resolve_shards(sharded))
        spec = FusedMapSpec(
            shards=shards,
            clock=clock,
            config=PreprocessConfig(),
            schedule=None,
            cells=None,
            min_records=2,
            chunk_rows=256,
        )
        halfway = len(shards) // 2
        first = map_shards_fused(
            spec, indices=list(range(halfway)), workers=1
        )
        second = map_shards_fused(
            spec, indices=list(range(halfway, len(shards))), workers=1
        )
        partials = [
            partial
            for _, partial in sorted((first | second).items())
            if partial is not None
        ]
        report = finalize_fused(fold_fused_partials(partials), clock)
        reference, _ = analyze_shards_fused(
            sharded, clock, min_records=2, chunk_rows=256, workers=1
        )
        assert np.array_equal(
            report.presence.car_fraction, reference.presence.car_fraction
        )
        assert np.array_equal(
            report.presence.cell_fraction, reference.presence.cell_fraction
        )
        assert report.days == reference.days
        assert report.connect_time.car_ids == reference.connect_time.car_ids
        assert np.array_equal(
            report.connect_time.full_share, reference.connect_time.full_share
        )
        assert np.array_equal(
            report.connect_time.truncated_share,
            reference.connect_time.truncated_share,
        )
        assert report.carriers.cars_fraction == reference.carriers.cars_fraction
        assert report.carriers.time_fraction == reference.carriers.time_fraction
        assert report.n_ghosts == reference.n_ghosts

    def test_empty_source_is_rejected(self, tmp_path, clock, dataset):
        empty = dataset.batch.columnar().rows(0, 0)
        write_sharded_cdrz(tmp_path, empty, shard_rows=10)
        with pytest.raises(ValueError, match="shard"):
            analyze_shards_fused(tmp_path, clock, workers=1)
