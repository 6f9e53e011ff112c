"""Bit-exact parity of the vectorized per-analysis entry points.

The ``*_fused`` wrappers (``daily_presence_fused``, ``busy_exposure_fused``
and the rest) are the columnar, one-call-per-analysis API that replaced the
``*_columnar`` twins.  This module holds them, and the chunked
:class:`~repro.core.fused.FusedEngine` behind them, to the record-based
references on the adversarial batches those twins were checked against —
boundary straddling without a ghost and unknown cells in a single session
differ from the fused suite's variants — and on random hypothesis batches
through every wrapper, which the fused suite's random tests (engine and
partials only) do not call.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.algorithms.timebins import BIN_SECONDS, DAY
from repro.cdr.records import CDRBatch
from tests.core.test_fused_parity import (
    CELLS,
    CLOCK,
    assert_fused_matches_reference,
    batch_st,
    rec,
    schedule_for,
)


class TestAdversarialBatches:
    def test_overlapping_records_one_car(self):
        # Parallel bearers: identical starts, nested and staggered overlaps.
        batch = CDRBatch([
            rec(1000.0, dur=500.0),
            rec(1000.0, dur=200.0, cell=2, carrier="C4"),
            rec(1100.0, dur=50.0, cell=3),
            rec(1400.0, dur=300.0, cell=4, carrier="C1"),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2, 3, 4]), CELLS)

    def test_bin_and_day_boundary_straddling(self):
        batch = CDRBatch([
            # Ends exactly on a bin boundary: last bin must not be counted.
            rec(BIN_SECONDS - 100.0, dur=100.0),
            # Zero-duration record sitting exactly on a bin boundary.
            rec(2 * BIN_SECONDS, dur=0.0, cell=2, carrier="C4"),
            # Straddles several bins and a midnight boundary.
            rec(DAY - 650.0, car="car-b", cell=3, dur=1300.0),
            # Whole-day record (ghost rule removes exactly 3600 s, not this).
            rec(3 * DAY + 1.0, car="car-b", cell=4, carrier="C1", dur=3599.0),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2, 3, 4]), CELLS)

    def test_records_outside_study_window(self):
        batch = CDRBatch([
            rec(100.0),
            rec(CLOCK.n_days * DAY + 5.0, car="car-b", cell=2, carrier="C4"),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2]), CELLS)

    def test_unknown_cells_skip_busy_masks_and_handovers(self):
        # Cells 77/88 have no busy series and are missing from the
        # directory; their records stay whole (all non-busy) and are
        # ignored by handover classification.
        batch = CDRBatch([
            rec(100.0, cell=77, dur=950.0),
            rec(1100.0, cell=1, dur=100.0),
            rec(1250.0, cell=88, dur=40.0),
            rec(1300.0, cell=2, carrier="C4", dur=100.0),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2]), CELLS)


@given(batch_st)
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_random_batches(batch):
    # Cells 5 and 6 are deliberately absent from both the busy schedule and
    # the directory, so random batches also exercise the unknown-cell paths.
    assert_fused_matches_reference(batch, schedule_for([1, 2, 3, 4]), CELLS)
