"""Batch-seeded normal streams against one ``default_rng`` per stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.seeding import standard_normal_runs


def _oracle(bases, count, size):
    return np.array(
        [
            [np.random.default_rng(b + j).standard_normal(size) for j in range(count)]
            for b in bases
        ]
    ).reshape(len(bases), count, size)


def _runs(bases, count, size):
    out = np.empty((len(bases), count, size))
    standard_normal_runs(bases, out)
    return out


#: Seeds just below the word-width boundaries of SeedSequence's input and
#: of the vectorized pool (2**128), where runs cross from one width to the
#: next or leave the pool.
_EDGES = [0, 2**32, 2**64, 2**96, 2**128]


class TestStandardNormalRuns:
    def test_one_batch_mixes_seed_widths(self):
        bases = [3, 2**32 - 2, 2**40 + 1, 2**64 - 1, 2**127, 2**128 - 2, 2**130]
        got = _runs(bases, 4, 96)
        assert got.tobytes() == _oracle(bases, 4, 96).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.builds(
                lambda edge, delta: max(0, edge + delta),
                st.sampled_from(_EDGES),
                st.integers(-6, 6),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(1, 5),
        st.integers(1, 9),
    )
    def test_matches_default_rng_near_width_edges(self, bases, count, size):
        got = _runs(bases, count, size)
        assert got.tobytes() == _oracle(bases, count, size).tobytes()

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(-1)
        with pytest.raises(ValueError) as got:
            _runs([5, -3], 2, 4)
        assert str(got.value) == str(expected.value)

    def test_empty_runs_are_a_no_op(self):
        assert _runs([], 3, 4).shape == (0, 3, 4)
        assert _runs([1, 2], 0, 4).shape == (2, 0, 4)

    def test_rejects_mismatched_or_strided_out(self):
        with pytest.raises(ValueError):
            standard_normal_runs([1, 2], np.empty((3, 1, 4)))
        with pytest.raises(ValueError):
            standard_normal_runs([1], np.empty((1, 2, 8))[:, :, ::2])
