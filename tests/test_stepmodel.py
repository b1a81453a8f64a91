import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictseg import (
    Segmentation,
    SparseStepVector,
    TimeSeries,
    ValidationError,
    apply_step,
    beta_to_segmentation,
    segmentation_to_beta,
    step_gram,
)
from oracles import dense_step_gram, dense_step_matrix


class TestTimeSeries:
    def test_defaults(self):
        ts = TimeSeries(values=[1.0, 2.0, 3.0])
        assert ts.n == 3
        np.testing.assert_array_equal(ts.covariate, [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            TimeSeries(values=[1.0])

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            TimeSeries(values=[1.0, np.nan])

    def test_covariate_must_increase(self):
        with pytest.raises(ValidationError):
            TimeSeries(values=[1.0, 2.0], covariate=[2.0, 1.0])


class TestBetaToSegmentation:
    def test_cumulative_sums(self):
        beta = SparseStepVector(entries={1: 2.0, 3: -2.0, 6: 3.0})
        seg = beta_to_segmentation(beta, 6)
        assert seg.change_points == (2, 5)
        assert seg.means == (2.0, 0.0, 3.0)
        assert seg.num_segments == 3

    def test_single_segment(self):
        seg = beta_to_segmentation(SparseStepVector(entries={1: 5.0}), 10)
        assert seg.change_points == ()
        assert seg.means == (5.0,)

    def test_published_particular_series(self):
        beta = SparseStepVector(entries={1: 2.0, 8: -2.0, 19: 2.0, 37: 1.0})
        seg = beta_to_segmentation(beta, 100)
        assert seg.change_points == (7, 18, 36)
        assert seg.means == (2.0, 0.0, 2.0, 3.0)

    def test_missing_first_position(self):
        with pytest.raises(ValidationError):
            SparseStepVector(entries={3: 1.0})

    def test_position_out_of_range(self):
        beta = SparseStepVector(entries={1: 1.0, 12: 1.0})
        with pytest.raises(ValidationError):
            beta_to_segmentation(beta, 10)

    def test_mean_path_matches_apply_step(self):
        beta = SparseStepVector(entries={1: 2.0, 3: -2.0, 6: 3.0})
        seg = beta_to_segmentation(beta, 6)
        path = apply_step(beta.positions(), beta.values_in_order(), 6)
        np.testing.assert_allclose(seg.mean_path(6), path)


class TestSegmentationToBeta:
    def test_inverse_of_example(self):
        seg = Segmentation(change_points=(2, 5), means=(2.0, 0.0, 3.0))
        beta = segmentation_to_beta(seg, 6)
        assert beta.entries == {1: 2.0, 3: -2.0, 6: 3.0}

    def test_zero_mean_gives_empty_vector(self):
        seg = Segmentation(change_points=(), means=(0.0,))
        assert segmentation_to_beta(seg, 4).entries == {}

    def test_published_particular_series(self):
        seg = Segmentation(change_points=(7, 18, 36), means=(2.0, 0.0, 2.0, 3.0))
        beta = segmentation_to_beta(seg, 100)
        assert beta.entries == {1: 2.0, 8: -2.0, 19: 2.0, 37: 1.0}

    def test_equal_consecutive_means_rejected(self):
        seg = Segmentation(change_points=(3,), means=(1.0, 1.0))
        with pytest.raises(ValidationError):
            segmentation_to_beta(seg, 6)


@st.composite
def sparse_vectors(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    extra = draw(st.lists(st.integers(min_value=2, max_value=n), unique=True,
                          max_size=6))
    value = st.one_of(
        st.integers(min_value=-6, max_value=6).filter(lambda v: v != 0).map(float),
        st.floats(min_value=-10, max_value=10, allow_nan=False,
                  allow_infinity=False).filter(lambda v: abs(v) > 1e-6),
    )
    entries = {1: draw(value)}
    for p in extra:
        entries[p] = draw(value)
    return SparseStepVector(entries=entries), n


class TestRoundTrip:
    @given(sparse_vectors())
    @settings(max_examples=150, deadline=None)
    def test_beta_segmentation_beta(self, case):
        beta, n = case
        seg = beta_to_segmentation(beta, n)
        back = segmentation_to_beta(seg, n)
        assert back.positions() == beta.positions()
        np.testing.assert_allclose(back.values_in_order(), beta.values_in_order(),
                                   rtol=0, atol=1e-12)

    @given(sparse_vectors())
    @settings(max_examples=100, deadline=None)
    def test_step_path_jumps_exactly_at_positions(self, case):
        beta, n = case
        path = apply_step(beta.positions(), beta.values_in_order(), n)
        jumps = {int(t) + 1 for t in np.flatnonzero(np.diff(path)) + 1}
        expected = {p for p in beta.positions() if p > 1}
        assert jumps == expected


class TestStepGram:
    def test_single_ones_column(self):
        np.testing.assert_array_equal(step_gram([1], 5), [[5.0]])

    def test_hand_counted_overlap(self):
        np.testing.assert_array_equal(step_gram([1, 3], 4), [[4.0, 2.0], [2.0, 2.0]])

    def test_published_positions_against_dense(self):
        positions = (1, 8, 19, 37)
        gram = step_gram(positions, 100)
        np.testing.assert_array_equal(np.diag(gram), [100.0, 93.0, 82.0, 64.0])
        np.testing.assert_allclose(gram, dense_step_gram(positions, 100))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValidationError):
            step_gram([1, 4, 4], 10)

    def test_random_sweep_matches_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(1, min(6, n) + 1))
            positions = np.sort(rng.choice(np.arange(1, n + 1), size=d, replace=False))
            np.testing.assert_allclose(step_gram(positions, n),
                                       dense_step_gram(positions, n), atol=1e-12)

    def test_positive_definite(self):
        gram = step_gram([1, 8, 19, 37], 100)
        assert np.all(np.linalg.eigvalsh(gram) > 0)


class TestStepProducts:
    def test_apply_matches_dense(self):
        rng = np.random.default_rng(3)
        n = 30
        positions = [1, 4, 11, 29]
        values = rng.normal(size=4)
        dense = dense_step_matrix(n)[:, np.array(positions) - 1] @ values
        np.testing.assert_allclose(apply_step(positions, values, n), dense)
