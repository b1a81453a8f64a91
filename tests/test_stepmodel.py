import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictseg import Segmentation, TimeSeries, ValidationError, apply_step, step_gram
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


class TestSegmentation:
    def test_mean_path_matches_apply_step(self):
        seg = Segmentation(change_points=(2, 5), means=(2.0, 0.0, 3.0))
        path = apply_step([1, 3, 6], [2.0, -2.0, 3.0], 6)
        np.testing.assert_allclose(seg.mean_path(6), path)


@st.composite
def step_vectors(draw):
    """(n, ascending 1-based positions starting at 1, nonzero jumps)."""
    n = draw(st.integers(min_value=2, max_value=40))
    extra = draw(st.lists(st.integers(min_value=2, max_value=n), unique=True,
                          max_size=6))
    value = st.one_of(
        st.integers(min_value=-6, max_value=6).filter(lambda v: v != 0).map(float),
        st.floats(min_value=-10, max_value=10, allow_nan=False,
                  allow_infinity=False).filter(lambda v: abs(v) > 1e-6),
    )
    positions = [1] + sorted(extra)
    return n, positions, [draw(value) for _ in positions]


class TestRoundTrip:
    @given(step_vectors())
    @settings(max_examples=100, deadline=None)
    def test_step_path_jumps_exactly_at_positions(self, case):
        n, positions, values = case
        path = apply_step(positions, values, n)
        jumps = {int(t) + 1 for t in np.flatnonzero(np.diff(path)) + 1}
        assert jumps == set(positions[1:])


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
