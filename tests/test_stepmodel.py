import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictseg import (
    MODE_P,
    GibbsSampler,
    Hyperparameters,
    PosteriorContext,
    Segmentation,
    TimeSeries,
    ValidationError,
)
from conftest import make_state
from oracles import dense_step_gram, dense_step_matrix


def step_sampler(positions, n, seed=0):
    """The coefficient-stage reference sampler of a mode-p model with
    the given 1-based step positions, on a random series of length n."""
    series = TimeSeries(values=np.random.default_rng(seed).normal(size=n))
    ctx = PosteriorContext(series, Hyperparameters.flat(n, None), None, MODE_P)
    return GibbsSampler(ctx, make_state(positions, n))


def segmentation_of(positions, jumps) -> Segmentation:
    """The segmentation whose step coefficients are ``jumps`` at the
    1-based ``positions`` (the first of them 1)."""
    return Segmentation(tuple(p - 1 for p in positions[1:]), tuple(np.cumsum(jumps)))


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
    def test_mean_path_matches_dense_step_matrix(self):
        seg = Segmentation(change_points=(2, 5), means=(2.0, 0.0, 3.0))
        path = dense_step_matrix(6)[:, [0, 2, 5]] @ [2.0, -2.0, 3.0]
        np.testing.assert_array_equal(seg.mean_path(6), path)


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
        path = segmentation_of(positions, values).mean_path(n)
        np.testing.assert_allclose(
            path, dense_step_matrix(n)[:, np.array(positions) - 1] @ values, atol=1e-12)
        jumps = {int(t) + 1 for t in np.flatnonzero(np.diff(path)) + 1}
        assert jumps == set(positions[1:])


class TestStepGram:
    """``GibbsSampler.gram``, the closed-form Gram matrix of the selected
    step columns."""

    def test_single_ones_column(self):
        np.testing.assert_array_equal(step_sampler([1], 5).gram, [[5.0]])

    def test_hand_counted_overlap(self):
        np.testing.assert_array_equal(step_sampler([1, 3], 4).gram,
                                      [[4.0, 2.0], [2.0, 2.0]])

    def test_published_positions_against_dense(self):
        positions = (1, 8, 19, 37)
        gram = step_sampler(positions, 100).gram
        np.testing.assert_array_equal(np.diag(gram), [100.0, 93.0, 82.0, 64.0])
        np.testing.assert_allclose(gram, dense_step_gram(positions, 100))

    def test_random_sweep_matches_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(1, min(6, n) + 1))
            positions = np.r_[1, np.sort(rng.choice(np.arange(2, n + 1), size=d - 1,
                                                    replace=False))]
            np.testing.assert_allclose(step_sampler(positions, n).gram,
                                       dense_step_gram(positions, n), atol=1e-12)

    def test_positive_definite(self):
        gram = step_sampler([1, 8, 19, 37], 100).gram
        assert np.all(np.linalg.eigvalsh(gram) > 0)


class TestStepProducts:
    def test_apply_matches_dense(self):
        # GibbsSampler.sigma2_b puts the step columns' fit together by a
        # cumulative sum: its residual sum of squares plus the g-prior
        # penalty against the dense step matrix
        rng = np.random.default_rng(3)
        n = 30
        positions = [1, 4, 11, 29]
        values = rng.normal(size=4)
        sampler = step_sampler(positions, n, seed=3)
        dense = dense_step_matrix(n)[:, np.array(positions) - 1]
        resid = sampler.ctx.series.values - dense @ values
        penalty = values @ dense_step_gram(positions, n) @ values / sampler.ctx.hyper.c1
        assert sampler.sigma2_b(values, None) == pytest.approx(resid @ resid + penalty,
                                                               rel=1e-12)
