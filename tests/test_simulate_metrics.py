import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictseg import (
    Segmentation,
    ValidationError,
    disturbance,
    functional_metrics,
    make_series,
    segmentation_metrics,
    simulate_series,
    true_atom_indices,
)
from dictseg.simulate import SeriesTruth


class TestDisturbance:
    def test_published_values_on_the_standard_grid(self):
        f = disturbance(100)
        assert f[9] == pytest.approx(1.5)    # peak at t = 10, sine vanishes there
        assert f[49] == pytest.approx(-2.0)  # peak at t = 50
        assert f[24] == pytest.approx(0.3)   # pure sine at t = 25
        assert f[59] == pytest.approx(3.0)

    def test_atom_indices_on_the_standard_grid(self):
        assert true_atom_indices(100) == frozenset({11, 51, 61, 110})


class TestSimulateSeries:
    def test_constraints_hold_over_seeded_draws(self):
        rng = np.random.default_rng(123)
        peaks = (10.0, 50.0, 60.0)
        for _ in range(10_000):
            series, truth = simulate_series(100, 0.0, rng)
            taus = truth.segmentation.change_points
            assert len(taus) == 3
            bounds = (0,) + taus + (100,)
            assert min(b - a for a, b in zip(bounds, bounds[1:])) >= 5
            assert min(abs(t - p) for t in taus for p in peaks) >= 3
            means = truth.segmentation.means
            assert all(m in {0.0, 1.0, 2.0, 3.0, 4.0, 5.0} for m in means)
            assert all(a != b for a, b in zip(means, means[1:]))

    def test_noise_free_reconstruction_is_exact(self):
        series, truth = simulate_series(100, 0.0, np.random.default_rng(5))
        rebuilt = truth.segmentation.mean_path(100) + truth.f_true + truth.noise
        np.testing.assert_array_equal(series.values, rebuilt)
        np.testing.assert_array_equal(truth.noise, np.zeros(100))

    def test_noisy_reconstruction_is_exact(self):
        series, truth = simulate_series(100, 1.5, np.random.default_rng(6))
        rebuilt = truth.segmentation.mean_path(100) + truth.f_true + truth.noise
        np.testing.assert_allclose(series.values, rebuilt, atol=0)

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            simulate_series(20, 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValidationError, match="sigma must be a finite number >= 0"):
            simulate_series(100, sigma, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="sigma must be a finite number >= 0"):
            make_series(100, (7, 18, 36), (2.0, 0.0, 2.0, 3.0), sigma,
                        np.random.default_rng(0))

    def test_fixed_layout_helper(self):
        series, truth = make_series(100, (7, 18, 36), (2.0, 0.0, 2.0, 3.0), 0.0)
        assert truth.segmentation.change_points == (7, 18, 36)
        assert series.values[0] == pytest.approx(2.0 + disturbance(100)[0])


class TestSegmentationMetrics:
    def test_exact_matching_counts_a_shift_twice(self):
        est = Segmentation(change_points=(7, 18, 35), means=(1.0,) * 4)
        tru = Segmentation(change_points=(7, 18, 36), means=(1.0,) * 4)
        _, fdr, fnr = segmentation_metrics(est, tru, 100)
        assert fdr == pytest.approx(1 / 3)
        assert fnr == pytest.approx(1 / 3)

    def test_identity_is_perfect(self):
        seg = Segmentation(change_points=(10, 40), means=(0.0, 2.0, 1.0))
        rmse, fdr, fnr = segmentation_metrics(seg, seg, 60)
        assert (rmse, fdr, fnr) == (0.0, 0.0, 0.0)

    def test_constant_offset_rmse(self):
        est = Segmentation(change_points=(), means=(1.0,))
        tru = Segmentation(change_points=(), means=(0.0,))
        rmse, _, _ = segmentation_metrics(est, tru, 25)
        assert rmse == pytest.approx(1.0)

    def test_tolerance_window_matches_nearest(self):
        est = Segmentation(change_points=(7, 18, 35), means=(1.0,) * 4)
        tru = Segmentation(change_points=(7, 18, 36), means=(1.0,) * 4)
        _, fdr, fnr = segmentation_metrics(est, tru, 100, tolerance=1)
        assert fdr == 0.0 and fnr == 0.0

    def test_tolerance_matching_is_one_to_one(self):
        est = Segmentation(change_points=(10, 11), means=(1.0,) * 3)
        tru = Segmentation(change_points=(10,), means=(1.0,) * 2)
        _, fdr, fnr = segmentation_metrics(est, tru, 50, tolerance=1)
        assert fdr == pytest.approx(0.5)
        assert fnr == 0.0

    def test_negative_tolerance_rejected(self):
        seg = Segmentation(change_points=(10, 40), means=(0.0, 2.0, 1.0))
        with pytest.raises(ValidationError, match="tolerance"):
            segmentation_metrics(seg, seg, 60, tolerance=-1)

    def test_nothing_detected_gives_zero_fdr(self):
        est = Segmentation(change_points=(), means=(1.0,))
        tru = Segmentation(change_points=(10,), means=(0.0, 1.0))
        _, fdr, fnr = segmentation_metrics(est, tru, 50)
        assert fdr == 0.0
        assert fnr == 1.0

    @given(st.lists(st.integers(min_value=1, max_value=49), unique=True,
                    min_size=0, max_size=5),
           st.lists(st.integers(min_value=1, max_value=49), unique=True,
                    min_size=0, max_size=5),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=120, deadline=None)
    def test_rates_are_bounded(self, est_cps, tru_cps, tolerance):
        est = Segmentation(change_points=tuple(sorted(est_cps)),
                           means=(0.0,) * (len(est_cps) + 1))
        tru = Segmentation(change_points=tuple(sorted(tru_cps)),
                           means=(0.0,) * (len(tru_cps) + 1))
        rmse, fdr, fnr = segmentation_metrics(est, tru, 50, tolerance=tolerance)
        assert rmse >= 0.0
        assert 0.0 <= fdr <= 1.0
        assert 0.0 <= fnr <= 1.0

    def test_rmse_symmetric_in_arguments(self):
        a = Segmentation(change_points=(10,), means=(0.0, 2.0))
        b = Segmentation(change_points=(20,), means=(1.0, 3.0))
        ra = segmentation_metrics(a, b, 40)[0]
        rb = segmentation_metrics(b, a, 40)[0]
        assert ra == pytest.approx(rb)


def truth_with_atoms(indices, n=100):
    return SeriesTruth(
        segmentation=Segmentation(change_points=(), means=(0.0,)),
        f_true=disturbance(n), sigma=0.1,
        true_atom_indices=frozenset(indices), noise=np.zeros(n))


class TestFunctionalMetrics:
    def test_exact_recovery(self):
        truth = truth_with_atoms({11, 51, 61, 110})
        rmse, fdr, fnr = functional_metrics(truth.f_true, {11, 51, 61, 110}, truth)
        assert (rmse, fdr, fnr) == (0.0, 0.0, 0.0)

    def test_partial_selection(self):
        truth = truth_with_atoms({11, 51, 61, 110})
        _, fdr, fnr = functional_metrics(truth.f_true, {61}, truth)
        assert fdr == 0.0
        assert fnr == pytest.approx(3 / 4)

    def test_constant_atom_is_ignored(self):
        truth = truth_with_atoms({11})
        _, fdr, fnr = functional_metrics(truth.f_true, {1, 11}, truth)
        assert fdr == 0.0 and fnr == 0.0

    def test_rmse_of_zero_estimate(self):
        truth = truth_with_atoms({11})
        rmse, _, _ = functional_metrics(np.zeros(100), set(), truth)
        assert rmse == pytest.approx(np.sqrt(np.mean(disturbance(100) ** 2)))

    def test_length_mismatch(self):
        truth = truth_with_atoms({11})
        with pytest.raises(ValidationError):
            functional_metrics(np.zeros(99), set(), truth)
