import numpy as np
import pytest

from dictseg import (
    MODE_P,
    MODE_SP,
    ComputeError,
    DesignMatrix,
    GibbsConfig,
    Hyperparameters,
    LatentState,
    PosteriorContext,
    TimeSeries,
    log_integrated_posterior,
    make_series,
    run_gibbs,
    simulation_design,
)
from dictseg.io import write_draws
from conftest import design_of, make_state, small_context
from oracles import (
    GibbsSampler,
    batch_means_mcse,
    conditional_chain,
    exact_coefficients_dense,
    exact_covariance_dense,
)


def sampler_for(ctx, gamma_positions, atom_indices=None):
    state = make_state(gamma_positions, ctx.n, atom_indices,
                       ctx.num_atoms if atom_indices is not None else None)
    return GibbsSampler(ctx, state), state


class TestBetaConditional:
    def test_intercept_only_closed_form(self, rng):
        n = 30
        series = TimeSeries(values=rng.normal(2.0, 1.0, n))
        hyper = Hyperparameters.flat(n, None, c1=50.0, pi=0.1)
        ctx = PosteriorContext(series, hyper, None, MODE_P)
        sampler, _ = sampler_for(ctx, [1])
        s1 = 50.0 / 51.0
        assert sampler.beta_mean(None)[0] == pytest.approx(s1 * series.values.mean())
        assert sampler.beta_cov(0.3)[0, 0] == pytest.approx(0.3 * s1 / n)

    def test_large_scale_limit_is_least_squares(self, rng):
        n = 24
        series = TimeSeries(values=rng.normal(size=n))
        hyper = Hyperparameters.flat(n, None, c1=1e12, pi=0.1)
        ctx = PosteriorContext(series, hyper, None, MODE_P)
        sampler, _ = sampler_for(ctx, [1, 9, 17])
        x = np.tril(np.ones((n, n)))[:, [0, 8, 16]]
        ols = np.linalg.lstsq(x, series.values, rcond=None)[0]
        np.testing.assert_allclose(sampler.beta_mean(None), ols, atol=1e-8)

    def test_monte_carlo_mean_and_cov(self, rng):
        ctx = small_context(n=30, seed=1)
        sampler, _ = sampler_for(ctx, [1, 11, 22], [1, 2])
        lam = np.array([0.4, -0.2])
        sigma2 = 0.49
        draws = np.array([sampler.draw_beta(lam, sigma2, rng) for _ in range(20000)])
        mean = sampler.beta_mean(lam)
        cov = sampler.beta_cov(sigma2)
        se = np.sqrt(np.diag(cov) / len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 3 * se)
        np.testing.assert_allclose(np.cov(draws.T), cov, rtol=0.1, atol=5e-3)


class TestLambdaConditional:
    def test_constant_atom_only(self, rng):
        n = 30
        ctx = small_context(n=n, seed=2)
        sampler, _ = sampler_for(ctx, [1, 9], [1])
        beta = np.array([1.0, 0.5])
        resid = ctx.series.values - np.tril(np.ones((n, n)))[:, [0, 8]] @ beta
        s2 = 50.0 / 51.0
        assert sampler.lambda_mean(beta)[0] == pytest.approx(s2 * resid.mean())

    def test_monte_carlo_mean(self, rng):
        ctx = small_context(n=30, seed=3)
        sampler, _ = sampler_for(ctx, [1, 14], [1, 2, 3])
        beta = np.array([0.7, -1.1])
        sigma2 = 0.25
        draws = np.array([sampler.draw_lambda(beta, sigma2, rng) for _ in range(20000)])
        mean = sampler.lambda_mean(beta)
        se = np.sqrt(np.diag(sampler.lambda_cov(sigma2)) / len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 3 * se)


class TestSigma2Conditional:
    def test_shape_from_dimensions(self):
        n = 100
        series, _ = make_series(n, (7, 18, 36), (2.0, 0.0, 2.0, 3.0), 0.0)
        design = simulation_design(series.covariate, "point100")
        hyper = Hyperparameters.flat(n, design.num_atoms)
        ctx = PosteriorContext(series, hyper, design, MODE_SP)
        sampler, _ = sampler_for(ctx, [1, 8, 19, 37], [1, 11, 51, 61, 110])
        assert sampler.a_shape == pytest.approx(54.5)

    def test_inverse_gamma_moment(self, rng):
        ctx = small_context(n=20, seed=4)
        sampler, _ = sampler_for(ctx, [1, 7], [1, 2])
        beta = np.array([0.5, 0.2])
        lam = np.array([0.1, -0.3])
        b = sampler.sigma2_b(beta, lam)
        draws = np.array([sampler.draw_sigma2(beta, lam, rng) for _ in range(30000)])
        a = sampler.a_shape
        expected_mean = (b / 2.0) / (a - 1.0)
        expected_var = expected_mean ** 2 / (a - 2.0)
        se = np.sqrt(expected_var / len(draws))
        assert draws.mean() == pytest.approx(expected_mean, abs=3 * se)

    def test_perfect_fit_keeps_b_positive(self):
        n = 50
        series, truth = make_series(n, (10, 25, 40), (1.0, 3.0, 0.0, 2.0), 0.0)
        design = simulation_design(series.covariate, "point100")
        hyper = Hyperparameters.flat(n, design.num_atoms)
        ctx = PosteriorContext(series, hyper, design, MODE_SP)
        sampler, _ = sampler_for(ctx, [1, 11, 26, 41], [1, 6, 26, 31])
        beta = np.array([1.0, 2.0, -3.0, 2.0])
        lam = np.array([0.0, 1.5, -2.0, 3.0])
        assert sampler.sigma2_b(beta, lam) > 0.0


class TestRunGibbs:
    def test_reconstruction_identities(self):
        ctx = small_context(n=24, seed=5)
        selection = make_state([1, 9, 17], 24, [1, 2], 3)
        fit = run_gibbs(ctx, selection, GibbsConfig(total_iterations=2000, seed=8))
        f_sel = ctx.design.matrix[:, [0, 1]]
        np.testing.assert_allclose(fit.f_hat, f_sel @ fit.lambda_hat, atol=1e-12)
        np.testing.assert_allclose(fit.mean_path(24),
                                   fit.segmentation_hat.mean_path(24), atol=1e-12)
        assert fit.k_hat == len(fit.positions)
        assert fit.lambda_hat[0] == 0.0  # constant direction assigned to the means
        assert fit.trace.sigma2.shape == (2000,)

    def test_deterministic_given_seed(self):
        ctx = small_context(n=24, seed=5)
        selection = make_state([1, 9], 24, [1, 3], 3)
        cfg = GibbsConfig(total_iterations=800, seed=13)
        f1 = run_gibbs(ctx, selection, cfg)
        f2 = run_gibbs(ctx, selection, cfg)
        np.testing.assert_array_equal(f1.trace.beta, f2.trace.beta)
        np.testing.assert_array_equal(f1.trace.sigma2, f2.trace.sigma2)
        assert f1.sigma_hat == f2.sigma_hat

    def test_atom_relabeling_leaves_f_hat_unchanged(self, rng):
        n = 20
        values = rng.normal(size=n)
        series = TimeSeries(values=values)
        x = series.covariate
        columns = (np.sin(2.0 * np.pi * 0.13 * x), np.cos(2.0 * np.pi * 0.21 * x), x ** 1)
        perm = [0, 3, 1, 2]
        d1 = design_of(x, *columns)
        d2 = design_of(x, *(columns[i - 1] for i in perm[1:]))
        hyper = Hyperparameters.flat(n, 4)
        ctx1 = PosteriorContext(series, hyper, d1, MODE_SP)
        ctx2 = PosteriorContext(series, hyper, d2, MODE_SP)
        bits = np.array([True, True, False, True])
        sel1 = LatentState(gamma=make_state([1, 8], n).gamma, r=bits)
        sel2 = LatentState(gamma=sel1.gamma, r=bits[perm])
        # the conditional law itself is permutation-equivariant: both
        # selections span the same columns, so the fitted conditional-mean
        # disturbance is identical (exact)
        s1 = GibbsSampler(ctx1, sel1)
        s2 = GibbsSampler(ctx2, sel2)
        assert list(s1.atoms) == [1, 2, 4]
        beta = np.array([0.3, -0.6])
        np.testing.assert_allclose(s1.f_sel @ s1.lambda_mean(beta),
                                   s2.f_sel @ s2.lambda_mean(beta), atol=1e-10)
        # and the posterior-mean estimates agree
        cfg = GibbsConfig(total_iterations=20000, seed=21)
        f1 = run_gibbs(ctx1, sel1, cfg)
        f2 = run_gibbs(ctx2, sel2, cfg)
        np.testing.assert_allclose(f1.f_hat, f2.f_hat, atol=0.1)

    def test_noise_free_sigma_stays_small(self):
        n = 100
        series, truth = make_series(n, (7, 18, 36), (2.0, 0.0, 2.0, 3.0), 0.0)
        design = simulation_design(series.covariate, "point100")
        hyper = Hyperparameters.flat(n, design.num_atoms)
        ctx = PosteriorContext(series, hyper, design, MODE_SP)
        selection = make_state([1, 8, 19, 37], n, [1, 11, 51, 61, 110],
                               design.num_atoms)
        fit = run_gibbs(ctx, selection, GibbsConfig(total_iterations=4000, seed=2))
        assert 0.0 < fit.sigma_hat < 0.5

    def test_published_particular_series_estimates(self):
        # sigma = 0.1 series with the exactly recovered model: both parts
        # of the decomposition land within 0.1 RMSE of the truth
        n = 100
        noise = np.random.default_rng(2033).normal(0, 0.1, n)
        noise[35] = 0.5
        series, truth = make_series(n, (7, 18, 36), (2.0, 0.0, 2.0, 3.0), 0.1,
                                    noise=noise)
        design = simulation_design(series.covariate, "point100")
        hyper = Hyperparameters.flat(n, design.num_atoms)
        ctx = PosteriorContext(series, hyper, design, MODE_SP)
        selection = make_state([1, 8, 19, 37], n, [1, 11, 51, 61, 110],
                               design.num_atoms)
        fit = run_gibbs(ctx, selection, GibbsConfig(seed=3))
        rmse_mu = np.sqrt(np.mean((fit.mean_path(n)
                                   - truth.segmentation.mean_path(n)) ** 2))
        rmse_f = np.sqrt(np.mean((fit.f_hat - truth.f_true) ** 2))
        assert rmse_mu < 0.1
        assert rmse_f < 0.1

    def test_mode_p_skips_the_atom_part(self):
        ctx = small_context(n=24, seed=6, mode=MODE_P)
        selection = make_state([1, 13], 24)
        fit = run_gibbs(ctx, selection, GibbsConfig(total_iterations=1000, seed=4))
        assert fit.lambda_hat is None and fit.f_hat is None
        assert fit.trace.lam is None
        sampler = GibbsSampler(ctx, selection)
        assert sampler.a_shape == pytest.approx((24 + 2) / 2.0)

    def test_dependent_atoms_raise_compute_error(self):
        # atom 5 is the sum of atoms 3 and 4: the search gives every such
        # selection density -inf, and the coefficient stage refuses it
        rng = np.random.default_rng(0)
        n, m = 60, 8
        for _ in range(40):
            F = rng.normal(size=(n, m))
            F[:, 0] = 1.0
            F[:, 4] = F[:, 2] + F[:, 3]
            design = DesignMatrix.from_matrix(F, tuple(f"a{j}" for j in range(m)))
            ctx = PosteriorContext(TimeSeries(values=rng.normal(size=n)),
                                   Hyperparameters.flat(n, m), design, MODE_SP)
            extra = rng.choice(np.arange(6, m + 1), int(rng.integers(0, 3)), replace=False)
            positions = np.append(1, rng.choice(np.arange(2, n + 1), 3, replace=False))
            selection = make_state(positions, n, np.append([1, 3, 4, 5], extra), m)
            assert log_integrated_posterior(selection, ctx) == -np.inf
            with pytest.raises(ComputeError):
                run_gibbs(ctx, selection, GibbsConfig(total_iterations=10, seed=1))

    def test_trace_export(self, tmp_path):
        ctx = small_context(n=24, seed=5)
        selection = make_state([1, 9], 24, [1, 3], 3)
        fit = run_gibbs(ctx, selection, GibbsConfig(total_iterations=50, seed=13))
        path = tmp_path / "draws.csv"
        write_draws(fit.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,beta@1,beta@9,lambda@1,lambda@3,sigma2"
        assert len(lines) == 51


def published_instance(mode):
    """The sigma = 0.1 particular series with its exactly recovered model."""
    n = 100
    noise = np.random.default_rng(2033).normal(0, 0.1, n)
    noise[35] = 0.5
    series, _ = make_series(n, (7, 18, 36), (2.0, 0.0, 2.0, 3.0), 0.1, noise=noise)
    if mode == MODE_P:
        ctx = PosteriorContext(series, Hyperparameters.flat(n, None), None, MODE_P)
        return ctx, make_state([1, 8, 19, 37], n)
    design = simulation_design(series.covariate, "point100")
    ctx = PosteriorContext(series, Hyperparameters.flat(n, design.num_atoms), design, MODE_SP)
    return ctx, make_state([1, 8, 19, 37], n, [1, 11, 51, 61, 110], design.num_atoms)


def small_instance(mode):
    ctx = small_context(n=30, seed=1, mode=mode)
    if mode == MODE_P:
        return ctx, make_state([1, 11, 22], 30)
    return ctx, make_state([1, 11, 22], 30, [1, 2], 3)


def reported_vector(beta, lam, sigma):
    """Estimates in one vector: beta (position 1 holding the constant
    direction), the non-constant atom coefficients, then sigma."""
    parts = [beta] + ([lam[1:]] if lam is not None else []) + [[sigma]]
    return np.concatenate(parts)


def draws_vector(beta, lam, sigma2):
    """Per-draw values whose means are the reported estimates."""
    beta = beta.copy()
    parts = [beta]
    if lam is not None:
        beta[:, 0] += lam[:, 0]
        parts.append(lam[:, 1:])
    return np.hstack(parts + [np.sqrt(sigma2)[:, None]])


class TestClosedForm:
    @pytest.mark.parametrize("mode", [MODE_SP, MODE_P])
    @pytest.mark.parametrize("instance", [small_instance, published_instance])
    def test_matches_dense_normal_equations(self, mode, instance):
        ctx, selection = instance(mode)
        fit = run_gibbs(ctx, selection, GibbsConfig(store_trace=False))
        beta, lam, sigma = exact_coefficients_dense(ctx, selection)
        np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-9, atol=1e-12)
        if mode == MODE_SP:
            np.testing.assert_allclose(fit.lambda_hat, lam, rtol=1e-9, atol=1e-12)
        else:
            assert fit.lambda_hat is None
        assert fit.sigma_hat == pytest.approx(sigma, rel=1e-9)

    def test_matches_long_conditional_chain(self):
        ctx, selection = small_instance(MODE_SP)
        betas, lams, sigma2s = conditional_chain(GibbsSampler(ctx, selection), 41000,
                                                 np.random.default_rng(77))
        chain = draws_vector(betas, lams, sigma2s)[1000:]
        fit = run_gibbs(ctx, selection, GibbsConfig(store_trace=False))
        exact = reported_vector(fit.beta_hat, fit.lambda_hat, fit.sigma_hat)
        mcse = batch_means_mcse(chain)
        assert np.all(np.abs(chain.mean(axis=0) - exact) <= 3 * mcse)

    @pytest.mark.parametrize("mode", [MODE_SP, MODE_P])
    def test_iid_draws_match_reported_means(self, mode):
        ctx, selection = published_instance(mode)
        fit = run_gibbs(ctx, selection, GibbsConfig(total_iterations=20000, seed=5))
        trace = fit.trace
        assert trace.sigma2.shape == (20000,)
        draws = draws_vector(trace.beta, trace.lam, trace.sigma2)
        exact = reported_vector(fit.beta_hat, fit.lambda_hat, fit.sigma_hat)
        # the draws are independent, so the MCSE is the plain standard error
        mcse = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - exact) <= 3 * mcse)

    @pytest.mark.parametrize("mode", [MODE_SP, MODE_P])
    def test_iid_draws_match_dense_covariance(self, mode):
        # c1 = c2 = 1 makes the shrinkage factors far from 1, so a wrong
        # per-segment or per-atom variance shows in the spread
        ctx = small_context(n=30, seed=1, mode=mode, c1=1.0, c2=1.0)
        selection = small_instance(mode)[1]
        trace = run_gibbs(ctx, selection, GibbsConfig(total_iterations=20000, seed=5)).trace
        draws = np.hstack([trace.beta] + ([trace.lam] if mode == MODE_SP else []))
        cov = exact_covariance_dense(ctx, selection)
        sd = np.sqrt(np.diag(cov))
        assert np.max(np.abs(np.cov(draws.T) - cov) / np.outer(sd, sd)) <= 0.05

    def test_no_trace_unless_asked(self):
        ctx, selection = small_instance(MODE_SP)
        bare = run_gibbs(ctx, selection, GibbsConfig(seed=5, store_trace=False))
        traced = run_gibbs(ctx, selection, GibbsConfig(total_iterations=100, seed=5))
        assert bare.trace is None and traced.trace is not None
        np.testing.assert_array_equal(bare.beta_hat, traced.beta_hat)
        assert bare.sigma_hat == traced.sigma_hat
