import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictseg import dictionary, mh, posterior
from dictseg import (
    MODE_P,
    MODE_SP,
    DataError,
    DesignMatrix,
    GibbsConfig,
    Hyperparameters,
    LatentState,
    MHConfig,
    PosteriorContext,
    TimeSeries,
    ValidationError,
    exchange_design,
    fit_series,
    log_integrated_posterior,
    run_gibbs,
    run_metropolis_hastings,
    simulation_design,
)
from conftest import (chain_context, design_of, indicator, make_state, random_instance,
                      small_context)
from oracles import log_integrated_posterior_dense, log_posterior_quadrature, log_prior_inclusion


class TestLogPriorInclusion:
    def test_two_zero_bits(self):
        value = log_prior_inclusion(np.array([1, 0, 0], bool),
                                    np.array([1.0, 0.01, 0.01]))
        assert value == pytest.approx(2 * np.log(0.99))

    def test_single_free_bit(self):
        value = log_prior_inclusion(np.array([1, 1], bool), np.array([1.0, 0.5]))
        assert value == pytest.approx(np.log(0.5))

    def test_flat_default_prior(self):
        bits = np.zeros(100, bool)
        bits[:2] = True
        probs = np.full(100, 0.01)
        probs[0] = 1.0
        value = log_prior_inclusion(bits, probs)
        assert value == pytest.approx(np.log(0.01) + 98 * np.log(0.99))

    def test_impossible_bits_give_minus_inf(self):
        assert log_prior_inclusion(np.array([1, 1], bool),
                                   np.array([1.0, 0.0])) == -np.inf
        assert log_prior_inclusion(np.array([1, 0], bool),
                                   np.array([1.0, 1.0])) == -np.inf

    @given(st.floats(min_value=0.001, max_value=0.999),
           st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_inclusion_probability(self, p_small, p_big):
        # raising pi_i raises the density of states with the bit set,
        # relative to the same state with the bit clear
        lo, hi = sorted((p_small, p_big))
        on = np.array([1, 1], bool)
        off = np.array([1, 0], bool)
        def gap(p):
            probs = np.array([1.0, p])
            return (log_prior_inclusion(on, probs) - log_prior_inclusion(off, probs))
        assert gap(hi) >= gap(lo) - 1e-12


class TestOptimizedAgainstDense:
    def test_seeded_instance_exact_agreement(self):
        ctx = small_context()
        s1 = make_state([1, 7], 12, [1, 2], 3)
        s2 = make_state([1, 4, 7], 12, [1, 2, 3], 3)
        for s in (s1, s2):
            a = log_integrated_posterior(s, ctx)
            b = log_integrated_posterior_dense(s, ctx)
            assert a == pytest.approx(b, abs=1e-8)
        # frozen reference from the dense evaluator, guards against silent
        # drift of both paths together
        assert log_integrated_posterior(s1, ctx) == pytest.approx(
            -20.998530892426423, abs=1e-6)

    def test_random_sweep_both_modes(self, rng):
        for mode in (MODE_SP, MODE_P):
            for _ in range(60):
                ctx, state = random_instance(rng, mode=mode)
                a = log_integrated_posterior(state, ctx)
                b = log_integrated_posterior_dense(state, ctx)
                assert a == pytest.approx(b, abs=1e-8)

    def test_dense_guard_on_large_n(self):
        n = 600
        series = TimeSeries(values=np.arange(n, dtype=float))
        hyper = Hyperparameters.flat(n, None, pi=0.01)
        ctx = PosteriorContext(series, hyper, None, MODE_P)
        with pytest.raises(ValidationError):
            log_integrated_posterior_dense(make_state([1], n), ctx)


class TestQuadratureOracle:
    def test_log_ratio_matches_quadrature_sp(self):
        ctx = small_context()
        pairs = [
            (make_state([1, 7], 12, [1, 2], 3), make_state([1, 4, 7], 12, [1, 2, 3], 3)),
            (make_state([1], 12, [1], 3), make_state([1, 9], 12, [1, 3], 3)),
            (make_state([1, 3, 7, 11], 12, [1, 2], 3), make_state([1, 7], 12, [1, 3], 3)),
        ]
        for s_a, s_b in pairs:
            collapsed = (log_integrated_posterior(s_a, ctx)
                         - log_integrated_posterior(s_b, ctx))
            quadrature = (log_posterior_quadrature(s_a, ctx)
                          - log_posterior_quadrature(s_b, ctx))
            assert collapsed == pytest.approx(quadrature, abs=1e-4)

    def test_log_ratio_matches_quadrature_p_mode(self):
        ctx = small_context(mode=MODE_P)
        s_a, s_b = make_state([1, 7], 12), make_state([1, 5, 9], 12)
        collapsed = (log_integrated_posterior(s_a, ctx)
                     - log_integrated_posterior(s_b, ctx))
        quadrature = (log_posterior_quadrature(s_a, ctx)
                      - log_posterior_quadrature(s_b, ctx))
        assert collapsed == pytest.approx(quadrature, abs=1e-4)

    def test_frozen_log_ratio_value(self):
        # pinned from the quadrature oracle on the seeded instance
        ctx = small_context()
        s_a = make_state([1, 7], 12, [1, 2], 3)
        s_b = make_state([1, 4, 7], 12, [1, 2, 3], 3)
        ratio = log_integrated_posterior(s_a, ctx) - log_integrated_posterior(s_b, ctx)
        assert ratio == pytest.approx(2.937036793134073, abs=1e-4)


class TestInvariances:
    def test_ratio_invariant_under_data_scaling(self):
        base = small_context()
        for c in (0.001, 7.3, 1e4):
            scaled_series = TimeSeries(values=c * base.series.values)
            ctx_c = PosteriorContext(scaled_series, base.hyper, base.design, MODE_SP)
            s_a = make_state([1, 7], 12, [1, 2], 3)
            s_b = make_state([1, 4], 12, [1, 3], 3)
            d0 = log_integrated_posterior(s_a, base) - log_integrated_posterior(s_b, base)
            d1 = log_integrated_posterior(s_a, ctx_c) - log_integrated_posterior(s_b, ctx_c)
            assert d1 == pytest.approx(d0, abs=1e-10)

    def test_atom_permutation_invariance(self, rng):
        n = 16
        values = rng.normal(size=n)
        series = TimeSeries(values=values)
        x = series.covariate
        columns = (np.sin(2.0 * np.pi * 0.11 * x), x ** 1, indicator(x, 5.0))
        design = design_of(x, *columns)
        perm = [0, 2, 3, 1]  # keeps the constant first
        shuffled = design_of(x, *(columns[i - 1] for i in perm[1:]))
        eta = np.array([1.0, 0.1, 0.2, 0.3])
        h1 = Hyperparameters(c1=50.0, pi=np.r_[1.0, np.full(n - 1, 0.05)],
                             c2=50.0, eta=eta)
        h2 = Hyperparameters(c1=50.0, pi=np.r_[1.0, np.full(n - 1, 0.05)],
                             c2=50.0, eta=eta[perm])
        ctx1 = PosteriorContext(series, h1, design, MODE_SP)
        ctx2 = PosteriorContext(series, h2, shuffled, MODE_SP)
        bits = np.array([True, True, False, True])
        s1 = LatentState(gamma=make_state([1, 9], n).gamma, r=bits)
        s2 = LatentState(gamma=s1.gamma, r=bits[perm])
        assert log_integrated_posterior(s1, ctx1) == pytest.approx(
            log_integrated_posterior(s2, ctx2), abs=1e-9)


class TestDegenerateStates:
    def test_zero_data_is_rejected(self):
        n = 10
        series = TimeSeries(values=np.zeros(n))
        design = design_of(series.covariate, series.covariate ** 1)
        hyper = Hyperparameters.flat(n, 2, pi=0.1, eta=0.1)
        ctx = PosteriorContext(series, hyper, design, MODE_SP)
        state = make_state([1], n, [1], 2)
        assert log_integrated_posterior(state, ctx) == -np.inf
        assert log_integrated_posterior_dense(state, ctx) == -np.inf

    @pytest.mark.parametrize("mode", [MODE_SP, MODE_P])
    def test_series_whose_sum_of_squares_overflows_is_rejected(self, mode):
        n = 10
        series = TimeSeries(values=np.r_[np.zeros(5), np.full(5, 1e200)])
        design = design_of(series.covariate) if mode == MODE_SP else None
        hyper = Hyperparameters.flat(n, 1 if mode == MODE_SP else None)
        with pytest.raises(DataError, match="sum of squares overflows"):
            PosteriorContext(series, hyper, design, mode)

    def test_duplicate_atoms_are_rejected(self, rng):
        n = 12
        series = TimeSeries(values=rng.normal(size=n))
        x = series.covariate
        design = design_of(x, np.sin(2.0 * np.pi * 0.2 * x), np.sin(2.0 * np.pi * 0.2 * x))
        hyper = Hyperparameters.flat(n, 3, pi=0.1, eta=0.1)
        ctx = PosteriorContext(series, hyper, design, MODE_SP)
        state = make_state([1], n, [1, 2, 3], 3)
        assert log_integrated_posterior(state, ctx) == -np.inf

    def test_linearly_dependent_atoms_are_rejected(self):
        # when one selected atom is a multiple or a sum of others, the
        # elimination pivot is rounding noise of either sign; the relative
        # floor rejects every such model
        rng = np.random.default_rng(3)
        n = 20
        for _ in range(60):
            series = TimeSeries(values=rng.normal(size=n))
            f1, f2 = rng.uniform(0.02, 0.45, 2)
            scale = float(rng.uniform(0.5, 3.0))
            x = series.covariate
            if rng.random() < 0.5:
                extra = scale * np.sin(2 * np.pi * f1 * x)
            else:
                extra = np.sin(2 * np.pi * f1 * x) + np.cos(2 * np.pi * f2 * x)
            design = design_of(x, np.sin(2.0 * np.pi * float(f1) * x),
                               np.cos(2.0 * np.pi * float(f2) * x), extra)
            hyper = Hyperparameters.flat(n, 4, pi=0.1, eta=0.2)
            ctx = PosteriorContext(series, hyper, design, MODE_SP)
            state = make_state([1, int(rng.integers(2, n + 1))], n, [1, 2, 3, 4], 4)
            assert log_integrated_posterior(state, ctx) == -np.inf
            assert log_integrated_posterior_dense(state, ctx) == -np.inf

    def test_prior_zero_state_is_rejected(self, rng):
        n = 8
        series = TimeSeries(values=rng.normal(size=n))
        pi = np.r_[1.0, np.full(n - 1, 0.1)]
        pi[4] = 0.0
        hyper = Hyperparameters(c1=50.0, pi=pi)
        ctx = PosteriorContext(series, hyper, None, MODE_P)
        assert log_integrated_posterior(make_state([1, 5], n), ctx) == -np.inf

    def test_forced_bit_left_clear_is_rejected(self, rng):
        n = 8
        series = TimeSeries(values=rng.normal(size=n))
        pi = np.r_[1.0, np.full(n - 1, 0.1)]
        pi[4] = 1.0
        ctx = PosteriorContext(series, Hyperparameters(c1=50.0, pi=pi), None, MODE_P)
        assert log_integrated_posterior(make_state([1, 3], n), ctx) == -np.inf
        with_bit = make_state([1, 3, 5], n)
        assert log_integrated_posterior(with_bit, ctx) == pytest.approx(
            log_integrated_posterior_dense(with_bit, ctx), abs=1e-8)


def crafted_design(n=60):
    """Point columns with the cases the closed form must get right: a
    duplicated point column, an all-zero column and a scaled negative
    one-nonzero column, beside a two-nonzero column and dense columns."""
    rng = np.random.default_rng(11)
    points = np.zeros((n, 40))
    points[np.arange(5, 45), np.arange(40)] = 1.0
    odd = np.zeros((n, 4))
    odd[:, 0] = points[:, 7]
    odd[50, 2] = -3.7
    odd[[2, 3], 3] = 1.0
    F = np.column_stack([np.ones(n), points, odd, rng.normal(size=(n, 6))])
    return DesignMatrix.from_matrix(F, tuple(f"a{j}" for j in range(F.shape[1])))


CACHE_DESIGNS = {
    "point100-100": lambda: simulation_design(np.arange(1.0, 101.0), "point100"),
    "point100-2000": lambda: simulation_design(np.arange(1.0, 2001.0), "point100"),
    "haar128-100": lambda: simulation_design(np.arange(1.0, 101.0), "haar128"),
    "haar128-2000": lambda: simulation_design(np.arange(1.0, 2001.0), "haar128"),
    "exchange": lambda: exchange_design(np.arange(1.0, 2001.0)),
    "crafted": crafted_design,
    # read from a matrix, as a file is: most of its columns are point
    # columns of amplitude 2^3.5, some of them zero columns
    "haar128-100-matrix": lambda: DesignMatrix.from_matrix(
        simulation_design(np.arange(1.0, 101.0), "haar128").matrix,
        simulation_design(np.arange(1.0, 101.0), "haar128").labels),
}


def full_tables(F, y):
    """The reversed running sums of [F, 0, Y] and the full products
    [[F'F, 0, F'Y], [0, 0, 0], [Y'F, 0, Y'Y]], as the context gathers them."""
    n, m = F.shape
    suffix = np.zeros((n + 1, m + 2))
    np.cumsum(F[::-1, :], axis=0, out=suffix[n - 1::-1, :m])
    np.cumsum(y[::-1], out=suffix[n - 1::-1, m + 1])
    gram = np.zeros((m + 2, m + 2))
    np.matmul(F.T, F, out=gram[:m, :m])
    gram[:m, m + 1] = gram[m + 1, :m] = F.T @ y
    gram[m + 1, m + 1] = float(y @ y)
    return suffix, gram


class TestContextCaches:
    def test_caches_match_definitions(self):
        ctx = small_context()
        y = ctx.series.values
        F = ctx.design.matrix
        m = ctx.num_atoms
        idx = np.arange(m + 2)
        gram = ctx.gram(idx[:, None], idx)
        assert ctx.yty == pytest.approx(float(y @ y), rel=1e-15)
        np.testing.assert_allclose(gram[:m, :m], F.T @ F, atol=1e-12)
        np.testing.assert_allclose(gram[:m, m + 1], F.T @ y, atol=1e-12)
        np.testing.assert_allclose(ctx.ends(np.arange(len(y)), m + 1),
                                   np.array([y[i:].sum() for i in range(len(y))]),
                                   atol=1e-12)

    def test_mode_checks(self):
        ctx = small_context()
        with pytest.raises(ValidationError):
            ctx.check_state(make_state([1], 12))  # missing atom part in sp mode
        with pytest.raises(ValidationError):
            PosteriorContext(ctx.series, ctx.hyper, None, MODE_SP)

    # every suffix end and every F'F and F'Y entry that the context
    # serves, against the reversed running sums over F and the full
    # product, with the closed form at its size threshold and forced on
    # every design
    @pytest.fixture(params=["threshold", "forced"])
    def split_min_work(self, request, monkeypatch):
        if request.param == "forced":
            monkeypatch.setattr(posterior, "SPLIT_MIN_WORK", 0)
        return posterior.SPLIT_MIN_WORK

    @pytest.mark.parametrize("name", list(CACHE_DESIGNS))
    def test_caches_match_the_full_products(self, split_min_work, name):
        design = CACHE_DESIGNS[name]()
        F = design.matrix
        n, m = F.shape
        y = np.random.default_rng(5).normal(size=n)
        ctx = PosteriorContext(TimeSeries(values=y), Hyperparameters.flat(n, m), design)
        closed = n * m * m >= split_min_work and 2 * len(design.point_atoms) >= m
        assert (ctx._loc is not None) == closed
        suffix, gram = full_tables(F, y)
        idx = np.arange(m + 2)
        assert ctx.ends(np.arange(n + 1)[:, None], idx).tobytes() == suffix.tobytes()
        served = ctx.gram(idx[:, None], idx)
        # in the closed form the dense atoms' products with each other and
        # with Y are products of their own, within 1e-12 of the full ones;
        # every other entry has the full product's bits
        dense = np.zeros(m + 2, dtype=bool)
        dense[np.append(design.dense_atoms, m + 1)] = closed
        block = np.ix_(dense, dense)
        assert np.abs(served[block] - gram[block]).max(initial=0.0) <= 1e-12 * np.abs(gram).max()
        served[block] = gram[block]
        assert served.tobytes() == gram.tobytes()
        if closed:
            assert all(a.size < n * m for a in vars(ctx).values() if isinstance(a, np.ndarray))

    @pytest.mark.parametrize("name", ["point100-2000", "crafted", "exchange"])
    def test_f_hat_has_the_bits_of_the_matrix_columns(self, split_min_work, name):
        design = CACHE_DESIGNS[name]()
        n, m = design.n, design.num_atoms
        rng = np.random.default_rng(9)
        ctx = PosteriorContext(TimeSeries(values=rng.normal(size=n)),
                               Hyperparameters.flat(n, m), design)
        atoms = np.sort(rng.choice(np.arange(1, m), 4, replace=False))
        selection = make_state([1, n // 3, n // 2], n, np.append(1, atoms + 1), m)
        fit = run_gibbs(ctx, selection, GibbsConfig(total_iterations=1, store_trace=False))
        r = np.flatnonzero(selection.r)
        assert fit.f_hat.tobytes() == (design.matrix[:, r] @ fit.lambda_hat).tobytes()

    def test_point_rows_are_found_exactly(self):
        F = crafted_design().matrix
        cols, rows, values = dictionary._point_rows(F)
        assert np.array_equal(cols, np.flatnonzero(np.count_nonzero(F, axis=0) <= 1))
        assert np.array_equal(values, F[rows, cols])
        assert np.array_equal(values, F[:, cols].sum(axis=0))

    def test_product_past_the_float_range_takes_the_full_product(self, monkeypatch):
        # t·F[t, a] overflows for this column, so its row cannot be read
        # off the index-weighted sum, and the design holds no point atoms
        # (F'F overflows there too)
        monkeypatch.setattr(posterior, "SPLIT_MIN_WORK", 0)
        F = crafted_design().matrix
        F[50, 43] = 1e307
        design = DesignMatrix.from_matrix(F, crafted_design().labels)
        assert not len(design.point_atoms)
        n, m = F.shape
        y = np.random.default_rng(5).normal(size=n)
        with np.errstate(over="ignore"):
            ctx = PosteriorContext(TimeSeries(values=y), Hyperparameters.flat(n, m), design)
            idx = np.arange(m + 2)
            assert np.array_equal(ctx.gram(idx[:, None], idx), full_tables(F, y)[1])


def random_prior(rng, size):
    """Inclusion probabilities with the first pinned at 1 and about one
    entry in ten each at exactly 0 and exactly 1."""
    probs = rng.uniform(0.0, 1.0, size)
    kind = rng.uniform(size=size)
    probs[kind < 0.1] = 0.0
    probs[kind > 0.9] = 1.0
    probs[0] = 1.0
    return probs


class TestContextPrior:
    def test_matches_oracle_on_random_states(self):
        # 40 contexts, 30 states each: log_prior_gamma and log_prior_r
        # sum over the selected indices, the oracle over every bit
        rng = np.random.default_rng(13)
        checked = infinite = 0
        for _ in range(40):
            n, m = int(rng.integers(8, 201)), int(rng.integers(2, 31))
            series = TimeSeries(values=rng.normal(size=n))
            design = design_of(series.covariate, *rng.normal(size=(m - 1, n)))
            hyper = Hyperparameters(c1=float(rng.uniform(2.0, 500.0)), pi=random_prior(rng, n),
                                    c2=float(rng.uniform(2.0, 500.0)), eta=random_prior(rng, m))
            ctx = PosteriorContext(series, hyper, design, MODE_SP)
            for _ in range(30):
                for bits, probs, method in (
                        (rng.uniform(size=n) < rng.uniform(), hyper.pi, ctx.log_prior_gamma),
                        (rng.uniform(size=m) < rng.uniform(), hyper.eta, ctx.log_prior_r)):
                    if rng.uniform() < 0.75:  # most states respect p = 0 and p = 1
                        bits = (bits | (probs == 1.0)) & (probs > 0.0)
                    bits[0] = True
                    expected, value = log_prior_inclusion(bits, probs), method(bits)
                    if expected == -np.inf:
                        assert value == -np.inf
                        infinite += 1
                    else:
                        assert abs(value - expected) <= 1e-12 * abs(expected)
                    checked += 1
        assert checked == 2400 and 0 < infinite < checked / 2


def stack_context(mode):
    """n = 30 with seven atoms, the second repeated as the seventh."""
    rng = np.random.default_rng(8)
    n = 30
    series = TimeSeries(values=rng.normal(size=n) + np.where(np.arange(n) > 14, 1.5, 0.0))
    if mode == MODE_P:
        return PosteriorContext(series, Hyperparameters.flat(n, None, pi=0.1), None, MODE_P)
    x = series.covariate
    design = design_of(x, np.sin(2.0 * np.pi * 0.1 * x), np.cos(2.0 * np.pi * 0.1 * x),
                       indicator(x, 12.0), x ** 1, np.sin(2.0 * np.pi * 0.23 * x),
                       np.sin(2.0 * np.pi * 0.1 * x))
    hyper = Hyperparameters.flat(n, design.num_atoms, c1=20.0, c2=30.0, pi=0.1, eta=0.2)
    return PosteriorContext(series, hyper, design, MODE_SP)


# (positions, atoms) of gamma and r neighbours of one state, of sizes
# 1 to 11 and 1 to 5; the last pair selects the repeated atom twice
STACK_MODELS = [
    ([1, 8, 20], [1, 2, 4]),
    ([1, 8], [1, 2, 4]),
    ([1, 8, 20, 25, 29], [1, 2, 4]),
    ([1, 5, 9, 14, 22, 27], [1, 2, 4]),
    ([1, 3, 5, 8, 11, 14, 17, 20, 23, 26, 29], [1, 2, 4]),
    ([1], [1, 2, 4]),
    ([1, 8, 20], [1]),
    ([1, 8, 20], [1, 2, 3, 4, 6]),
    ([1, 8, 20], [1, 4, 5]),
    ([1, 8, 20], [1, 2, 4, 7]),
]


def padded(rows, pad):
    out = np.full((len(rows), max(len(r) for r in rows)), pad)
    for i, r in enumerate(rows):
        out[i, :len(r)] = np.asarray(r) - 1
    return out


class TestStackedEvaluator:
    @pytest.mark.parametrize("mode", [MODE_SP, MODE_P])
    def test_mixed_stack_matches_dense_oracle(self, mode):
        ctx = stack_context(mode)
        n, m = ctx.n, ctx.num_atoms
        gidx = padded([g for g, _ in STACK_MODELS], n)
        ridx = padded([a for _, a in STACK_MODELS], m) if mode == MODE_SP else None
        values = posterior.evaluate_stack(ctx, gidx, ridx)
        finite = 0
        for (g, a), value in zip(STACK_MODELS, values):
            state = make_state(g, n, a, m) if mode == MODE_SP else make_state(g, n)
            dense = log_integrated_posterior_dense(state, ctx)
            if dense == -np.inf:
                assert value == -np.inf
                continue
            finite += 1
            assert value == pytest.approx(dense, abs=1e-8)
        assert finite == len(STACK_MODELS) - (mode == MODE_SP)

    @pytest.mark.parametrize("mode", [MODE_SP, MODE_P])
    def test_padding_and_stacking_change_no_bit(self, mode):
        # a model's value is the same alone, padded, or anywhere in a stack
        ctx = stack_context(mode)
        n, m = ctx.n, ctx.num_atoms
        gidx = padded([g for g, _ in STACK_MODELS], n)
        ridx = padded([a for _, a in STACK_MODELS], m) if mode == MODE_SP else None
        values = posterior.evaluate_stack(ctx, gidx, ridx)
        for i, (g, a) in enumerate(STACK_MODELS):
            alone = posterior.evaluate_stack(
                ctx, padded([g], n), padded([a], m) if mode == MODE_SP else None)
            assert alone[0] == values[i] or (alone[0] == -np.inf and values[i] == -np.inf)
        flipped = posterior.evaluate_stack(
            ctx, gidx[::-1], ridx[::-1] if ridx is not None else None)
        np.testing.assert_array_equal(flipped[::-1], values)

    def test_singular_member_does_not_touch_the_others(self):
        ctx = stack_context(MODE_SP)
        n, m = ctx.n, ctx.num_atoms
        gidx = padded([[1, 8], [1, 8], [1, 8]], n)
        ridx = padded([[1, 2], [1, 2, 7], [1, 3]], m)
        values = posterior.evaluate_stack(ctx, gidx, ridx)
        assert values[1] == -np.inf
        for i in (0, 2):
            alone = posterior.evaluate_stack(ctx, gidx[i:i + 1], ridx[i:i + 1])
            assert alone[0] == values[i] > -np.inf


class TestMemoryGuard:
    # small_context has n = 12 and M = 3; F is held beside its caches
    ESTIMATE = 8 * (3 * 3 + 2 * 12 * 3)

    def test_estimate_above_physical_memory_is_rejected(self, monkeypatch):
        monkeypatch.setattr(dictionary, "_physical_memory", lambda: 100)
        with pytest.raises(ValidationError, match=str(self.ESTIMATE)):
            small_context()
        # mode p builds neither cache
        small_context(mode=MODE_P)

    def test_estimate_within_physical_memory_builds(self, monkeypatch):
        monkeypatch.setattr(dictionary, "_physical_memory", lambda: self.ESTIMATE)
        ctx = small_context()
        assert ctx.gram(np.arange(3)[:, None], np.arange(3)).shape == (3, 3)

    def test_design_matrix_counts_toward_the_estimate(self, monkeypatch):
        # the caches alone, 8·(M² + n·M) bytes, would fit
        monkeypatch.setattr(dictionary, "_physical_memory", lambda: 8 * (3 * 3 + 12 * 3))
        with pytest.raises(ValidationError, match=str(self.ESTIMATE)):
            small_context()

    def test_closed_form_counts_its_own_tables(self, monkeypatch):
        # point100 at n = 100 (M = 123, M_d = 23) in closed form: the
        # dense block, its suffix sums, the rows of every atom against it
        # and the point rows being built, 8·(M_d + 2)·(2·n + 2·M) bytes
        monkeypatch.setattr(posterior, "SPLIT_MIN_WORK", 0)
        estimate = 8 * 25 * (2 * 100 + 2 * 123)
        design = simulation_design(np.arange(1.0, 101.0), "point100")
        series = TimeSeries(values=np.random.default_rng(3).normal(size=100))
        hyper = Hyperparameters.flat(100, 123)
        monkeypatch.setattr(dictionary, "_physical_memory", lambda: estimate - 1)
        with pytest.raises(ValidationError, match=str(estimate)):
            PosteriorContext(series, hyper, design)
        monkeypatch.setattr(dictionary, "_physical_memory", lambda: estimate)
        assert PosteriorContext(series, hyper, design)._loc is not None

    def test_point_design_at_n_20000_builds_and_fits(self, monkeypatch):
        # 20023 atoms, whose full tables would need 8·(M² + 2·n·M) bytes,
        # about 9.6 GB; in closed form they fit a 1 GiB machine
        monkeypatch.setattr(dictionary, "_physical_memory", lambda: 2 ** 30)
        n = 20000
        series = TimeSeries(values=np.random.default_rng(1).normal(size=n))
        tracemalloc.start()
        try:
            design = simulation_design(series.covariate, "point100")
            m = design.num_atoms
            hyper = Hyperparameters.flat(n, m)
            ctx = PosteriorContext(series, hyper, design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ctx._loc is not None
        assert peak < 31e6  # measured 15.4 MB
        out = fit_series(series, hyper, MHConfig(total_iterations=200, burn_in=50, seed=1),
                         GibbsConfig(total_iterations=200, seed=2), design=design)
        assert len(out.mh_trace) == 200 and out.fit.f_hat.shape == (n,)
        monkeypatch.setattr(posterior, "SPLIT_MIN_WORK", 1 << 62)
        with pytest.raises(ValidationError, match=str(8 * (m * m + 2 * n * m))):
            PosteriorContext(series, hyper, design)


def single_flips(ctx, state):
    """Every single-flip neighbour of a mode-sp state, gamma flips 1..n-1
    then atom flips 1..M-1: FlipScreen's changes and flags, and
    evaluate_stack's changes."""
    n, m = ctx.n, ctx.num_atoms
    gidx, ridx = np.flatnonzero(state.gamma), np.flatnonzero(state.r)
    gflips, rflips = np.arange(1, n), np.arange(1, m)
    (gamma, flag_g), (atoms, flag_r) = posterior.FlipScreen(ctx, gidx, ridx).changes(
        gflips, rflips)
    base = posterior.evaluate_stack(ctx, gidx[None], ridx[None])[0]
    assert np.isfinite(base)
    exact = np.concatenate((
        posterior.evaluate_stack(ctx, mh._flip(gidx, gflips[:, None], n),
                                 np.tile(ridx, (len(gflips), 1))),
        posterior.evaluate_stack(ctx, np.tile(gidx, (len(rflips), 1)),
                                 mh._flip(ridx, rflips[:, None], m)))) - base
    return np.concatenate((gamma, atoms)), np.concatenate((flag_g, flag_r)), exact


def flip_of(ctx, position=None, atom=None):
    """Where ``single_flips`` puts the flip of a 1-based position or atom."""
    return position - 2 if atom is None else ctx.n - 1 + atom - 2


def chain_states(ctx, seed=17):
    """The initial state and three later states of a single-flip chain."""
    config = MHConfig(total_iterations=2000, burn_in=0, flip_gamma=1, flip_r=1,
                      init_segments=3, init_functions=3, seed=seed)
    trace = run_metropolis_hastings(ctx, config)
    return [trace.state_at(t) for t in (-1, 400, 1200, 1999)]


def forcing_context():
    """chain_context's mode-sp instance with position 13 and atom 5 (x)
    forced in, and position 20 and atom 6 given prior probability 0."""
    ctx = chain_context(MODE_SP)
    pi, eta = ctx.hyper.pi.copy(), ctx.hyper.eta.copy()
    pi[12], pi[19], eta[4], eta[5] = 1.0, 0.0, 1.0, 0.0
    hyper = Hyperparameters(c1=ctx.hyper.c1, pi=pi, c2=ctx.hyper.c2, eta=eta)
    return PosteriorContext(ctx.series, hyper, ctx.design, MODE_SP)


class TestFlipScreen:
    """FlipScreen against evaluate_stack on every single-flip neighbour:
    unflagged changes agree within the kernel's guard band, and every
    neighbour that evaluate_stack scores -inf is flagged."""

    @staticmethod
    def check(ctx, state):
        screened, flagged, exact = single_flips(ctx, state)
        assert (flagged | np.isfinite(exact)).all()
        assert not flagged.all()
        assert np.abs(screened[~flagged] - exact[~flagged]).max() <= mh.GUARD
        return flagged, exact

    @pytest.mark.parametrize("duplicate", [False, True], ids=["distinct", "duplicate"])
    def test_chain_states(self, duplicate):
        ctx = chain_context(MODE_SP, duplicate)
        for state in chain_states(ctx):
            self.check(ctx, state)

    def test_duplicated_atom_is_flagged(self):
        # atoms 2 and 3 are the same sine: adding the other copy is -inf
        ctx = chain_context(MODE_SP, duplicate=True)
        for copy in (2, 3):
            flagged, exact = self.check(ctx, make_state([1, 13, 28], 40, [1, copy, 5], 7))
            other = flip_of(ctx, atom=5 - copy)
            assert exact[other] == -np.inf and flagged[other]

    @pytest.mark.parametrize("positions", [[1, 13, 20, 21, 28], [1, 13, 20, 22, 28]],
                             ids=["length-one", "split-to-length-one"])
    def test_point_atom_on_a_segment_of_length_one(self, positions):
        # atom 4 is the unit indicator at t = 20: alone in the segment
        # [20, 21) or alone in it once 21 is split off
        ctx = chain_context(MODE_SP)
        self.check(ctx, make_state(positions, 40, [1, 4], 6))
        self.check(ctx, make_state(positions, 40, [1, 2, 4, 5], 6))

    def test_point_atoms_in_closed_form(self, monkeypatch):
        # point100 at n = 60 with the closed form forced: the screen and
        # evaluate_stack read the same gathers, and every neighbour's
        # change agrees with the one the full tables give
        x = np.arange(1.0, 61.0)
        values = (np.where(x > 25, 1.0, 0.0) + np.where(x == 40, 2.0, 0.0)
                  + np.random.default_rng(4).normal(0.0, 0.3, 60))
        series = TimeSeries(values=values)
        design = simulation_design(x, "point100")
        hyper = Hyperparameters.flat(60, design.num_atoms, pi=0.05, eta=0.05)
        full = PosteriorContext(series, hyper, design)
        monkeypatch.setattr(posterior, "SPLIT_MIN_WORK", 0)
        ctx = PosteriorContext(series, hyper, design)
        assert full._loc is None and ctx._loc is not None
        for state in chain_states(ctx):
            _, exact = self.check(ctx, state)
            np.testing.assert_allclose(exact, single_flips(full, state)[2], rtol=0, atol=1e-9)

    def test_forced_and_zero_prior_bits_are_flagged(self):
        ctx = forcing_context()
        flagged, exact = self.check(ctx, make_state([1, 13, 28], 40, [1, 2, 5], 6))
        # removing position 13 or atom 5, adding position 20 or atom 6
        for flip in (flip_of(ctx, position=13), flip_of(ctx, position=20),
                     flip_of(ctx, atom=5), flip_of(ctx, atom=6)):
            assert exact[flip] == -np.inf and flagged[flip]

    def test_random_instances(self, rng):
        checked = 0
        while checked < 25:
            ctx, state = random_instance(rng)
            gidx, ridx = np.flatnonzero(state.gamma), np.flatnonzero(state.r)
            if ctx.num_atoms > 1 and np.isfinite(
                    posterior.evaluate_stack(ctx, gidx[None], ridx[None])[0]):
                self.check(ctx, state)
                checked += 1

    def test_state_without_factors_flags_every_change(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        ctx = chain_context(MODE_SP)
        state = make_state([1, 13, 28], 40, [1, 2, 5], ctx.num_atoms)
        screen = posterior.FlipScreen(ctx, np.flatnonzero(state.gamma), np.flatnonzero(state.r))
        assert not screen.usable
        none = np.array([], dtype=np.int64)
        for gflips, rflips in ((np.arange(1, 40), np.arange(1, 6)), (np.array([13]), none),
                               (none, np.array([2, 3])), (none, none)):
            for flips, (delta, flagged) in zip((gflips, rflips), screen.changes(gflips, rflips)):
                np.testing.assert_array_equal(delta, np.zeros(len(flips)))
                np.testing.assert_array_equal(flagged, np.ones(len(flips), dtype=bool))
