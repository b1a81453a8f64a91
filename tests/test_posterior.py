import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictseg import dictionary, posterior
from dictseg import (
    MODE_P,
    MODE_SP,
    DesignMatrix,
    Hyperparameters,
    LatentState,
    PosteriorContext,
    TimeSeries,
    ValidationError,
    exchange_design,
    log_integrated_posterior,
    simulation_design,
)
from conftest import design_of, indicator, make_state, random_instance, small_context
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
    """Point columns with the cases the split of F'F must get right: a
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
    return DesignMatrix(matrix=F, labels=tuple(f"a{j}" for j in range(F.shape[1])))


CACHE_DESIGNS = {
    "point100-100": lambda: simulation_design(np.arange(1.0, 101.0), "point100"),
    "point100-2000": lambda: simulation_design(np.arange(1.0, 2001.0), "point100"),
    "haar128-100": lambda: simulation_design(np.arange(1.0, 101.0), "haar128"),
    "haar128-2000": lambda: simulation_design(np.arange(1.0, 2001.0), "haar128"),
    "exchange": lambda: exchange_design(np.arange(1.0, 2001.0)),
    "crafted": crafted_design,
}


class TestContextCaches:
    def test_caches_match_definitions(self):
        ctx = small_context()
        y = ctx.series.values
        F = ctx.design.matrix
        assert ctx.yty == pytest.approx(float(y @ y), rel=1e-15)
        np.testing.assert_allclose(ctx.ftf, F.T @ F, atol=1e-12)
        m = ctx.num_atoms
        np.testing.assert_allclose(ctx._gram[:m, m + 1], F.T @ y, atol=1e-12)
        np.testing.assert_allclose(ctx._suffix[:len(y), m + 1],
                                   np.array([y[i:].sum() for i in range(len(y))]),
                                   atol=1e-12)

    def test_mode_checks(self):
        ctx = small_context()
        with pytest.raises(ValidationError):
            ctx.check_state(make_state([1], 12))  # missing atom part in sp mode
        with pytest.raises(ValidationError):
            PosteriorContext(ctx.series, ctx.hyper, None, MODE_SP)

    # F'F and the suffix sums against the full product and the reversed
    # running sum over F, with the point-column split at its size
    # threshold and forced on every design
    @pytest.fixture(params=["threshold", "forced"])
    def split_min_work(self, request, monkeypatch):
        if request.param == "forced":
            monkeypatch.setattr(posterior, "SPLIT_MIN_WORK", 0)

    @pytest.mark.parametrize("name", list(CACHE_DESIGNS))
    def test_caches_match_the_full_products(self, split_min_work, name):
        design = CACHE_DESIGNS[name]()
        F = design.matrix
        n, m = F.shape
        y = np.random.default_rng(5).normal(size=n)
        ctx = PosteriorContext(TimeSeries(values=y), Hyperparameters.flat(n, m), design)
        full = F.T @ F
        point = np.count_nonzero(F, axis=0) <= 1
        assert np.array_equal(ctx.ftf[point], full[point])
        assert np.array_equal(ctx.ftf[:, point], full[:, point])
        assert np.abs(ctx.ftf - full).max() <= 1e-12 * np.abs(full).max()
        suffix = np.zeros((n + 1, m + 2))
        np.cumsum(F[::-1, :], axis=0, out=suffix[n - 1::-1, :m])
        np.cumsum(y[::-1], out=suffix[n - 1::-1, m + 1])
        assert np.array_equal(ctx._suffix, suffix)
        if not point[1:].any():
            assert np.array_equal(ctx.ftf, np.matmul(F.T, F))

    def test_point_rows_are_found_exactly(self):
        F = crafted_design().matrix
        cols, rows, values = posterior._point_rows(F)
        assert np.array_equal(cols, np.flatnonzero(np.count_nonzero(F, axis=0) <= 1))
        assert np.array_equal(values, F[rows, cols])
        assert np.array_equal(values, F[:, cols].sum(axis=0))

    def test_product_past_the_float_range_takes_the_full_product(self, monkeypatch):
        # t·F[t, a] overflows for this column, so its row cannot be read
        # off the index-weighted sum (F'F overflows there too)
        monkeypatch.setattr(posterior, "SPLIT_MIN_WORK", 0)
        F = crafted_design().matrix
        F[50, 43] = 1e307
        out = np.zeros(2 * F.shape[1:])
        with np.errstate(over="ignore"):
            posterior._fill_gram(F, out)
            assert np.array_equal(out, np.matmul(F.T, F))


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
        assert small_context().ftf.shape == (3, 3)

    def test_design_matrix_counts_toward_the_estimate(self, monkeypatch):
        # the caches alone, 8·(M² + n·M) bytes, would fit
        monkeypatch.setattr(dictionary, "_physical_memory", lambda: 8 * (3 * 3 + 12 * 3))
        with pytest.raises(ValidationError, match=str(self.ESTIMATE)):
            small_context()
