import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictseg import posterior
from dictseg import (
    MODE_P,
    MODE_SP,
    Atom,
    Dictionary,
    Hyperparameters,
    LatentState,
    PosteriorContext,
    TimeSeries,
    ValidationError,
    evaluate_dictionary,
    log_integrated_posterior,
    log_prior_inclusion,
)
from conftest import make_state, random_instance, small_context
from oracles import log_integrated_posterior_dense, log_posterior_quadrature


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

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            log_prior_inclusion(np.array([1, 0], bool), np.array([1.0]))

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
        atoms = (Atom("constant"),
                 Atom("sine", {"frequency": 0.11}),
                 Atom("poly", {"degree": 1}),
                 Atom("point_indicator", {"location": 5.0}))
        design = evaluate_dictionary(Dictionary(atoms=atoms), series.covariate)
        perm = [0, 2, 3, 1]  # keeps the constant first
        shuffled = evaluate_dictionary(
            Dictionary(atoms=tuple(atoms[i] for i in perm)), series.covariate)
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
        design = evaluate_dictionary(
            Dictionary(atoms=(Atom("constant"), Atom("poly", {"degree": 1}))),
            series.covariate)
        hyper = Hyperparameters.flat(n, 2, pi=0.1, eta=0.1)
        ctx = PosteriorContext(series, hyper, design, MODE_SP)
        state = make_state([1], n, [1], 2)
        assert log_integrated_posterior(state, ctx) == -np.inf
        assert log_integrated_posterior_dense(state, ctx) == -np.inf

    def test_duplicate_atoms_are_rejected(self, rng):
        n = 12
        series = TimeSeries(values=rng.normal(size=n))
        atoms = (Atom("constant"),
                 Atom("sine", {"frequency": 0.2}),
                 Atom("sine", {"frequency": 0.2}))
        design = evaluate_dictionary(Dictionary(atoms=atoms), series.covariate)
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
            if rng.random() < 0.5:
                extra = Atom("custom", fn=lambda x, f=f1, c=scale: c * np.sin(2 * np.pi * f * x))
            else:
                extra = Atom("custom", fn=lambda x, f=f1, g=f2: (np.sin(2 * np.pi * f * x)
                                                                + np.cos(2 * np.pi * g * x)))
            atoms = (Atom("constant"), Atom("sine", {"frequency": float(f1)}),
                     Atom("cosine", {"frequency": float(f2)}), extra)
            design = evaluate_dictionary(Dictionary(atoms=atoms), series.covariate)
            hyper = Hyperparameters.flat(n, len(atoms), pi=0.1, eta=0.2)
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


class TestContextCaches:
    def test_caches_match_definitions(self):
        ctx = small_context()
        y = ctx.series.values
        F = ctx.design.matrix
        assert ctx.yty == pytest.approx(float(y @ y), rel=1e-15)
        np.testing.assert_allclose(ctx.ftf, F.T @ F, atol=1e-12)
        np.testing.assert_allclose(ctx.fty, F.T @ y, atol=1e-12)
        np.testing.assert_allclose(ctx.suffix_y,
                                   np.array([y[i:].sum() for i in range(len(y))]),
                                   atol=1e-12)

    def test_mode_checks(self):
        ctx = small_context()
        with pytest.raises(ValidationError):
            ctx.check_state(make_state([1], 12))  # missing atom part in sp mode
        with pytest.raises(ValidationError):
            PosteriorContext(ctx.series, ctx.hyper, None, MODE_SP)


def stack_context(mode):
    """n = 30 with seven atoms, the second repeated as the seventh."""
    rng = np.random.default_rng(8)
    n = 30
    series = TimeSeries(values=rng.normal(size=n) + np.where(np.arange(n) > 14, 1.5, 0.0))
    if mode == MODE_P:
        return PosteriorContext(series, Hyperparameters.flat(n, None, pi=0.1), None, MODE_P)
    atoms = (Atom("constant"), Atom("sine", {"frequency": 0.1}),
             Atom("cosine", {"frequency": 0.1}), Atom("point_indicator", {"location": 12.0}),
             Atom("poly", {"degree": 1}), Atom("sine", {"frequency": 0.23}),
             Atom("sine", {"frequency": 0.1}))
    design = evaluate_dictionary(Dictionary(atoms=atoms), series.covariate)
    hyper = Hyperparameters.flat(n, len(atoms), c1=20.0, c2=30.0, pi=0.1, eta=0.2)
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
    def test_estimate_above_physical_memory_is_rejected(self, monkeypatch):
        monkeypatch.setattr(posterior, "_physical_memory", lambda: 100)
        with pytest.raises(ValidationError, match=str(8 * (3 * 3 + 12 * 3))):
            small_context()
        # mode p builds neither cache
        small_context(mode=MODE_P)

    def test_estimate_within_physical_memory_builds(self, monkeypatch):
        monkeypatch.setattr(posterior, "_physical_memory", lambda: 8 * (3 * 3 + 12 * 3))
        assert small_context().ftf.shape == (3, 3)
