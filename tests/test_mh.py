import csv

import numpy as np
import pytest

from dictseg import mh
from dictseg import (
    MODE_P,
    MODE_SP,
    Atom,
    ComputeError,
    Dictionary,
    Hyperparameters,
    InclusionProbabilities,
    MHConfig,
    PosteriorContext,
    TimeSeries,
    ValidationError,
    evaluate_dictionary,
    inclusion_probabilities,
    intersect_selections,
    log_integrated_posterior,
    propose_flip,
    run_metropolis_hastings,
    select_median_probability_model,
)
from conftest import make_state, small_context
from oracles import sequential_chain


class FixedChoiceRNG:
    """Stands in for a Generator when the flip indices are forced."""

    def __init__(self, one_based):
        self.one_based = np.asarray(one_based)

    def choice(self, length, size, replace):
        assert size == len(self.one_based)
        # _draw_flip_indices maps its draw j to vector index j + 1, so the
        # 1-based position p needs j = p - 2
        return self.one_based - 2


class TestProposeFlip:
    def test_defined_flip(self):
        state = make_state([1], 4, [1], 3)
        rng = FixedChoiceRNG([2, 4])
        out = propose_flip(state, "gamma", 2, rng)
        np.testing.assert_array_equal(out.gamma, [True, True, False, True])

    def test_involution(self):
        state = make_state([1, 3], 6, [1], 3)
        rng = FixedChoiceRNG([3, 5])
        once = propose_flip(state, "gamma", 2, rng)
        twice = propose_flip(once, "gamma", 2, FixedChoiceRNG([3, 5]))
        np.testing.assert_array_equal(twice.gamma, state.gamma)

    def test_first_bit_never_flips(self):
        state = make_state([1], 6, [1], 3)
        rng = np.random.default_rng(0)
        for _ in range(500):
            out = propose_flip(state, "gamma", 3, rng)
            assert out.gamma[0]
            out = propose_flip(state, "r", 1, rng)
            assert out.r[0]

    def test_count_out_of_range(self):
        state = make_state([1], 4, [1], 3)
        with pytest.raises(ValidationError):
            propose_flip(state, "gamma", 4, np.random.default_rng(0))

    def test_empirical_symmetry(self):
        # s and s_prime differ in exactly two free bits; the forward and
        # backward proposal frequencies agree within 3 standard errors
        n = 8
        s = make_state([1, 3], n)
        s_prime = make_state([1, 4, 6], n)
        trials = 200_000
        rng = np.random.default_rng(11)
        hits_fwd = sum(
            np.array_equal(propose_flip(s, "gamma", 2, rng).gamma, s_prime.gamma)
            for _ in range(trials))
        hits_bwd = sum(
            np.array_equal(propose_flip(s_prime, "gamma", 2, rng).gamma, s.gamma)
            for _ in range(trials))
        p = 1.0 / 21.0  # C(7, 2) index pairs
        se = np.sqrt(2 * p * (1 - p) / trials)
        assert abs(hits_fwd - hits_bwd) / trials <= 3 * se


def run_small_chain(seed=5, total=4000, burn_in=1000, **kw):
    ctx = small_context(n=12)
    config = MHConfig(total_iterations=total, burn_in=burn_in, flip_gamma=1,
                      flip_r=1, init_segments=2, init_functions=2, seed=seed,
                      mode=MODE_SP, **kw)
    return ctx, config, run_metropolis_hastings(ctx, config, snapshot_every=500)


class TestRunChain:
    def test_deterministic_given_seed(self):
        _, _, t1 = run_small_chain()
        _, _, t2 = run_small_chain()
        np.testing.assert_array_equal(t1.accepted, t2.accepted)
        np.testing.assert_array_equal(t1.log_density, t2.log_density)
        np.testing.assert_array_equal(t1.flip_indices, t2.flip_indices)
        np.testing.assert_array_equal(t1.initial_gamma, t2.initial_gamma)

    def test_log_density_matches_reevaluation(self):
        ctx, _, trace = run_small_chain()
        for t in (0, 1, 499, 500, 777, 3999):
            state = trace.state_at(t)
            assert trace.log_density[t] == pytest.approx(
                log_integrated_posterior(state, ctx), abs=1e-10)

    def test_state_reconstruction_consistency(self):
        _, _, trace = run_small_chain()
        it = trace.iter_states(0)
        for t, gamma, r in it:
            if t in (0, 250, 500, 750, 1500, 3999):
                direct = trace.state_at(t)
                np.testing.assert_array_equal(gamma, direct.gamma)
                np.testing.assert_array_equal(r, direct.r)

    def test_initial_state_counts(self):
        ctx, config, trace = run_small_chain()
        assert trace.initial_gamma.sum() == config.init_segments
        assert trace.initial_r.sum() == config.init_functions
        assert trace.initial_gamma[0] and trace.initial_r[0]

    def test_mode_p_never_touches_atoms(self):
        ctx = small_context(n=12, mode=MODE_P)
        config = MHConfig(total_iterations=500, burn_in=100, flip_gamma=1,
                          init_segments=2, seed=3, mode=MODE_P)
        trace = run_metropolis_hastings(ctx, config)
        assert trace.initial_r is None
        assert (trace.which == 0).all()

    def test_mode_mismatch_rejected(self):
        ctx = small_context(n=12)
        config = MHConfig(mode=MODE_P)
        with pytest.raises(ValidationError):
            run_metropolis_hastings(ctx, config)

    def test_impossible_initialization_errors_out(self):
        n = 10
        series = TimeSeries(values=np.zeros(n))  # every state has -inf density
        hyper = Hyperparameters.flat(n, None, pi=0.2)
        ctx = PosteriorContext(series, hyper, None, MODE_P)
        config = MHConfig(total_iterations=10, burn_in=1, mode=MODE_P,
                          init_segments=2, flip_gamma=1)
        with pytest.raises(ComputeError):
            run_metropolis_hastings(ctx, config)

    def test_unreachable_state_never_visited(self):
        # two identical sine atoms: any state selecting both is improper
        # (singular design) and must never be accepted
        rng = np.random.default_rng(9)
        n = 16
        series = TimeSeries(values=rng.normal(size=n) + 1.0)
        atoms = (Atom("constant"), Atom("sine", {"frequency": 0.2}),
                 Atom("sine", {"frequency": 0.2}))
        design = evaluate_dictionary(Dictionary(atoms=atoms), series.covariate)
        hyper = Hyperparameters.flat(n, 3, pi=0.1, eta=0.45)
        ctx = PosteriorContext(series, hyper, design, MODE_SP)
        config = MHConfig(total_iterations=3000, burn_in=100, flip_gamma=1,
                          flip_r=1, init_segments=1, init_functions=2, seed=1,
                          mode=MODE_SP)
        trace = run_metropolis_hastings(ctx, config)
        for _, _, r in trace.iter_states(0):
            assert not (r[1] and r[2])


class TestInclusionProbabilities:
    def test_componentwise_means_match_replay(self):
        ctx, config, trace = run_small_chain()
        incl = inclusion_probabilities(trace, config.burn_in)
        gamma_sum = np.zeros(trace.n)
        r_sum = np.zeros(trace.num_atoms)
        count = 0
        for t, gamma, r in trace.iter_states(config.burn_in):
            gamma_sum += gamma
            r_sum += r
            count += 1
        np.testing.assert_allclose(incl.gamma_prob, gamma_sum / count, atol=1e-12)
        np.testing.assert_allclose(incl.r_prob, r_sum / count, atol=1e-12)
        assert incl.gamma_prob[0] == 1.0
        assert incl.r_prob[0] == 1.0

    def test_burn_in_must_leave_samples(self):
        _, _, trace = run_small_chain()
        with pytest.raises(ValidationError):
            inclusion_probabilities(trace, len(trace))

    def test_occupancy_any_matches_replay(self):
        ctx, config, trace = run_small_chain()
        tracked = [4, 7]
        value = trace.occupancy_any(tracked, "gamma", config.burn_in)
        hits = 0
        count = 0
        for t, gamma, _ in trace.iter_states(config.burn_in):
            hits += bool(gamma[3] or gamma[6])
            count += 1
        assert value == pytest.approx(hits / count, abs=1e-12)

    def test_acceptance_rates(self):
        _, _, trace = run_small_chain()
        overall = trace.acceptance_rate()
        assert 0.0 <= overall <= 1.0
        blocks = trace.acceptance_by_block(1000)
        assert len(blocks) == 4
        assert overall == pytest.approx(trace.accepted.mean())


class TestModelSelection:
    def test_published_threshold_example(self):
        probs = InclusionProbabilities(gamma_prob=np.array([1.0, 0.55, 0.48]),
                                       r_prob=np.array([1.0, 0.2]))
        state = select_median_probability_model(probs)
        np.testing.assert_array_equal(state.gamma, [True, True, False])
        np.testing.assert_array_equal(state.r, [True, False])

    def test_only_pinned_bit_survives(self):
        probs = InclusionProbabilities(gamma_prob=np.array([1.0, 0.0, 0.0]))
        state = select_median_probability_model(probs)
        assert state.positions().tolist() == [1]
        assert state.r is None

    def test_exact_half_is_excluded(self):
        probs = InclusionProbabilities(gamma_prob=np.array([1.0, 0.5, 0.5000001]))
        state = select_median_probability_model(probs)
        np.testing.assert_array_equal(state.gamma, [True, False, True])

    def test_threshold_domain(self):
        probs = InclusionProbabilities(gamma_prob=np.array([1.0, 0.4]))
        with pytest.raises(ValidationError):
            select_median_probability_model(probs, threshold=1.0)

    def test_intersect_selections(self):
        a = make_state([1, 3, 5], 6, [1, 2], 3)
        b = make_state([1, 3, 6], 6, [1, 3], 3)
        out = intersect_selections([a, b])
        assert out.positions().tolist() == [1, 3]
        assert out.atoms().tolist() == [1]


class TestTraceExport:
    def test_csv_round_trip(self, tmp_path):
        ctx, config, trace = run_small_chain(total=200, burn_in=50)
        path = tmp_path / "trace.csv"
        trace.export_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        t = int(rows[7]["iteration"])
        assert rows[7]["target"] in ("gamma", "r")
        assert float(rows[7]["log_density"]) == pytest.approx(trace.log_density[t])
        changed = rows[7]["changed"]
        expected = trace.changed_indices(t) + 1
        got = [int(v) for v in changed.split(";")] if changed else []
        assert got == expected.tolist()


def chain_context(mode, duplicate=False):
    """n = 40: two change-points, a sine and a peak; in mode sp a
    dictionary of 6 atoms, or 7 with the sine twice."""
    rng = np.random.default_rng(31)
    n = 40
    t = np.arange(1.0, n + 1.0)
    values = (np.where(t > 12, 1.5, 0.0) - np.where(t > 27, 2.0, 0.0)
              + 0.6 * np.sin(2 * np.pi * t / 10) + np.where(t == 20, 2.0, 0.0)
              + rng.normal(0.0, 0.4, n))
    series = TimeSeries(values=values)
    if mode == MODE_P:
        return PosteriorContext(series, Hyperparameters.flat(n, None, pi=0.05), None, MODE_P)
    atoms = [Atom("constant"), Atom("sine", {"frequency": 0.1}),
             Atom("cosine", {"frequency": 0.1}), Atom("point_indicator", {"location": 20.0}),
             Atom("poly", {"degree": 1}), Atom("sine", {"frequency": 0.23})]
    if duplicate:
        atoms.insert(2, Atom("sine", {"frequency": 0.1}))
    design = evaluate_dictionary(Dictionary(atoms=tuple(atoms)), series.covariate)
    hyper = Hyperparameters.flat(n, len(atoms), pi=0.05, eta=0.3)
    return PosteriorContext(series, hyper, design, MODE_SP)


def assert_same_chain(trace, reference):
    for field in ("which", "accepted", "flip_offsets", "flip_indices",
                  "initial_gamma", "initial_r"):
        got, want = getattr(trace, field), getattr(reference, field)
        assert (got is None) == (want is None), field
        if want is not None:
            np.testing.assert_array_equal(got, want, err_msg=field)
    np.testing.assert_allclose(trace.log_density, reference.log_density, rtol=1e-12, atol=0)
    assert trace.initial_log_density == pytest.approx(reference.initial_log_density, rel=1e-12)
    np.testing.assert_array_equal(trace.snapshots_gamma, reference.snapshots_gamma)
    if reference.snapshots_r is not None:
        np.testing.assert_array_equal(trace.snapshots_r, reference.snapshots_r)


CHAIN_CASES = [
    # (mode, flip count, duplicated atom)
    (MODE_SP, 1, False),
    (MODE_SP, 2, False),
    (MODE_P, 1, False),
    (MODE_P, 2, False),
    (MODE_SP, 1, True),
    (MODE_SP, 2, True),
]


class TestBlockKernel:
    @pytest.mark.parametrize("mode,flips,duplicate", CHAIN_CASES)
    def test_same_chain_as_sequential_kernel(self, mode, flips, duplicate):
        ctx = chain_context(mode, duplicate)
        config = MHConfig(total_iterations=3000, burn_in=500, flip_gamma=flips,
                          flip_r=flips, init_segments=3, init_functions=3, seed=17,
                          mode=mode)
        trace = run_metropolis_hastings(ctx, config, snapshot_every=400)
        reference, neg_inf = sequential_chain(ctx, config, snapshot_every=400)
        assert_same_chain(trace, reference)
        assert trace.neg_inf == neg_inf
        assert 0 < trace.accepted.mean() < 0.5
        assert trace.evaluator_calls < len(trace) <= trace.candidates_evaluated

    def test_duplicated_atom_proposals_are_rejected_at_minus_inf(self):
        # with a duplicated atom, every proposal selecting both copies has
        # density -inf; the kernel counts them as the reference does
        ctx = chain_context(MODE_SP, duplicate=True)
        config = MHConfig(total_iterations=3000, burn_in=500, flip_gamma=1, flip_r=1,
                          init_segments=3, init_functions=2, seed=4, mode=MODE_SP)
        trace = run_metropolis_hastings(ctx, config)
        _, neg_inf = sequential_chain(ctx, config)
        assert trace.neg_inf == neg_inf
        assert trace.neg_inf[0] == 0 and trace.neg_inf[1] > 0
        for _, _, r in trace.iter_states(0):
            assert not (r[1] and r[2])

    @pytest.mark.parametrize("cap", [1, 5])
    def test_block_length_does_not_change_the_chain(self, monkeypatch, cap):
        ctx = chain_context(MODE_SP, duplicate=True)
        config = MHConfig(total_iterations=1500, burn_in=500, flip_gamma=2, flip_r=2,
                          init_segments=3, init_functions=3, seed=8, mode=MODE_SP)
        default = run_metropolis_hastings(ctx, config)
        monkeypatch.setattr(mh, "MAX_BLOCK", cap)
        capped = run_metropolis_hastings(ctx, config)
        assert_same_chain(capped, default)
        np.testing.assert_array_equal(capped.log_density, default.log_density)
        assert capped.neg_inf == default.neg_inf
        assert capped.evaluator_calls > default.evaluator_calls
