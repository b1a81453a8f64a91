import csv

import numpy as np
import pytest

from dictseg import mh
from dictseg import (
    MODE_P,
    MODE_SP,
    ComputeError,
    Hyperparameters,
    InclusionProbabilities,
    MHConfig,
    PosteriorContext,
    TimeSeries,
    ValidationError,
    inclusion_probabilities,
    intersect_selections,
    log_integrated_posterior,
    run_metropolis_hastings,
    select_median_probability_model,
)
from dictseg.io import write_trace
from dictseg.posterior import FlipScreen
from conftest import chain_context, design_of, make_state, proposal_hits, small_context
from oracles import sequential_chain


class TestProposeFlip:
    """The kernel's proposals: ``_draw_block`` rows applied by ``_flip``."""

    def test_defined_flip(self):
        # positions {1, 3} of 6; rows flip {2, 4}, {3, 5} and nothing (padding)
        rows = mh._flip(np.array([0, 2]), np.array([[1, 3], [2, 4], [6, 6]]), 6)
        np.testing.assert_array_equal(rows, [[0, 1, 2, 3], [0, 4, 6, 6], [0, 2, 6, 6]])

    def test_involution(self):
        selected = np.array([0, 2, 3])
        flips = mh._draw_block(np.random.PCG64(3), 200, (8, 3))[1]
        once = mh._flip(selected, flips, 8)
        for row, flip in zip(once, flips):
            twice = mh._flip(row[row < 8], flip[None], 8)[0]
            np.testing.assert_array_equal(twice[twice < 8], selected)

    def test_first_bit_never_flips(self):
        on_gamma, flips_g, flips_r, *_ = mh._draw_block(np.random.PCG64(0), 500,
                                                        (6, 3), (4, 1))
        on_gamma = np.array(on_gamma)
        assert on_gamma.any() and not on_gamma.all()
        # padding rows hold the vector's length; the others every free bit
        assert (flips_g[~on_gamma] == 6).all() and (flips_r[on_gamma] == 4).all()
        assert set(flips_g[on_gamma].ravel()) == {1, 2, 3, 4, 5}
        assert set(flips_r[~on_gamma].ravel()) == {1, 2, 3}

    def test_count_out_of_range(self):
        ctx = small_context(n=12)  # M = 3
        for flips in ({"flip_gamma": 12}, {"flip_r": 3}):
            config = MHConfig(total_iterations=5, burn_in=1, init_segments=2,
                              init_functions=2, **flips)
            with pytest.raises(ValidationError, match="exceeds"):
                run_metropolis_hastings(ctx, config)
        # every free bit at once is allowed; mode p has no atoms to flip
        run_metropolis_hastings(ctx, MHConfig(total_iterations=5, burn_in=1, flip_gamma=11,
                                              flip_r=2))
        run_metropolis_hastings(small_context(n=12, mode=MODE_P),
                                MHConfig(total_iterations=5, burn_in=1, flip_r=3))

    def test_empirical_symmetry(self):
        # {1, 3} and {1, 4} differ in two free bits; the forward and
        # backward proposal frequencies agree within 3 standard errors
        trials = 200_000
        hits_fwd, hits_bwd = proposal_hits(11, trials)
        p = 1.0 / 21.0  # C(7, 2) index pairs
        for hits in (hits_fwd, hits_bwd):
            assert abs(hits / trials - p) <= 4 * np.sqrt(p * (1 - p) / trials)
        se = np.sqrt(2 * p * (1 - p) / trials)
        assert abs(hits_fwd - hits_bwd) / trials <= 3 * se


def run_small_chain(seed=5, total=4000, burn_in=1000, **kw):
    ctx = small_context(n=12)
    config = MHConfig(total_iterations=total, burn_in=burn_in, flip_gamma=1,
                      flip_r=1, init_segments=2, init_functions=2, seed=seed, **kw)
    return ctx, config, run_metropolis_hastings(ctx, config)


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
                          init_segments=2, seed=3)
        trace = run_metropolis_hastings(ctx, config)
        assert trace.initial_r is None
        assert (trace.which == 0).all()

    def test_impossible_initialization_errors_out(self):
        n = 10
        series = TimeSeries(values=np.zeros(n))  # every state has -inf density
        hyper = Hyperparameters.flat(n, None, pi=0.2)
        ctx = PosteriorContext(series, hyper, None, MODE_P)
        config = MHConfig(total_iterations=10, burn_in=1,
                          init_segments=2, flip_gamma=1)
        with pytest.raises(ComputeError):
            run_metropolis_hastings(ctx, config)

    def test_unreachable_state_never_visited(self):
        # two identical sine atoms: any state selecting both is improper
        # (singular design) and must never be accepted
        rng = np.random.default_rng(9)
        n = 16
        series = TimeSeries(values=rng.normal(size=n) + 1.0)
        x = series.covariate
        design = design_of(x, np.sin(2.0 * np.pi * 0.2 * x), np.sin(2.0 * np.pi * 0.2 * x))
        hyper = Hyperparameters.flat(n, 3, pi=0.1, eta=0.45)
        ctx = PosteriorContext(series, hyper, design, MODE_SP)
        config = MHConfig(total_iterations=3000, burn_in=100, flip_gamma=1,
                          flip_r=1, init_segments=1, init_functions=2, seed=1)
        trace = run_metropolis_hastings(ctx, config)
        for _, _, r in trace.iter_states(0):
            assert not (r[1] and r[2])


class TestInclusionProbabilities:
    def test_componentwise_means_match_replay(self):
        ctx, config, trace = run_small_chain()
        incl = inclusion_probabilities(trace, config.burn_in)
        gamma_sum = np.zeros(ctx.n)
        r_sum = np.zeros(ctx.num_atoms)
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

    @pytest.mark.parametrize("block", [0, -5])
    def test_acceptance_block_must_be_positive(self, block):
        _, _, trace = run_small_chain(total=200, burn_in=50)
        with pytest.raises(ValidationError, match="block must be >= 1"):
            trace.acceptance_by_block(block)

    def test_unknown_target_is_rejected(self):
        _, _, trace = run_small_chain(total=200, burn_in=50)
        with pytest.raises(ValidationError):
            trace.acceptance_rate("gama")
        with pytest.raises(ValidationError):
            trace.occupancy_any([2], "gama")

    def test_occupancy_indices_out_of_range(self):
        _, _, trace = run_small_chain(total=200, burn_in=50)
        for indices in ([0], [2, 13]):
            with pytest.raises(ValidationError):
                trace.occupancy_any(indices)

    def test_atom_target_needs_atoms(self):
        ctx = small_context(n=12, mode=MODE_P)
        config = MHConfig(total_iterations=200, burn_in=50, flip_gamma=1,
                          init_segments=2, seed=3)
        trace = run_metropolis_hastings(ctx, config)
        with pytest.raises(ValidationError):
            trace.acceptance_rate("r")
        with pytest.raises(ValidationError):
            trace.occupancy_any([2], "r")


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
        write_trace(trace, path)
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


def assert_same_chain(trace, reference):
    for field in ("which", "accepted", "flip_offsets", "flip_indices",
                  "initial_gamma", "initial_r"):
        got, want = getattr(trace, field), getattr(reference, field)
        assert (got is None) == (want is None), field
        if want is not None:
            np.testing.assert_array_equal(got, want, err_msg=field)
    np.testing.assert_allclose(trace.log_density, reference.log_density, rtol=1e-12, atol=0)
    assert trace.initial_log_density == pytest.approx(reference.initial_log_density, rel=1e-12)


CHAIN_CASES = [
    # (mode, (flip_gamma, flip_r), duplicated atom)
    (MODE_SP, (1, 1), False),
    (MODE_SP, (2, 2), False),
    (MODE_P, (1, 1), False),
    (MODE_P, (2, 2), False),
    (MODE_SP, (1, 1), True),
    (MODE_SP, (2, 2), True),
    # unequal counts: the words a proposal reads depend on its coin
    (MODE_SP, (1, 3), False),
]


def flips_id(value):
    """Test id of a (flip_gamma, flip_r) pair: one count when they agree."""
    if isinstance(value, tuple):
        return str(value[0]) if value[0] == value[1] else "-".join(map(str, value))
    return None


class TestBlockKernel:
    @pytest.mark.parametrize("mode,flips,duplicate", CHAIN_CASES, ids=flips_id)
    def test_same_chain_as_sequential_kernel(self, mode, flips, duplicate):
        ctx = chain_context(mode, duplicate)
        config = MHConfig(total_iterations=3000, burn_in=500, flip_gamma=flips[0],
                          flip_r=flips[1], init_segments=3, init_functions=3, seed=17)
        trace = run_metropolis_hastings(ctx, config)
        reference, neg_inf = sequential_chain(ctx, config)
        assert_same_chain(trace, reference)
        assert trace.neg_inf == neg_inf
        assert 0 < trace.accepted.mean() < 0.5
        assert trace.evaluator_calls < len(trace) <= trace.candidates_evaluated
        assert len(trace) <= trace.proposals_drawn

    def test_duplicated_atom_proposals_are_rejected_at_minus_inf(self):
        # with a duplicated atom, every proposal selecting both copies has
        # density -inf; the kernel counts them as the reference does
        ctx = chain_context(MODE_SP, duplicate=True)
        config = MHConfig(total_iterations=3000, burn_in=500, flip_gamma=1, flip_r=1,
                          init_segments=3, init_functions=2, seed=4)
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
                          init_segments=3, init_functions=3, seed=8)
        default = run_metropolis_hastings(ctx, config)
        monkeypatch.setattr(mh, "MAX_BLOCK", cap)
        capped = run_metropolis_hastings(ctx, config)
        assert_same_chain(capped, default)
        np.testing.assert_array_equal(capped.log_density, default.log_density)
        assert capped.neg_inf == default.neg_inf
        assert capped.evaluator_calls > default.evaluator_calls


# ways to run a single-flip chain in mode sp: (SCREEN_MIN_WORK, GUARD)
SCREEN_WAYS = {
    "screen": (0, mh.GUARD),            # every state through FlipScreen
    "stack": (float("inf"), mh.GUARD),  # every state through evaluate_stack
    "rescore": (0, float("inf")),       # screened, every proposal re-scored
}


class TestScreenedKernel:
    @pytest.mark.parametrize("duplicate", [False, True], ids=["distinct", "duplicate"])
    def test_screen_stack_and_rescore_give_the_sequential_chain(self, monkeypatch,
                                                                duplicate):
        ctx = chain_context(MODE_SP, duplicate)
        config = MHConfig(total_iterations=3000, burn_in=500, flip_gamma=1, flip_r=1,
                          init_segments=3, init_functions=3, seed=17)
        reference, neg_inf = sequential_chain(ctx, config)
        traces = {}
        for way, (gate, guard) in SCREEN_WAYS.items():
            monkeypatch.setattr(mh, "SCREEN_MIN_WORK", gate)
            monkeypatch.setattr(mh, "GUARD", guard)
            trace = traces[way] = run_metropolis_hastings(ctx, config)
            assert_same_chain(trace, reference)
            np.testing.assert_array_equal(trace.log_density, traces["screen"].log_density)
            assert trace.initial_log_density == reference.initial_log_density
            assert trace.neg_inf == neg_inf
            assert len(trace) <= trace.candidates_evaluated
        assert traces["screen"].evaluator_calls < len(reference)
        assert traces["stack"].rescored == 0
        # every proposal the chain walked was sent on to evaluate_stack
        assert traces["rescore"].rescored >= len(reference)
        assert traces["screen"].rescored < traces["rescore"].rescored
        if duplicate:
            # proposals that select both copies of the sine are flagged
            assert traces["screen"].rescored >= sum(neg_inf) > 0

    def test_gate_follows_the_state_size(self, monkeypatch):
        # with the gate between the chain's state sizes, passes switch
        # between the two ways and the chain is still the sequential one
        ctx = chain_context(MODE_SP)
        config = MHConfig(total_iterations=3000, burn_in=500, flip_gamma=1, flip_r=1,
                          init_segments=3, init_functions=3, seed=17)
        reference, neg_inf = sequential_chain(ctx, config)
        sizes = [np.count_nonzero(g) * (np.count_nonzero(r) + 1) ** 2
                 for _, g, r in reference.iter_states(0)]
        monkeypatch.setattr(mh, "SCREEN_MIN_WORK", int(np.median(sizes)))
        assert min(sizes) < mh.SCREEN_MIN_WORK <= max(sizes)
        trace = run_metropolis_hastings(ctx, config)
        assert_same_chain(trace, reference)
        assert trace.neg_inf == neg_inf

    @pytest.mark.parametrize("way", [*SCREEN_WAYS, "p"])
    def test_counts_are_the_calls_made(self, monkeypatch, way):
        # the trace counts the evaluate_stack and FlipScreen.changes calls
        # made after the initial state, the rows those calls score, and
        # the screens built
        made = {"stack": [], "screen": [], "built": []}
        started = []

        def counted(kind, call, rows):
            def wrapper(*args):
                if started:
                    made[kind].append(rows(*args))
                return call(*args)
            return wrapper

        draw_block = mh._draw_block
        monkeypatch.setattr(mh, "_draw_block",
                            lambda *args: started.append(1) or draw_block(*args))
        monkeypatch.setattr(mh, "evaluate_stack",
                            counted("stack", mh.evaluate_stack, lambda ctx, g, r: len(g)))
        monkeypatch.setattr(FlipScreen, "changes",
                            counted("screen", FlipScreen.changes, lambda _, g, r: len(g) + len(r)))
        monkeypatch.setattr(mh, "FlipScreen", counted("built", FlipScreen, lambda *args: 1))
        if way == "p":
            ctx, flips = chain_context(MODE_P), 2
        else:
            ctx, flips = chain_context(MODE_SP, duplicate=True), 1
            monkeypatch.setattr(mh, "SCREEN_MIN_WORK", SCREEN_WAYS[way][0])
            monkeypatch.setattr(mh, "GUARD", SCREEN_WAYS[way][1])
        config = MHConfig(total_iterations=3000, burn_in=500, flip_gamma=flips, flip_r=flips,
                          init_segments=3, init_functions=3, seed=17)
        trace = run_metropolis_hastings(ctx, config)
        assert trace.evaluator_calls == len(made["stack"]) + len(made["screen"])
        assert trace.candidates_evaluated == sum(made["stack"]) + sum(made["screen"])
        assert trace.screens_built == len(made["built"])
        if way in ("stack", "p"):
            assert not made["screen"] and trace.rescored == 0 and trace.screens_built == 0
        elif way == "screen":
            assert 0 < trace.rescored < sum(made["screen"])
            # every state is screened on its first pass, except where an
            # accept undoes the one before it and takes back its screen
            accepts = np.column_stack((trace.which[trace.accepted], trace.flip_indices))
            undos = int((accepts[1:] == accepts[:-1]).all(axis=1).sum())
            assert undos > 0
            assert len(accepts) - undos <= trace.screens_built <= len(accepts) - undos + 1
        else:
            assert trace.rescored == sum(made["screen"])

    def test_pending_states_are_scored_in_stacks(self, monkeypatch):
        # a block cap of 1 flushes the accepted states one at a time
        ctx = chain_context(MODE_SP, duplicate=True)
        config = MHConfig(total_iterations=1500, burn_in=500, flip_gamma=1, flip_r=1,
                          init_segments=3, init_functions=3, seed=8)
        monkeypatch.setattr(mh, "SCREEN_MIN_WORK", 0)
        default = run_metropolis_hastings(ctx, config)
        monkeypatch.setattr(mh, "MAX_BLOCK", 1)
        capped = run_metropolis_hastings(ctx, config)
        assert_same_chain(capped, default)
        np.testing.assert_array_equal(capped.log_density, default.log_density)


def numpy_block(rng, size, gamma, r):
    """What ``mh._draw_block`` returns, drawn one Generator call at a time
    in the sequential chain's order, with the state before each uniform
    and the state at the end."""
    on_gamma, rows_g, rows_r, uniforms, before = [], [], [], [], []
    for _ in range(size):
        use_gamma = r is None or rng.random() < 0.5
        flips = mh._draw_flip_indices(rng, *(gamma if use_gamma else r))
        on_gamma.append(use_gamma)
        rows_g.append(flips if use_gamma else np.full(gamma[1], gamma[0]))
        if r is not None:
            rows_r.append(np.full(r[1], r[0]) if use_gamma else flips)
        before.append(rng.bit_generator.state)
        uniforms.append(rng.random())
    return on_gamma, rows_g, rows_r, uniforms, before, rng.bit_generator.state


def stream_position(state):
    """A PCG64 state without the stale half-word numpy keeps when none
    is buffered."""
    return (state["state"]["state"], state["state"]["inc"],
            state["uinteger"] if state["has_uint32"] else None)


# lengths whose flips Lemire's method draws again about a quarter of the
# time, with 32-bit and with 64-bit draws
BIG = 3 * 2**30 + 1
BIG64 = 3 * 2**61 + 1

BLOCK_CASES = [
    # ((length, count) of gamma, of r or None)
    ((2, 1), None),                   # a range of 0 draws no word
    ((101, 1), (124, 2)),
    ((101, 3), (124, 4)),
    ((20000, 2), (2, 1)),
    ((20000, 4), (101, 2)),
    ((20001, 401), (101, 1)),         # numpy's tail shuffle
    ((BIG, 1), (BIG, 3)),
    ((BIG64, 2), (124, 1)),           # 64-bit draws
    # the presets' flip counts: 2-bit flips in modes sp and p (default),
    # single flips on a long series (application)
    ((101, 2), (124, 2)),
    ((101, 2), None),
    ((20000, 1), (12, 1)),
]

# one block on each side of the crossover between the two decoders
BLOCK_SIZES = [1, mh.ARRAY_MIN_BLOCK - 1, mh.ARRAY_MIN_BLOCK, 64]


class TestDrawBlock:
    """The bulk decoders against numpy's own draws on the same seed."""

    @pytest.mark.parametrize("gamma,r", BLOCK_CASES)
    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    def test_same_draws_and_state_as_generator_calls(self, gamma, r, buffered):
        for size in BLOCK_SIZES:
            ours = np.random.Generator(np.random.PCG64(5))
            theirs = np.random.Generator(np.random.PCG64(5))
            if buffered:
                # leaves the high half of a word buffered
                ours.integers(7)
                theirs.integers(7)
            on_gamma, flips_g, flips_r, uniforms, start, marks = mh._draw_block(
                ours.bit_generator, size, gamma, r)
            want = numpy_block(theirs, size, gamma, r)
            assert on_gamma == want[0], size
            np.testing.assert_array_equal(flips_g, np.array(want[1]), err_msg=str(size))
            if r is None:
                assert flips_r is None
            else:
                np.testing.assert_array_equal(flips_r, np.array(want[2]), err_msg=str(size))
            assert uniforms == want[3], size
            assert stream_position(ours.bit_generator.state) == stream_position(want[5]), size
            # a seek to a mark is the stream of a proposal that draws no uniform
            probe = np.random.PCG64(0)
            for mark, before in zip(marks, want[4]):
                mh._seek(probe, start, *mark)
                assert stream_position(probe.state) == stream_position(before), size

    @pytest.mark.parametrize("length,bits", [(BIG, 32), (BIG64, 64)], ids=["32-bit", "64-bit"])
    def test_rejections_are_drawn_again(self, monkeypatch, length, bits):
        # without a rejection, each proposal's one flip is one draw
        size = 64
        handed = []
        array = mh._decode_array

        def decode_array(*args):
            block = array(*args)
            handed.append(block is None)
            return block

        monkeypatch.setattr(mh, "_decode_array", decode_array)
        rng = np.random.Generator(np.random.PCG64(5))
        _, flips, _, _, _, marks = mh._draw_block(rng.bit_generator, size, (length, 1))
        # the array decoder covers 32-bit draws, finds the rejections and
        # hands the block to the scalar decoder; 64-bit draws go there
        # without an attempt
        assert handed == [True]
        assert (mh._ranges((length, 1), None) is None) == (bits == 64)
        words, half = marks[-1][0] + 1, marks[-1][1]
        draws = 2 * (words - size) - (half is not None) if bits == 32 else words - size
        assert draws > size
        want = numpy_block(np.random.Generator(np.random.PCG64(5)), size, (length, 1), None)
        np.testing.assert_array_equal(flips, np.array(want[1]))

    def test_words_beyond_the_first_read_are_drawn(self):
        # the first read assumes no rejections and 32-bit draws; 64-bit
        # draws of five flips need more
        rng = np.random.Generator(np.random.PCG64(9))
        _, flips, _, uniforms, _, marks = mh._draw_block(rng.bit_generator, 8,
                                                         (2**40, 5))
        assert marks[-1][0] + 1 > 8 * (2 + 5)
        want = numpy_block(np.random.Generator(np.random.PCG64(9)), 8, (2**40, 5), None)
        np.testing.assert_array_equal(flips, np.array(want[1]))
        assert uniforms == want[3]

    @pytest.mark.parametrize("gamma,r,covered", [
        ((101, 2), (124, 2), True),
        ((101, 2), None, True),
        ((20000, 1), (12, 1), True),
        ((101, 1), (124, 2), False),      # unequal flip counts
        ((BIG64, 2), (124, 2), False),    # 64-bit draws
        ((20001, 401), None, False),      # numpy's tail shuffle
        ((2, 1), None, False),            # a range of 0
        ((4, 3), None, False),            # Floyd's first range is 0
    ])
    def test_cases_the_array_decoder_hands_on(self, gamma, r, covered):
        # outside its layout the array decoder returns None at once and
        # leaves the generator where it was
        bit_generator = np.random.PCG64(5)
        before = bit_generator.state
        block = mh._decode_array(bit_generator, mh.ARRAY_MIN_BLOCK, gamma, r)
        assert (block is not None) == covered
        if not covered:
            assert bit_generator.state == before

    def test_array_decoder_matches_scalar_decoder(self):
        # random shapes, sizes and half-word states: the same block and
        # the same generator state from both decoders, or a hand-off
        cases = np.random.default_rng(11)
        decoded = 0
        for _ in range(300):
            count = int(cases.integers(1, 5))
            lengths = [count + 1, count + 2, 8, 101, 124, 2000, 20000, BIG]
            gamma = (max(int(cases.choice(lengths)), count + 1), count)
            r = (max(int(cases.choice(lengths)), count + 1), count) if cases.random() < 0.7 else None
            size, seed = int(cases.integers(1, 80)), int(cases.integers(1 << 30))
            ours, theirs = np.random.PCG64(seed), np.random.PCG64(seed)
            if cases.random() < 0.5:
                np.random.Generator(ours).integers(7)
                np.random.Generator(theirs).integers(7)
            block = mh._decode_array(ours, size, gamma, r)
            if block is None:
                block = mh._decode_scalar(ours, size, gamma, r)
            else:
                decoded += 1
            want = mh._decode_scalar(theirs, size, gamma, r)
            for got, wanted in zip(block, want):
                if isinstance(wanted, np.ndarray):
                    assert got.dtype == wanted.dtype
                    np.testing.assert_array_equal(got, wanted)
                else:
                    assert got == wanted
            assert ours.state == theirs.state
        assert decoded > 100


def brute_force_states(trace):
    """gamma and r after every iteration, flipping the bits of
    ``changed_indices(t)`` one at a time from the initial state."""
    gamma = trace.initial_gamma.copy()
    r = None if trace.initial_r is None else trace.initial_r.copy()
    gammas, rs = [], []
    for t in range(len(trace)):
        bits = gamma if trace.which[t] == mh.TARGET_GAMMA else r
        for i in trace.changed_indices(t):
            bits[i] = not bits[i]
        gammas.append(gamma.copy())
        rs.append(None if r is None else r.copy())
    return np.array(gammas), None if r is None else np.array(rs)


class TestReplay:
    """state_at, inclusion_probabilities and occupancy_any against a
    brute-force replay of the flip log, with 2-bit flips."""

    @pytest.fixture(scope="class", params=[MODE_SP, MODE_P])
    def chain(self, request):
        ctx = chain_context(request.param)
        config = MHConfig(total_iterations=3000, burn_in=500, flip_gamma=2, flip_r=2,
                          init_segments=3, init_functions=3, seed=23)
        trace = run_metropolis_hastings(ctx, config)
        return trace, brute_force_states(trace)

    def test_state_at(self, chain):
        trace, (gammas, rs) = chain
        initial = trace.state_at(-1)
        np.testing.assert_array_equal(initial.gamma, trace.initial_gamma)
        if rs is None:
            assert initial.r is None
        else:
            np.testing.assert_array_equal(initial.r, trace.initial_r)
        for t in list(range(0, len(trace), 7)) + [len(trace) - 1]:
            state = trace.state_at(t)
            np.testing.assert_array_equal(state.gamma, gammas[t], err_msg=str(t))
            if rs is None:
                assert state.r is None
            else:
                np.testing.assert_array_equal(state.r, rs[t], err_msg=str(t))

    @pytest.mark.parametrize("burn_in", [0, 500, 2999])
    def test_inclusion_probabilities(self, chain, burn_in):
        trace, (gammas, rs) = chain
        incl = inclusion_probabilities(trace, burn_in)
        m = len(trace) - burn_in
        np.testing.assert_array_equal(incl.gamma_prob, gammas[burn_in:].sum(axis=0) / m)
        if rs is None:
            assert incl.r_prob is None
        else:
            np.testing.assert_array_equal(incl.r_prob, rs[burn_in:].sum(axis=0) / m)

    @pytest.mark.parametrize("burn_in", [0, 500, 2999])
    def test_occupancy_any(self, chain, burn_in):
        trace, states = chain
        for target, bits in zip(("gamma", "r"), states):
            if bits is None:
                continue
            code = mh.TARGET_GAMMA if target == "gamma" else mh.TARGET_R
            # pairs flipped together by an accepted move, one bit often
            # set as the other is cleared, and the union of two of them
            pairs = [tuple(trace.changed_indices(t) + 1)
                     for t in np.flatnonzero(trace.accepted & (trace.which == code))]
            assert len(pairs) >= 2
            tracked_sets = [list(p) for p in pairs[:8]] + [list(pairs[0] + pairs[-1])]
            for tracked in tracked_sets:
                want = bits[burn_in:, np.array(tracked) - 1].any(axis=1).mean()
                assert trace.occupancy_any(tracked, target, burn_in) == want, tracked
