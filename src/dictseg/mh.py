"""Metropolis-Hastings search over inclusion vectors.

Proposals flip a fixed number of freely chosen bits (never the pinned
first bit) in exactly one of the two vectors per iteration, picked by
a fair coin; the kernel is symmetric, so a candidate is accepted with
probability min{1, exp(log-density difference)}.

Flipping an even number of bits keeps the parity of the number of
selected free bits, so with even flip counts (the default flip_gamma =
flip_r = 2) a chain never leaves the parity class of its initial state,
e.g. from two free change-points it never reaches one or three.

The chain is the sequential one, computed in blocks.  Each iteration
draws, in this order, the coin (mode sp only), the flip indices and,
only when the log-density change is finite and negative, the accept
uniform.  Most proposals are rejected, so the kernel speculates
(pre-fetching, Brockwell 2006): it draws the next B proposals as if
every one drew its uniform, saving the generator state just before
each uniform.  Each pass of its loop scores the block's unscored
proposals from the current state in one ``evaluate_stack`` call and
walks them in order.  A proposal that needs its uniform uses the
pre-drawn one; if it is accepted, the proposals after it stay valid
(the draws do not depend on the state) and the next pass scores them
from the new state.  A proposal whose change is >= 0 or -inf draws no
uniform in the sequential chain, so the kernel restores the saved
generator state and draws a new block there.  A density is a function
of its state alone, the same to the last bit in any stack, so the
random stream, and hence the trace, is the sequential kernel's for any
B.  B is three times the number of iterations per event so far (an
accept or a -inf proposal, each of which ends or re-scores a block),
at most MAX_BLOCK: one call costs about as much as a hundred extra
candidates, so a block should usually outlast the run to the next
event.

A trace is the initial state plus the log of accepted flips: per
iteration, the proposal target, the acceptance flag, the log density
of the resulting state and the indices that changed.  The state after
any iteration, the inclusion counts and joint occupancies are computed
from the flips of each vector in one pass of array operations: a bit's
state is its initial value XOR the parity of its flips so far, and a
flip sets its bit when its rank among that bit's flips says the bit
was clear.  Traces also count the -inf proposals per target, the
``evaluate_stack`` calls and the candidates those calls scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputeError, ValidationError
from .posterior import MODE_P, MODE_SP, LatentState, PosteriorContext, evaluate_stack

TARGET_GAMMA = 0
TARGET_R = 1
MAX_BLOCK = 64


@dataclass(frozen=True)
class MHConfig:
    total_iterations: int = 20000
    burn_in: int = 5000
    flip_gamma: int = 2
    flip_r: int = 2
    init_segments: int = 3
    init_functions: int = 3
    seed: int = 0
    mode: str = MODE_SP

    def __post_init__(self):
        if self.total_iterations < 1:
            raise ValidationError("total_iterations must be >= 1")
        if not 0 <= self.burn_in < self.total_iterations:
            raise ValidationError("burn_in must satisfy 0 <= burn_in < total_iterations")
        if self.flip_gamma < 1 or self.flip_r < 1:
            raise ValidationError("flip counts must be >= 1")
        if self.init_segments < 1 or self.init_functions < 1:
            raise ValidationError("initial counts must be >= 1")
        if self.mode not in (MODE_SP, MODE_P):
            raise ValidationError(f"mode must be '{MODE_SP}' or '{MODE_P}'")


@dataclass(frozen=True)
class InclusionProbabilities:
    """Post-burn-in componentwise means of the inclusion bits."""

    gamma_prob: np.ndarray
    r_prob: np.ndarray | None = None


def _draw_flip_indices(rng: np.random.Generator, length: int, count: int) -> np.ndarray:
    """0-based indices to flip, uniform without replacement from {1..length-1}."""
    if count > length - 1:
        raise ValidationError(f"cannot flip {count} of {length - 1} free bits")
    if count == 1:
        return np.array([rng.integers(length - 1) + 1])
    return rng.choice(length - 1, size=count, replace=False) + 1


def _flip(selected: np.ndarray, flips: np.ndarray, pad: int) -> np.ndarray:
    """Selected indices after each row of ``flips`` is flipped.

    ``selected`` holds the ascending indices of the set bits, ``flips``
    (B, count) distinct indices per row, where ``pad`` (one past the
    last bit) flips nothing.  Returns (B, w) ascending rows; an index
    flipped off becomes ``pad``, which sorts last, and columns that are
    padding in every row are dropped.
    """
    rows = np.empty((len(flips), len(selected) + flips.shape[1]), dtype=np.int64)
    rows[:, :len(selected)] = selected
    rows[:, len(selected):] = flips
    rows.sort(axis=1)
    twice = rows[:, 1:] == rows[:, :-1]
    rows[:, 1:][twice] = pad
    rows[:, :-1][twice] = pad
    rows.sort(axis=1)
    return rows[:, :(rows < pad).sum(axis=1).max()]


def propose_flip(state: LatentState, which: str, count: int,
                 rng: np.random.Generator) -> LatentState:
    """Flip ``count`` distinct bits of one vector; bit 1 never flips.

    Involutive in the chosen index set, hence a symmetric kernel.  The
    sampler draws and applies its proposals with the same two routines.
    """
    if which not in ("gamma", "r"):
        raise ValidationError("which must be 'gamma' or 'r'")
    if which == "r" and state.r is None:
        raise ValidationError("state has no atom component to flip")
    bits = state.gamma if which == "gamma" else state.r
    idx = _draw_flip_indices(rng, len(bits), count)
    selected = _flip(np.flatnonzero(bits), idx[None], len(bits))[0]
    out = np.zeros_like(bits)
    out[selected[selected < len(bits)]] = True
    if which == "gamma":
        return LatentState(gamma=out, r=state.r)
    return LatentState(gamma=state.gamma, r=out)


class MHTrace:
    """Initial state plus the log of accepted flips of one chain."""

    def __init__(self, n, num_atoms, mode, initial_gamma, initial_r,
                 initial_log_density, which, accepted, log_density,
                 flip_offsets, flip_indices, neg_inf=(0, 0),
                 evaluator_calls=0, candidates_evaluated=0):
        self.n = n
        self.num_atoms = num_atoms
        self.mode = mode
        self.initial_gamma = initial_gamma
        self.initial_r = initial_r
        self.initial_log_density = initial_log_density
        self.which = which
        self.accepted = accepted
        self.log_density = log_density
        self.flip_offsets = flip_offsets
        self.flip_indices = flip_indices
        # (gamma, r) counts of proposals with density -inf, and the work
        # of the block kernel; neither enters the exported files
        self.neg_inf = tuple(neg_inf)
        self.evaluator_calls = evaluator_calls
        self.candidates_evaluated = candidates_evaluated

    def __len__(self) -> int:
        return len(self.accepted)

    def changed_indices(self, t: int) -> np.ndarray:
        """0-based indices (within the target vector) flipped at iteration t."""
        return self.flip_indices[self.flip_offsets[t]:self.flip_offsets[t + 1]]

    def _target(self, name: str) -> int:
        """TARGET_GAMMA or TARGET_R for the name 'gamma' or 'r'."""
        if name == "gamma":
            return TARGET_GAMMA
        if name != "r":
            raise ValidationError(f"target must be 'gamma' or 'r', got {name!r}")
        if self.initial_r is None:
            raise ValidationError("trace has no atom component")
        return TARGET_R

    def _toggles(self, target: int, start: int):
        """One vector's bits after iteration ``start`` and its later flips.

        Returns (bits, times, idx, on): the flips after ``start`` in
        iteration order, with ``on`` True where a flip sets its bit.  A
        flip of rank k among its bit's flips finds the bit at its state
        after ``start`` if k is even and flipped if k is odd.
        """
        times = np.repeat(np.arange(len(self)), np.diff(self.flip_offsets))
        mine = self.which[times] == target
        times, idx = times[mine], self.flip_indices[mine]
        initial = self.initial_gamma if target == TARGET_GAMMA else self.initial_r
        split = np.searchsorted(times, start, side="right")
        bits = initial ^ (np.bincount(idx[:split], minlength=len(initial)) % 2 == 1)
        times, idx = times[split:], idx[split:]
        order = np.argsort(idx, kind="stable")
        rank = np.empty(len(idx), dtype=np.int64)
        rank[order] = np.arange(len(idx)) - np.searchsorted(idx[order], idx[order])
        return bits, times, idx, bits[idx] == (rank % 2 == 1)

    def _check_burn_in(self, burn_in: int) -> None:
        if not 0 <= burn_in < len(self):
            raise ValidationError("burn-in leaves no post-burn-in iterations")

    def state_at(self, t: int) -> LatentState:
        """State after iteration t (t = -1 gives the initial state)."""
        if not -1 <= t < len(self):
            raise ValidationError(f"iteration {t} out of range")
        r = self._toggles(TARGET_R, t)[0] if self.initial_r is not None else None
        return LatentState(gamma=self._toggles(TARGET_GAMMA, t)[0], r=r)

    def iter_states(self, start: int = 0):
        """Yield (t, gamma, r) for t = start..end; arrays are live views,
        copy them if kept."""
        state = self.state_at(start)
        gamma, r = state.gamma, state.r
        yield start, gamma, r
        for t in range(start + 1, len(self)):
            idx = self.changed_indices(t)
            if idx.size:
                if self.which[t] == TARGET_GAMMA:
                    gamma[idx] = ~gamma[idx]
                else:
                    r[idx] = ~r[idx]
            yield t, gamma, r

    def _set_counts(self, target: int, burn_in: int) -> np.ndarray:
        """Number of iterations in [burn_in, T) with each bit set."""
        self._check_burn_in(burn_in)
        total = len(self)
        bits, times, idx, on = self._toggles(target, burn_in)
        counts = np.where(bits, total - burn_in, 0)
        # a flip at t sets (clears) its bit for the T - t iterations from t on
        np.add.at(counts, idx, np.where(on, total - times, times - total))
        return counts

    def occupancy_any(self, indices, target: str = "gamma", burn_in: int = 0) -> float:
        """Fraction of post-burn-in iterations where any of the given
        1-based indices is set (joint occupancy, not a sum of marginals)."""
        tgt = self._target(target)
        self._check_burn_in(burn_in)
        tracked = np.unique(np.asarray(indices, dtype=np.int64) - 1)
        bits, times, idx, on = self._toggles(tgt, burn_in)
        if tracked.size and not 0 <= tracked[0] <= tracked[-1] < len(bits):
            raise ValidationError(f"indices must lie in [1, {len(bits)}]")
        mine = np.isin(idx, tracked)
        # tracked bits set from burn-in and from each tracked flip to the
        # next; flips in one iteration leave intervals of length 0 between them
        num_on = np.cumsum(np.r_[bits[tracked].sum(), np.where(on[mine], 1, -1)])
        spans = np.diff(np.r_[burn_in, times[mine], len(self)])
        return float(spans[num_on > 0].sum() / (len(self) - burn_in))

    def acceptance_rate(self, target: str | None = None) -> float:
        accepted = self.accepted
        if target is not None:
            accepted = accepted[self.which == self._target(target)]
        if not accepted.size:
            return float("nan")
        return float(accepted.mean())

    def acceptance_by_block(self, block: int = 1000) -> np.ndarray:
        """Acceptance fraction per block of iterations."""
        total = len(self)
        edges = list(range(0, total, block)) + [total]
        return np.array([self.accepted[a:b].mean() for a, b in zip(edges, edges[1:])])

    def export_csv(self, path) -> None:
        """One row per iteration: iteration, target, accepted,
        log_density, changed 1-based indices joined by ';'."""
        with open(path, "w") as fh:
            fh.write("iteration,target,accepted,log_density,changed\n")
            for t in range(len(self)):
                target = "gamma" if self.which[t] == TARGET_GAMMA else "r"
                changed = ";".join(str(int(i) + 1) for i in self.changed_indices(t))
                fh.write(f"{t},{target},{int(self.accepted[t])},"
                         f"{float(self.log_density[t])!r},{changed}\n")


def _sample_initial(ctx: PosteriorContext, config: MHConfig,
                    rng: np.random.Generator) -> LatentState:
    n = ctx.n
    if config.init_segments > n:
        raise ValidationError("init_segments exceeds series length")
    gamma = np.zeros(n, dtype=bool)
    gamma[0] = True
    if config.init_segments > 1:
        gamma[_draw_flip_indices(rng, n, config.init_segments - 1)] = True
    r = None
    if ctx.mode == MODE_SP:
        m = ctx.num_atoms
        if config.init_functions > m:
            raise ValidationError("init_functions exceeds dictionary size")
        r = np.zeros(m, dtype=bool)
        r[0] = True
        if config.init_functions > 1:
            r[_draw_flip_indices(rng, m, config.init_functions - 1)] = True
    return LatentState(gamma=gamma, r=r)


def run_metropolis_hastings(ctx: PosteriorContext, config: MHConfig,
                            rng: np.random.Generator | None = None) -> MHTrace:
    """Run one chain; deterministic given (ctx, config, seed)."""
    if config.mode != ctx.mode:
        raise ValidationError(f"config mode {config.mode!r} does not match context {ctx.mode!r}")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = ctx.n
    m = ctx.num_atoms
    if config.flip_gamma > n - 1:
        raise ValidationError("flip_gamma exceeds the number of free positions")
    if ctx.mode == MODE_SP and config.flip_r > m - 1:
        raise ValidationError("flip_r exceeds the number of free atoms")

    sp = ctx.mode == MODE_SP
    attempts = 0
    while True:
        if attempts >= 100:
            raise ComputeError("could not find an initial state with finite density")
        state = _sample_initial(ctx, config, rng)
        attempts += 1
        gidx = np.flatnonzero(state.gamma)
        ridx = np.flatnonzero(state.r) if sp else None
        log_post = float(evaluate_stack(ctx, gidx[None], None if ridx is None else ridx[None])[0])
        if log_post > -np.inf:
            break

    initial_log_density = log_post

    total = config.total_iterations
    which = np.zeros(total, dtype=np.uint8)
    accepted = np.zeros(total, dtype=bool)
    log_density = np.empty(total)
    flip_offsets = np.zeros(total + 1, dtype=np.int64)
    flip_chunks: list[np.ndarray] = []
    neg_inf = [0, 0]
    events = calls = scored = 0

    t = first = size = 0  # proposals first..size-1 of the block are unscored
    while t < total:
        if first == size:
            first, size = 0, min(MAX_BLOCK, total - t, max(1, 3 * (t + 1) // (events + 1)))
            on_gamma = np.ones(size, dtype=bool)
            flips_g = np.full((size, config.flip_gamma), n)
            flips_r = np.full((size, config.flip_r), m) if sp else None
            saved, uniforms = [], []
            for j in range(size):
                if sp and rng.random() >= 0.5:
                    on_gamma[j] = False
                    flips_r[j] = _draw_flip_indices(rng, m, config.flip_r)
                else:
                    flips_g[j] = _draw_flip_indices(rng, n, config.flip_gamma)
                saved.append(rng.bit_generator.state)
                uniforms.append(rng.random())
        g_stack = _flip(gidx, flips_g[first:], n)
        r_stack = _flip(ridx, flips_r[first:], m) if sp else None
        values = evaluate_stack(ctx, g_stack, r_stack).tolist()
        calls += 1
        scored += size - first
        start, first = first, size
        for k, j in enumerate(range(start, size)):
            delta = values[k] - log_post
            target = TARGET_GAMMA if on_gamma[j] else TARGET_R
            used = -np.inf < delta < 0.0
            if used:
                accept = math.log(uniforms[j]) < delta
            else:
                # the sequential kernel draws no uniform here: rewind the
                # stream to just before it and start a new block
                rng.bit_generator.state = saved[j]
                accept = delta >= 0.0
                if not accept:
                    neg_inf[target] += 1
            which[t] = target
            if accept:
                if target == TARGET_GAMMA:
                    idx, gidx = flips_g[j], g_stack[k][g_stack[k] < n]
                else:
                    idx, ridx = flips_r[j], r_stack[k][r_stack[k] < m]
                log_post = values[k]
                accepted[t] = True
                flip_chunks.append(np.sort(idx).astype(np.int32))
                flip_offsets[t + 1] = flip_offsets[t] + idx.size
            else:
                flip_offsets[t + 1] = flip_offsets[t]
            log_density[t] = log_post
            t += 1
            if accept or not used:
                events += 1
                if accept and used:
                    # the leftover proposals stay valid: score them
                    # from the new state
                    first = j + 1
                break

    flip_indices = (np.concatenate(flip_chunks).astype(np.int32)
                    if flip_chunks else np.empty(0, dtype=np.int32))
    return MHTrace(
        n=n, num_atoms=m, mode=ctx.mode,
        initial_gamma=state.gamma, initial_r=state.r,
        initial_log_density=initial_log_density,
        which=which, accepted=accepted, log_density=log_density,
        flip_offsets=flip_offsets, flip_indices=flip_indices,
        neg_inf=neg_inf, evaluator_calls=calls, candidates_evaluated=scored,
    )


def inclusion_probabilities(trace: MHTrace, burn_in: int) -> InclusionProbabilities:
    """Componentwise means of the post-burn-in inclusion bits."""
    m = len(trace) - burn_in
    gamma_prob = trace._set_counts(TARGET_GAMMA, burn_in) / m
    r_prob = None
    if trace.initial_r is not None:
        r_prob = trace._set_counts(TARGET_R, burn_in) / m
    return InclusionProbabilities(gamma_prob=gamma_prob, r_prob=r_prob)


def select_median_probability_model(probs: InclusionProbabilities,
                                    threshold: float = 0.5) -> LatentState:
    """Keep the components whose inclusion probability strictly exceeds
    the threshold; the pinned first bits are always kept."""
    if not 0.0 < threshold < 1.0:
        raise ValidationError("threshold must lie in (0, 1)")
    gamma = probs.gamma_prob > threshold
    gamma[0] = True
    r = None
    if probs.r_prob is not None:
        r = probs.r_prob > threshold
        r[0] = True
    return LatentState(gamma=gamma, r=r)


def intersect_selections(states) -> LatentState:
    """Componentwise AND of several selections (the run-several-chains-
    and-intersect recipe)."""
    states = list(states)
    if not states:
        raise ValidationError("need at least one selection")
    gamma = states[0].gamma.copy()
    r = states[0].r.copy() if states[0].r is not None else None
    for s in states[1:]:
        gamma &= s.gamma
        if r is not None:
            r &= s.r
    gamma[0] = True
    if r is not None:
        r[0] = True
    return LatentState(gamma=gamma, r=r)
