"""Metropolis-Hastings search over inclusion vectors.

Proposals flip a fixed number of freely chosen bits (never the pinned
first bit) in exactly one of the two vectors per iteration, picked by
a fair coin; the kernel is symmetric, so a candidate is accepted with
probability min{1, exp(log-density difference)}.

Flipping an even number of bits keeps the parity of the number of
selected free bits, so with even flip counts (the default flip_gamma =
flip_r = 2) a chain never leaves the parity class of its initial state,
e.g. from two free change-points it never reaches one or three.

Traces do not store full states per iteration.  They record, per
iteration, the proposal target, the acceptance flag, the log density
of the resulting state and the indices that actually changed, plus a
full snapshot every ``snapshot_every`` iterations; states are
reconstructed exactly by replaying the deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputeError, ValidationError
from .posterior import (
    MODE_P,
    MODE_SP,
    LatentState,
    PosteriorContext,
    _evaluate,
    log_integrated_posterior,
)

TARGET_GAMMA = 0
TARGET_R = 1


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


def propose_flip(state: LatentState, which: str, count: int,
                 rng: np.random.Generator) -> LatentState:
    """Flip ``count`` distinct bits of one vector; bit 1 never flips.

    Involutive in the chosen index set, hence a symmetric kernel.
    """
    if which == "gamma":
        bits = state.gamma.copy()
        idx = _draw_flip_indices(rng, len(bits), count)
        bits[idx] = ~bits[idx]
        return LatentState(gamma=bits, r=state.r)
    if which == "r":
        if state.r is None:
            raise ValidationError("state has no atom component to flip")
        bits = state.r.copy()
        idx = _draw_flip_indices(rng, len(bits), count)
        bits[idx] = ~bits[idx]
        return LatentState(gamma=state.gamma, r=bits)
    raise ValidationError("which must be 'gamma' or 'r'")


class MHTrace:
    """Delta-compressed record of one chain."""

    def __init__(self, n, num_atoms, mode, initial_gamma, initial_r,
                 initial_log_density, which, accepted, log_density,
                 flip_offsets, flip_indices, snapshot_every,
                 snapshots_gamma, snapshots_r):
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
        self.snapshot_every = snapshot_every
        self.snapshots_gamma = snapshots_gamma
        self.snapshots_r = snapshots_r

    def __len__(self) -> int:
        return len(self.accepted)

    def changed_indices(self, t: int) -> np.ndarray:
        """0-based indices (within the target vector) flipped at iteration t."""
        return self.flip_indices[self.flip_offsets[t]:self.flip_offsets[t + 1]]

    def _replay(self, gamma, r, start, stop):
        for t in range(start, stop):
            idx = self.changed_indices(t)
            if idx.size:
                if self.which[t] == TARGET_GAMMA:
                    gamma[idx] = ~gamma[idx]
                else:
                    r[idx] = ~r[idx]
        return gamma, r

    def state_at(self, t: int) -> LatentState:
        """State after iteration t (t = -1 gives the initial state)."""
        if not -1 <= t < len(self):
            raise ValidationError(f"iteration {t} out of range")
        snap = (t + 1) // self.snapshot_every - 1 if self.snapshot_every else -1
        if snap >= 0 and snap < len(self.snapshots_gamma):
            base = self.snapshot_every * (snap + 1) - 1
            gamma = self.snapshots_gamma[snap].copy()
            r = self.snapshots_r[snap].copy() if self.snapshots_r is not None else None
        else:
            base = -1
            gamma = self.initial_gamma.copy()
            r = self.initial_r.copy() if self.initial_r is not None else None
        gamma, r = self._replay(gamma, r, base + 1, t + 1)
        return LatentState(gamma=gamma, r=r)

    def iter_states(self, start: int = 0):
        """Yield (t, gamma, r) for t = start..end; arrays are live views,
        copy them if kept."""
        state = self.state_at(start)
        gamma = state.gamma.copy()
        r = state.r.copy() if state.r is not None else None
        yield start, gamma, r
        for t in range(start + 1, len(self)):
            idx = self.changed_indices(t)
            if idx.size:
                if self.which[t] == TARGET_GAMMA:
                    gamma[idx] = ~gamma[idx]
                else:
                    r[idx] = ~r[idx]
            yield t, gamma, r

    def _occupancy_counts(self, burn_in: int, target: int, length: int) -> np.ndarray:
        """Number of iterations in [burn_in, T) with each bit set."""
        total = len(self)
        if not 0 <= burn_in < total:
            raise ValidationError("burn-in leaves no post-burn-in iterations")
        state = self.state_at(burn_in)
        bits = state.gamma if target == TARGET_GAMMA else state.r
        bits = bits.copy()
        counts = np.zeros(length, dtype=np.int64)
        active_from = np.where(bits, burn_in, 0).astype(np.int64)
        for t in range(burn_in + 1, total):
            if self.which[t] != target:
                continue
            idx = self.changed_indices(t)
            for i in idx:
                if bits[i]:
                    counts[i] += t - active_from[i]
                    bits[i] = False
                else:
                    bits[i] = True
                    active_from[i] = t
        on = np.flatnonzero(bits)
        counts[on] += total - active_from[on]
        return counts

    def inclusion_counts(self, burn_in: int):
        gamma_counts = self._occupancy_counts(burn_in, TARGET_GAMMA, self.n)
        r_counts = None
        if self.initial_r is not None:
            r_counts = self._occupancy_counts(burn_in, TARGET_R, self.num_atoms)
        return gamma_counts, r_counts

    def occupancy_any(self, indices, target: str = "gamma", burn_in: int = 0) -> float:
        """Fraction of post-burn-in iterations where any of the given
        1-based indices is set (joint occupancy, not a sum of marginals)."""
        tgt = TARGET_GAMMA if target == "gamma" else TARGET_R
        idx = np.asarray(indices, dtype=np.int64) - 1
        total = len(self)
        state = self.state_at(burn_in)
        bits = (state.gamma if tgt == TARGET_GAMMA else state.r).copy()
        tracked = set(int(i) for i in idx)
        num_on = int(bits[idx].sum())
        hits = 0
        since = burn_in
        for t in range(burn_in + 1, total):
            if self.which[t] != tgt:
                continue
            changed = [i for i in self.changed_indices(t) if int(i) in tracked]
            if not changed:
                continue
            if num_on > 0:
                hits += t - since
            since = t
            for i in changed:
                num_on += -1 if bits[i] else 1
                bits[i] = ~bits[i]
        if num_on > 0:
            hits += total - since
        return hits / (total - burn_in)

    def acceptance_rate(self, target: str | None = None, start: int = 0) -> float:
        mask = np.ones(len(self), dtype=bool)
        mask[:start] = False
        if target is not None:
            tgt = TARGET_GAMMA if target == "gamma" else TARGET_R
            mask &= self.which == tgt
        if not mask.any():
            return float("nan")
        return float(self.accepted[mask].mean())

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
                            rng: np.random.Generator | None = None,
                            snapshot_every: int = 1000) -> MHTrace:
    """Run one chain; deterministic given (ctx, config, seed)."""
    if config.mode != ctx.mode:
        raise ValidationError(f"config mode {config.mode!r} does not match context {ctx.mode!r}")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = ctx.n
    if config.flip_gamma > n - 1:
        raise ValidationError("flip_gamma exceeds the number of free positions")
    if ctx.mode == MODE_SP and config.flip_r > ctx.num_atoms - 1:
        raise ValidationError("flip_r exceeds the number of free atoms")

    state = _sample_initial(ctx, config, rng)
    log_post = log_integrated_posterior(state, ctx)
    attempts = 1
    while log_post == -np.inf:
        if attempts >= 100:
            raise ComputeError("could not find an initial state with finite density")
        state = _sample_initial(ctx, config, rng)
        log_post = log_integrated_posterior(state, ctx)
        attempts += 1

    gamma = state.gamma.copy()
    r = state.r.copy() if state.r is not None else None
    initial_gamma = gamma.copy()
    initial_r = r.copy() if r is not None else None
    initial_log_density = log_post

    total = config.total_iterations
    which = np.zeros(total, dtype=np.uint8)
    accepted = np.zeros(total, dtype=bool)
    log_density = np.empty(total)
    flip_offsets = np.zeros(total + 1, dtype=np.int64)
    flip_chunks: list[np.ndarray] = []
    snapshots_gamma: list[np.ndarray] = []
    snapshots_r: list[np.ndarray] | None = [] if r is not None else None

    sp = ctx.mode == MODE_SP
    for t in range(total):
        use_gamma = not sp or rng.random() < 0.5
        if use_gamma:
            target, vec, count = TARGET_GAMMA, gamma, config.flip_gamma
        else:
            target, vec, count = TARGET_R, r, config.flip_r
        idx = _draw_flip_indices(rng, len(vec), count)
        vec[idx] = ~vec[idx]
        log_post_new = _evaluate(ctx, gamma, r)
        delta = log_post_new - log_post
        accept = delta >= 0 or (delta > -np.inf and math.log(rng.random()) < delta)
        which[t] = target
        if accept:
            accepted[t] = True
            log_post = log_post_new
            flip_chunks.append(np.sort(idx).astype(np.int32))
            flip_offsets[t + 1] = flip_offsets[t] + idx.size
        else:
            vec[idx] = ~vec[idx]
            flip_offsets[t + 1] = flip_offsets[t]
        log_density[t] = log_post
        if snapshot_every and (t + 1) % snapshot_every == 0:
            snapshots_gamma.append(gamma.copy())
            if snapshots_r is not None:
                snapshots_r.append(r.copy())

    flip_indices = (np.concatenate(flip_chunks).astype(np.int32)
                    if flip_chunks else np.empty(0, dtype=np.int32))
    return MHTrace(
        n=n, num_atoms=ctx.num_atoms, mode=ctx.mode,
        initial_gamma=initial_gamma, initial_r=initial_r,
        initial_log_density=initial_log_density,
        which=which, accepted=accepted, log_density=log_density,
        flip_offsets=flip_offsets, flip_indices=flip_indices,
        snapshot_every=snapshot_every,
        snapshots_gamma=snapshots_gamma, snapshots_r=snapshots_r,
    )


def inclusion_probabilities(trace: MHTrace, burn_in: int) -> InclusionProbabilities:
    """Componentwise means of the post-burn-in inclusion bits."""
    if burn_in >= len(trace):
        raise ValidationError("burn-in leaves no post-burn-in iterations")
    m = len(trace) - burn_in
    gamma_counts, r_counts = trace.inclusion_counts(burn_in)
    return InclusionProbabilities(
        gamma_prob=gamma_counts / m,
        r_prob=r_counts / m if r_counts is not None else None,
    )


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
