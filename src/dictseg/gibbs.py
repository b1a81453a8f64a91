"""Exact posterior of the model coefficients given a selected model.

With the inclusion vectors fixed, the block g-priors on the step
coefficients beta and the atom coefficients lambda and the 1/sigma2
noise prior are Normal-Inverse-Gamma conjugate (Zellner's g-prior).
The posterior is computed from the segment sums that the model search
evaluates (``posterior._segment_algebra``).  The step columns span the
piecewise-constant paths, so the fit is written through the segment
means mu, whose jumps are beta; the g-prior on beta is
mu_k ~ N(0, sigma2·c1/L_k) over segments of length L_k.  With S_y,k and
S_F,k the sums of Y and of Fr over segment k, s1 = c1/(1+c1), and the
search's

    A = (1 + 1/c2)·Fr'Fr - s1·sum_k S_F,k' S_F,k / L_k,
    v = Fr'Y - s1·sum_k S_F,k' S_y,k / L_k,
    q = Y'Y - s1·sum_k S_y,k² / L_k - v'A^{-1}v,

the posterior is

    sigma2 | Y               ~ InvGamma( n/2, q/2 ),
    lambda | sigma2, Y       ~ N( A^{-1}v, sigma2·A^{-1} ),
    mu_k | lambda, sigma2, Y ~ N( s1·(S_y,k - S_F,k·lambda)/L_k, sigma2·s1/L_k ),

the segment means independent given lambda.  A is the Schur complement
of the step block in the joint precision of (beta, lambda), which is
never formed: only the d_r x d_r matrix A is factored, and the
posterior means need no sampling, E sigma = sqrt(q/2)·Γ((n-1)/2)/Γ(n/2).
InvGamma(a, s) has shape a and scale s, density proportional to
x^{-a-1}·exp(-s/x).  Segmentation-only fits drop lambda and its terms.

The first step column and the constant atom are both all-ones, so the
fit is invariant under moving a constant offset between the segment
means and the dictionary part.  Reported posterior-mean estimates
resolve this by assigning the constant direction to the means: the
constant atom keeps coefficient 0 and the means absorb it.  The raw
draws in the trace are left untouched.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import ComputeError, ValidationError
from .mh import InclusionProbabilities
from .posterior import MODE_SP, LatentState, PosteriorContext, _eliminate, _segment_algebra
from .stepmodel import Segmentation

# Draws are made this many rows at a time, written into the trace's
# arrays, so no full-size temporary is ever allocated.
DRAW_BLOCK = 1024


@dataclass(frozen=True)
class GibbsConfig:
    total_iterations: int = 20000
    seed: int = 0
    store_trace: bool = True

    def __post_init__(self):
        if self.total_iterations < 1:
            raise ValidationError("total_iterations must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class GibbsTrace:
    """Exact independent posterior draws, one row per draw."""

    beta: np.ndarray
    lam: np.ndarray | None
    sigma2: np.ndarray
    positions: tuple[int, ...]
    atoms: tuple[int, ...] | None


@dataclass(frozen=True)
class FitResult:
    """Posterior-mean estimates for one selected model."""

    mode: str
    positions: tuple[int, ...]
    atoms: tuple[int, ...] | None
    beta_hat: np.ndarray
    lambda_hat: np.ndarray | None
    sigma_hat: float
    f_hat: np.ndarray | None
    segmentation_hat: Segmentation
    k_hat: int
    inclusion: InclusionProbabilities | None = None
    trace: GibbsTrace | None = None

    def mean_path(self, n: int) -> np.ndarray:
        return self.segmentation_hat.mean_path(n)


class GibbsSampler:
    """The selected step Gram and the residual scale of the sigma2 full
    conditional, kept only for the benchmark's traced ``gibbs.resid_us``
    metric (``perfbench/run.py``), which times ``sigma2_b`` on stored
    draws; no fit calls it.  The full conditionals are the test oracle's.

    ``sigma2_b`` is the residual sum of squares of (beta, lambda) plus
    the two g-prior penalties beta'G beta/c1 and lambda'H lambda/c2
    (segmentation-only: no lambda), with H = Fr'Fr and the explicit step
    Gram G = Xg'Xg: column p of X is the indicator of t >= p, so
    G[a, b] = n + 1 - max(p_a, p_b).
    """

    def __init__(self, ctx: PosteriorContext, selection: LatentState):
        ctx.check_state(selection)
        self.ctx = ctx
        self.positions = selection.positions()
        self.gram = (ctx.n + 1 - np.maximum.outer(self.positions, self.positions)).astype(float)
        if ctx.mode == MODE_SP:
            self.r_idx = np.flatnonzero(selection.r)
            self.f_sel = ctx.design.columns(self.r_idx)
            self.frfr = ctx.gram(self.r_idx[:, None], self.r_idx)

    def sigma2_b(self, beta: np.ndarray, lam: np.ndarray | None) -> float:
        jumps = np.zeros(self.ctx.n)
        jumps[self.positions - 1] = beta
        fit = np.cumsum(jumps)  # Xg @ beta
        penalty = float(beta @ self.gram @ beta) / self.ctx.hyper.c1
        if lam is not None:
            fit = fit + self.f_sel @ lam
            penalty += float(lam @ self.frfr @ lam) / self.ctx.hyper.c2
        resid = self.ctx.series.values - fit
        return float(resid @ resid) + penalty


def _mapped_empty(rows: int, cols: int) -> np.ndarray:
    """Uninitialized (rows, cols) float array in its own anonymous memory
    map, whose pages go back to the system as soon as the array is freed.

    Through malloc, freeing a multi-megabyte array raises glibc's mmap
    threshold, so a later fit's slightly smaller draws land in the heap,
    which then grows with every repeated fit in one process: over five or
    six rounds of the benchmark's long-app fits (seeds 1-3), peak RSS
    rose from 75 MB after one round to 77-80 MB with malloc'd draws and
    stayed at 75-77 MB with mapped ones.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * rows * cols), dtype=float).reshape(rows, cols)


def run_gibbs(ctx: PosteriorContext, selection: LatentState, config: GibbsConfig,
              inclusion: InclusionProbabilities | None = None) -> FitResult:
    """Exact posterior means for the selected model.

    With ``config.store_trace`` the result also carries
    ``config.total_iterations`` independent draws from the joint
    posterior: sigma2 from its inverse gamma, then lambda, then the
    segment means given lambda; the trace's beta holds their jumps.
    Raises ComputeError when the selected atoms are linearly dependent,
    by the pivot test that gives such a model density -inf in the search.
    """
    ctx.check_state(selection)
    sp = ctx.mode == MODE_SP
    n, s1 = ctx.n, ctx.shrink
    positions = selection.positions()
    d_g, d_r = positions.size, selection.d_r
    gidx = positions[None] - 1
    if sp:
        r_idx = np.flatnonzero(selection.r)
        inv_len, seg, stack = _segment_algebra(ctx, gidx, r_idx[None])
        with np.errstate(divide="ignore", invalid="ignore"):
            pivots, regular = _eliminate(stack, d_r)
        if not regular[1]:
            raise ComputeError("selected atoms are linearly dependent")
        # A - (1/c2 + 1/(1+c1))·Fr'Fr = s1·(Fr'Fr - W) is positive
        # semidefinite, so A is positive definite whenever Fr'Fr is.  Its
        # elimination left D·L' (A = L·D·L') in the upper triangle: scaled
        # by D^{-1/2} it is the upper Cholesky factor R, A = R'R, and the
        # bordered column scaled alike is R'^{-1}v.  Below the diagonal
        # the elimination left A's own entries; with them zeroed, the
        # LU solve's partial pivoting swaps no row, so each solve by R is
        # a back substitution.
        root = np.sqrt(pivots[:, 0])
        chol = np.triu(stack[:d_r, :d_r, 0] / root[:, None])
        if not np.isfinite(chol).all():
            raise ComputeError("the Cholesky factor of the selected model's A is not finite")
        lam_raw = np.linalg.solve(chol, stack[:d_r, d_r, 0] / root)
        if not np.isfinite(lam_raw).all():
            raise ComputeError("the posterior mean of the atom coefficients is not finite")
        q = float(stack[d_r, d_r, 0])
        seg_f, seg_y, inv_len = seg[:, :d_r, 0], seg[:, d_r, 0], inv_len[:, 0]
        mu = s1 * (seg_y - seg_f @ lam_raw) * inv_len
    else:
        inv_len, seg_y, q = _segment_algebra(ctx, gidx)
        inv_len, seg_y, q = inv_len[:, 0], seg_y[:, 0], float(q[0])
        mu = s1 * seg_y * inv_len
    if not q > 0.0:
        raise ComputeError("inverse-gamma scale must be positive")
    sigma_hat = math.sqrt(0.5 * q) * math.exp(math.lgamma(0.5 * (n - 1)) - math.lgamma(0.5 * n))

    beta_hat = np.diff(mu, prepend=0.0)
    means = mu
    lambda_hat = f_hat = None
    if sp:
        lambda_hat = lam_raw.copy()
        beta_hat[0] += lambda_hat[0]
        means = mu + lambda_hat[0]
        lambda_hat[0] = 0.0
        f_hat = ctx.design.columns(r_idx) @ lambda_hat

    positions = tuple(int(p) for p in positions)
    atoms = tuple(int(a) for a in r_idx + 1) if sp else None
    trace = None
    if config.store_trace:
        rng = np.random.default_rng(config.seed)
        draws = _mapped_empty(config.total_iterations, d_g + d_r)
        sigma2 = np.empty(config.total_iterations)
        mu_scale = np.sqrt(s1 * inv_len)
        for start in range(0, config.total_iterations, DRAW_BLOCK):
            block = draws[start:start + DRAW_BLOCK]
            block_sigma2 = sigma2[start:start + DRAW_BLOCK]
            block_sigma2[:] = 1.0 / rng.gamma(shape=0.5 * n, scale=2.0 / q, size=len(block))
            rng.standard_normal(out=block)
            block *= np.sqrt(block_sigma2)[:, None]
            block_mu = block[:, :d_g]
            block_mu *= mu_scale
            if sp:
                block_lam = block[:, d_g:]
                block_lam[:] = np.linalg.solve(chol, block_lam.T).T
                block_lam += lam_raw
                block_mu += s1 * (seg_y - block_lam @ seg_f.T) * inv_len
            else:
                block_mu += mu
            block_mu[:, 1:] = np.diff(block_mu, axis=1)
        trace = GibbsTrace(beta=draws[:, :d_g], lam=draws[:, d_g:] if sp else None,
                           sigma2=sigma2, positions=positions, atoms=atoms)
    return FitResult(
        mode=ctx.mode,
        positions=positions,
        atoms=atoms,
        beta_hat=beta_hat,
        lambda_hat=lambda_hat,
        sigma_hat=sigma_hat,
        f_hat=f_hat,
        segmentation_hat=Segmentation(tuple(p - 1 for p in positions[1:]), means),
        k_hat=d_g,
        inclusion=inclusion,
        trace=trace,
    )
