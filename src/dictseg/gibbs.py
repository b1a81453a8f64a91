"""Exact posterior of the model coefficients given a selected model.

With the inclusion vectors fixed, the block g-priors on the step
coefficients beta and the atom coefficients lambda and the 1/sigma2
noise prior are Normal-Inverse-Gamma conjugate (Zellner's g-prior).
Write theta = (beta, lambda), G = Xg'Xg, H = Fr'Fr, s1 = c1/(1+c1),
s2 = c2/(1+c2) and

    P = [[ G/s1,   Xg'Fr ],        b = ( Xg'Y, Fr'Y ),
         [ Fr'Xg,  H/s2  ]],

then

    theta | sigma2, Y ~ N( P^{-1} b, sigma2·P^{-1} )
    sigma2 | Y        ~ InvGamma( n/2, q/2 ),   q = Y'Y - b'P^{-1} b,

so the posterior means need no sampling: E theta = P^{-1} b and
E sigma = sqrt(q/2)·Γ((n-1)/2)/Γ(n/2).  InvGamma(a, s) has shape a and
scale s, density proportional to x^{-a-1}·exp(-s/x).  Segmentation-only
fits keep the G block alone.

The first step column and the constant atom are both all-ones, so the
fit is invariant under moving a constant offset between the segment
means and the dictionary part.  Reported posterior-mean estimates
resolve this by assigning the constant direction to the means: the
constant atom keeps coefficient 0 and beta at position 1 absorbs it.
The raw draws in the trace are left untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import ComputeError, ValidationError
from .mh import InclusionProbabilities
from .posterior import MODE_SP, LatentState, PosteriorContext
from .stepmodel import (
    Segmentation,
    SparseStepVector,
    apply_step,
    beta_to_segmentation,
    step_gram,
)

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


@dataclass(frozen=True)
class GibbsTrace:
    """Exact independent posterior draws, one row per draw."""

    beta: np.ndarray
    lam: np.ndarray | None
    sigma2: np.ndarray
    positions: tuple[int, ...]
    atoms: tuple[int, ...] | None

    def export_csv(self, path) -> None:
        cols = [f"beta@{p}" for p in self.positions]
        if self.atoms is not None:
            cols += [f"lambda@{a}" for a in self.atoms]
        with open(path, "w") as fh:
            fh.write("iteration," + ",".join(cols) + ",sigma2\n")
            for t in range(len(self.sigma2)):
                row = [str(t)] + [repr(float(v)) for v in self.beta[t]]
                if self.lam is not None:
                    row += [repr(float(v)) for v in self.lam[t]]
                row.append(repr(float(self.sigma2[t])))
                fh.write(",".join(row) + "\n")


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

    def beta_sparse(self) -> SparseStepVector:
        entries = {p: v for p, v in zip(self.positions, self.beta_hat) if v != 0.0}
        return SparseStepVector(entries=entries)

    def mean_path(self, n: int) -> np.ndarray:
        return self.segmentation_hat.mean_path(n)


class GibbsSampler:
    """Per-selection precomputation plus the three full conditionals.

    With the other blocks fixed,

        beta   ~ N( s1·G^{-1}·Xg'(Y - Fr·lambda),  sigma2·s1·G^{-1} )
        lambda ~ N( s2·H^{-1}·Fr'(Y - Xg·beta),    sigma2·s2·H^{-1} )
        sigma2 ~ InvGamma( a, b/2 )

    where a = (n + d_g + d_r)/2 and b is the residual sum of squares plus
    the two g-prior penalties beta'G beta/c1 and lambda'H lambda/c2
    (segmentation-only: no lambda, a = (n + d_g)/2).  ``run_gibbs`` uses
    the cached blocks of the joint posterior; the conditionals are the
    reference its closed form is checked against.
    """

    def __init__(self, ctx: PosteriorContext, selection: LatentState):
        ctx.check_state(selection)
        self.ctx = ctx
        self.positions = selection.positions()
        self.d_gamma = self.positions.size
        self.gram = step_gram(self.positions, ctx.n)
        self.chol_g = np.linalg.cholesky(self.gram)
        self.xty = ctx.suffix_y[self.positions - 1]
        self.s1 = ctx.hyper.c1 / (1.0 + ctx.hyper.c1)
        if ctx.mode == MODE_SP:
            self.r_idx = np.flatnonzero(selection.r)
            self.atoms = self.r_idx + 1
            self.d_r = self.r_idx.size
            self.f_sel = ctx.design.matrix[:, self.r_idx]
            self.frfr = ctx.ftf[np.ix_(self.r_idx, self.r_idx)]
            try:
                self.chol_f = np.linalg.cholesky(self.frfr)
            except np.linalg.LinAlgError as exc:
                raise ComputeError("selected atoms are linearly dependent") from exc
            self.fty = ctx.fty[self.r_idx]
            self.xtf = ctx.suffix_f[self.positions - 1][:, self.r_idx]
            self.s2 = ctx.hyper.c2 / (1.0 + ctx.hyper.c2)
        else:
            self.d_r = 0
            self.atoms = None
        self.a_shape = 0.5 * (ctx.n + self.d_gamma + self.d_r)

    def beta_mean(self, lam: np.ndarray | None) -> np.ndarray:
        rhs = self.xty if lam is None else self.xty - self.xtf @ lam
        return self.s1 * cho_solve((self.chol_g, True), rhs)

    def beta_cov(self, sigma2: float) -> np.ndarray:
        return sigma2 * self.s1 * cho_solve((self.chol_g, True), np.eye(self.d_gamma))

    def draw_beta(self, lam, sigma2: float, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(self.d_gamma)
        noise = solve_triangular(self.chol_g, z, lower=True, trans="T")
        return self.beta_mean(lam) + np.sqrt(sigma2 * self.s1) * noise

    def lambda_mean(self, beta: np.ndarray) -> np.ndarray:
        rhs = self.fty - self.xtf.T @ beta
        return self.s2 * cho_solve((self.chol_f, True), rhs)

    def lambda_cov(self, sigma2: float) -> np.ndarray:
        return sigma2 * self.s2 * cho_solve((self.chol_f, True), np.eye(self.d_r))

    def draw_lambda(self, beta, sigma2: float, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(self.d_r)
        noise = solve_triangular(self.chol_f, z, lower=True, trans="T")
        return self.lambda_mean(beta) + np.sqrt(sigma2 * self.s2) * noise

    def sigma2_b(self, beta: np.ndarray, lam: np.ndarray | None) -> float:
        fit = apply_step(self.positions, beta, self.ctx.n)
        penalty = float(beta @ self.gram @ beta) / self.ctx.hyper.c1
        if lam is not None:
            fit = fit + self.f_sel @ lam
            penalty += float(lam @ self.frfr @ lam) / self.ctx.hyper.c2
        resid = self.ctx.series.values - fit
        return float(resid @ resid) + penalty

    def draw_sigma2(self, beta, lam, rng: np.random.Generator) -> float:
        b = self.sigma2_b(beta, lam)
        if b <= 0.0:
            raise ComputeError("inverse-gamma scale must be positive")
        return 1.0 / rng.gamma(shape=self.a_shape, scale=2.0 / b)


def run_gibbs(ctx: PosteriorContext, selection: LatentState, config: GibbsConfig,
              rng: np.random.Generator | None = None,
              inclusion: InclusionProbabilities | None = None) -> FitResult:
    """Exact posterior means for the selected model.

    With ``config.store_trace`` the result also carries
    ``config.total_iterations`` independent draws from the joint
    posterior: sigma2 from its inverse gamma, then theta + sigma·L^{-T}·z
    with P = L·L'.
    """
    sampler = GibbsSampler(ctx, selection)
    sp = ctx.mode == MODE_SP
    d_g = sampler.d_gamma

    if sp:
        precision = np.block([[sampler.gram / sampler.s1, sampler.xtf],
                              [sampler.xtf.T, sampler.frfr / sampler.s2]])
        rhs = np.concatenate([sampler.xty, sampler.fty])
    else:
        precision = sampler.gram / sampler.s1
        rhs = sampler.xty
    # G and H are positive definite (the sampler checks H), hence so is P.
    chol = np.linalg.cholesky(precision)
    theta = cho_solve((chol, True), rhs)
    q = ctx.yty - float(rhs @ theta)
    if q <= 0.0:
        raise ComputeError("inverse-gamma scale must be positive")
    n = ctx.n
    sigma_hat = math.sqrt(0.5 * q) * math.exp(math.lgamma(0.5 * (n - 1)) - math.lgamma(0.5 * n))

    beta_hat = theta[:d_g].copy()
    lambda_hat = f_hat = None
    if sp:
        lambda_hat = theta[d_g:].copy()
        beta_hat[0] += lambda_hat[0]
        lambda_hat[0] = 0.0
        f_hat = sampler.f_sel @ lambda_hat

    positions = tuple(int(p) for p in sampler.positions)
    atoms = tuple(int(a) for a in sampler.atoms) if sp else None
    beta_sparse = SparseStepVector(
        entries={p: v for p, v in zip(positions, beta_hat) if v != 0.0})
    segmentation = beta_to_segmentation(beta_sparse, n)

    trace = None
    if config.store_trace:
        if rng is None:
            rng = np.random.default_rng(config.seed)
        draws = np.empty((config.total_iterations, theta.size))
        sigma2 = np.empty(config.total_iterations)
        for start in range(0, config.total_iterations, DRAW_BLOCK):
            block = draws[start:start + DRAW_BLOCK]
            block_sigma2 = sigma2[start:start + DRAW_BLOCK]
            block_sigma2[:] = 1.0 / rng.gamma(shape=0.5 * n, scale=2.0 / q, size=len(block))
            rng.standard_normal(out=block)
            # block.T is Fortran-ordered, so LAPACK can solve it in place
            block[:] = solve_triangular(chol, block.T, lower=True, trans="T",
                                        overwrite_b=True).T
            block *= np.sqrt(block_sigma2)[:, None]
            block += theta
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
        segmentation_hat=segmentation,
        k_hat=len(beta_sparse.entries),
        inclusion=inclusion,
        trace=trace,
    )
