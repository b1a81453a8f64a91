"""Independent reference computations used to pin expected values.

These deliberately avoid the package's optimized algebra: the step
matrix is materialized densely, and the collapsed density is obtained
by closed-form Gaussian marginalization of the coefficients followed
by literal numerical quadrature over the noise variance on the log
scale.  The coefficient stage's closed form is pinned by the joint
normal equations on the explicit design and by a chain over the full
conditionals.  Nothing here shares code with the paths under test
beyond the prior helper and the conditionals themselves.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import block_diag

from dictseg import MODE_SP, LatentState, PosteriorContext, log_prior_inclusion


def dense_step_matrix(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n)))


def dense_step_gram(positions, n: int) -> np.ndarray:
    x = dense_step_matrix(n)[:, np.asarray(positions, dtype=int) - 1]
    return x.T @ x


def log_posterior_quadrature(state: LatentState, ctx: PosteriorContext,
                             spread: float = 60.0) -> float:
    """Collapsed log density including all constants.

    Marginalizing the stacked coefficients gives Y | s2 ~ N(0, s2*S)
    with S = I + c1*Xg(Xg'Xg)^{-1}Xg' [+ c2*Fr(Fr'Fr)^{-1}Fr'], then
    the s2 integral is computed numerically under u = log s2.
    """
    n = ctx.n
    y = ctx.series.values
    x_g = dense_step_matrix(n)[:, state.positions() - 1]
    sigma = np.eye(n) + ctx.hyper.c1 * x_g @ np.linalg.solve(x_g.T @ x_g, x_g.T)
    log_prior = log_prior_inclusion(state.gamma, ctx.hyper.pi)
    if ctx.mode == MODE_SP:
        f_r = ctx.design.matrix[:, np.flatnonzero(state.r)]
        sigma = sigma + ctx.hyper.c2 * f_r @ np.linalg.solve(f_r.T @ f_r, f_r.T)
        log_prior += log_prior_inclusion(state.r, ctx.hyper.eta)
    _, logdet = np.linalg.slogdet(sigma)
    ssq = float(y @ np.linalg.solve(sigma, y))

    # integrand of the s2 integral after u = log s2 substitution
    def log_f(u):
        return -0.5 * n * u - 0.5 * ssq * np.exp(-u)

    u_star = np.log(ssq / n)
    f_max = log_f(u_star)
    value, _ = quad(lambda u: np.exp(log_f(u) - f_max), u_star - spread,
                    u_star + spread, limit=400, epsabs=1e-13, epsrel=1e-13)
    return (log_prior - 0.5 * n * np.log(2.0 * np.pi) - 0.5 * logdet
            + f_max + float(np.log(value)))


def exact_coefficients_dense(ctx: PosteriorContext, state: LatentState):
    """Posterior means (beta, lambda or None, E sigma) for a fixed model.

    Builds X = [Xg | Fr] explicitly and solves the joint normal equations
    (X'X + D) theta = X'Y with the g-prior penalty D = diag(G/c1, H/c2);
    q is the penalized residual sum of squares at theta, and
    E sigma = sqrt(q/2)·Γ((n-1)/2)/Γ(n/2).  Like the reported estimates,
    beta at position 1 absorbs the constant atom's coefficient.
    """
    n = ctx.n
    y = ctx.series.values
    x = dense_step_matrix(n)[:, state.positions() - 1]
    d_g = x.shape[1]
    blocks = [x.T @ x / ctx.hyper.c1]
    if ctx.mode == MODE_SP:
        f_r = ctx.design.matrix[:, np.flatnonzero(state.r)]
        blocks.append(f_r.T @ f_r / ctx.hyper.c2)
        x = np.hstack([x, f_r])
    penalty = block_diag(*blocks)
    theta = np.linalg.solve(x.T @ x + penalty, x.T @ y)
    resid = y - x @ theta
    q = float(resid @ resid + theta @ penalty @ theta)
    sigma = math.sqrt(0.5 * q) * math.exp(math.lgamma(0.5 * (n - 1)) - math.lgamma(0.5 * n))
    beta = theta[:d_g].copy()
    if ctx.mode != MODE_SP:
        return beta, None, sigma
    lam = theta[d_g:].copy()
    beta[0] += lam[0]
    lam[0] = 0.0
    return beta, lam, sigma


def conditional_chain(sampler, total: int, rng: np.random.Generator):
    """Systematic-scan chain over ``GibbsSampler``'s full conditionals
    (beta, then lambda, then sigma2), started at the conditional means.

    Returns the (total, d_g) beta draws, the (total, d_r) lambda draws
    (None in mode p) and the total sigma2 draws.
    """
    sp = sampler.atoms is not None
    sigma2 = float(np.var(sampler.ctx.series.values))
    beta = sampler.beta_mean(np.zeros(sampler.d_r) if sp else None)
    lam = sampler.lambda_mean(beta) if sp else None
    betas = np.empty((total, sampler.d_gamma))
    lams = np.empty((total, sampler.d_r)) if sp else None
    sigma2s = np.empty(total)
    for t in range(total):
        beta = sampler.draw_beta(lam, sigma2, rng)
        if sp:
            lam = sampler.draw_lambda(beta, sigma2, rng)
            lams[t] = lam
        sigma2 = sampler.draw_sigma2(beta, lam, rng)
        betas[t] = beta
        sigma2s[t] = sigma2
    return betas, lams, sigma2s


def batch_means_mcse(draws: np.ndarray) -> np.ndarray:
    """Batch-means Monte Carlo standard error of each column's mean,
    from 50 batches."""
    batches = 50
    draws = np.asarray(draws, dtype=float).reshape(len(draws), -1)
    size = len(draws) // batches
    means = draws[:size * batches].reshape(batches, size, -1).mean(axis=1)
    return means.std(axis=0, ddof=1) / np.sqrt(batches)
