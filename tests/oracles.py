"""Independent reference computations used to pin expected values.

These deliberately avoid the package's optimized algebra: the step
matrix is materialized densely, the collapsed density is computed
through the explicit n x n projection (the dense evaluator) or by
closed-form Gaussian marginalization of the coefficients followed by
literal numerical quadrature over the noise variance on the log scale.
The coefficient stage's closed form is pinned by the joint normal
equations on the explicit design and by a chain over the full
conditionals, whose moments are formed here on the dense step matrix.
The block Metropolis-Hastings kernel is pinned by the sequential chain
it replaces, which scores one proposal at a time.  The log prior is
summed here over every bit, not over the selected indices as the
package sums it.  Nothing here shares code with the paths under test
beyond the initial-state draw and the proposal draw themselves; the
conditional sampler builds on ``dictseg.gibbs.GibbsSampler``, the step
Gram and residual scale that the benchmark times and no fit runs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import block_diag, cho_solve, solve_triangular

from dictseg import (
    MODE_SP,
    ComputeError,
    LatentState,
    MHTrace,
    PosteriorContext,
    ValidationError,
    log_integrated_posterior,
)
from dictseg import gibbs
from dictseg.mh import TARGET_GAMMA, TARGET_R, _draw_flip_indices, _sample_initial
from dictseg.posterior import Q_FLOOR

MAX_DENSE_N = 512


def dense_step_matrix(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n)))


def dense_step_gram(positions, n: int) -> np.ndarray:
    x = dense_step_matrix(n)[:, np.asarray(positions, dtype=int) - 1]
    return x.T @ x


def log_prior_inclusion(bits, probs) -> float:
    """Independent-Bernoulli log prior of one inclusion vector: log p
    over its set bits plus log(1 - p) over its clear bits, -inf where a
    bit's value has prior probability 0."""
    bits = np.asarray(bits, dtype=bool)
    probs = np.asarray(probs, dtype=float)
    with np.errstate(divide="ignore"):
        return float(np.where(bits, np.log(probs), np.log1p(-probs)).sum())


def log_integrated_posterior_dense(state: LatentState, ctx: PosteriorContext) -> float:
    """Reference evaluation via the explicit n x n projection matrix.

    Same value as the package's evaluator, shared constant included;
    -inf when the selected atoms are linearly dependent.  Guarded to
    small n.
    """
    if ctx.n > MAX_DENSE_N:
        raise ValidationError(f"dense evaluation limited to n <= {MAX_DENSE_N}")
    ctx.check_state(state)
    gpos = state.positions()
    d_gamma = gpos.size

    log_prior = log_prior_inclusion(state.gamma, ctx.hyper.pi)
    if ctx.mode == MODE_SP:
        log_prior += log_prior_inclusion(state.r, ctx.hyper.eta)
    if log_prior == -np.inf:
        return -np.inf

    n = ctx.n
    y = ctx.series.values
    x_g = dense_step_matrix(n)[:, gpos - 1]
    u_inv = np.eye(n) - ctx.shrink * x_g @ np.linalg.solve(x_g.T @ x_g, x_g.T)
    y_uinv_y = float(y @ u_inv @ y)

    if ctx.mode != MODE_SP:
        q = y_uinv_y
        if q <= 0.0 or q < Q_FLOOR * ctx.yty:
            return -np.inf
        return (-0.5 * d_gamma * ctx.log1p_c1 + log_prior
                - 0.5 * n * np.log(0.5 * q))

    r_idx = np.flatnonzero(state.r)
    d_r = r_idx.size
    f_r = ctx.design.matrix[:, r_idx]
    # linearly dependent atoms make Fr'Fr and A singular; the rank comes
    # from the singular values of Fr itself, not from a Cholesky pivot
    # of the Gram matrix that rounding may leave just above zero
    if np.linalg.matrix_rank(f_r) < d_r:
        return -np.inf
    frfr = f_r.T @ f_r
    try:
        chol_f = np.linalg.cholesky(frfr)
    except np.linalg.LinAlgError:
        return -np.inf
    a_mat = f_r.T @ (u_inv + np.eye(n) * ctx.c2_inv) @ f_r
    try:
        chol_a = np.linalg.cholesky(a_mat)
    except np.linalg.LinAlgError:
        return -np.inf
    v = f_r.T @ (u_inv @ y)
    q = y_uinv_y - float(v @ cho_solve((chol_a, True), v))
    if q <= 0.0 or q < Q_FLOOR * ctx.yty:
        return -np.inf

    logdet_f = 2.0 * float(np.log(np.diag(chol_f)).sum())
    logdet_a = 2.0 * float(np.log(np.diag(chol_a)).sum())
    return (-0.5 * d_gamma * ctx.log1p_c1 + log_prior
            + 0.5 * logdet_f - 0.5 * d_r * ctx.log_c2 - 0.5 * logdet_a
            - 0.5 * n * np.log(0.5 * q))


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


def _dense_normal_equations(ctx: PosteriorContext, state: LatentState):
    """X = [Xg | Fr] built explicitly, the g-prior penalty
    D = diag(G/c1, H/c2), theta = (X'X + D)^{-1} X'Y and the penalized
    residual sum of squares q at theta."""
    y = ctx.series.values
    x = dense_step_matrix(ctx.n)[:, state.positions() - 1]
    blocks = [x.T @ x / ctx.hyper.c1]
    if ctx.mode == MODE_SP:
        f_r = ctx.design.matrix[:, np.flatnonzero(state.r)]
        blocks.append(f_r.T @ f_r / ctx.hyper.c2)
        x = np.hstack([x, f_r])
    penalty = block_diag(*blocks)
    theta = np.linalg.solve(x.T @ x + penalty, x.T @ y)
    resid = y - x @ theta
    q = float(resid @ resid + theta @ penalty @ theta)
    return x, penalty, theta, q


def exact_coefficients_dense(ctx: PosteriorContext, state: LatentState):
    """Posterior means (beta, lambda or None, E sigma) for a fixed model.

    Solves the joint normal equations on the explicit design;
    E sigma = sqrt(q/2)·Γ((n-1)/2)/Γ(n/2).  Like the reported estimates,
    beta at position 1 absorbs the constant atom's coefficient.
    """
    n = ctx.n
    _, _, theta, q = _dense_normal_equations(ctx, state)
    sigma = math.sqrt(0.5 * q) * math.exp(math.lgamma(0.5 * (n - 1)) - math.lgamma(0.5 * n))
    d_g = state.positions().size
    beta = theta[:d_g].copy()
    if ctx.mode != MODE_SP:
        return beta, None, sigma
    lam = theta[d_g:].copy()
    beta[0] += lam[0]
    lam[0] = 0.0
    return beta, lam, sigma


def exact_covariance_dense(ctx: PosteriorContext, state: LatentState) -> np.ndarray:
    """Posterior covariance of the raw theta = (beta, lambda) for a fixed
    model: theta is multivariate t with n degrees of freedom and scale
    (q/n)·(X'X + D)^{-1}, so its covariance is E[sigma2]·(X'X + D)^{-1}
    with E[sigma2] = q/(n - 2)."""
    x, penalty, _, q = _dense_normal_equations(ctx, state)
    return q / (ctx.n - 2) * np.linalg.inv(x.T @ x + penalty)


class GibbsSampler(gibbs.GibbsSampler):
    """The three full conditionals of the coefficient posterior, the
    reference that the closed form of ``run_gibbs`` is checked against.

    With the other blocks fixed,

        beta   ~ N( s1·G^{-1}·Xg'(Y - Fr·lambda),  sigma2·s1·G^{-1} )
        lambda ~ N( s2·H^{-1}·Fr'(Y - Xg·beta),    sigma2·s2·H^{-1} )
        sigma2 ~ InvGamma( a, b/2 )

    where a = (n + d_g + d_r)/2 and b is ``sigma2_b`` (segmentation-only:
    no lambda, a = (n + d_g)/2), with H = Fr'Fr and G = Xg'Xg.  Xg'Y,
    Xg'Fr and Fr'Y are formed from the dense step matrix and the design
    columns, not read from the context's caches.
    """

    def __init__(self, ctx: PosteriorContext, selection: LatentState):
        super().__init__(ctx, selection)
        y = ctx.series.values
        x_g = dense_step_matrix(ctx.n)[:, self.positions - 1]
        self.d_gamma = self.positions.size
        self.chol_g = np.linalg.cholesky(self.gram)
        self.xty = x_g.T @ y
        self.s1 = ctx.hyper.c1 / (1.0 + ctx.hyper.c1)
        if ctx.mode == MODE_SP:
            self.atoms = self.r_idx + 1
            self.d_r = self.r_idx.size
            try:
                self.chol_f = np.linalg.cholesky(self.frfr)
            except np.linalg.LinAlgError as exc:
                raise ComputeError("selected atoms are linearly dependent") from exc
            self.fty = self.f_sel.T @ y
            self.xtf = x_g.T @ self.f_sel
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

    def draw_sigma2(self, beta, lam, rng: np.random.Generator) -> float:
        b = self.sigma2_b(beta, lam)
        if b <= 0.0:
            raise ComputeError("inverse-gamma scale must be positive")
        return 1.0 / rng.gamma(shape=self.a_shape, scale=2.0 / b)


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


def sequential_chain(ctx: PosteriorContext, config, rng: np.random.Generator | None = None):
    """The Metropolis-Hastings chain one proposal at a time.

    Per iteration: the coin (mode sp), the flip indices, one
    ``log_integrated_posterior`` call, and the accept uniform only when
    the log-density change is finite and negative.  Returns the trace
    and the (gamma, r) counts of proposals with density -inf.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    sp = ctx.mode == MODE_SP
    for _ in range(100):
        state = _sample_initial(ctx, config, rng)
        log_post = log_integrated_posterior(state, ctx)
        if log_post > -np.inf:
            break
    gamma = state.gamma.copy()
    r = state.r.copy() if sp else None
    initial_gamma, initial_r, initial_log_density = gamma.copy(), state.r, log_post

    total = config.total_iterations
    which = np.zeros(total, dtype=np.uint8)
    accepted = np.zeros(total, dtype=bool)
    log_density = np.empty(total)
    flip_offsets = np.zeros(total + 1, dtype=np.int64)
    flip_chunks = []
    neg_inf = [0, 0]
    for t in range(total):
        use_gamma = not sp or rng.random() < 0.5
        if use_gamma:
            target, vec, count = TARGET_GAMMA, gamma, config.flip_gamma
        else:
            target, vec, count = TARGET_R, r, config.flip_r
        idx = _draw_flip_indices(rng, len(vec), count)
        vec[idx] = ~vec[idx]
        log_post_new = log_integrated_posterior(LatentState(gamma=gamma, r=r), ctx)
        delta = log_post_new - log_post
        neg_inf[target] += delta == -np.inf
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

    flip_indices = (np.concatenate(flip_chunks) if flip_chunks
                    else np.empty(0, dtype=np.int32))
    trace = MHTrace(
        initial_gamma=initial_gamma, initial_r=initial_r,
        initial_log_density=initial_log_density,
        which=which, accepted=accepted, log_density=log_density,
        flip_offsets=flip_offsets, flip_indices=flip_indices,
    )
    return trace, tuple(neg_inf)
