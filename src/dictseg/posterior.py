"""Collapsed log-posterior over the pair of inclusion vectors.

The coefficient vectors and the noise variance are integrated out
analytically, leaving a density over (gamma, r) alone.  Up to one
additive constant shared by every state on a fixed context, it equals

    -(d_g/2)·log(1+c1) + log_prior(gamma) + log_prior(r)
    + (1/2)·logdet(Fr'Fr) - (d_r/2)·log c2 - (1/2)·logdet(A)
    - (n/2)·log(q/2)

with  A = (1 + 1/c2)·Fr'Fr - s·(Xg'Fr)'(Xg'Xg)^{-1}(Xg'Fr),
      q = Y'Uinv·Y - v'A^{-1}v,   v = Fr'Uinv·Y,
      Uinv = I - s·Xg(Xg'Xg)^{-1}Xg',   s = c1/(1+c1).

Xg'Xg[a,b] = n+1-max(p_a,p_b) is a min-kernel matrix with a tridiagonal
inverse, so every projection onto the step columns is a sum over
segments: for any columns V, V'Xg(Xg'Xg)^{-1}Xg'V = sum_k S_k S_k'/L_k,
where S_k is the sum of V's rows over segment k (from one selected
position to the row before the next) and L_k its length.  Segment sums
are differences of cached suffix sums, so the step side needs no
factorization at all, and no n x n or n x d matrix is formed.

One evaluator, ``evaluate_stack``, scores a whole stack of candidate
models in one call; ``log_integrated_posterior`` is a stack of one.
The coefficient stage reads A, v, q and the segment sums of the
selected model from the same routine, ``_segment_algebra``.
Candidates of different sizes share the stack through padding: padded
positions are empty segments and padded atoms identity rows.  Every
step is elementwise, a reduction of fixed length, or a running total
in index order, and the factorizations of [[A, v], [v', Y'Uinv·Y]]
(whose last pivot is q) and of [[Fr'Fr, Fr'Y], [Y'Fr, Y'Y]] are one
right-looking elimination of a stack of 2B matrices, written out in
those terms.  So padding adds exact zeros after every real term, and
a model's value is the same to the last bit whatever stack it is
scored in; nothing is carried from one call to the next.  The log prior is summed over the
selected indices alone (O(d_g + d_r)), never over all n + M bits.

``FlipScreen`` is the one exception, and it is not an evaluator: it
carries one mode-sp state's segment sums and factors, and gives the
log-density change of any set of single-bit flips of that state by
rank-one updates, O(d_r²) each, with a flag on every change it cannot
vouch for.  Its changes agree with ``evaluate_stack``'s to about 1e-10
nats at n = 20000, not to the last bit, so the sampler decides on them
only away from its thresholds and records ``evaluate_stack``'s values.

Segmentation-only evaluation ("p" mode) drops every r-dependent term:
-(d_g/2)·log(1+c1) + log_prior(gamma) - (n/2)·log(q_p/2) with
q_p = Y'Uinv·Y (same integration with the dictionary term absent).

Linearly dependent selected atoms make the model improper under the
g-prior, and the state gets density -inf rather than a jittered
factorization: a pivot of Fr'Fr or A below PIVOT_FLOOR times its
column's diagonal marks it, which catches exactly duplicated atoms
whatever the rounding.  Likewise q below the relative floor
Q_FLOOR·Y'Y is treated as a degenerate perfect fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import DesignMatrix, check_memory
from .errors import DataError, ValidationError
from .stepmodel import TimeSeries

MODE_SP = "sp"
MODE_P = "p"

Q_FLOOR = 1e-12
PIVOT_FLOOR = 1e-12
# FlipScreen flags a change whose determinant ratios or pivot bounds
# fall below this, or whose q comes within a factor 1/SCREEN_FLOOR of
# the q floor
SCREEN_FLOOR = 1e-6


@dataclass(frozen=True)
class Hyperparameters:
    """Prior scales and per-component inclusion probabilities.

    pi[0] and eta[0] (the 1-based "first" entries) are pinned at 1:
    the first step position and the constant atom are always in.
    """

    c1: float
    pi: np.ndarray
    c2: float | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.c1 < np.inf:
            raise ValidationError(f"c1 must be finite and positive, got {self.c1}")
        pi = np.asarray(self.pi, dtype=float)
        if pi[0] != 1.0:
            raise ValidationError("pi[1] must equal 1 (first position pinned)")
        if not np.all((pi >= 0) & (pi <= 1)):
            raise ValidationError("pi entries must lie in [0, 1]")
        object.__setattr__(self, "pi", pi)
        if self.eta is not None:
            if self.c2 is None or not 0 < self.c2 < np.inf:
                raise ValidationError(f"c2 must be finite and positive, got {self.c2}")
            eta = np.asarray(self.eta, dtype=float)
            if eta[0] != 1.0:
                raise ValidationError("eta[1] must equal 1 (constant atom pinned)")
            if not np.all((eta >= 0) & (eta <= 1)):
                raise ValidationError("eta entries must lie in [0, 1]")
            object.__setattr__(self, "eta", eta)

    @classmethod
    def flat(cls, n: int, num_atoms: int | None, c1: float = 50.0,
             c2: float | None = 50.0, pi: float = 0.01, eta: float = 0.01):
        """Single scalar prior probability for every free component."""
        pi_vec = np.full(n, pi)
        pi_vec[0] = 1.0
        if num_atoms is None:
            return cls(c1=c1, pi=pi_vec)
        eta_vec = np.full(num_atoms, eta)
        eta_vec[0] = 1.0
        return cls(c1=c1, pi=pi_vec, c2=c2, eta=eta_vec)


@dataclass(frozen=True)
class LatentState:
    """Inclusion bits: gamma over step positions, r over atoms.

    r is None for segmentation-only states.  Bit 1 of each vector is
    always set.
    """

    gamma: np.ndarray
    r: np.ndarray | None = None

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=bool)
        if gamma.size == 0 or not gamma[0]:
            raise ValidationError("gamma[1] must be set")
        object.__setattr__(self, "gamma", gamma)
        if self.r is not None:
            r = np.asarray(self.r, dtype=bool)
            if r.size == 0 or not r[0]:
                raise ValidationError("r[1] must be set")
            object.__setattr__(self, "r", r)

    @property
    def d_r(self) -> int:
        return int(self.r.sum()) if self.r is not None else 0

    def positions(self) -> np.ndarray:
        """1-based selected step positions, ascending."""
        return np.flatnonzero(self.gamma) + 1

    def atoms(self) -> np.ndarray:
        """1-based selected atom indices, ascending."""
        if self.r is None:
            raise ValidationError("state has no atom component")
        return np.flatnonzero(self.r) + 1


# Below this many multiply-adds in F'F (n·M²), the context holds the
# full tables of every atom, even point atoms: they cost little to build
# there, while the closed form's gathers add about 37 µs to each
# evaluate_stack call (141 against 178 µs at sim100 sizes, n = 100).
SPLIT_MIN_WORK = 1 << 24


def _total(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in index order, row by row, so trailing zeros change
    no bit and -0.0 stays -0.0 (``sum`` may add pairwise, from +0.0)."""
    return np.add.accumulate(x, axis=0)[-1]


class _IndexPrior:
    """Independent-Bernoulli log prior, less ``cost`` per selected bit,
    of columns of selected indices.

    The value is base + the sum of gain over the selected indices, where
    base sums log(1-p) over the unforced bits and gain = log p -
    log(1-p) - cost; a bit with p = 1 is forced (gain -cost) and leaving
    it clear gives -inf.  The padding index (one past the last bit) has
    gain 0.  The first bit, pinned in every state, is not checked.
    """

    def __init__(self, probs: np.ndarray, cost: float):
        forced = probs == 1.0
        with np.errstate(divide="ignore"):
            lp0 = np.log1p(-probs)
            gain = np.log(probs) - lp0
        self.cost = cost
        self.base = float(lp0[~forced].sum())
        self.gain = np.zeros(len(probs) + 1)
        self.gain[:-1] = np.where(forced, 0.0, gain) - cost
        forced[0] = False
        self.forced = np.append(forced, False)
        self.num_forced = int(forced.sum())

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        """Values for the states whose selected indices are the columns
        of ``idx`` (d, B)."""
        value = self.base + _total(self.gain.take(idx))
        if self.num_forced:
            value[self.forced.take(idx).sum(axis=0) < self.num_forced] = -np.inf
        return value


class PosteriorContext:
    """Immutable per-series cache shared by every posterior evaluation.

    Serves Y'Y, F'F, F'Y and the suffix sums of Y and of each design
    column through ``ends`` and ``gram``; products against the step
    matrix then reduce to gathers.  With M atoms, index M stands for a
    padded atom and index M + 1 for Y: ``gram`` reads
    [[F'F, 0, F'Y], [0, 0, 0], [Y'F, 0, Y'Y]] and row i of ``ends`` the
    sums over rows i.. of [F, 0, Y], with a zero row n past the end.

    Held are the tables of [F_d, 0, Y], F_d the dense atoms: ``_suffix``
    (n + 1, M_d + 2) and ``_gram`` (M + 2, M_d + 2), row a of which is
    F'F and F'Y of index a against the dense atoms and Y.  In a small
    design, or one whose point atoms are fewer than half its atoms,
    every atom is dense: F is assembled once and the tables are the full
    ones.  Otherwise a point atom amp·1[t = t_a] has the closed forms
    suffix amp at rows i <= t_a and +0.0 past them, F'F row
    amp·F[t_a, :] and F'Y amp·y[t_a], which are the full tables' bits:
    each of their sums has one nonzero term.  No n x M or M x M array
    is then held.
    """

    def __init__(self, series: TimeSeries, hyper: Hyperparameters,
                 design: DesignMatrix | None = None, mode: str = MODE_SP):
        if mode not in (MODE_SP, MODE_P):
            raise ValidationError(f"mode must be '{MODE_SP}' or '{MODE_P}'")
        y = series.values
        n = len(y)
        if len(hyper.pi) != n:
            raise ValidationError("pi length must match series length")
        self.mode = mode
        self.series = series
        self.hyper = hyper
        self.design = design
        self.n = n
        with np.errstate(over="ignore"):
            self.yty = float(y @ y)
        if not np.isfinite(self.yty):
            raise DataError("the series' sum of squares overflows: rescale the series")
        self._q_min = max(Q_FLOOR * self.yty, np.nextafter(0.0, 1.0))
        self._inverse = np.divide(1.0, np.arange(n + 1.0), out=np.zeros(n + 1),
                                  where=np.arange(n + 1) > 0)
        self.shrink = hyper.c1 / (1.0 + hyper.c1)
        self.log1p_c1 = float(np.log1p(hyper.c1))
        # the log prior with the -(d_g/2)·log(1+c1) term folded in
        self._weight_gamma = _IndexPrior(hyper.pi, 0.5 * self.log1p_c1)
        # row of each index's point (-1 for the others), its amplitude and
        # its column in [F_d, 0, Y]; None when every atom is dense
        self._loc = self._amp = self._dcol = None
        m = 0
        F = np.empty((n, 0))
        if mode == MODE_SP:
            if design is None:
                raise ValidationError("sp mode requires a design matrix")
            if hyper.eta is None:
                raise ValidationError("sp mode requires eta and c2")
            if design.n != n:
                raise ValidationError("design rows must match series length")
            if len(hyper.eta) != design.num_atoms:
                raise ValidationError("eta length must match atom count")
            m = design.num_atoms
            points = len(design.point_atoms)
            if n * m * m >= SPLIT_MIN_WORK and 2 * points >= m:
                F = design.dense
                md = m - points
                # the dense block, its suffix sums, the rows of every atom
                # against it and the point atoms' rows of F_d being built
                check_memory(8 * (md + 2) * (2 * n + 2 * m),
                             f"the {md} dense design columns, their suffix sums and their "
                             f"products with all {m} need about 8·(M_d + 2)·(2·n + 2·M)")
                self._closed_form(design, y)
            else:
                # F, held by the design or assembled here, and both tables
                check_memory(8 * (m * m + 2 * n * m),
                             f"the {m} design columns, F'F and their suffix sums need about "
                             f"8·(M² + 2·n·M)")
                F = design.matrix
                self._gram = np.zeros((m + 2, m + 2))
                np.matmul(F.T, F, out=self._gram[:m, :m])
                self._gram[:m, m + 1] = self._gram[m + 1, :m] = F.T @ y
                self._gram[m + 1, m + 1] = self.yty
            self.log_c2 = float(np.log(hyper.c2))
            self.c2_inv = 1.0 / hyper.c2
            self._weight_r = _IndexPrior(hyper.eta, 0.5 * self.log_c2)
            # Fr'Fr enters A scaled by 1 + 1/c2, padded atoms unscaled
            self._scale = np.full(m + 2, 1.0 + self.c2_inv)
            self._scale[m:] = 1.0
        self.num_atoms = m
        md = F.shape[1]
        self._width = md + 2
        self._suffix = np.zeros((n + 1, md + 2))
        if md:
            # copied first, then summed in place: the same sums, and
            # faster than reading F backwards into the table
            self._suffix[:n, :md] = F
            np.cumsum(self._suffix[n - 1::-1, :md], axis=0, out=self._suffix[n - 1::-1, :md])
        np.cumsum(y[::-1], out=self._suffix[n - 1::-1, md + 1])

    def _closed_form(self, design: DesignMatrix, y: np.ndarray) -> None:
        """``_gram`` and the point atoms' rows, amplitudes and columns."""
        m, dense, Fd = design.num_atoms, design.dense_atoms, design.dense
        md = len(dense)
        atoms, rows, amps = design.point_atoms, design.point_rows, design.point_amps
        self._gram = np.zeros((m + 2, md + 2))
        self._gram[dense, :md] = Fd.T @ Fd
        self._gram[dense, md + 1] = self._gram[m + 1, :md] = Fd.T @ y
        self._gram[m + 1, md + 1] = self.yty
        # a zero product reads +0, as in the full product's sums
        rows_f = Fd.take(rows, axis=0)
        rows_f *= amps[:, None]
        rows_f += 0.0
        self._gram[atoms, :md] = rows_f
        self._gram[atoms, md + 1] = amps * y[rows] + 0.0
        self._loc = np.full(m + 2, -1)
        self._loc[atoms] = rows
        self._amp = np.zeros(m + 2)
        self._amp[atoms] = amps
        self._dcol = np.full(m + 2, md)
        self._dcol[dense] = np.arange(md)
        self._dcol[m + 1] = md + 1

    def ends(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Suffix sums of [F, 0, Y] at rows ``rows`` (0..n) of the
        indices ``cols`` (0..M + 1), the two broadcast together."""
        if self._loc is None:
            return self._suffix.ravel().take(rows * self._width + cols)
        out = self._suffix.ravel().take(rows * self._width + self._dcol.take(cols))
        np.copyto(out, self._amp.take(cols), where=rows <= self._loc.take(cols))
        return out

    def gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Entries [a, b] of [[F'F, 0, F'Y], [0, 0, 0], [Y'F, 0, Y'Y]],
        a and b broadcast together."""
        if self._loc is None:
            return self._gram.ravel().take(a * self._width + b)
        loc_b = self._loc.take(b)
        swap = loc_b >= 0  # b is a point atom: read b's row at a's column
        out = self._gram.ravel().take(np.where(swap, b, a) * self._width
                                      + self._dcol.take(np.where(swap, a, b)))
        # two point atoms share a row only with each other's amplitude
        np.copyto(out, self._amp.take(a) * self._amp.take(b) + 0.0,
                  where=swap & (self._loc.take(a) == loc_b))
        return out

    def log_prior_gamma(self, gamma: np.ndarray) -> float:
        """Log prior of one gamma vector whose first bit is set."""
        idx = np.flatnonzero(gamma)[:, None]
        return float(self._weight_gamma(idx)[0]) + self._weight_gamma.cost * len(idx)

    def log_prior_r(self, r: np.ndarray) -> float:
        """Log prior of one r vector whose first bit is set."""
        idx = np.flatnonzero(r)[:, None]
        return float(self._weight_r(idx)[0]) + self._weight_r.cost * len(idx)

    def check_state(self, state: LatentState) -> None:
        if len(state.gamma) != self.n:
            raise ValidationError("gamma length must match series length")
        if self.mode == MODE_SP:
            if state.r is None:
                raise ValidationError("sp mode requires an atom component")
            if len(state.r) != self.num_atoms:
                raise ValidationError("r length must match atom count")


def _diagonal(mat: np.ndarray) -> np.ndarray:
    """View of the diagonals of a C-contiguous (d, d, B) stack, (d, B)."""
    return mat.reshape(-1, mat.shape[-1])[::len(mat) + 1]


def _pivots(mat: np.ndarray) -> np.ndarray:
    """Pivots of the LDL' elimination of each symmetric matrix
    mat[:, :, b], eliminating in place in index order.

    An identity row after the real ones is eliminated with zero
    multipliers, so it changes no other pivot by a single bit.  A zero
    or negative pivot leaves that matrix's later pivots meaningless
    (NaN or inf), never another matrix's.
    """
    for j in range(len(mat) - 1):
        col = mat[j + 1:, j] / mat[j, j]
        mat[j + 1:, j + 1:] -= col[:, None] * mat[j, None, j + 1:]
    return _diagonal(mat)


def evaluate_stack(ctx: PosteriorContext, gidx: np.ndarray,
                   ridx: np.ndarray | None = None) -> np.ndarray:
    """Collapsed log densities (B,) of a stack of B models.

    ``gidx`` (B, Dg) holds each model's selected step positions as
    0-based ascending indices, padded at the end with n; ``ridx``
    (B, Dr), in mode sp, its selected atoms padded with M.  Each value
    is a function of its own row alone, the same to the last bit in any
    stack.  No argument validation: the sampler calls this in its inner
    loop.  Internally the model index is the last axis, so every array
    operation runs along the stack.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        n = ctx.n
        rows = len(gidx)
        weight = ctx._weight_gamma(gidx.T)

        if ctx.mode == MODE_P:
            q = _segment_algebra(ctx, gidx)[2]
            value = weight - 0.5 * n * np.log(0.5 * q)
            return np.where(q >= ctx._q_min, value, -np.inf)

        dr = ridx.shape[1]
        weight += ctx._weight_r(ridx.T)
        stack = _segment_algebra(ctx, gidx, ridx)[2]
        pivots, regular = _eliminate(stack, dr)
        logdet = _total(np.log(pivots))
        q = stack[dr, dr, :rows]
        value = (weight + 0.5 * logdet[rows:] - 0.5 * logdet[:rows] - 0.5 * n * np.log(0.5 * q))
        ok = regular[:rows] & regular[rows:] & (q >= ctx._q_min)
        return np.where(ok, value, -np.inf)


def _with_row(idx: np.ndarray, value: int) -> np.ndarray:
    """idx transposed to (d, B), with one more row of ``value``."""
    out = np.empty((idx.shape[1] + 1, len(idx)), dtype=idx.dtype)
    out[:-1] = idx.T
    out[-1] = value
    return out


def _segment_algebra(ctx, gidx, ridx=None):
    """Segment sums and bordered matrices of a stack of B models.

    ``gidx`` and ``ridx`` are as in ``evaluate_stack``.  Returns the
    inverse segment lengths (Dg, B), the segment sums and the matrices
    that the collapsed density and the coefficient posterior are
    read from:

    - mode p: the sums of Y (Dg, B) and Y'Uinv·Y (B,);
    - mode sp: the sums of [Fr, Y] (Dg, Dr + 1, B) and a stack
      (Dr + 1, Dr + 1, 2B) holding each model's bordered
      [[A, v], [v', Y'Uinv·Y]], then each model's
      [[Fr'Fr, Fr'Y], [Y'Fr, Y'Y]] (identity on padded atoms), so that
      one elimination gives the pivots of both A and Fr'Fr.
    """
    n, m = ctx.n, ctx.num_atoms
    bounds = _with_row(gidx, n)
    inv_len = ctx._inverse.take(bounds[1:] - bounds[:-1])

    if ctx.mode == MODE_P:
        ends = ctx.ends(bounds, m + 1)
        seg_y = ends[:-1] - ends[1:]
        return inv_len, seg_y, ctx.yty - ctx.shrink * _total(seg_y * seg_y * inv_len)

    # columns: the selected atoms, then Y
    cols = _with_row(ridx, m + 1)
    dr = len(cols) - 1

    # segment sums S of the columns; the sum over segments of S S'/L is
    # [[W, u], [u', y'Py]] with W = Fr'Xg(Xg'Xg)^{-1}Xg'Fr
    ends = ctx.ends(bounds[:, None], cols)
    seg = ends[:-1] - ends[1:]
    weighted = seg * inv_len[:, None]
    # a loop: accumulating the whole 4-d product gives these bits several times slower
    proj = seg[0, :, None] * weighted[0]
    for k in range(1, len(seg)):
        proj += seg[k, :, None] * weighted[k]

    # [[Fr'Fr, Fr'Y], [Y'Fr, Y'Y]], identity on padded atoms; the
    # bordered [[A, v], [v', Y'Uinv Y]] then has q as its last pivot
    gram = ctx.gram(cols[:, None], cols)
    _diagonal(gram)[:dr][cols[:-1] == m] = 1.0
    stack = np.concatenate((gram, gram), axis=2)
    mat = stack[:, :, :len(gidx)]
    mat[:dr, :dr] *= ctx._scale.take(cols[:-1])[:, None]
    mat -= ctx.shrink * proj
    return inv_len, seg, stack


def _eliminate(stack: np.ndarray, dr: int):
    """Pivots (dr, B) of the first dr rows of each matrix in ``stack``,
    eliminated in place, and whether each matrix is regular: every one
    of those pivots above PIVOT_FLOOR times its column's diagonal."""
    diagonal = _diagonal(stack)[:dr].copy()
    pivots = _pivots(stack)[:dr]
    return pivots, np.logical_and.reduce(pivots > PIVOT_FLOOR * diagonal, axis=0)


class FlipScreen:
    """Log-density changes of the single-bit flips of one mode-sp state,
    by rank-one updates of its factors.

    Holds the state's segment sums of [Fr, Y], the Cholesky factor L of
    its bordered B = [[A, v], [v', Y'Uinv·Y]] (whose leading block is
    A's factor, and whose last pivot is q) and that of Fr'Fr, with their
    inverses.  Then, with s = c1/(1+c1):

    - gamma: splitting a segment of length L into lengths L1 and L2
      (sums S1, S2) takes c·dd' off B, with d = S1/L1 - S2/L2 and
      c = s·L1·L2/L; merging two adds it.  With w = L^{-1}d, det(B)
      and det(A) change by the factors 1 ∓ c‖w‖² and 1 ∓ c‖w[:d_r]‖²,
      and q by their quotient;
    - adding atom a borders B, A and Fr'Fr with a's column, built from
      the K + 1 suffix rows of a at the state's segment bounds: each
      determinant changes by its Schur complement;
    - removing atom a changes each by the diagonal entry of its inverse.

    A change costs O(d_r²), against O(d_g·d_r²) to score the proposal
    afresh, but it is not ``evaluate_stack``'s value to the last bit.
    So each change comes with a flag where its accuracy or its finiteness
    is not certain: a forced or zero-prior bit, a non-finite change, a
    new q within a factor 1/SCREEN_FLOOR of the q floor, a determinant
    ratio or Schur complement over its diagonal below SCREEN_FLOOR, or a
    bound on the new pivots over their diagonals below SCREEN_FLOOR.
    The bounds follow from the state's own pivots p_j over diagonals:
    a downdate keeps each pivot of A above p_j·(1 - c‖w[:d_r]‖²) on a
    smaller diagonal, an update keeps it above p_j on the diagonal
    B_jj + c·d_j², a new atom keeps every later pivot above p_j·(Schur
    complement over diagonal) and a removed one keeps every pivot above
    p_j.  A state whose factors cannot be formed flags every change.
    SCREEN_FLOOR sits six orders above PIVOT_FLOOR, so every
    proposal that ``evaluate_stack`` scores -inf is flagged, and the
    unflagged ones are well enough conditioned for the changes to hold
    to about 1e-10 nats at n = 20000 (see ``mh``).  The screen holds
    O(d_g·d_r + d_r² + M) numbers.
    """

    def __init__(self, ctx: PosteriorContext, gidx: np.ndarray, ridx: np.ndarray):
        self.ctx = ctx
        n, m = ctx.n, ctx.num_atoms
        self.bounds = bounds = np.append(gidx, n)
        self.cols = cols = np.append(ridx, m + 1)
        self.dr = dr = len(ridx)
        self.ends = ctx.ends(bounds[:, None], cols)
        self.seg = self.ends[:-1] - self.ends[1:]
        self.inv_len = ctx._inverse.take(bounds[1:] - bounds[:-1])
        # B, then Fr'Fr bordered by an identity row, factored together
        mats = np.empty((2, dr + 1, dr + 1))
        mats[:] = ctx.gram(cols[:, None], cols)
        self.norms = np.diagonal(mats[1])[:dr].copy()
        mats[1, dr], mats[1, :, dr], mats[1, dr, dr] = 0.0, 0.0, 1.0
        mats[0, :dr, :dr] *= 1.0 + ctx.c2_inv
        mats[0] -= ctx.shrink * ((self.seg * self.inv_len[:, None]).T @ self.seg)
        self.diag = np.diagonal(mats[0]).copy()
        self.slot = np.full(m, -1)
        self.slot[ridx] = np.arange(dr)
        try:
            factors = np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            self.usable = False
            return
        self.usable = True
        inverses = np.linalg.inv(factors)
        self.inv, self.inv_g = inverses[0], inverses[1, :dr, :dr]
        pivots = np.diagonal(factors, axis1=1, axis2=2)[:, :dr] ** 2
        self.q = factors[0, dr, dr] ** 2
        self.pivots = pivots[0]
        self.ratio_g = (pivots[1] / self.norms).min()
        self.ratio = min((self.pivots / self.diag[:dr]).min(), self.ratio_g)
        # removing the atom in slot i: each determinant times (inverse)_ii
        rho_b = (self.inv[:, :dr] ** 2).sum(axis=0)
        rho_a = (self.inv[:dr, :dr] ** 2).sum(axis=0)
        rho_g = (self.inv_g ** 2).sum(axis=0)
        self.remove = (0.5 * np.log(rho_g) - 0.5 * np.log(rho_a)
                       - 0.5 * n * np.log(rho_b / rho_a) - ctx._weight_r.gain.take(ridx))
        self.remove_flag = ctx._weight_r.forced.take(ridx) | ~np.isfinite(self.remove)

    def changes(self, gflips: np.ndarray, rflips: np.ndarray):
        """Log-density changes and flags of the flips of the 0-based
        gamma indices ``gflips`` and atom indices ``rflips`` (each >= 1):
        ((delta, flagged) for gflips, (delta, flagged) for rflips), every
        change 0 and flagged where the state's factors could not be formed."""
        if not self.usable:
            return tuple((np.zeros(len(f)), np.ones(len(f), dtype=bool)) for f in (gflips, rflips))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._gamma(gflips), self._atoms(rflips)

    def _gamma(self, j):
        ctx, bounds, dr = self.ctx, self.bounds, self.dr
        k = bounds.searchsorted(j, side="right") - 1
        merge = bounds.take(k) == j
        lo = k - merge
        hi = k + 1
        mid = ctx.ends(j[:, None], self.cols)
        len1 = j - bounds.take(lo)
        len2 = bounds.take(hi) - j
        d = ((self.ends[lo] - mid) * ctx._inverse.take(len1)[:, None]
             - (mid - self.ends[hi]) * ctx._inverse.take(len2)[:, None])
        c = ctx.shrink * len1 * len2 * ctx._inverse.take(len1 + len2)
        c = np.where(merge, c, -c)
        w = d @ self.inv.T
        w2 = w * w
        norm_a = w2[:, :dr].sum(axis=1)
        ratio_b = 1.0 + c * (norm_a + w2[:, dr])
        ratio_a = 1.0 + c * norm_a
        prior = ctx._weight_gamma.gain.take(j)
        delta = (np.where(merge, -prior, prior) - 0.5 * np.log(ratio_a)
                 - 0.5 * ctx.n * np.log(ratio_b / ratio_a))
        # the new pivots of A over their diagonals stay above this
        grown = self.diag[:dr] + np.maximum(c, 0.0)[:, None] * d[:, :dr] ** 2
        bound = ((self.pivots / grown).min(axis=1, initial=np.inf)
                 * np.minimum(ratio_a, 1.0))
        flagged = self._doubt(delta, self.q * ratio_b / ratio_a,
                              np.minimum(np.minimum(ratio_a, ratio_b), bound))
        flagged |= merge & ctx._weight_gamma.forced.take(j)
        return delta, flagged

    def _atoms(self, a):
        ctx, dr = self.ctx, self.dr
        slot = self.slot.take(a)
        delta = np.empty(len(a))
        flagged = np.empty(len(a), dtype=bool)
        out = slot >= 0
        delta[out] = self.remove.take(slot[out])
        flagged[out] = self.remove_flag.take(slot[out]) | (self.ratio < SCREEN_FLOOR)
        new = a[~out]
        if not new.size:
            return delta, flagged
        ends = ctx.ends(self.bounds[:, None], new)
        seg = ends[:-1] - ends[1:]
        weighted = seg * self.inv_len[:, None]
        gram = ctx.gram(new[:, None], self.cols)
        norm = ctx.gram(new, new)
        col = gram * ctx._scale.take(self.cols) - ctx.shrink * (weighted.T @ self.seg)
        diag = (1.0 + ctx.c2_inv) * norm - ctx.shrink * (seg * weighted).sum(axis=0)
        z = col @ self.inv.T
        z2 = z * z
        schur_a = diag - z2[:, :dr].sum(axis=1)
        schur_b = schur_a - z2[:, dr]
        z_g = gram[:, :dr] @ self.inv_g.T
        schur_g = norm - (z_g * z_g).sum(axis=1)
        add = (ctx._weight_r.gain.take(new) + 0.5 * np.log(schur_g) - 0.5 * np.log(schur_a)
               - 0.5 * ctx.n * np.log(schur_b / schur_a))
        ratio = np.minimum(np.minimum(schur_a, schur_b) / diag * self.ratio,
                           schur_g / norm * self.ratio_g)
        delta[~out] = add
        flagged[~out] = self._doubt(add, self.q * schur_b / schur_a, ratio)
        return delta, flagged

    def _doubt(self, delta, q, ratio):
        """Flags of changes that are not finite, or whose new q or
        smallest ratio is too near its floor to be certain."""
        return (~np.isfinite(delta) | ~(q >= self.ctx._q_min / SCREEN_FLOOR)
                | ~(ratio >= SCREEN_FLOOR))


def log_integrated_posterior(state: LatentState, ctx: PosteriorContext) -> float:
    """Collapsed log-posterior of one state: a stack of one."""
    ctx.check_state(state)
    ridx = np.flatnonzero(state.r)[None] if ctx.mode == MODE_SP else None
    return float(evaluate_stack(ctx, np.flatnonzero(state.gamma)[None], ridx)[0])
