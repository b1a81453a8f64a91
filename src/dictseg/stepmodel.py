"""Piecewise-constant signal parameterization.

A segmentation with K segments is encoded as a sparse vector beta whose
nonzero entries sit at the positions right after each change-point
(1-based, position 1 always active when the vector is nonempty).  The
step design matrix X is lower triangular with ones on and below the
diagonal, so X @ beta is the piecewise-constant mean path.  X is never
materialized: products with it reduce to cumulative/suffix sums and its
Gram matrix has the closed form G[a, b] = n + 1 - max(p_a, p_b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class TimeSeries:
    """Observed series with a strictly increasing covariate grid.

    By default the covariate is time t = 1..n.  Optional labels (e.g.
    calendar dates) ride along and can be used to resolve event files.
    """

    values: np.ndarray
    covariate: np.ndarray = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        n = len(values)
        if n < 2:
            raise ValidationError(f"series needs at least 2 observations, got {n}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("series values must be finite")
        if self.covariate is None:
            covariate = np.arange(1, n + 1, dtype=float)
        else:
            covariate = np.asarray(self.covariate, dtype=float)
        if len(covariate) != n:
            raise ValidationError("covariate length does not match values")
        if not np.all(np.isfinite(covariate)):
            raise ValidationError("covariate must be finite")
        if np.any(np.diff(covariate) <= 0):
            raise ValidationError("covariate must be strictly increasing")
        object.__setattr__(self, "covariate", covariate)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise ValidationError("labels length does not match values")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Segmentation:
    """Change-points tau_1 < ... < tau_{K-1} in (0, n) plus segment means.

    Conventions tau_0 = 0 and tau_K = n; segment k covers times
    (tau_{k-1}, tau_k].  Stored means may repeat; a segmentation built
    from a sparse step vector never has equal consecutive means.
    """

    change_points: tuple[int, ...]
    means: tuple[float, ...]

    def __post_init__(self):
        cps = tuple(int(t) for t in self.change_points)
        means = tuple(float(m) for m in self.means)
        if len(means) != len(cps) + 1:
            raise ValidationError(
                f"{len(cps)} change-points require {len(cps) + 1} means, got {len(means)}"
            )
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValidationError("change-points must be strictly increasing")
        if cps and cps[0] < 1:
            raise ValidationError("change-points must be >= 1")
        object.__setattr__(self, "change_points", cps)
        object.__setattr__(self, "means", means)

    @property
    def num_segments(self) -> int:
        return len(self.means)

    def mean_path(self, n: int) -> np.ndarray:
        """The n-vector mu(t), t = 1..n."""
        if self.change_points and self.change_points[-1] >= n:
            raise ValidationError(f"change-points exceed series length {n}")
        bounds = (0,) + self.change_points + (n,)
        out = np.empty(n)
        for mu, lo, hi in zip(self.means, bounds, bounds[1:]):
            out[lo:hi] = mu
        return out


@dataclass(frozen=True)
class SparseStepVector:
    """Sparse beta: map 1-based position -> nonzero jump value.

    Position 1 must be present whenever the vector is nonempty (the
    first segment mean is itself a jump from the baseline 0).
    """

    entries: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        entries = {int(p): float(v) for p, v in self.entries.items()}
        for p, v in entries.items():
            if p < 1:
                raise ValidationError(f"position {p} out of range (must be >= 1)")
            if v == 0.0:
                raise ValidationError(f"stored value at position {p} must be nonzero")
        if entries and 1 not in entries:
            raise ValidationError("nonempty step vector must include position 1")
        object.__setattr__(self, "entries", entries)

    def positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def values_in_order(self) -> np.ndarray:
        return np.array([self.entries[p] for p in self.positions()])


def beta_to_segmentation(beta: SparseStepVector, n: int) -> Segmentation:
    """Decode beta into change-points and segment means.

    Nonzero positions p_1 < ... < p_K give tau_{k-1} = p_k - 1 and
    mu_k = sum of the first k jump values.
    """
    positions = beta.positions()
    if not positions:
        return Segmentation(change_points=(), means=(0.0,))
    if positions[-1] > n:
        raise ValidationError(f"position {positions[-1]} exceeds series length {n}")
    means = tuple(np.cumsum(beta.values_in_order()))
    change_points = tuple(p - 1 for p in positions[1:])
    return Segmentation(change_points=change_points, means=means)


def segmentation_to_beta(seg: Segmentation, n: int) -> SparseStepVector:
    """Inverse of :func:`beta_to_segmentation` (exact round-trip)."""
    if seg.change_points and seg.change_points[-1] >= n:
        raise ValidationError("change-points exceed series length")
    for a, b in zip(seg.means, seg.means[1:]):
        if a == b:
            raise ValidationError("consecutive means must differ to encode a jump")
    entries: dict[int, float] = {}
    prev = 0.0
    for tau, mu in zip((0,) + seg.change_points, seg.means):
        jump = mu - prev
        if jump != 0.0:
            entries[tau + 1] = jump
        prev = mu
    return SparseStepVector(entries=entries)


def step_gram(positions, n: int) -> np.ndarray:
    """Gram matrix of the selected step columns, in closed form.

    Column p of X is the indicator of t >= p, so the inner product of
    columns p_a and p_b counts the overlap: n + 1 - max(p_a, p_b).
    Symmetric positive definite whenever the positions are distinct.
    """
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size == 0:
        raise ValidationError("need at least one position")
    if pos.min() < 1 or pos.max() > n:
        raise ValidationError(f"positions must lie in [1, {n}]")
    if len(np.unique(pos)) != pos.size:
        raise ValidationError("positions must be distinct")
    return (n + 1 - np.maximum.outer(pos, pos)).astype(float)


def apply_step(positions, values, n: int) -> np.ndarray:
    """X_gamma @ beta_gamma as an n-vector via one cumulative sum."""
    out = np.zeros(n)
    pos = np.asarray(positions, dtype=np.int64)
    out[pos - 1] = np.asarray(values, dtype=float)
    return np.cumsum(out)
