"""Piecewise-constant signal parameterization.

A segmentation with K segments is given by its step positions, the
1-based positions right after each change-point plus position 1, and
by its segment means; the step coefficients beta are the jumps between
consecutive means.  The step design matrix X is lower triangular with
ones on and below the diagonal, so X @ beta is the piecewise-constant
mean path.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    (tau_{k-1}, tau_k].  Consecutive means may be equal.
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

    def mean_path(self, n: int) -> np.ndarray:
        """The n-vector mu(t), t = 1..n."""
        if self.change_points and self.change_points[-1] >= n:
            raise ValidationError(f"change-points exceed series length {n}")
        bounds = (0,) + self.change_points + (n,)
        out = np.empty(n)
        for mu, lo, hi in zip(self.means, bounds, bounds[1:]):
            out[lo:hi] = mu
        return out
