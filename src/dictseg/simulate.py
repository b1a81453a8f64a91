"""Synthetic series generator for the benchmark harness.

Each draw produces a 4-segment piecewise-constant signal plus a fixed
disturbance made of a period-20 sine and three one-point peaks at
0.1n, 0.5n and 0.6n, plus white Gaussian noise.  Change-points keep a
distance of at least 3 from every peak and every segment has length at
least 5; segment means are drawn from {0,...,5} with distinct
neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputeError, ValidationError
from .stepmodel import Segmentation, TimeSeries

NUM_SEGMENTS = 4
MIN_SEGMENT_LENGTH = 5
MIN_PEAK_DISTANCE = 3
MEAN_CHOICES = (0, 1, 2, 3, 4, 5)
MAX_REJECTION_ATTEMPTS = 100_000
# the shortest series the simulator accepts for the layout constraints above
MIN_SIMULATED_N = 25


@dataclass(frozen=True)
class SeriesTruth:
    """Everything needed to score a fit of one simulated series."""

    segmentation: Segmentation
    f_true: np.ndarray
    sigma: float
    true_atom_indices: frozenset[int]
    noise: np.ndarray


def disturbance(n: int) -> np.ndarray:
    """The fixed smooth-plus-peaks bias evaluated on t = 1..n."""
    t = np.arange(1, n + 1, dtype=float)
    f = 0.3 * np.sin(2.0 * np.pi * t / 20.0)
    f += 1.5 * (t == 0.1 * n)
    f += -2.0 * (t == 0.5 * n)
    f += 3.0 * (t == 0.6 * n)
    return f


def true_atom_indices(n: int) -> frozenset[int]:
    """Indices of the disturbance components in the unit-indicator
    simulation dictionary for length n (indicator for time t0 sits at
    index t0 + 1; the sine of period 20 sits at n + 2·(n/20) when that
    frequency is on the Fourier grid)."""
    idx = set()
    for peak in (0.1 * n, 0.5 * n, 0.6 * n):
        if peak == int(peak) and 1 <= peak <= n:
            idx.add(int(peak) + 1)
    j = n / 20.0
    if j == int(j) and 1 <= j <= 10:
        idx.add(n + 2 * int(j))
    return frozenset(idx)


def _draw_change_points(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    peaks = (0.1 * n, 0.5 * n, 0.6 * n)
    for _ in range(MAX_REJECTION_ATTEMPTS):
        taus = np.sort(rng.choice(n - 1, size=NUM_SEGMENTS - 1, replace=False) + 1)
        bounds = np.concatenate([[0], taus, [n]])
        if np.diff(bounds).min() < MIN_SEGMENT_LENGTH:
            continue
        if min(abs(t - p) for t in taus for p in peaks) < MIN_PEAK_DISTANCE:
            continue
        return tuple(int(t) for t in taus)
    raise ComputeError("no change-point layout satisfied the constraints")


def _draw_means(rng: np.random.Generator) -> tuple[float, ...]:
    means = [float(rng.choice(MEAN_CHOICES))]
    for _ in range(NUM_SEGMENTS - 1):
        others = [m for m in MEAN_CHOICES if m != means[-1]]
        means.append(float(rng.choice(others)))
    return tuple(means)


def simulate_series(n: int, sigma: float,
                    rng: np.random.Generator) -> tuple[TimeSeries, SeriesTruth]:
    if n < MIN_SIMULATED_N:
        raise ValidationError(f"need n >= {MIN_SIMULATED_N} to satisfy the layout constraints")
    if sigma < 0:
        raise ValidationError("sigma must be nonnegative")
    return make_series(n, _draw_change_points(n, rng), _draw_means(rng), sigma, rng)


def make_series(n: int, change_points, means, sigma: float,
                rng: np.random.Generator | None = None,
                noise: np.ndarray | None = None) -> tuple[TimeSeries, SeriesTruth]:
    """Simulated series with a fixed segmentation (no rejection step)."""
    segmentation = Segmentation(change_points=tuple(change_points), means=tuple(means))
    f = disturbance(n)
    if noise is None:
        if sigma > 0:
            if rng is None:
                raise ValidationError("need an rng (or explicit noise) when sigma > 0")
            noise = rng.normal(0.0, sigma, size=n)
        else:
            noise = np.zeros(n)
    values = segmentation.mean_path(n) + f + noise
    series = TimeSeries(values=values)
    truth = SeriesTruth(segmentation=segmentation, f_true=f, sigma=float(sigma),
                        true_atom_indices=true_atom_indices(n), noise=np.asarray(noise))
    return series, truth
