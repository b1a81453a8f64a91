"""The benchmark's workloads: generated series, their truth and the
run configuration each fit uses.

Inputs come from the benchmark's own generators, seeded from the
``--seed`` argument; the program sees only the series file and the
configuration.  A workload is a round of fits that every run repeats
whole, so each run attempts the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from dictseg.config import RunConfig


@dataclass(frozen=True)
class FitSpec:
    name: str
    values: np.ndarray
    change_points: tuple[int, ...]     # true change-points
    sigma: float                       # true noise level
    config: RunConfig
    recovery_tolerance: int | None     # positions; None skips check 4
    sigma_range: tuple[float, float] | None = None


@dataclass(frozen=True)
class Workload:
    fits: tuple[FitSpec, ...]
    # Set-ups per fit and round; a fit's set-up time is their median
    # over the run.
    setup_repeats: int

    def warmup(self) -> FitSpec:
        """The first fit with chains a tenth as long, run untimed."""
        spec = self.fits[0]
        cfg = spec.config
        short = replace(cfg, iterations=cfg.iterations // 10, burn_in=cfg.burn_in // 10,
                        gibbs_iterations=cfg.gibbs_iterations // 10,
                        gibbs_burn_in=cfg.gibbs_burn_in // 10)
        return replace(spec, name="warmup", config=short, recovery_tolerance=None,
                       sigma_range=None)


def simulation_series(n: int, sigma: float, layout: np.random.Generator,
                      noise: np.random.Generator):
    """The paper's simulation design: four segments with means in
    {0..5}, neighbours distinct, each at least 5 long, change-points at
    least 3 from the peaks; disturbance 0.3·sin(2πt/20) plus peaks of
    1.5, -2 and 3 at 0.1n, 0.5n and 0.6n; Gaussian noise.  The layout
    (change-points and means) comes from ``layout``, the noise from
    ``noise``."""
    t = np.arange(1, n + 1, dtype=float)
    peaks = np.array([0.1, 0.5, 0.6]) * n
    while True:
        cps = np.sort(layout.choice(np.arange(1, n), size=3, replace=False))
        lengths = np.diff(np.concatenate([[0], cps, [n]]))
        if lengths.min() >= 5 and np.abs(cps[:, None] - peaks[None, :]).min() >= 3:
            break
    means = [int(layout.integers(6))]
    for _ in range(3):
        means.append(int(layout.choice([m for m in range(6) if m != means[-1]])))
    f = 0.3 * np.sin(2.0 * np.pi * t / 20.0)
    for where, height in zip(peaks, (1.5, -2.0, 3.0)):
        f += height * (t == where)
    y = np.repeat(np.array(means, dtype=float), lengths) + f + noise.normal(0.0, sigma, n)
    return y, tuple(int(c) for c in cps)


def simulation_atoms(n: int) -> tuple[int, ...]:
    """Atoms of ``simulation_n100:point100`` that make up the simulation
    design's disturbance: the constant (1), the unit indicators at the
    peaks (t + 1) and the sine of frequency (n/20)/n (n + 1 + 2·n/20 - 1).
    Valid for n a multiple of 20 up to 200, where that sine is an atom."""
    return (1, n // 10 + 1, n // 2 + 1, 3 * n // 5 + 1, n + n // 10)


def long_series(n: int, sigma: float, rng: np.random.Generator):
    """Five segments plus a trend and a low-frequency wave, all in the
    span of the exchange dictionary, plus Gaussian noise.  The shape is
    fixed (change-points at 0.15n, 0.38n, 0.6n and 0.82n, jumps of 1.5,
    -1.2, 1.5 and -1.2); only the noise comes from ``rng``, so the
    search's work varies little from seed to seed."""
    t = np.arange(1, n + 1, dtype=float)
    cps = (np.array([0.15, 0.38, 0.6, 0.82]) * n).astype(np.int64)
    means = np.cumsum([0.0, 1.5, -1.2, 1.5, -1.2])
    lengths = np.diff(np.concatenate([[0], cps, [n]]))
    f = 1.0 * (t / n) - 0.8 * (t / n) ** 2 + 0.5 * np.sin(2.0 * np.pi * 3.0 * t / n + 1.0)
    y = np.repeat(means, lengths) + f + rng.normal(0.0, sigma, n)
    return y, tuple(int(c) for c in cps)


# Change-points and means of the simulated series are drawn once, from
# this constant, so that every --seed asks for about the same work; the
# noise and the chains' seeds come from --seed.
LAYOUT_SEED = 2015


def _fit_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def sim100(seed: int) -> Workload:
    """Three series across the study's noise range, each fitted in mode
    sp (default preset, point100 dictionary) and in mode p.

    Check 4 (recovery) is not run here because today's sampler fails it
    on some seeds.  In the form that passes misses the model itself
    prefers (checks.check_recovery with ``rate``), 4 of the 240 sigma = 0.1
    fits of seeds 1-120 failed: seeds 54 and 80 in mode sp, 97 and 120 in
    mode p.  Each time the true model rated 9 to 114 nats above the
    selected one and above every state the chain visited.
    """
    fits = []
    for k, sigma in enumerate((0.1, 0.5, 1.5)):
        rng = np.random.default_rng([seed, 100, k])
        y, cps = simulation_series(100, sigma, np.random.default_rng([LAYOUT_SEED, k]), rng)
        fit_seed = _fit_seed(rng)
        for mode in ("sp", "p"):
            cfg = replace(RunConfig.default(), mode=mode, seed=fit_seed,
                          dictionary="simulation_n100:point100")
            fits.append(FitSpec(name=f"sigma{sigma}-{mode}", values=y, change_points=cps,
                                sigma=sigma, config=cfg, recovery_tolerance=None))
    return Workload(fits=tuple(fits), setup_repeats=15)


def long_app(seed: int) -> Workload:
    """One 20000-point series, mode sp with the exchange dictionary and
    the application preset's sampler settings, fitted by three chains
    with different seeds.  Chains are scaled down to 20000 search and 10000
    coefficient iterations at the preset's burn-in ratios (0.3 and 0.5).
    The search's work depends on how many spurious change-points a
    chain picks up, so three chains narrow its seed-to-seed spread."""
    rng = np.random.default_rng([seed, 20000])
    sigma = 0.5
    y, cps = long_series(20000, sigma, rng)
    fits = []
    for chain in (1, 2, 3):
        cfg = replace(RunConfig.application(), dictionary="exchange", seed=_fit_seed(rng),
                      iterations=20000, burn_in=6000,
                      gibbs_iterations=10000, gibbs_burn_in=5000)
        fits.append(FitSpec(name=f"chain{chain}", values=y, change_points=cps, sigma=sigma,
                            config=cfg, recovery_tolerance=20, sigma_range=(0.8, 1.25)))
    return Workload(fits=tuple(fits), setup_repeats=5)


def wide_point(seed: int) -> Workload:
    """The simulation design at n = 2000 with the point-indicator
    dictionary (2023 atoms), fitted by two short chains with different
    seeds: 600 search and 3000 coefficient iterations.  Each chain is a
    fit of its own, set-up included.  A chain picks up 20 to 40
    change-points within its first few hundred iterations and the
    search's cost follows that count, so the search is kept short.  The
    coefficient stage runs long enough for check 2's batches (112 draws)
    to span several autocorrelation times (up to 27 draws here)."""
    rng = np.random.default_rng([seed, 2000])
    sigma = 0.5
    y, cps = simulation_series(2000, sigma, np.random.default_rng([LAYOUT_SEED, 2000]), rng)
    fits = []
    for chain in (1, 2):
        cfg = replace(RunConfig.default(), seed=_fit_seed(rng),
                      dictionary="simulation_n100:point100",
                      iterations=600, burn_in=150, gibbs_iterations=3000, gibbs_burn_in=750)
        fits.append(FitSpec(name=f"chain{chain}", values=y, change_points=cps, sigma=sigma,
                            config=cfg, recovery_tolerance=None))
    return Workload(fits=tuple(fits), setup_repeats=1)


WORKLOADS = {"sim100": sim100, "long-app": long_app, "wide-point": wide_point}
