"""Batched simulation benchmark comparing the full model against the
segmentation-only variant across noise levels.

Every (noise level, replicate) pair simulates one series; each method
then fits that same series.  Per-replicate seeds are split off the
master seed, so reports are reproducible and replicates can run in a
worker pool without changing the results.  A failing replicate is
recorded as a failed row instead of aborting the batch.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .config import RunConfig, derive_seeds
from .dictionary import SIMULATION_FAMILIES, resolve_design
from .errors import ValidationError
from .io import write_csv, write_json
from .metrics import functional_metrics, segmentation_metrics
from .pipeline import fit_series
from .posterior import MODE_P, MODE_SP
from .simulate import MIN_SIMULATED_N, simulate_series

_MEAN_FIELDS = ("k_hat", "rmse_mu", "fdr_bp", "fnr_bp", "rmse_f", "fdr_f",
                "fnr_f", "sigma_hat", "runtime_s")


@dataclass(frozen=True)
class ReplicateRow:
    sigma: float
    method: str
    replicate: int
    sim_seed: int
    fit_seed: int
    ok: bool
    k_hat: int | None = None
    rmse_mu: float | None = None
    fdr_bp: float | None = None
    fnr_bp: float | None = None
    rmse_f: float | None = None
    fdr_f: float | None = None
    fnr_f: float | None = None
    sigma_hat: float | None = None
    runtime_s: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[ReplicateRow, ...]

    def averages(self) -> dict[tuple[float, str], dict[str, float]]:
        """Mean of each criterion over the successful replicates,
        keyed by (sigma, method)."""
        groups: dict[tuple[float, str], list[ReplicateRow]] = {}
        for row in self.rows:
            groups.setdefault((row.sigma, row.method), []).append(row)
        out = {}
        for key, rows in groups.items():
            ok = [r for r in rows if r.ok]
            summary = {"replicates": len(rows), "failures": len(rows) - len(ok)}
            for name in _MEAN_FIELDS:
                values = [getattr(r, name) for r in ok if getattr(r, name) is not None]
                summary[name] = float(np.mean(values)) if values else None
            out[key] = summary
        return out

    def export_csv(self, path) -> None:
        """One row per replicate and method, one column per field."""
        write_csv(path, [f.name for f in fields(ReplicateRow)], zip(*map(astuple, self.rows)))

    def export_json(self, path) -> None:
        write_json(path, [
            {"sigma": sigma, "method": method, **summary}
            for (sigma, method), summary in sorted(self.averages().items())
        ])


def _fit_one(task) -> ReplicateRow:
    sigma, replicate, sim_seed, n, cfg = task
    row = dict(sigma=sigma, method=cfg.mode, replicate=replicate,
               sim_seed=sim_seed, fit_seed=cfg.seed)
    try:
        series, truth = simulate_series(n, sigma, np.random.default_rng(sim_seed))
        design = None
        if cfg.mode == MODE_SP:
            design, _ = resolve_design(cfg.dictionary, series)
        hyper = cfg.hyperparameters(series.n, design.num_atoms if design else None)
        mh_seed, gibbs_seed = cfg.seeds()
        start = time.perf_counter()
        out = fit_series(series, hyper, cfg.mh_config(seed=mh_seed),
                         cfg.gibbs_config(seed=gibbs_seed, store_trace=False),
                         design=design)
        runtime = time.perf_counter() - start
        fit = out.fit
        rmse_mu, fdr_bp, fnr_bp = segmentation_metrics(
            fit.segmentation_hat, truth.segmentation, series.n)
        row.update(ok=True, k_hat=fit.k_hat, rmse_mu=rmse_mu, fdr_bp=fdr_bp,
                   fnr_bp=fnr_bp, sigma_hat=fit.sigma_hat, runtime_s=runtime)
        if cfg.mode == MODE_SP:
            rmse_f, fdr_f, fnr_f = functional_metrics(fit.f_hat, fit.atoms, truth)
            row.update(rmse_f=rmse_f, fdr_f=fdr_f, fnr_f=fnr_f)
    except Exception as exc:  # recorded, not raised: one bad replicate must not kill a batch
        row.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    return ReplicateRow(**row)


def run_benchmark(levels, replicates: int, methods=("sp", "p"),
                  config: RunConfig | None = None, master_seed: int = 0,
                  n: int = 100, family: str = "point100",
                  n_jobs: int = 1) -> BenchmarkReport:
    if replicates < 1:
        raise ValidationError("replicates must be >= 1")
    if n_jobs < 1:
        raise ValidationError(f"n_jobs must be >= 1, got {n_jobs}")
    if n < MIN_SIMULATED_N:
        raise ValidationError(f"n must be >= {MIN_SIMULATED_N} for the simulated layout, got {n}")
    if family not in SIMULATION_FAMILIES:
        raise ValidationError(f"unknown simulation family {family!r}; "
                              f"expected one of {', '.join(SIMULATION_FAMILIES)}")
    if not all(sigma >= 0.0 for sigma in levels):
        raise ValidationError(f"noise levels must be nonnegative numbers, got {list(levels)}")
    methods = tuple(methods)
    if not methods or len(set(methods)) != len(methods) or not set(methods) <= {MODE_SP, MODE_P}:
        raise ValidationError(f"methods must be distinct names among '{MODE_SP}' and "
                              f"'{MODE_P}', got {methods}")
    config = replace((config or RunConfig.default()).validate(),
                     dictionary=f"simulation_n100:{family}")

    tasks = []
    pair_seeds = derive_seeds(master_seed, len(levels) * replicates)
    for i, sigma in enumerate(levels):
        for rep in range(replicates):
            sim_seed, *fit_seeds = derive_seeds(pair_seeds[i * replicates + rep],
                                                1 + len(methods))
            for method, fit_seed in zip(methods, fit_seeds):
                tasks.append((float(sigma), rep, sim_seed, n,
                              replace(config, mode=method, seed=fit_seed)))

    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            rows = list(pool.map(_fit_one, tasks))
    else:
        rows = [_fit_one(t) for t in tasks]
    return BenchmarkReport(rows=tuple(rows))
