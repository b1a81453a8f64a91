"""Batched simulation benchmark comparing the full model against the
segmentation-only variant across noise levels.

Every (noise level, replicate) pair simulates one series; each method
then fits that same series.  Per-replicate seeds are split off the
master seed, so reports are reproducible and replicates can run in a
worker pool without changing the results.  A failing replicate is
recorded as a failed row instead of aborting the batch.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import RunConfig, derive_seeds
from .dictionary import evaluate_dictionary, simulation_dictionary
from .errors import ValidationError
from .metrics import functional_metrics, segmentation_metrics
from .pipeline import fit_series
from .posterior import MODE_P, MODE_SP
from .simulate import simulate_series

_CSV_FIELDS = ("sigma", "method", "replicate", "sim_seed", "fit_seed", "ok",
               "k_hat", "rmse_mu", "fdr_bp", "fnr_bp", "rmse_f", "fdr_f",
               "fnr_f", "sigma_hat", "runtime_s", "error")

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
        with open(path, "w") as fh:
            fh.write(",".join(_CSV_FIELDS) + "\n")
            for row in self.rows:
                values = []
                for name in _CSV_FIELDS:
                    v = getattr(row, name)
                    values.append("" if v is None else str(v))
                fh.write(",".join(values) + "\n")

    def export_json(self, path) -> None:
        payload = [
            {"sigma": sigma, "method": method, **summary}
            for (sigma, method), summary in sorted(self.averages().items())
        ]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fit_one(task) -> ReplicateRow:
    (sigma, method, replicate, sim_seed, fit_seed, n, family, cfg_kw) = task
    base = replace(RunConfig(), **cfg_kw)
    row = dict(sigma=sigma, method=method, replicate=replicate,
               sim_seed=sim_seed, fit_seed=fit_seed)
    try:
        series, truth = simulate_series(n, sigma, np.random.default_rng(sim_seed))
        cfg = replace(base, mode=method)
        design = None
        if cfg.mode == MODE_SP:
            design = evaluate_dictionary(simulation_dictionary(n, family=family),
                                         series.covariate)
        num_atoms = design.num_atoms if design is not None else None
        hyper = cfg.hyperparameters(series.n, num_atoms)
        mh_seed, gibbs_seed = derive_seeds(fit_seed, 2)
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
    if not all(sigma >= 0.0 for sigma in levels):
        raise ValidationError(f"noise levels must be nonnegative numbers, got {list(levels)}")
    methods = tuple(methods)
    if not methods or len(set(methods)) != len(methods) or not set(methods) <= {MODE_SP, MODE_P}:
        raise ValidationError(f"methods must be distinct names among '{MODE_SP}' and "
                              f"'{MODE_P}', got {methods}")
    config = (config or RunConfig.default()).validate()
    cfg_kw = {f.name: getattr(config, f.name) for f in fields(RunConfig)}

    tasks = []
    pair_seeds = derive_seeds(master_seed, len(levels) * replicates)
    for i, sigma in enumerate(levels):
        for rep in range(replicates):
            pair_seed = pair_seeds[i * replicates + rep]
            child = derive_seeds(pair_seed, 1 + len(methods))
            sim_seed = child[0]
            for m, method in enumerate(methods):
                tasks.append((float(sigma), method, rep, sim_seed,
                              child[1 + m], n, family, cfg_kw))

    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            rows = list(pool.map(_fit_one, tasks))
    else:
        rows = [_fit_one(t) for t in tasks]
    return BenchmarkReport(rows=tuple(rows))
