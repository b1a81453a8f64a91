"""Command-line interface.

Subcommands map onto the two-stage pipeline: ``simulate`` emits a
synthetic series plus its truth, ``fit`` runs the model search and/or
the coefficient stage, ``metrics`` scores an estimate against a truth
file, ``bench`` runs the replicated noise-level comparison and
``dict`` materializes a design matrix.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as dio
from .benchmark import run_benchmark
from .config import RunConfig, derive_seeds, load_config, sensitivity_presets
from .dictionary import (
    DesignMatrix,
    evaluate_dictionary,
    exchange_dictionary,
    fourier_period_floor_dictionary,
    load_design_matrix,
    simulation_dictionary,
)
from .errors import DataError, DictsegError, ValidationError
from .gibbs import run_gibbs
from .metrics import functional_metrics, segmentation_metrics
from .mh import inclusion_probabilities, run_metropolis_hastings, select_median_probability_model
from .pipeline import build_context, fit_series
from .posterior import MODE_SP
from .simulate import SeriesTruth, simulate_series
from .stepmodel import Segmentation, TimeSeries


def resolve_design(spec: str, series: TimeSeries) -> tuple[DesignMatrix, tuple[str, ...]]:
    """Design matrix for a dictionary spec string.

    Accepted forms: ``simulation_n100`` (optionally ``:haar128`` or
    ``:point100``), ``exchange``, ``fourier:floor=<weeks>``,
    ``file:<path>``.
    """
    if spec.startswith("file:"):
        design = load_design_matrix(spec[5:])
        if design.n != series.n:
            raise DataError(f"design has {design.n} rows, series has {series.n}")
        return design, design.labels
    if spec.startswith("fourier"):
        floor = 8.0
        if ":" in spec:
            key, _, value = spec.partition(":")[2].partition("=")
            if key != "floor":
                raise ValidationError(f"unknown fourier option {key!r}")
            floor = float(value)
        span = float(series.covariate[-1] - series.covariate[0])
        dictionary = fourier_period_floor_dictionary(span, floor)
    elif spec.startswith("simulation_n100"):
        family = spec.partition(":")[2] or "haar128"
        dictionary = simulation_dictionary(series.n, family=family)
    elif spec == "exchange":
        dictionary = exchange_dictionary(series.n)
    else:
        raise ValidationError(f"unknown dictionary spec {spec!r}")
    return evaluate_dictionary(dictionary, series.covariate), dictionary.labels()


def _truth_payload(truth: SeriesTruth, n: int) -> dict:
    return {
        "n": n,
        "sigma": truth.sigma,
        "change_points": list(truth.segmentation.change_points),
        "means": list(truth.segmentation.means),
        "true_atom_indices": sorted(truth.true_atom_indices),
        "f_true": [float(v) for v in truth.f_true],
    }


def cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    series, truth = simulate_series(args.n, args.sigma, rng)
    with open(args.out, "w") as fh:
        fh.write("value\n")
        for v in series.values:
            fh.write(f"{float(v)!r}\n")
    if args.truth:
        with open(args.truth, "w") as fh:
            json.dump(_truth_payload(truth, series.n), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {series.n} observations to {args.out}")
    return 0


def _base_config(args) -> RunConfig:
    """The preset, or the sensitivity run, with the config file applied."""
    if args.run is not None:
        if args.preset == "application":
            raise ValidationError("--run selects a sensitivity preset built on the default "
                                  "settings; it cannot be combined with --preset application")
        presets = sensitivity_presets()
        if args.run not in presets:
            raise ValidationError(f"run preset {args.run} not in 1..21")
        base = presets[args.run]
    elif args.preset == "application":
        base = RunConfig.application()
    else:
        base = RunConfig.default()
    if args.config:
        base = load_config(args.config, base=base)
    return base


def _load_run_config(args) -> RunConfig:
    base = _base_config(args)
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.dictionary:
        overrides["dictionary"] = args.dictionary
    if overrides:
        base = replace(base, **overrides)
    return base.validate()


def cmd_fit(args) -> int:
    cfg = _load_run_config(args)
    series = dio.load_series(args.input)
    design, labels = (None, None)
    if cfg.mode == MODE_SP:
        design, labels = resolve_design(cfg.dictionary, series)
    hyper = cfg.hyperparameters(series.n, design.num_atoms if design else None)
    if args.event_priors:
        events = dio.load_event_priors(args.event_priors)
        hyper = dio.apply_event_priors(hyper, events, series)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mh_seed, gibbs_seed = derive_seeds(cfg.seed, 2)

    if args.stage == "gibbs":
        if not args.selection:
            raise ValidationError("--stage=gibbs requires --selection")
        selection = dio.load_selection(args.selection, series.n,
                                       design.num_atoms if design else None)
        ctx = build_context(series, hyper, design, cfg.mode)
        fit = run_gibbs(ctx, selection,
                        cfg.gibbs_config(seed=gibbs_seed, store_trace=args.save_draws))
        if fit.trace is not None:
            fit.trace.export_csv(out_dir / "gibbs_draws.csv")
        paths = dio.write_results(fit, None, series, out_dir, atom_labels=labels)
    elif args.stage == "mh":
        ctx = build_context(series, hyper, design, cfg.mode)
        trace = run_metropolis_hastings(ctx, cfg.mh_config(seed=mh_seed))
        incl = inclusion_probabilities(trace, cfg.burn_in)
        selection = select_median_probability_model(incl)
        dio.write_selection(selection, out_dir / "selection.json")
        if args.save_trace:
            trace.export_csv(out_dir / "mh_trace.csv")
        print(f"wrote selection to {out_dir / 'selection.json'}")
        return 0
    else:
        out = fit_series(series, hyper, cfg.mh_config(seed=mh_seed),
                         cfg.gibbs_config(seed=gibbs_seed, store_trace=args.save_draws),
                         design=design)
        dio.write_selection(out.selection, out_dir / "selection.json")
        if args.save_trace:
            out.mh_trace.export_csv(out_dir / "mh_trace.csv")
        if out.fit.trace is not None:
            out.fit.trace.export_csv(out_dir / "gibbs_draws.csv")
        paths = dio.write_results(out.fit, out.mh_trace, series, out_dir,
                                  atom_labels=labels)
    print(f"wrote results to {paths['summary']}")
    return 0


def cmd_metrics(args) -> int:
    try:
        with open(args.estimate) as fh:
            est = json.load(fh)
        with open(args.truth) as fh:
            tru = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read inputs: {exc}") from exc
    n = int(tru["n"])
    truth_seg = Segmentation(change_points=tuple(tru["change_points"]),
                             means=tuple(tru["means"]))
    est_seg = Segmentation(change_points=tuple(est["change_points"]),
                           means=tuple(est["means"]))
    rmse_mu, fdr_bp, fnr_bp = segmentation_metrics(est_seg, truth_seg, n,
                                                   tolerance=args.tolerance)
    report = {"rmse_mu": rmse_mu, "fdr_bp": fdr_bp, "fnr_bp": fnr_bp}
    if "f_hat" in est and "f_true" in tru:
        truth = SeriesTruth(
            segmentation=truth_seg, f_true=np.array(tru["f_true"]),
            sigma=float(tru.get("sigma", 0.0)),
            true_atom_indices=frozenset(tru.get("true_atom_indices", ())),
            noise=np.zeros(n),
        )
        atoms = [a["index"] for a in est.get("selected_atoms", [])]
        rmse_f, fdr_f, fnr_f = functional_metrics(np.array(est["f_hat"]), atoms, truth)
        report.update({"rmse_f": rmse_f, "fdr_f": fdr_f, "fnr_f": fnr_f})
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_bench(args) -> int:
    cfg = _base_config(args)
    try:
        levels = [float(s) for s in args.sigmas.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--sigmas must be comma-separated numbers: {exc}") from exc
    methods = tuple(args.methods.split(","))
    report = run_benchmark(levels, args.replicates, methods=methods, config=cfg,
                           master_seed=args.seed, n=args.n, family=args.family,
                           n_jobs=args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.export_csv(out_dir / "replicates.csv")
    report.export_json(out_dir / "summary.json")
    for (sigma, method), summary in sorted(report.averages().items()):
        print(f"sigma={sigma} method={method} "
              f"k_hat={summary['k_hat']} fdr_bp={summary['fdr_bp']} "
              f"fnr_bp={summary['fnr_bp']} failures={summary['failures']}")
    print(f"wrote {out_dir / 'replicates.csv'} and {out_dir / 'summary.json'}")
    return 0


def cmd_dict(args) -> int:
    covariate = np.arange(1, args.n + 1, dtype=float)
    series = TimeSeries(values=np.zeros(args.n), covariate=covariate)
    design, labels = resolve_design(args.preset, series)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(labels)
        for row in design.matrix:
            writer.writerow([repr(float(v)) for v in row])
    print(f"wrote {design.n}x{design.num_atoms} design to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dictseg",
        description="Bayesian change-point detection with a dictionary disturbance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit a synthetic series and its truth")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fit", help="run the two-stage fit")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=["sp", "p"])
    p.add_argument("--dictionary", help="dictionary spec (see resolve_design)")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--preset", choices=["default", "application"], default="default")
    p.add_argument("--run", type=int, help="named sensitivity run preset (1..21)")
    p.add_argument("--seed", type=int)
    p.add_argument("--stage", choices=["both", "mh", "gibbs"], default="both")
    p.add_argument("--selection", help="selection.json from a previous mh stage")
    p.add_argument("--event-priors", help="CSV of (position-or-label, probability)")
    p.add_argument("--save-trace", action="store_true")
    p.add_argument("--save-draws", action="store_true")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("metrics", help="score an estimate against a truth file")
    p.add_argument("--estimate", required=True, help="summary.json from a fit")
    p.add_argument("--truth", required=True, help="truth.json from simulate")
    p.add_argument("--tolerance", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("bench", help="replicated noise-level comparison")
    p.add_argument("--sigmas", default="0.1,0.5,1,1.5")
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--methods", default="sp,p")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--family", choices=["point100", "haar128"], default="point100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--config")
    p.add_argument("--preset", choices=["default", "application"], default="default")
    p.add_argument("--run", type=int, help="named sensitivity run preset (1..21)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("dict", help="emit a design matrix")
    p.add_argument("--preset", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_dict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DictsegError as exc:
        print(f"error ({exc.category}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
