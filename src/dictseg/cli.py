"""Command-line interface.

Subcommands map onto the two-stage pipeline: ``simulate`` emits a
synthetic series plus its truth, ``fit`` runs the model search and/or
the coefficient stage, ``metrics`` scores an estimate against a truth
file, ``bench`` runs the replicated noise-level comparison and
``dict`` materializes a design matrix.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import io as dio
from .benchmark import run_benchmark
from .config import RunConfig, load_config, sensitivity_presets
from .dictionary import SIMULATION_FAMILIES, resolve_design
from .errors import DataError, DictsegError, ValidationError
from .gibbs import run_gibbs
from .metrics import functional_metrics, segmentation_metrics
from .pipeline import build_context, search
from .posterior import MODE_SP
from .simulate import SeriesTruth, simulate_series
from .stepmodel import Segmentation, TimeSeries


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
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    series, truth = simulate_series(args.n, args.sigma, np.random.default_rng(args.seed))
    dio.write_csv(args.out, ["value"], [series.values])
    if args.truth:
        dio.write_json(args.truth, _truth_payload(truth, series.n))
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
    if args.stage == "gibbs" and not args.selection:
        raise ValidationError("--stage=gibbs requires --selection")
    cfg = _load_run_config(args)
    series = dio.load_series(args.input)
    design, labels = (None, None)
    if cfg.mode == MODE_SP:
        design, labels = resolve_design(cfg.dictionary, series)
    hyper = cfg.hyperparameters(series.n, design.num_atoms if design else None)
    if args.event_priors:
        events = dio.load_event_priors(args.event_priors)
        hyper = dio.apply_event_priors(hyper, events, series)

    out_dir = dio.output_dir(args.out_dir)
    mh_seed, gibbs_seed = cfg.seeds()
    ctx = build_context(series, hyper, design, cfg.mode)
    if args.stage == "gibbs":
        trace = incl = None
        selection = dio.load_selection(args.selection, series.n,
                                       design.num_atoms if design else None)
    else:
        trace, incl, selection = search(ctx, cfg.mh_config(seed=mh_seed))
        dio.write_selection(selection, out_dir / "selection.json")
        if args.save_trace:
            dio.write_trace(trace, out_dir / "mh_trace.csv")
        if args.stage == "mh":
            print(f"wrote selection to {out_dir / 'selection.json'}")
            return 0
    fit = run_gibbs(ctx, selection,
                    cfg.gibbs_config(seed=gibbs_seed, store_trace=args.save_draws),
                    inclusion=incl)
    if fit.trace is not None:
        dio.write_draws(fit.trace, out_dir / "gibbs_draws.csv")
    paths = dio.write_results(fit, trace, series, out_dir, atom_labels=labels)
    print(f"wrote results to {paths['summary']}")
    return 0


def _load_json(path, keys: tuple[str, ...]) -> dict:
    """A JSON object that holds every key in ``keys``."""
    payload = dio.read_input(path, "metrics input", json.load)
    missing = [k for k in keys if k not in payload] if isinstance(payload, dict) else keys
    if missing:
        raise DataError(f"{path} lacks {', '.join(missing)}")
    return payload


def _field(payload: dict, path, key: str, convert, kind: str, default=None):
    """``convert(payload[key])``, ``default`` if the key is absent, or a
    DataError naming the file and the field if the value is not ``kind``."""
    if key not in payload:
        return default
    try:
        return convert(payload[key])
    except (TypeError, ValueError, LookupError) as exc:
        raise DataError(f"{path}: {key} must be {kind} ({exc})") from exc


def _positive(value) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(f"{n} < 1")
    return n


def _integers(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def _numbers(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _segmentation(payload: dict, path) -> Segmentation:
    return Segmentation(
        change_points=_field(payload, path, "change_points", _integers, "a list of integers"),
        means=_field(payload, path, "means", _numbers, "a list of numbers"))


def cmd_metrics(args) -> int:
    est = _load_json(args.estimate, ("change_points", "means"))
    tru = _load_json(args.truth, ("n", "change_points", "means"))
    n = _field(tru, args.truth, "n", _positive, "a positive integer")
    truth_seg = _segmentation(tru, args.truth)
    est_seg = _segmentation(est, args.estimate)
    rmse_mu, fdr_bp, fnr_bp = segmentation_metrics(est_seg, truth_seg, n,
                                                   tolerance=args.tolerance)
    report = {"rmse_mu": rmse_mu, "fdr_bp": fdr_bp, "fnr_bp": fnr_bp}
    if "f_hat" in est and "f_true" in tru:
        numbers = "a list of numbers"
        truth = SeriesTruth(
            segmentation=truth_seg,
            f_true=np.array(_field(tru, args.truth, "f_true", _numbers, numbers)),
            sigma=_field(tru, args.truth, "sigma", float, "a number", 0.0),
            true_atom_indices=frozenset(_field(tru, args.truth, "true_atom_indices",
                                               _integers, "a list of integers", ())),
            noise=np.zeros(n),
        )
        atoms = _field(est, args.estimate, "selected_atoms",
                       lambda v: [int(a["index"]) for a in v],
                       "a list of objects with an integer index", [])
        f_hat = np.array(_field(est, args.estimate, "f_hat", _numbers, numbers))
        rmse_f, fdr_f, fnr_f = functional_metrics(f_hat, atoms, truth)
        report.update({"rmse_f": rmse_f, "fdr_f": fdr_f, "fnr_f": fnr_f})
    if args.out:
        dio.write_json(args.out, report)
    print(json.dumps(report, indent=2, sort_keys=True))
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
    out_dir = dio.output_dir(args.out_dir)
    report.export_csv(out_dir / "replicates.csv")
    report.export_json(out_dir / "summary.json")
    for (sigma, method), summary in sorted(report.averages().items()):
        print(f"sigma={sigma} method={method} "
              f"k_hat={summary['k_hat']} fdr_bp={summary['fdr_bp']} "
              f"fnr_bp={summary['fnr_bp']} failures={summary['failures']}")
    print(f"wrote {out_dir / 'replicates.csv'} and {out_dir / 'summary.json'}")
    return 0


def cmd_dict(args) -> int:
    if args.n < 2:
        raise ValidationError(f"--n must be >= 2, got {args.n}")
    covariate = np.arange(1, args.n + 1, dtype=float)
    series = TimeSeries(values=np.zeros(args.n), covariate=covariate)
    design, labels = resolve_design(args.preset, series)
    dio.write_csv(args.out, labels, design.matrix.T)
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
    p.add_argument("--family", choices=SIMULATION_FAMILIES, default="point100")
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
