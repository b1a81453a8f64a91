#!/usr/bin/env python3
"""Run one workload of the dictseg benchmark and report its metrics.

    python3 perfbench/run.py --workload sim100 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  After one untimed warm-up fit the run repeats whole rounds of
the workload's fits until ``--seconds`` have passed, then checks every
fit's outputs against computations in ``checks.py``.  Each fit goes
through the library calls ``dictseg fit`` makes: ``load_series``,
``resolve_design``, ``build_context``, ``fit_series``,
``write_selection`` and ``write_results``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` every fit runs untraced and then
traced, and the run reports per-layer metrics from spans around each
call into a dictseg module, plus the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

import os

# One BLAS and OpenMP thread, fixed before numpy loads: threaded BLAS on
# matrices this small only adds scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "dictseg" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no dictseg source under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from dictseg import io as dio  # noqa: E402
from dictseg import pipeline  # noqa: E402
from dictseg.cli import resolve_design  # noqa: E402
from dictseg.config import derive_seeds  # noqa: E402
from dictseg.gibbs import GibbsSampler  # noqa: E402
from dictseg.posterior import MODE_P, MODE_SP, LatentState, log_integrated_posterior  # noqa: E402
from spans import NULL, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The pipeline's stages, wrapped in spans during traced fits.
STAGE_SPANS = {
    "run_metropolis_hastings": "mh.run",
    "inclusion_probabilities": "mh.inclusion",
    "select_median_probability_model": "mh.inclusion",
    "run_gibbs": "gibbs.run",
}
# Replayed evaluations per traced fit (see time_layers).
REPLAYS = 1000


@dataclass
class Prepared:
    series: object
    design: object
    labels: object
    hyper: object
    ctx: object


@contextmanager
def patched(module, name, value):
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def set_up(spec, path, tracer) -> Prepared:
    """Read the series, build and evaluate the dictionary, build the context."""
    cfg = spec.config
    with tracer.span("io.load"):
        series = dio.load_series(path)
    design = labels = None
    if cfg.mode == MODE_SP:
        with tracer.span("dictionary.eval"):
            design, labels = resolve_design(cfg.dictionary, series)
    hyper = cfg.hyperparameters(series.n, design.num_atoms if design else None)
    with tracer.span("posterior.context"):
        ctx = pipeline.build_context(series, hyper, design, cfg.mode)
    return Prepared(series, design, labels, hyper, ctx)


def fit(spec, prep: Prepared, out_dir: Path, tracer):
    """Model search to the last result file, as ``dictseg fit`` runs it.

    ``fit_series`` builds its context through ``pipeline.build_context``;
    it is handed the one set-up built, so set-up stays out of the fit.
    """
    cfg = spec.config
    mh_seed, gibbs_seed = derive_seeds(cfg.seed, 2)
    built = []

    def prepared_context(series, hyper, design, mode):
        built.append(mode)
        return prep.ctx

    with patched(pipeline, "build_context", prepared_context):
        out = pipeline.fit_series(prep.series, prep.hyper, cfg.mh_config(seed=mh_seed),
                                  cfg.gibbs_config(seed=gibbs_seed), design=prep.design)
    if len(built) != 1:
        raise RuntimeError(f"fit_series built {len(built)} contexts through "
                           "pipeline.build_context; the benchmark expects one")
    with tracer.span("io.write"):
        dio.write_selection(out.selection, out_dir / "selection.json")
        dio.write_results(out.fit, out.mh_trace, prep.series, out_dir, atom_labels=prep.labels)
    return out


def run_one(spec, repeats: int, path: Path, out_dir: Path, tracer):
    """Set one fit up ``repeats`` times, then fit it.  Returns the set-up
    times, the fit time, the last set-up and the fit's output."""
    with ExitStack() as stages:
        if tracer is not NULL:
            for name, span in STAGE_SPANS.items():
                stages.enter_context(
                    patched(pipeline, name, tracer.wrap(span, getattr(pipeline, name))))
        setups = []
        prep = None
        for _ in range(repeats):
            prep = None  # free the last context before building the next
            start = time.perf_counter()
            with tracer.span("setup"):
                prep = set_up(spec, path, tracer)
            setups.append(time.perf_counter() - start)
        start = time.perf_counter()
        with tracer.span("fit"):
            out = fit(spec, prep, out_dir, tracer)
        return setups, time.perf_counter() - start, prep, out


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def context_bytes(ctx) -> int:
    """Bytes of the arrays the context holds, its design matrix included."""
    arrays = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
    if getattr(ctx, "design", None) is not None:
        arrays.append(ctx.design.matrix)
    return sum(a.nbytes for a in arrays)


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def time_layers(spec, prep: Prepared, out, rng, layer) -> None:
    """Time single calls in tight loops, as the sampler makes them.

    Posterior evaluations replay states the chain visited, each with one
    proposal flip drawn as the chain draws it, in mode sp (sp fits) and
    in mode p.  The O(n) prior sums are timed on the same states, and the
    coefficient stage's O(n) residual (``GibbsSampler.sigma2_b``) on its
    own draws.
    """
    cfg = spec.config
    trace = out.mh_trace
    sp = cfg.mode == MODE_SP
    ctx_p = prep.ctx if not sp else pipeline.build_context(
        prep.series, replace(cfg, mode=MODE_P).hyperparameters(prep.series.n, None), None, MODE_P)

    def flipped(bits, count):
        bits = bits.copy()
        idx = rng.choice(bits.size - 1, size=count, replace=False) + 1
        bits[idx] = ~bits[idx]
        return bits

    wanted = set(rng.choice(len(trace), size=min(REPLAYS, len(trace)), replace=False).tolist())
    states_sp, states_p = [], []
    for t, gamma, r in trace.iter_states(0):
        if t not in wanted:
            continue
        if sp and rng.random() < 0.5:
            states_sp.append(LatentState(gamma=flipped(gamma, cfg.flip_gamma), r=r.copy()))
        elif sp:
            states_sp.append(LatentState(gamma=gamma.copy(), r=flipped(r, cfg.flip_r)))
        states_p.append(LatentState(gamma=flipped(gamma, cfg.flip_gamma)))

    for state in states_sp:
        layer["eval_sp"].append(_timed(log_integrated_posterior, state, prep.ctx))
    for state in states_p:
        layer["eval_p"].append(_timed(log_integrated_posterior, state, ctx_p))

    def prior(state):
        if sp:
            return prep.ctx.log_prior_gamma(state.gamma) + prep.ctx.log_prior_r(state.r)
        return prep.ctx.log_prior_gamma(state.gamma)

    for state in states_sp if sp else states_p:
        layer["prior"].append(_timed(prior, state))

    draws = out.fit.trace
    if draws is None:
        return
    sampler = GibbsSampler(prep.ctx, out.selection)
    for t in rng.integers(len(draws.sigma2), size=REPLAYS // 10):
        layer["resid"].append(_timed(sampler.sigma2_b, draws.beta[t],
                                     draws.lam[t] if sp else None))


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, layer, untraced_s, traced_s) -> dict:
    self_s = tracer.self_times()
    whole_s = tracer.durations()
    fits, setups = layer["fits"], layer["setups"]
    mh_iters, gibbs_iters = layer["mh_iterations"], layer["gibbs_iterations"]

    def total(name):
        return self_s.get(name, 0.0)

    def median(name):
        return statistics.median(layer[name]) if layer[name] else 0.0

    eval_med = {mode: median(f"eval_{mode}") for mode in ("sp", "p")}
    search_evals = sum(it * eval_med[mode] for mode, it in layer["search_iterations"])
    mh_iter_s = total("mh.run") / mh_iters
    gibbs_iter_s = total("gibbs.run") / gibbs_iters
    prior_s, resid_s = median("prior"), median("resid")
    out = {
        "dictionary.eval_s": (total("dictionary.eval") / setups, "s"),
        "posterior.context_s": (total("posterior.context") / setups, "s"),
        "posterior.cache_mb": (statistics.mean(layer["cache_bytes"]) / 2**20, "MB"),
    }
    for mode in ("sp", "p"):
        samples = layer[f"eval_{mode}"]
        out[f"posterior.eval_{mode}_us"] = (eval_med[mode] * 1e6, "us")
        out[f"posterior.eval_{mode}_p99_us"] = (
            float(np.percentile(samples, 99)) * 1e6 if samples else 0.0, "us")
        out[f"posterior.eval_{mode}_calls"] = (len(samples), "count")
    out.update({
        "posterior.prior_us": (prior_s * 1e6, "us"),
        "mh.run_s": (total("mh.run") / fits, "s"),
        "mh.iter_us": (mh_iter_s * 1e6, "us"),
        "mh.accept_rate": (layer["accepted"] / mh_iters, "ratio"),
        "mh.eval_share": (_share(search_evals, total("mh.run")), "ratio"),
        "mh.on_share": (_share(prior_s, mh_iter_s), "ratio"),
        "mh.inclusion_s": (total("mh.inclusion") / fits, "s"),
        "gibbs.run_s": (total("gibbs.run") / fits, "s"),
        "gibbs.iter_us": (gibbs_iter_s * 1e6, "us"),
        "gibbs.resid_us": (resid_s * 1e6, "us"),
        "gibbs.on_share": (_share(resid_s, gibbs_iter_s), "ratio"),
        "gibbs.draws_mb": (statistics.mean(layer["draws_bytes"]) / 2**20, "MB"),
        "io.load_s": (total("io.load") / setups, "s"),
        "setup.build_share": (_share(total("dictionary.eval") + total("posterior.context"),
                                     whole_s["setup"]), "ratio"),
        "fit.stage_share": (_share(total("mh.run") + total("gibbs.run"), whole_s["fit"]), "ratio"),
        "io.write_s": (total("io.write") / fits, "s"),
        "io.bytes_written": (statistics.mean(layer["bytes_written"]), "bytes"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    })
    return out


def new_layer() -> dict:
    layer = {k: [] for k in ("eval_sp", "eval_p", "prior", "resid", "cache_bytes",
                             "draws_bytes", "bytes_written", "search_iterations")}
    layer.update(fits=0, setups=0, mh_iterations=0, gibbs_iterations=0, accepted=0)
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:  # another run still uses it
            pass


def run(args, workload, run_dir: Path) -> int:
    warm = workload.warmup()
    inputs = {}
    for spec in (warm, *workload.fits):
        path = run_dir / "inputs" / f"{spec.name}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in spec.values))
        inputs[spec.name] = path

    fit(warm, set_up(warm, inputs[warm.name], NULL), _fresh(run_dir / "warmup"), NULL)

    setup_times = {spec.name: [] for spec in workload.fits}
    fit_times = {spec.name: [] for spec in workload.fits}
    digests: dict[str, str] = {}
    results: dict[str, object] = {}
    failures: list[str] = []
    attempted = failed = 0
    tracer = Tracer()
    layer = new_layer()
    rng = np.random.default_rng([args.seed, 7])
    paired_s = {False: 0.0, True: 0.0}

    start = time.perf_counter()
    while True:
        for spec in workload.fits:
            # Trace runs fit each spec untraced and then traced; the
            # difference of the two totals is the tracing overhead.
            for traced in (False, True) if args.trace else (False,):
                attempted += 1
                results[spec.name] = None
                out_dir = _fresh(run_dir / spec.name)
                try:
                    setups, elapsed, prep, out = run_one(
                        spec, workload.setup_repeats, inputs[spec.name], out_dir,
                        tracer if traced else NULL)
                except Exception:  # a failed fit is counted, and the run goes on
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                    continue
                setup_times[spec.name] += setups
                fit_times[spec.name].append(elapsed)
                paired_s[traced] += sum(setups) + elapsed
                results[spec.name] = (prep.series.values, out)
                got = digest(out_dir)
                if digests.setdefault(spec.name, got) != got:
                    failures.append(f"{spec.name}: outputs differ between rounds of one run")
                if traced:
                    record_layer(spec, workload.setup_repeats, prep, out, out_dir, rng, layer)
                prep = out = None
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for spec in workload.fits:
        if results[spec.name] is not None:
            y, out = results[spec.name]
            try:
                found = check_fit(spec, y, out, run_dir / spec.name)
            except Exception as exc:  # outputs the checks cannot read fail them
                found = [f"the checks raised {exc!r}"]
            failures += [f"{spec.name}: {msg}" for msg in found]
    if failed:
        # No fit of these workloads raises on a working program, and the
        # timings would average over the fits that survived.
        failures.append(f"{failed} of {attempted} fits raised")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if not any(fit_times.values()):
        print("perfbench: every fit failed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(tracer, layer, paired_s[False], paired_s[True])
    else:
        # Each fit's median over the run's rounds, averaged over the fits.
        metrics = {
            "fit_s": (statistics.mean(statistics.median(v) for v in fit_times.values() if v), "s"),
            "setup_s": (statistics.mean(statistics.median(v) for v in setup_times.values() if v),
                        "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"fits attempted {attempted}  failed {failed}  checks "
          f"{'passed' if not failures else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def record_layer(spec, setups, prep, out, out_dir, rng, layer) -> None:
    cfg = spec.config
    layer["fits"] += 1
    layer["setups"] += setups
    layer["mh_iterations"] += cfg.iterations
    layer["gibbs_iterations"] += cfg.gibbs_iterations
    layer["accepted"] += int(np.sum(out.mh_trace.accepted))
    layer["search_iterations"].append((cfg.mode, cfg.iterations))
    layer["cache_bytes"].append(context_bytes(prep.ctx))
    draws = out.fit.trace
    layer["draws_bytes"].append(0 if draws is None else sum(
        a.nbytes for a in (draws.beta, draws.lam, draws.sigma2) if a is not None))
    layer["bytes_written"].append(sum(p.stat().st_size for p in out_dir.iterdir()))
    time_layers(spec, prep, out, rng, layer)


def check_fit(spec, y, out, out_dir) -> list[str]:
    """Checks 1-4 on one fit's outputs."""
    cfg = spec.config
    sp = cfg.mode == MODE_SP
    outputs = checks.read_outputs(out_dir)
    failures = checks.check_consistency(outputs)

    trace = out.mh_trace
    samples = []
    for t in np.unique(np.linspace(0, len(trace) - 1, 25).astype(int)):
        state = trace.state_at(int(t))
        samples.append((int(t), state.positions(), state.atoms() if sp else None,
                        float(trace.log_density[t])))
    failures += checks.check_log_densities(y, cfg.dictionary, cfg, samples)

    draws = out.fit.trace
    mcse = None if draws is None else checks.coefficient_mcse(
        (draws.beta, draws.lam, draws.sigma2), cfg.gibbs_burn_in, sp)
    failures += checks.check_coefficients(y, cfg.dictionary, cfg, outputs, mcse)

    if spec.recovery_tolerance is not None:
        failures += checks.check_recovery(outputs, spec.change_points, spec.recovery_tolerance,
                                          spec.sigma, spec.sigma_range)
    return failures


if __name__ == "__main__":
    sys.exit(main())
