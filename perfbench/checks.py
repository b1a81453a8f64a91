"""Output checks computed independently of the program.

Nothing here calls dictseg.posterior, dictseg.gibbs or
dictseg.dictionary: atom columns are rebuilt from the dictionaries'
definitions, the collapsed posterior follows the formula in
posterior.py's docstring with the step projection done as segment
means, and the coefficients are the closed-form Normal-Inverse-Gamma
posterior means of the selected model.  Each check returns a list of
failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Check 1: recorded and recomputed log densities agree to this share.
LOG_DENSITY_RTOL = 1e-9
# Check 2: allowed distance in Monte Carlo standard errors, the batch
# count of the batch-means estimate, and the tolerance used when the
# coefficient stage leaves no draws (an exact stage).
MCSE_LIMIT = 8.0
MCSE_BATCHES = 20
EXACT_RTOL = 1e-7


# ---------------------------------------------------------------- atoms

def dictionary_size(spec: str, n: int) -> int:
    if spec == "simulation_n100:point100":
        return n + 23
    if spec == "exchange":
        return 23
    raise ValueError(f"no independent definition for dictionary {spec!r}")


def _fourier(m: int, n: int, t: np.ndarray) -> np.ndarray:
    """Fourier atom m = 1..20: sine then cosine of frequency 1/n, 2/n, ..."""
    wave = np.sin if m % 2 == 1 else np.cos
    return wave(2.0 * np.pi * (((m + 1) // 2) / n) * t)


def atom_columns(spec: str, n: int, atoms) -> np.ndarray:
    """n x len(atoms) matrix of the 1-based atoms of a dictionary.

    ``simulation_n100:point100``: constant, unit indicators at t = 1..n,
    ten sine/cosine pairs of frequency j/n, t, t^2.  ``exchange``:
    constant, t, t^2, the same ten pairs.
    """
    t = np.arange(1, n + 1, dtype=float)
    size = dictionary_size(spec, n)
    cols = []
    for index in atoms:
        if not 1 <= index <= size:
            raise ValueError(f"atom {index} outside 1..{size}")
        if index == 1:
            col = np.ones(n)
        elif spec == "exchange":
            col = t ** (index - 1) if index <= 3 else _fourier(index - 3, n, t)
        elif index <= n + 1:
            col = np.zeros(n)
            col[index - 2] = 1.0
        elif index <= n + 21:
            col = _fourier(index - n - 1, n, t)
        else:
            col = t ** (index - n - 21)
        cols.append(col)
    return np.column_stack(cols)


# ------------------------------------------------------------- algebra

def _segments(positions, n):
    starts = np.asarray(positions, dtype=np.int64) - 1
    lengths = np.diff(np.append(starts, n)).astype(float)
    return starts, lengths


def _scaled(mat):
    """Jacobi-scaled copy D·M·D of an SPD matrix and the diagonal of D."""
    d = 1.0 / np.sqrt(np.diag(mat))
    return mat * d[:, None] * d[None, :], d


def log_density(y, positions, cols, c1, c2, pi, eta, num_atoms) -> float:
    """Collapsed log posterior of (gamma, r); ``cols`` is None in mode p.

    Every product with the step matrix's projection is a segment mean:
    y'P y = sum_k S_k^2 / L_k for segment sums S_k and lengths L_k.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    starts, lengths = _segments(positions, n)
    d_g = starts.size
    s = c1 / (1.0 + c1)
    sum_y = np.add.reduceat(y, starts)
    y_u_y = float(y @ y) - s * float(np.sum(sum_y ** 2 / lengths))
    value = (-0.5 * d_g * math.log1p(c1)
             + (d_g - 1) * math.log(pi) + (n - d_g) * math.log1p(-pi))
    if cols is None:
        q = y_u_y
    else:
        d_r = cols.shape[1]
        value += (d_r - 1) * math.log(eta) + (num_atoms - d_r) * math.log1p(-eta)
        sum_f = np.add.reduceat(cols, starts, axis=0)
        gram = cols.T @ cols
        a_mat = (1.0 + 1.0 / c2) * gram - s * (sum_f.T / lengths) @ sum_f
        v = cols.T @ y - s * sum_f.T @ (sum_y / lengths)
        gram_s, dg = _scaled(gram)
        a_s, da = _scaled(a_mat)
        logdet_gram = np.linalg.slogdet(gram_s)[1] - 2.0 * np.log(dg).sum()
        logdet_a = np.linalg.slogdet(a_s)[1] - 2.0 * np.log(da).sum()
        q = y_u_y - float((v * da) @ np.linalg.solve(a_s, v * da))
        value += 0.5 * logdet_gram - 0.5 * d_r * math.log(c2) - 0.5 * logdet_a
    return value - 0.5 * n * math.log(0.5 * q)


@dataclass(frozen=True)
class ExactCoefficients:
    means: np.ndarray          # segment means, constant direction included
    lam: np.ndarray | None     # non-constant atom coefficients
    sigma: float               # posterior mean of sigma


def exact_coefficients(y, positions, cols, c1, c2) -> ExactCoefficients:
    """Closed-form posterior means given the selected model.

    In segment-mean coordinates mu (mu = cumsum(beta)) the step g-prior
    has precision diag(L)/(c1·sigma2), so with theta = (mu, lambda)

        theta | sigma2, y ~ N(P^{-1} b, sigma2 P^{-1}),
        P = [[diag(L)(1+1/c1), SF], [SF', (1+1/c2) F'F]],  b = (S_y, F'y),
        sigma2 | y ~ IG(n/2, q/2),  q = y'y - b'P^{-1}b,

    and E sigma = sqrt(q/2) Gamma((n-1)/2) / Gamma(n/2).  The constant
    atom's coefficient is moved into the segment means, as the program
    reports them.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    starts, lengths = _segments(positions, n)
    k = starts.size
    sum_y = np.add.reduceat(y, starts)
    if cols is None:
        prec = np.diag(lengths * (1.0 + 1.0 / c1))
        rhs = sum_y
    else:
        d_r = cols.shape[1]
        sum_f = np.add.reduceat(cols, starts, axis=0)
        prec = np.empty((k + d_r, k + d_r))
        prec[:k, :k] = np.diag(lengths * (1.0 + 1.0 / c1))
        prec[:k, k:] = sum_f
        prec[k:, :k] = sum_f.T
        prec[k:, k:] = (1.0 + 1.0 / c2) * (cols.T @ cols)
        rhs = np.concatenate([sum_y, cols.T @ y])
    prec_s, d = _scaled(prec)
    theta = d * np.linalg.solve(prec_s, rhs * d)
    q = float(y @ y) - float(rhs @ theta)
    sigma = math.sqrt(0.5 * q) * math.exp(math.lgamma(0.5 * (n - 1)) - math.lgamma(0.5 * n))
    if cols is None:
        return ExactCoefficients(means=theta, lam=None, sigma=sigma)
    return ExactCoefficients(means=theta[:k] + theta[k], lam=theta[k + 1:], sigma=sigma)


def batch_mcse(draws: np.ndarray) -> np.ndarray:
    """Batch-means Monte Carlo standard error of each column's mean."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    size = draws.shape[0] // MCSE_BATCHES
    means = draws[:size * MCSE_BATCHES].reshape(MCSE_BATCHES, size, -1).mean(axis=1)
    return means.std(axis=0, ddof=1) / math.sqrt(MCSE_BATCHES)


# --------------------------------------------------------------- outputs

@dataclass
class Outputs:
    """The files a fit writes, parsed."""

    summary: dict
    selection: dict
    inclusion: list   # (kind, index, probability, selected) rows


def read_outputs(out_dir) -> Outputs:
    out = Path(out_dir)
    summary = json.loads((out / "summary.json").read_text())
    selection = json.loads((out / "selection.json").read_text())
    with open(out / "inclusion.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    inclusion = [(r["kind"], int(r["index"]), float(r["probability"]), int(r["selected"]))
                 for r in rows]
    return Outputs(summary=summary, selection=selection, inclusion=inclusion)


def selected_atoms(outputs: Outputs) -> list[int] | None:
    atoms = outputs.summary.get("selected_atoms")
    return None if atoms is None else [a["index"] for a in atoms]


def model_log_density(y, spec, cfg, positions, atoms) -> float:
    """``log_density`` of a model given by its positions and, in mode
    sp, its atoms of dictionary ``spec`` (None in mode p)."""
    n = len(y)
    cols = None if atoms is None else atom_columns(spec, n, atoms)
    num_atoms = 0 if atoms is None else dictionary_size(spec, n)
    return log_density(y, positions, cols, cfg.c1, cfg.c2, cfg.pi, cfg.eta, num_atoms)


# ---------------------------------------------------------------- checks

def check_log_densities(y, spec, cfg, samples) -> list[str]:
    """Check 1.  ``samples`` holds (iteration, positions, atoms or None,
    recorded log density) for states visited by the chain."""
    failures = []
    for t, positions, atoms, recorded in samples:
        expected = model_log_density(y, spec, cfg, positions, atoms)
        if not abs(recorded - expected) <= LOG_DENSITY_RTOL * abs(expected):
            failures.append(f"log density at iteration {t}: recorded {recorded!r}, "
                            f"recomputed {expected!r}")
    return failures


def coefficient_mcse(draws, burn_in: int, sp: bool) -> dict[str, np.ndarray]:
    """MCSE of the reported means, atom coefficients and sigma, from
    the coefficient stage's draws (beta, lam, sigma2 arrays)."""
    beta, lam, sigma2 = draws
    means = np.cumsum(beta[burn_in:], axis=1)
    out = {}
    if sp:
        means = means + lam[burn_in:, :1]
        out["lam"] = batch_mcse(lam[burn_in:, 1:])
    out["means"] = batch_mcse(means)
    out["sigma"] = batch_mcse(np.sqrt(sigma2[burn_in:]))[0]
    return out


def check_coefficients(y, spec, cfg, outputs: Outputs, mcse: dict | None) -> list[str]:
    """Check 2.  ``mcse`` is None when the coefficient stage kept no
    draws; then the reported values must equal the closed form."""
    n = len(y)
    summary = outputs.summary
    positions = summary["selected_positions"]
    atoms = selected_atoms(outputs)
    cols = None if atoms is None else atom_columns(spec, n, atoms)
    exact = exact_coefficients(y, positions, cols, cfg.c1, cfg.c2)
    failures = []

    def compare(label, reported, expected, err):
        reported = np.atleast_1d(np.asarray(reported, dtype=float))
        expected = np.atleast_1d(expected)
        if reported.shape != expected.shape:
            failures.append(f"{label}: {reported.size} values reported, {expected.size} expected")
            return
        limit = (MCSE_LIMIT * np.atleast_1d(err) if err is not None
                 else EXACT_RTOL * np.abs(expected))
        limit = limit + 1e-12 * (1.0 + np.abs(expected))
        bad = np.flatnonzero(~(np.abs(reported - expected) <= limit))
        for i in bad[:5]:
            failures.append(f"{label}[{i}]: reported {reported[i]!r}, closed form "
                            f"{expected[i]!r}, allowed distance {limit[i]:.3g}")

    compare("segment mean", summary["means"], exact.means,
            None if mcse is None else mcse["means"])
    compare("sigma_hat", summary["sigma_hat"], exact.sigma,
            None if mcse is None else mcse["sigma"])
    if cols is not None:
        f_hat = np.asarray(summary["f_hat"], dtype=float)
        lam_hat = np.linalg.lstsq(cols[:, 1:], f_hat, rcond=None)[0] if cols.shape[1] > 1 \
            else np.zeros(0)
        misfit = np.abs(cols[:, 1:] @ lam_hat - f_hat).max() if f_hat.size else 0.0
        if misfit > 1e-8 * (1.0 + np.abs(f_hat).max()):
            failures.append(f"f_hat is not a combination of the selected atoms (off by {misfit:.3g})")
        compare("atom coefficient", lam_hat, exact.lam,
                None if mcse is None else mcse["lam"])
    return failures


def check_consistency(outputs: Outputs) -> list[str]:
    """Check 3: selection.json, inclusion.csv and summary.json agree."""
    summary, selection = outputs.summary, outputs.selection
    failures = []
    expected = {}
    flagged = {}
    for kind, index, prob, selected in outputs.inclusion:
        if not 0.0 <= prob <= 1.0:
            failures.append(f"{kind} {index}: probability {prob} outside [0, 1]")
        if prob > 0.5 or index == 1:
            expected.setdefault(kind, []).append(index)
        if selected:
            flagged.setdefault(kind, []).append(index)
    positions = expected.get("position", [])
    atoms = expected.get("atom", [])
    sp = summary.get("selected_atoms") is not None
    pairs = [("selection.json positions", selection.get("positions"), positions),
             ("inclusion.csv selected positions", flagged.get("position", []), positions),
             ("summary.json selected_positions", summary.get("selected_positions"), positions),
             ("summary.json change_points", summary.get("change_points"),
              [p - 1 for p in positions if p > 1])]
    if sp:
        pairs += [("selection.json atoms", selection.get("atoms"), atoms),
                  ("inclusion.csv selected atoms", flagged.get("atom", []), atoms),
                  ("summary.json selected_atoms", selected_atoms(outputs), atoms)]
    for label, got, want in pairs:
        if list(got or []) != list(want):
            failures.append(f"{label} {list(got or [])} != {list(want)} from inclusion.csv")
    if len(summary.get("means", [])) != len(summary.get("change_points", [])) + 1:
        failures.append("summary.json needs one more mean than change-points")
    if summary.get("k_hat") != len(positions):
        failures.append(f"k_hat {summary.get('k_hat')} != {len(positions)} selected positions")
    return failures


def check_recovery(outputs: Outputs, change_points, tolerance: int,
                   sigma: float | None = None, sigma_range=None,
                   rate=None, true_atoms=None) -> list[str]:
    """Check 4: each true change-point has a detection within
    ``tolerance`` positions; sigma_hat / sigma lies in ``sigma_range``.

    ``rate``, if given, maps (positions, atoms or None) to the model's
    log density.  Then misses pass when the true model (the true
    change-points and ``true_atoms``) rates no higher than the selected
    one: the posterior itself prefers the selection, so a correct
    sampler may miss too.  Misses the sampler causes still fail.
    """
    found = np.asarray(outputs.summary["change_points"], dtype=np.int64)
    failures = []
    for tau in change_points:
        gap = int(np.abs(found - tau).min()) if found.size else None
        if gap is None or gap > tolerance:
            failures.append(f"true change-point {tau}: nearest detection "
                            f"{'none' if gap is None else f'{gap} positions away'}")
    if failures and rate is not None:
        selected = rate(outputs.summary["selected_positions"], selected_atoms(outputs))
        truth = rate([1] + [tau + 1 for tau in change_points],
                     None if true_atoms is None else list(true_atoms))
        if truth <= selected:
            failures = []
        else:
            failures.append(f"the true model's log density {truth:.4f} exceeds the "
                            f"selected model's {selected:.4f}")
    if sigma_range is not None:
        ratio = outputs.summary["sigma_hat"] / sigma
        if not sigma_range[0] <= ratio <= sigma_range[1]:
            failures.append(f"sigma_hat {outputs.summary['sigma_hat']:.4g} is {ratio:.3g} "
                            f"times the true {sigma}")
    return failures
