"""Series ingestion, event-prior files, result serialization."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError
from .gibbs import FitResult
from .mh import MHTrace
from .posterior import MODE_SP, Hyperparameters, LatentState
from .stepmodel import TimeSeries


def load_series(path) -> TimeSeries:
    """Read a series from CSV: one row per time, either a single value
    column or (label, value).  A header row is skipped if its value
    field is not numeric."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh)]
    except OSError as exc:
        raise DataError(f"cannot read series {path}: {exc}") from exc
    rows = [r for r in rows if r]
    if not rows:
        raise DataError(f"series file {path} is empty")
    width = len(rows[0])
    if width not in (1, 2):
        raise DataError(f"{path}: expected 1 or 2 columns, got {width}")
    start = 0
    try:
        float(rows[0][-1])
    except ValueError:
        start = 1
    values, labels = [], []
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise DataError(f"{path}: row {i} has {len(row)} fields, expected {width}")
        raw = row[-1].strip()
        if not raw:
            raise DataError(f"{path}: row {i} has a missing value")
        try:
            value = float(raw)
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from exc
        if not np.isfinite(value):
            raise DataError(f"{path}: row {i} has a non-finite value")
        values.append(value)
        if width == 2:
            labels.append(row[0].strip())
    return TimeSeries(values=np.array(values),
                      labels=tuple(labels) if width == 2 else None)


@dataclass(frozen=True)
class EventPriorFile:
    """Rows of (position or calendar label, prior inclusion probability)."""

    rows: tuple[tuple[str, float], ...]


def load_event_priors(path) -> EventPriorFile:
    try:
        with open(path, newline="") as fh:
            raw = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise DataError(f"cannot read event file {path}: {exc}") from exc
    rows = []
    for i, row in enumerate(raw, start=1):
        if len(row) != 2:
            raise DataError(f"{path}: row {i} needs (position-or-label, probability)")
        key = row[0].strip()
        try:
            prob = float(row[1])
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from exc
        rows.append((key, prob))
    return EventPriorFile(rows=tuple(rows))


def apply_event_priors(base: Hyperparameters, events: EventPriorFile,
                       series: TimeSeries) -> Hyperparameters:
    """Override per-position inclusion priors at event positions.

    Events resolve by integer position (1-based) or by a unique series
    label; the pinned first position cannot be overridden.
    """
    pi = base.pi.copy()
    seen: set[int] = set()
    for key, prob in events.rows:
        if not 0.0 < prob < 1.0:
            raise ValidationError(f"event prior for {key!r} must lie in (0, 1)")
        position = None
        try:
            position = int(key)
        except ValueError:
            if series.labels is None:
                raise DataError(f"event {key!r} needs series labels to resolve")
            hits = [i + 1 for i, lab in enumerate(series.labels) if lab == key]
            if not hits:
                raise DataError(f"event label {key!r} not found in the series")
            if len(hits) > 1:
                raise DataError(f"event label {key!r} is ambiguous ({len(hits)} rows)")
            position = hits[0]
        if not 1 <= position <= series.n:
            raise ValidationError(f"event position {position} outside [1, {series.n}]")
        if position == 1:
            raise ValidationError("position 1 is pinned and cannot take an event prior")
        if position in seen:
            raise ValidationError(f"duplicate event position {position}")
        seen.add(position)
        pi[position - 1] = prob
    return Hyperparameters(c1=base.c1, pi=pi, c2=base.c2, eta=base.eta)


def write_results(fit: FitResult, trace: MHTrace, series: TimeSeries,
                  out_dir, atom_labels=None) -> dict[str, Path]:
    """Write the inclusion table, the reconstruction table and a JSON
    summary; returns the created paths.  Re-running with identical
    inputs produces byte-identical files."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    sp = fit.mode == MODE_SP
    incl = fit.inclusion
    paths = {
        "inclusion": out / "inclusion.csv",
        "reconstruction": out / "reconstruction.csv",
        "summary": out / "summary.json",
    }

    selected_positions = set(fit.positions)
    selected_atoms = set(fit.atoms) if sp else set()
    if sp:
        num_atoms = len(incl.r_prob) if incl is not None else len(atom_labels or [])
        labels = atom_labels or [""] * num_atoms
    try:
        with open(paths["inclusion"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "index", "label", "probability", "selected"])
            for i in range(series.n):
                label = series.labels[i] if series.labels else ""
                prob = repr(float(incl.gamma_prob[i])) if incl is not None else ""
                writer.writerow(["position", i + 1, label, prob,
                                 int(i + 1 in selected_positions)])
            if sp:
                for j in range(num_atoms):
                    prob = repr(float(incl.r_prob[j])) if incl is not None else ""
                    writer.writerow(["atom", j + 1, labels[j], prob,
                                     int(j + 1 in selected_atoms)])

        mu_hat = fit.mean_path(series.n)
        columns = {"y": series.values, "mu_hat": mu_hat}
        if sp:
            columns["f_hat"] = fit.f_hat
        columns["fit"] = mu_hat + fit.f_hat if sp else mu_hat
        rows = zip(map(str, range(1, series.n + 1)),
                   *(map(repr, map(float, col)) for col in columns.values()))
        with open(paths["reconstruction"], "w") as fh:
            fh.write(",".join(["t", *columns]) + "\n")
            # row by row: all rows of a 20000-point series formatted at
            # once hold about 7 MB of strings
            fh.writelines(",".join(row) + "\n" for row in rows)

        summary = {
            "mode": fit.mode,
            "n": series.n,
            "k_hat": fit.k_hat,
            "change_points": list(fit.segmentation_hat.change_points),
            "means": list(fit.segmentation_hat.means),
            "sigma_hat": fit.sigma_hat,
            "selected_positions": sorted(selected_positions),
            "acceptance": {
                "overall": trace.acceptance_rate() if trace is not None else None,
                "gamma": trace.acceptance_rate("gamma") if trace is not None else None,
                "by_block": (list(trace.acceptance_by_block()) if trace is not None
                             else None),
            },
        }
        if sp:
            summary["selected_atoms"] = [
                {"index": a, "label": labels[a - 1] if a <= len(labels) else ""}
                for a in sorted(selected_atoms)
            ]
            summary["f_hat"] = [float(v) for v in fit.f_hat]
            if trace is not None:
                summary["acceptance"]["r"] = trace.acceptance_rate("r")
        with open(paths["summary"], "w") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write results under {out}: {exc}") from exc
    return paths


def write_selection(selection: LatentState, path) -> None:
    payload = {"positions": [int(p) for p in selection.positions()]}
    if selection.r is not None:
        payload["atoms"] = [int(a) for a in selection.atoms()]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _selected(values, size: int, what: str, path) -> np.ndarray:
    """Inclusion vector of ``size`` bits from a list of 1-based indices;
    the pinned first bit is always set."""
    if not isinstance(values, list):
        raise DataError(f"{path}: selection {what}s must be a list")
    bits = np.zeros(size, dtype=bool)
    bits[0] = True
    for v in values:
        # type(), not isinstance: JSON true and false load as bool, an int subclass
        if type(v) is not int or not 1 <= v <= size:
            raise DataError(f"{path}: selection {what} {v!r} is not an integer in [1, {size}]")
        bits[v - 1] = True
    return bits


def load_selection(path, n: int, num_atoms: int | None) -> LatentState:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read selection {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: a selection is a JSON object")
    gamma = _selected(payload.get("positions", []), n, "position", path)
    r = None
    if num_atoms is not None:
        r = _selected(payload.get("atoms", []), num_atoms, "atom", path)
    return LatentState(gamma=gamma, r=r)
