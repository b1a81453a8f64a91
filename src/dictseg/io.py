"""Series ingestion, event-prior files, result serialization; every file
the package writes goes through ``write_csv`` or ``write_json``."""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError
from .gibbs import FitResult, GibbsTrace
from .mh import TARGET_GAMMA, MHTrace
from .posterior import MODE_SP, Hyperparameters, LatentState
from .stepmodel import TimeSeries


def read_input(path, what: str, parse):
    """``parse(fh)`` of a UTF-8 text file; a file that cannot be read or
    decoded, or that ``parse`` rejects with a ValueError, is a DataError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return parse(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def csv_records(fh):
    """Iterator over (line, fields) of the records of a CSV file, blank
    lines skipped; ``line`` is the 1-based file line the record starts
    on, for errors.  Lines are counted on a second reading, and only
    when a quoted field spans lines."""
    reader = csv.reader(fh)
    rows = list(reader)
    lines = range(1, len(rows) + 1)
    if reader.line_num != len(rows):
        fh.seek(0)
        reader = csv.reader(fh)
        ends = [reader.line_num for _ in reader]
        lines = [1, *(end + 1 for end in ends[:-1])]
    return filter(itemgetter(1), zip(lines, rows))


def load_series(path) -> TimeSeries:
    """Read a series from CSV: one row per time, either a single value
    column or (label, value).  A header row is skipped if its value
    field is not numeric.  A label may not hold a carriage return, which
    ``write_csv`` would leave unquoted."""
    records = read_input(path, "series", csv_records)
    first = next(records, None)
    if first is None:
        raise DataError(f"series file {path} is empty")
    width = len(first[1])
    if width not in (1, 2):
        raise DataError(f"{path}: expected 1 or 2 columns, got {width}")
    try:
        float(first[1][-1])
        records = chain([first], records)
    except ValueError:
        pass  # a header row
    values, labels = [], []
    for i, row in records:
        if len(row) != width:
            raise DataError(f"{path}: row {i} has {len(row)} fields, expected {width}")
        raw = row[-1].strip()
        if not raw:
            raise DataError(f"{path}: row {i} has a missing value")
        try:
            value = float(raw)
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from exc
        if not math.isfinite(value):
            raise DataError(f"{path}: row {i} has a non-finite value")
        values.append(value)
        if width == 2:
            labels.append(row[0].strip())
            if "\r" in labels[-1]:
                raise DataError(f"{path}: row {i} has a carriage return in its label")
    return TimeSeries(values=np.array(values),
                      labels=tuple(labels) if width == 2 else None)


@dataclass(frozen=True)
class EventPriorFile:
    """Rows of (position or calendar label, prior inclusion probability)."""

    rows: tuple[tuple[str, float], ...]


def load_event_priors(path) -> EventPriorFile:
    rows = []
    for i, row in read_input(path, "event file", csv_records):
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


def output_dir(path) -> Path:
    """Create an output directory (and its parents) if it is missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    return out


@contextmanager
def _created(path):
    """A new UTF-8 text file; a failed open or write is a DataError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _cells(column):
    """A column's values; an array's as Python objects, a slice at a
    time (iterating the array itself makes a numpy scalar per value,
    which is slower to create and to print)."""
    if isinstance(column, np.ndarray):
        return chain.from_iterable(column[i:i + 4096].tolist()
                                   for i in range(0, len(column), 4096))
    return column


def _numeric(column) -> bool:
    """Whether every field of a column prints without quoting: an
    integer or float array, or a range."""
    return isinstance(column, range) or (isinstance(column, np.ndarray)
                                         and column.dtype.kind in "iuf")


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under a header row: UTF-8, LF line
    ends, floats as their repr, a field quoted only where it holds a
    comma, a double quote or a newline.  Rows are formatted one at a time
    from the columns, so no whole table is held as text.  A table of
    numeric columns alone skips ``csv.writer``, which would scan every
    character of every number for quoting, for a ``%r`` line format:
    the same bytes."""
    columns = list(columns)
    with _created(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        rows = zip(*map(_cells, columns), strict=True)
        if all(map(_numeric, columns)):
            line = ",".join(["%r"] * len(columns)) + "\n"
            fh.writelines(line % row for row in rows)
        else:
            writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write a JSON document: 2-space indent, sorted keys, final newline."""
    with _created(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_results(fit: FitResult, trace: MHTrace, series: TimeSeries,
                  out_dir, atom_labels=None) -> dict[str, Path]:
    """Write the inclusion table, the reconstruction table and a JSON
    summary; returns the created paths.  Re-running with identical
    inputs produces byte-identical files."""
    out = output_dir(out_dir)
    sp = fit.mode == MODE_SP
    incl = fit.inclusion
    n = series.n
    paths = {
        "inclusion": out / "inclusion.csv",
        "reconstruction": out / "reconstruction.csv",
        "summary": out / "summary.json",
    }

    selected_positions = set(fit.positions)
    selected_atoms = set(fit.atoms) if sp else set()

    def part(kind, size, labels, probs, selected):
        """The inclusion table's columns for one inclusion vector."""
        return [repeat(kind, size), range(1, size + 1), labels,
                repeat("", size) if probs is None else _cells(probs),
                (int(i in selected) for i in range(1, size + 1))]

    positions = part("position", n, series.labels or repeat("", n),
                     incl and incl.gamma_prob, selected_positions)
    atoms = [()] * len(positions)
    if sp:
        num_atoms = len(incl.r_prob) if incl is not None else len(atom_labels or [])
        labels = atom_labels or [""] * num_atoms
        atoms = part("atom", num_atoms, labels, incl and incl.r_prob, selected_atoms)
    write_csv(paths["inclusion"], ["kind", "index", "label", "probability", "selected"],
              map(chain, positions, atoms))

    mu_hat = fit.mean_path(n)
    columns = {"y": series.values, "mu_hat": mu_hat}
    if sp:
        columns["f_hat"] = fit.f_hat
    columns["fit"] = mu_hat + fit.f_hat if sp else mu_hat
    write_csv(paths["reconstruction"], ["t", *columns], [range(1, n + 1), *columns.values()])

    summary = {
        "mode": fit.mode,
        "n": n,
        "k_hat": fit.k_hat,
        "change_points": list(fit.segmentation_hat.change_points),
        "means": list(fit.segmentation_hat.means),
        "sigma_hat": fit.sigma_hat,
        "selected_positions": sorted(selected_positions),
        "acceptance": dict.fromkeys(("overall", "gamma", "by_block")),
    }
    if trace is not None:
        summary["acceptance"] = {"overall": trace.acceptance_rate(),
                                 "gamma": trace.acceptance_rate("gamma"),
                                 "by_block": list(trace.acceptance_by_block())}
    if sp:
        summary["selected_atoms"] = [
            {"index": a, "label": labels[a - 1] if a <= len(labels) else ""}
            for a in sorted(selected_atoms)
        ]
        summary["f_hat"] = [float(v) for v in fit.f_hat]
        if trace is not None:
            summary["acceptance"]["r"] = trace.acceptance_rate("r")
    write_json(paths["summary"], summary)
    return paths


def write_selection(selection: LatentState, path) -> None:
    payload = {"positions": [int(p) for p in selection.positions()]}
    if selection.r is not None:
        payload["atoms"] = [int(a) for a in selection.atoms()]
    write_json(path, payload)


def write_trace(trace: MHTrace, path) -> None:
    """One row per search iteration: iteration, target, accepted,
    log_density and the changed 1-based indices joined by ';'."""
    changed = (";".join(map(str, (trace.changed_indices(t) + 1).tolist()))
               for t in range(len(trace)))
    write_csv(path, ["iteration", "target", "accepted", "log_density", "changed"], [
        range(len(trace)),
        ("gamma" if w == TARGET_GAMMA else "r" for w in _cells(trace.which)),
        map(int, _cells(trace.accepted)),
        trace.log_density,
        changed,
    ])


def write_draws(trace: GibbsTrace, path) -> None:
    """One row per coefficient draw: iteration, each beta, each lambda,
    sigma2."""
    lam = () if trace.lam is None else trace.lam.T
    write_csv(path, ["iteration", *(f"beta@{p}" for p in trace.positions),
                     *(f"lambda@{a}" for a in trace.atoms or ()), "sigma2"],
              [range(len(trace.sigma2)), *trace.beta.T, *lam, trace.sigma2])


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
    payload = read_input(path, "selection", json.load)
    if not isinstance(payload, dict):
        raise DataError(f"{path}: a selection is a JSON object")
    gamma = _selected(payload.get("positions", []), n, "position", path)
    r = None
    if num_atoms is not None:
        r = _selected(payload.get("atoms", []), num_atoms, "atom", path)
    return LatentState(gamma=gamma, r=r)
