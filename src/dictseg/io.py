"""Series ingestion, event-prior files, result serialization; every file
the package writes goes through ``write_csv`` or ``write_json``."""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, repeat, zip_longest
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


def numbers_after_first(path, what: str):
    """(first record, float table below it) of a CSV file whose rows
    after its first record all hold as many numbers, or None.

    The table is parsed by numpy's C reader, which converts each field
    with ``PyOS_string_to_double`` as ``float()`` does and skips blank
    lines as ``csv_records`` does.  None for an empty file and for any
    file the reader refuses: a quote, an empty or blank field, a row of
    another width, text only ``float()`` takes (``1_000``), bad UTF-8.
    Callers walk such a file's rows with ``csv_records``, which words
    every error message."""
    def parse(fh):
        try:
            first = next(filter(None, csv.reader(fh)), None)
            if first is None:
                return None
            line = next((line for line in fh if line.strip("\r\n")), None)
            if line is None:
                return first, np.empty((0, len(first)))
            table = np.loadtxt(chain([line], fh), delimiter=",", comments=None,
                               quotechar=None, ndmin=2)
        except ValueError:  # bad UTF-8, or a line numpy refuses: the row walk words it
            return None
        return (first, table) if table.shape[1] == len(first) else None
    return read_input(path, what, parse)


def load_series(path) -> TimeSeries:
    """Read a series from CSV: one row per time, either a single value
    column or (label, value).  A header row is skipped if its value
    field is not numeric.  A label may not hold a carriage return, which
    ``write_csv`` would leave unquoted.  A one-column file of finite
    values is parsed by numpy (``numbers_after_first``); a labelled
    file, and any file numpy refuses, is walked row by row."""
    plain = numbers_after_first(path, "series")
    if plain is not None and len(plain[0]) == 1:
        (first,), table = plain
        try:
            head = [float(first)]
        except ValueError:
            head = []  # a header row
        values = np.concatenate((head, table[:, 0]))
        if np.isfinite(values).all():
            return TimeSeries(values=values)
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


# Cells that write_csv formats and writes at a time (at least 64 rows).
# A chunk's texts are small objects that stay resident once allocated:
# a fit's writes grow the resident set by about 0.1 MB at this size,
# 0.7 MB at 1 << 13, and take 5 % longer than at 1 << 13.
_CHUNK_CELLS = 1 << 10
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _texts(values: np.ndarray, for_json: bool = False) -> np.ndarray:
    """The text of each entry of a numeric or boolean array, as an object
    array of its shape: what csv.writer writes for the entry's Python
    value (a float's repr), or with ``for_json`` what json.dumps writes.
    Each distinct bit pattern is formatted once, so -0.0 and 0.0, and
    every NaN payload, stay apart."""
    flat = values.ravel()
    keys = flat.view(f"i{flat.itemsize}").astype(np.int64, copy=False)
    # not np.unique: its int64 quicksort brings in 0.25 MB of code pages
    # that a fit does not otherwise touch; after a fit, this sort brings none
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    distinct = flat[order[first]]
    texts = np.array(list(map(str, distinct.tolist())), dtype=object)
    if for_json and flat.dtype.kind == "f":
        odd = ~np.isfinite(distinct)
        texts[odd] = [_JSON_NON_FINITE[text] for text in texts[odd]]
    return texts[inverse].reshape(values.shape)


def _numeric(column) -> bool:
    """Whether every field of a column prints without quoting: an
    integer, float or boolean array (1- or 2-D), or a range."""
    return isinstance(column, range) or (isinstance(column, np.ndarray)
                                         and column.dtype.kind in "biuf"
                                         and column.itemsize <= 8)


def _chunks(column, size: int):
    """A column's cells ``size`` rows at a time: per chunk, a list of
    cell lists, one per column it holds (a 2-D array holds a column per
    row).  The cells of ``_numeric`` columns come as text; other cells
    as they are, for csv.writer."""
    # no chunk is left bound to a name here while the next is made
    if isinstance(column, range):
        for i in range(0, len(column), size):
            yield [list(map(str, column[i:i + size]))]
    elif isinstance(column, np.ndarray):
        form = _texts if _numeric(column) else np.asarray
        for i in range(0, column.shape[-1], size):
            cells = form(column[..., i:i + size]).tolist()
            yield cells if column.ndim == 2 else [cells]
            del cells
    else:
        rest = iter(column)
        while cells := list(islice(rest, size)):
            yield [cells]
            del cells


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under a header row as csv.writer
    writes the rows of their Python values: UTF-8, LF line ends, floats
    as their repr, a field quoted only where it holds a comma, a double
    quote or a newline.  A 2-D array, as ``columns`` or one of them, is
    a column per row.

    Rows go out in chunks of about ``_CHUNK_CELLS`` cells, so no whole
    table is held as text.  In each chunk, a numeric or boolean array's
    distinct values are formatted once each (``_texts``).  A table of
    such arrays and ranges alone is joined with ``str.join``, not
    csv.writer, which would scan every character of every number for
    quoting: the same bytes."""
    if isinstance(columns, np.ndarray) and columns.ndim == 2:
        columns = [columns]
    columns = list(columns)
    width = sum(len(c) if isinstance(c, np.ndarray) and c.ndim == 2 else 1 for c in columns)
    size = max(64, _CHUNK_CELLS // max(width, 1))
    plain = all(map(_numeric, columns))
    with _created(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for parts in zip_longest(*(_chunks(c, size) for c in columns)):
            cells = [cell for part in parts if part is not None for cell in part]
            if None in parts or len(set(map(len, cells))) > 1:
                raise ValueError(f"{path}: columns of unequal length")
            if plain:
                fh.write("\n".join(map(",".join, zip(*cells))))
                fh.write("\n")
            else:
                writer.writerows(zip(*cells))
            del parts, cells  # before the next chunk is made


def _write_json_array(fh, values: np.ndarray) -> None:
    """A float array as json.dumps(..., indent=2) writes the list of its
    values under a top-level key, a chunk at a time."""
    if not len(values):
        fh.write("[]")
        return
    lead = "[\n    "
    for i in range(0, len(values), _CHUNK_CELLS):
        fh.write(lead + ",\n    ".join(_texts(values[i:i + _CHUNK_CELLS], for_json=True).tolist()))
        lead = ",\n    "
    fh.write("\n  ]")


def write_json(path, payload) -> None:
    """Write a JSON document: 2-space indent, sorted keys, final newline.
    A 1-D float array under a top-level key is written as the list of
    its values, each distinct value formatted once a chunk (``_texts``),
    so json's pure-Python indenting encoder never walks it."""
    arrays = {}
    if isinstance(payload, dict):
        arrays = {key: value for key, value in payload.items()
                  if isinstance(value, np.ndarray) and value.dtype.kind == "f"
                  and value.ndim == 1}
        payload = {**payload, **dict.fromkeys(arrays)}
    # a top-level key alone starts a line with two spaces and a quote
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with _created(path) as fh:
        for key in sorted(arrays):
            slot = f"\n  {json.dumps(key)}: "
            head, text = text.split(slot + "null", 1)
            fh.write(head + slot)
            _write_json_array(fh, arrays[key])
        fh.write(text)


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
        flags = np.zeros(size, dtype=np.int8)
        flags[[i - 1 for i in selected]] = 1
        return [repeat(kind, size), range(1, size + 1), labels,
                repeat("", size) if probs is None else probs, flags]

    parts = [part("position", n, series.labels or repeat("", n),
                  incl and incl.gamma_prob, selected_positions)]
    if sp:
        num_atoms = len(incl.r_prob) if incl is not None else len(atom_labels or [])
        labels = atom_labels or [""] * num_atoms
        parts.append(part("atom", num_atoms, labels, incl and incl.r_prob, selected_atoms))
    write_csv(paths["inclusion"], ["kind", "index", "label", "probability", "selected"],
              [np.concatenate(c) if isinstance(c[0], np.ndarray) else chain(*c)
               for c in zip(*parts)])

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
        summary["f_hat"] = fit.f_hat
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
        np.where(trace.which == TARGET_GAMMA, "gamma", "r"),
        trace.accepted.astype(np.int8),
        trace.log_density,
        changed,
    ])


def write_draws(trace: GibbsTrace, path) -> None:
    """One row per coefficient draw: iteration, each beta, each lambda,
    sigma2."""
    lam = () if trace.lam is None else (trace.lam.T,)
    write_csv(path, ["iteration", *(f"beta@{p}" for p in trace.positions),
                     *(f"lambda@{a}" for a in trace.atoms or ()), "sigma2"],
              [range(len(trace.sigma2)), trace.beta.T, *lam, trace.sigma2])


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
