"""Design matrices of the built-in dictionary families and of custom files.

A design matrix holds one column per atom evaluated on the covariate
grid, the first one always the constant function (it plays the role of
the pinned intercept, mirroring the always-selected first step
position).  Each preset builds its matrix from the covariate, one array
expression per atom family; arbitrary designs can be ingested from a
delimited text file.  ``resolve_design`` maps a dictionary spec string
to its design.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError
from .stepmodel import TimeSeries


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(nbytes, what: str) -> None:
    """ValidationError, before anything is allocated, if ``nbytes``
    exceeds this machine's physical memory; ``what`` names the arrays
    and the estimate's formula."""
    memory = _physical_memory()
    if nbytes > memory:
        raise ValidationError(
            f"{what} = {nbytes:.0f} bytes ({nbytes / 2**30:.3g} GiB), "
            f"more than this machine's {memory / 2**30:.3g} GiB of physical memory")


@dataclass(frozen=True)
class DesignMatrix:
    """n x M atom evaluations; column 1 is all ones.  A label may not
    hold a carriage return, which ``write_csv`` would leave unquoted."""

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        F = np.asarray(self.matrix, dtype=float)
        if F.ndim != 2 or F.shape[1] == 0:
            raise ValidationError("design matrix must be 2-dimensional with a column or more")
        if not np.all(np.isfinite(F)):
            raise ValidationError("design matrix entries must be finite")
        if not np.allclose(F[:, 0], 1.0):
            raise ValidationError("first design column must be all ones")
        labels = tuple(self.labels)
        if len(labels) != F.shape[1]:
            raise ValidationError("one label per column required")
        if any("\r" in str(label) for label in labels):
            raise ValidationError("atom labels may not hold a carriage return")
        object.__setattr__(self, "matrix", F)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_atoms(self) -> int:
        return self.matrix.shape[1]


def _covariate(covariate) -> np.ndarray:
    x = np.asarray(covariate, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError("covariate must be finite")
    return x


def _fill_fourier(F: np.ndarray, x: np.ndarray, frequencies: np.ndarray) -> None:
    """sin(2π·f·x) and cos(2π·f·x) for each frequency f, pair by pair,
    into the columns of F."""
    arg = x[:, None] * (2.0 * np.pi * frequencies)
    F[:, 0::2] = np.sin(arg)
    F[:, 1::2] = np.cos(arg)


def _pair_labels(arguments) -> list[str]:
    """sin and cos labels, pair by pair, for each ``2π×<argument>``."""
    return [f"{fn}(2π×{a})" for a in arguments for fn in ("sin", "cos")]


def _fourier_labels(n: int) -> list[str]:
    return _pair_labels(f"{j}×t/{n}" for j in range(1, 11))


def simulation_design(covariate, family: str = "haar128") -> DesignMatrix:
    """Design used on simulated series of length n = len(covariate).

    Two interchangeable localized families are available:

    * ``haar128``: 128 scaled Haar indicators 2^(7/2)·1_[0,1](2^7·t/n - k),
      k = 0..127 (151 atoms in total);
    * ``point100``: one unit indicator per integer time (n + 23 atoms),
      whose indexing matches the published selection tables (atom i,
      for i in 2..n+1, sits at t = i - 1).

    Both variants append the 10 Fourier sine/cosine pairs of frequency
    j/n plus the monomials t and t^2.
    """
    x = _covariate(covariate)
    n = x.size
    if family == "haar128":
        local = [f"Haar scale=7 shift={k}" for k in range(128)]
    elif family == "point100":
        local = [f"Haar function at t={t}" for t in range(1, n + 1)]
    else:
        raise ValidationError(f"unknown simulation family {family!r}")
    labels = ("constant term", *local, *_fourier_labels(n), "t", "t^2")
    F = np.empty((n, len(labels)))
    F[:, 0] = 1.0
    # the localized block is built in place; its only temporaries are
    # boolean masks of its size, so set-up never holds two float matrices
    block = F[:, 1:len(local) + 1]
    if family == "haar128":
        np.subtract((2.0 ** 7 * x / n)[:, None], np.arange(128), out=block)
        np.multiply((block >= 0.0) & (block <= 1.0), 2.0 ** 3.5, out=block)
    else:
        np.subtract(x[:, None], np.arange(1, n + 1), out=block)
        block[...] = np.abs(block, out=block) <= 1e-9
    _fill_fourier(F[:, -22:-2], x, np.arange(1, 11) / n)
    F[:, -2] = x ** 1
    F[:, -1] = x ** 2
    return DesignMatrix(matrix=F, labels=labels)


def exchange_design(covariate) -> DesignMatrix:
    """Constant + t + t^2 + 10 Fourier pairs of frequency i/n (23 atoms)."""
    x = _covariate(covariate)
    n = x.size
    F = np.empty((n, 23))
    F[:, 0] = 1.0
    F[:, 1] = x ** 1
    F[:, 2] = x ** 2
    _fill_fourier(F[:, 3:], x, np.arange(1, 11) / n)
    return DesignMatrix(matrix=F, labels=("constant term", "t", "t^2", *_fourier_labels(n)))


def fourier_design(covariate, floor: float) -> DesignMatrix:
    """Constant + sine/cosine pairs at frequencies i/span while span/i >= floor.

    ``span`` is the covariate extent (last - first); the atom count is
    therefore data-dependent: 1 + 2*floor(span/floor).
    """
    x = _covariate(covariate)
    if not floor > 0:  # NaN too
        raise ValidationError("period floor must be positive")
    span = float(x[-1] - x[0])
    if span <= 0:
        raise ValidationError("covariate span must be positive")
    ratio = span / floor
    check_memory(8.0 * x.size * (1 + 2 * ratio),
                 f"a Fourier design on {x.size} points at period floor {floor:g} needs about "
                 f"8·n·(1 + 2·span/floor)")
    # span/i falls with i, so the frequencies kept are i = 1..count;
    # the quotient's floor is at most one off that count
    count = int(ratio)
    while count and span / count < floor:
        count -= 1
    while span / (count + 1) >= floor:
        count += 1
    if count == 0:
        raise ValidationError("period floor excludes every frequency")
    labels = ("constant term", *_pair_labels(f"t/{span / i:g}" for i in range(1, count + 1)))
    F = np.empty((x.size, len(labels)))
    F[:, 0] = 1.0
    _fill_fourier(F[:, 1:], x, np.arange(1, count + 1) / span)
    return DesignMatrix(matrix=F, labels=labels)


def load_design_matrix(path) -> DesignMatrix:
    """Read a custom design from CSV: header row of atom
    labels, then n rows by M columns.  The first column is forced to
    ones after checking it is constant.  A label may not hold a carriage
    return, which ``write_csv`` would leave unquoted."""
    from .io import csv_records, read_input  # not at the top: io imports this module through posterior
    records = read_input(path, "dictionary file", csv_records)
    line, header = next(records, (1, []))
    labels = tuple(s.strip() for s in header)
    if any("\r" in label for label in labels):
        raise DataError(f"{path}: row {line} has a carriage return in an atom label")
    data = []
    for i, row in records:
        if len(row) != len(labels):
            raise DataError(f"{path}: row {i} has {len(row)} fields, expected {len(labels)}")
        try:
            data.append([float(v) for v in row])
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from exc
    if not data:
        raise DataError(f"dictionary file {path} needs a header plus data rows")
    F = np.array(data)
    if not np.all(np.isfinite(F)):
        raise DataError(f"{path}: non-finite entries")
    first = F[:, 0]
    if not np.allclose(first, first[0]) or first[0] == 0.0:
        raise DataError(f"{path}: first column must be a nonzero constant")
    F[:, 0] = 1.0
    return DesignMatrix(matrix=F, labels=labels)


def resolve_design(spec: str, series: TimeSeries) -> tuple[DesignMatrix, tuple[str, ...]]:
    """Design matrix and atom labels for a dictionary spec string.

    Accepted forms: ``simulation_n100`` (optionally ``:haar128`` or
    ``:point100``), ``exchange``, ``fourier`` (optionally
    ``:floor=<weeks>``, default 8), ``file:<path>``.
    """
    name, colon, option = spec.partition(":")
    if name == "file" and colon:
        design = load_design_matrix(option)
        if design.n != series.n:
            raise DataError(f"design has {design.n} rows, series has {series.n}")
    elif name == "simulation_n100":
        design = simulation_design(series.covariate, option if colon else "haar128")
    elif spec == "exchange":
        design = exchange_design(series.covariate)
    elif name == "fourier":
        floor = 8.0
        if colon:
            key, _, value = option.partition("=")
            if key != "floor":
                raise ValidationError(f"unknown fourier option {key!r}")
            try:
                floor = float(value)
            except ValueError:
                raise ValidationError(f"fourier floor must be a number, got {value!r}") from None
        design = fourier_design(series.covariate, floor)
    else:
        raise ValidationError(f"unknown dictionary spec {spec!r}")
    return design, design.labels
