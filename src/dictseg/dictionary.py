"""Design matrices of the built-in dictionary families and of custom files.

A design matrix holds one column per atom evaluated on the covariate
grid, the first one always the constant function (it plays the role of
the pinned intercept, mirroring the always-selected first step
position).  Each preset builds its matrix from the covariate, one array
expression per atom family; arbitrary designs can be ingested from a
delimited text file.  Point atoms, one nonzero entry each, are held as
atom, row and amplitude rather than as columns.  ``resolve_design``
maps a dictionary spec string to its design.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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


def _point_rows(F: np.ndarray):
    """The columns of F with at most one entry other than +0.0, that
    entry's row and its value (row 0 and value +0.0 for a zero column);
    None when fewer than half the columns are point columns.  A -0.0
    entry counts as an entry, and a column whose one entry is -0.0 is
    not a point column, so each column reads back bit for bit."""
    n, m = F.shape
    counts = np.zeros(m, dtype=np.int64)
    for i in range(0, n, 255):  # a uint8 count of 255 rows cannot overflow
        counts += np.add.reduce((F[i:i + 255].view(np.uint64) != 0).view(np.uint8),
                                axis=0, dtype=np.uint8)
    cols = np.flatnonzero(counts <= 1)
    if 2 * len(cols) < m:
        return None
    # a point column's sum and index-weighted sum are exactly F[t, a]
    # and t·F[t, a] rounded once, every other term being zero
    with np.errstate(over="ignore"):
        values, moments = (np.stack((np.ones(n), np.arange(n, dtype=float))) @ F)[:, cols]
    keep = (counts[cols] == 0) | (values != 0)
    cols, values, moments = cols[keep], values[keep], moments[keep]
    if 2 * len(cols) < m:
        return None
    rows = np.divide(moments, values, out=np.zeros(len(cols)), where=values != 0)
    rows = np.clip(np.rint(rows), 0, n - 1).astype(np.intp)
    if not np.array_equal(F[rows, cols], values):  # t·F[t, a] past the float range
        return None
    return cols, rows, F[rows, cols]


@dataclass(frozen=True)
class DesignMatrix:
    """n x M atom evaluations; column 1 is all ones.

    A point atom, amp·1[t = row], is held as its atom index, row and
    amplitude; the other atoms are the columns of the n x M_d block
    ``dense``, in atom order.  ``matrix`` and ``columns`` assemble
    columns of F on request, zero (+0.0) off the point atoms' rows; no
    n x M array is held.  A label may not hold a carriage return, which
    ``write_csv`` would leave unquoted.
    """

    labels: tuple[str, ...]
    dense: np.ndarray
    point_atoms: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    point_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    point_amps: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        labels = tuple(self.labels)
        dense = np.ascontiguousarray(self.dense, dtype=float)
        atoms = np.asarray(self.point_atoms, dtype=np.intp)
        rows = np.asarray(self.point_rows, dtype=np.intp)
        amps = np.asarray(self.point_amps, dtype=float)
        m = len(labels)
        if dense.ndim != 2 or m == 0 or dense.shape[1] + len(atoms) != m:
            raise ValidationError("one label per column required")
        if not len(atoms) == len(rows) == len(amps):
            raise ValidationError("one row and one amplitude per point atom required")
        slot = np.full(m, m, dtype=np.intp)
        if len(atoms):
            if atoms.min() < 0 or atoms.max() >= m or rows.min() < 0 or rows.max() >= len(dense):
                raise ValidationError("point atoms and rows must lie in the design")
            slot[atoms] = -1 - np.arange(len(atoms))
        dense_atoms = np.flatnonzero(slot == m)
        if len(dense_atoms) != dense.shape[1]:
            raise ValidationError("point atoms must be distinct")
        slot[dense_atoms] = np.arange(len(dense_atoms))
        if not (np.all(np.isfinite(dense)) and np.all(np.isfinite(amps))):
            raise ValidationError("design matrix entries must be finite")
        if "\r" in "".join(map(str, labels)):
            raise ValidationError("atom labels may not hold a carriage return")
        for name, value in (("labels", labels), ("dense", dense), ("point_atoms", atoms),
                            ("point_rows", rows), ("point_amps", amps),
                            ("dense_atoms", dense_atoms), ("_slot", slot)):
            object.__setattr__(self, name, value)
        if not np.allclose(self.columns([0])[:, 0], 1.0):
            raise ValidationError("first design column must be all ones")

    @classmethod
    def from_matrix(cls, matrix, labels) -> DesignMatrix:
        """The design of the n x M matrix F, its point columns (see
        ``_point_rows``) held as point atoms when they are half of F's
        columns or more."""
        F = np.ascontiguousarray(matrix, dtype=float)
        if F.ndim != 2 or F.shape[1] == 0:
            raise ValidationError("design matrix must be 2-dimensional with a column or more")
        if not np.all(np.isfinite(F)):
            raise ValidationError("design matrix entries must be finite")
        point = _point_rows(F)
        if point is None:
            return cls(labels=labels, dense=F)
        atoms, rows, amps = point
        keep = np.ones(F.shape[1], dtype=bool)
        keep[atoms] = False
        return cls(labels=labels, dense=F[:, keep], point_atoms=atoms, point_rows=rows,
                   point_amps=amps)

    @property
    def n(self) -> int:
        return self.dense.shape[0]

    @property
    def num_atoms(self) -> int:
        return len(self.labels)

    @property
    def matrix(self) -> np.ndarray:
        """The n x M matrix F, C-ordered: ``dense`` itself when there
        are no point atoms, else built anew on each call."""
        if not len(self.point_atoms):
            return self.dense
        check_memory(8.0 * self.n * self.num_atoms,
                     f"the {self.n} x {self.num_atoms} design matrix needs 8·n·M")
        F = np.zeros((self.n, self.num_atoms))
        F[:, self.dense_atoms] = self.dense
        F[self.point_rows, self.point_atoms] = self.point_amps
        return F

    def columns(self, atoms) -> np.ndarray:
        """F[:, atoms] for 0-based atom indices, laid out as numpy lays
        out that index of a C-ordered F: a new Fortran-ordered array."""
        slot = self._slot.take(np.asarray(atoms, dtype=np.intp))
        out = np.zeros((len(slot), self.n)).T
        for j, s in enumerate(slot.tolist()):  # column by column: no second n x k array
            if s >= 0:
                out[:, j] = self.dense[:, s]
            else:
                out[self.point_rows[-1 - s], j] = self.point_amps[-1 - s]
        return out


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


# the localized atom families of simulation_design
SIMULATION_FAMILIES = ("point100", "haar128")


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
    if family == "haar128":
        # the block is built in place; its only temporaries are boolean
        # masks of its size, so set-up never holds two float matrices
        F = np.empty((n, len(labels)))
        block = F[:, 1:len(local) + 1]
        np.subtract((2.0 ** 7 * x / n)[:, None], np.arange(128), out=block)
        np.multiply((block >= 0.0) & (block <= 1.0), 2.0 ** 3.5, out=block)
        _fill_smooth(F, x)
        return DesignMatrix(labels=labels, dense=F)
    dense = np.empty((n, 23))
    _fill_smooth(dense, x)
    # atom t is 1 where |x - t| <= 1e-9, a test only the integer nearest
    # x can pass, so each row is in at most one atom
    nearest = np.rint(x)
    rows = np.flatnonzero((np.abs(x - nearest) <= 1e-9) & (nearest >= 1) & (nearest <= n))
    atoms = nearest[rows].astype(np.intp)
    if np.bincount(atoms, minlength=n + 1).max(initial=0) > 1:  # two rows in one atom
        F = np.zeros((n, len(labels)))
        F[:, np.r_[0, n + 1:n + 23]] = dense
        F[rows, atoms] = 1.0
        return DesignMatrix.from_matrix(F, labels)
    point_rows, point_amps = np.zeros(n, dtype=np.intp), np.zeros(n)
    point_rows[atoms - 1], point_amps[atoms - 1] = rows, 1.0
    return DesignMatrix(labels=labels, dense=dense, point_atoms=np.arange(1, n + 1),
                        point_rows=point_rows, point_amps=point_amps)


def _fill_smooth(F: np.ndarray, x: np.ndarray) -> None:
    """The constant into the first column of F, and the 10 Fourier pairs
    of frequency j/n, t and t^2 into its last 22."""
    F[:, 0] = 1.0
    _fill_fourier(F[:, -22:-2], x, np.arange(1, 11) / x.size)
    F[:, -2] = x ** 1
    F[:, -1] = x ** 2


def exchange_design(covariate) -> DesignMatrix:
    """Constant + t + t^2 + 10 Fourier pairs of frequency i/n (23 atoms)."""
    x = _covariate(covariate)
    n = x.size
    F = np.empty((n, 23))
    F[:, 0] = 1.0
    F[:, 1] = x ** 1
    F[:, 2] = x ** 2
    _fill_fourier(F[:, 3:], x, np.arange(1, 11) / n)
    return DesignMatrix(labels=("constant term", "t", "t^2", *_fourier_labels(n)), dense=F)


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
    return DesignMatrix(labels=labels, dense=F)


def load_design_matrix(path) -> DesignMatrix:
    """Read a custom design from CSV: header row of atom
    labels, then n rows by M columns.  The first column is forced to
    ones after checking it is constant.  A label may not hold a carriage
    return, which ``write_csv`` would leave unquoted.  The numbers are
    parsed by numpy (``io.numbers_after_first``); a file numpy refuses
    is walked row by row."""
    from .io import csv_records, numbers_after_first, read_input  # not at the top: io imports this module through posterior
    plain = numbers_after_first(path, "dictionary file")
    labels = () if plain is None else tuple(s.strip() for s in plain[0])
    if plain is not None and len(plain[1]) and not any("\r" in label for label in labels):
        F = plain[1]
    else:
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
    return DesignMatrix.from_matrix(F, labels)


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
