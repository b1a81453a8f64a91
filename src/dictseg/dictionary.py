"""Atom families and their evaluation into the regression design matrix.

A dictionary is an ordered list of atoms, the first one always the
constant function (it plays the role of the pinned intercept, mirroring
the always-selected first step position).  Presets cover the built-in
families; arbitrary designs can be ingested from a delimited text file.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DataError, ValidationError

AtomFn = Callable[[np.ndarray], np.ndarray]

_KINDS = {"constant", "haar", "point_indicator", "sine", "cosine", "poly", "custom"}


@dataclass(frozen=True)
class Atom:
    kind: str
    params: Mapping[str, float] | None = None
    label: str | None = None
    fn: AtomFn | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown atom kind {self.kind!r}")
        params = dict(self.params or {})
        if self.kind in ("sine", "cosine"):
            if params.get("frequency", 0.0) <= 0:
                raise ValidationError("frequency must be positive")
        elif self.kind == "poly":
            if int(params.get("degree", 0)) < 1:
                raise ValidationError("polynomial degree must be >= 1")
        elif self.kind == "haar":
            scale = int(params.get("scale", -1))
            shift = int(params.get("shift", -1))
            if scale < 0:
                raise ValidationError("haar scale must be >= 0")
            if not (0 <= shift <= 2**scale - 1):
                raise ValidationError(f"haar shift must lie in [0, {2 ** scale - 1}]")
            params.setdefault("length", 1.0)
        elif self.kind == "point_indicator":
            if "location" not in params:
                raise ValidationError("point indicator needs a location")
        elif self.kind == "custom" and self.fn is None:
            raise ValidationError("custom atom needs a callable")
        object.__setattr__(self, "params", params)
        if self.label is None:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        p = self.params
        if self.kind == "constant":
            return "constant term"
        if self.kind == "sine":
            return f"sin(2π×{p['frequency']:g}×t)"
        if self.kind == "cosine":
            return f"cos(2π×{p['frequency']:g}×t)"
        if self.kind == "poly":
            d = int(p["degree"])
            return "t" if d == 1 else f"t^{d}"
        if self.kind == "haar":
            return f"Haar scale={int(p['scale'])} shift={int(p['shift'])}"
        if self.kind == "point_indicator":
            return f"indicator(t={p['location']:g})"
        return "custom"

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.kind == "constant":
            return np.ones_like(x)
        if self.kind == "sine":
            return np.sin(2.0 * np.pi * p["frequency"] * x)
        if self.kind == "cosine":
            return np.cos(2.0 * np.pi * p["frequency"] * x)
        if self.kind == "poly":
            return x ** int(p["degree"])
        if self.kind == "haar":
            arg = (2.0 ** p["scale"]) * x / p["length"] - p["shift"]
            amp = 2.0 ** (p["scale"] / 2.0)
            return np.where((arg >= 0.0) & (arg <= 1.0), amp, 0.0)
        if self.kind == "point_indicator":
            return np.where(np.abs(x - p["location"]) <= 1e-9, 1.0, 0.0)
        return np.asarray(self.fn(x), dtype=float)


def constant_atom() -> Atom:
    return Atom("constant")


def sine_atom(frequency: float, label: str | None = None) -> Atom:
    return Atom("sine", {"frequency": frequency}, label=label)


def cosine_atom(frequency: float, label: str | None = None) -> Atom:
    return Atom("cosine", {"frequency": frequency}, label=label)


def poly_atom(degree: int) -> Atom:
    return Atom("poly", {"degree": degree})


def haar_atom(scale: int, shift: int, length: float) -> Atom:
    return Atom("haar", {"scale": scale, "shift": shift, "length": length})


def point_atom(location: int, label: str | None = None) -> Atom:
    return Atom("point_indicator", {"location": float(location)}, label=label)


@dataclass(frozen=True)
class Dictionary:
    """Ordered atom family; atom 1 is always the constant function."""

    atoms: tuple[Atom, ...]
    name: str = "custom"

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValidationError("dictionary must contain at least one atom")
        if atoms[0].kind != "constant":
            raise ValidationError("first atom must be the constant function")
        object.__setattr__(self, "atoms", atoms)

    @property
    def size(self) -> int:
        return len(self.atoms)

    def labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.atoms)


@dataclass(frozen=True)
class DesignMatrix:
    """n x M atom evaluations; column 1 is all ones."""

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        F = np.asarray(self.matrix, dtype=float)
        if F.ndim != 2:
            raise ValidationError("design matrix must be 2-dimensional")
        if not np.all(np.isfinite(F)):
            raise ValidationError("design matrix entries must be finite")
        if not np.allclose(F[:, 0], 1.0):
            raise ValidationError("first design column must be all ones")
        labels = tuple(self.labels)
        if len(labels) != F.shape[1]:
            raise ValidationError("one label per column required")
        object.__setattr__(self, "matrix", F)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_atoms(self) -> int:
        return self.matrix.shape[1]


def evaluate_dictionary(dictionary: Dictionary, covariate) -> DesignMatrix:
    """Evaluate every atom on the covariate grid."""
    x = np.asarray(covariate, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError("covariate must be finite")
    F = np.column_stack([atom.evaluate(x) for atom in dictionary.atoms])
    return DesignMatrix(matrix=F, labels=dictionary.labels())


def atom_label(dictionary: Dictionary, index: int) -> str:
    """Label of the atom at the given 1-based index."""
    if not 1 <= index <= dictionary.size:
        raise ValidationError(f"atom index {index} out of range [1, {dictionary.size}]")
    return dictionary.atoms[index - 1].label


def _fourier_pairs(n: int, count: int = 10) -> list[Atom]:
    atoms = []
    for j in range(1, count + 1):
        atoms.append(sine_atom(j / n, label=f"sin(2π×{j}×t/{n})"))
        atoms.append(cosine_atom(j / n, label=f"cos(2π×{j}×t/{n})"))
    return atoms


def simulation_dictionary(n: int = 100, family: str = "haar128") -> Dictionary:
    """Dictionary used on simulated series of length n.

    Two interchangeable localized families are available:

    * ``haar128``: 128 scaled Haar indicators 2^(7/2)·1_[0,1](2^7·t/n - k),
      k = 0..127 (151 atoms in total for the standard grid);
    * ``point100``: one unit indicator per integer time (n + 23 atoms),
      whose indexing matches the published selection tables (atom i,
      for i in 2..n+1, sits at t = i - 1).

    Both variants append the 10 Fourier sine/cosine pairs of frequency
    j/n plus the monomials t and t^2.
    """
    if family == "haar128":
        localized = [haar_atom(7, k, float(n)) for k in range(128)]
    elif family == "point100":
        localized = [point_atom(t, label=f"Haar function at t={t}") for t in range(1, n + 1)]
    else:
        raise ValidationError(f"unknown simulation family {family!r}")
    atoms = [constant_atom()] + localized + _fourier_pairs(n) + [poly_atom(1), poly_atom(2)]
    return Dictionary(atoms=tuple(atoms), name=f"simulation_n{n}:{family}")


def exchange_dictionary(n: int) -> Dictionary:
    """Constant + t + t^2 + 10 Fourier pairs of frequency i/n (23 atoms)."""
    atoms = [constant_atom(), poly_atom(1), poly_atom(2)] + _fourier_pairs(n)
    return Dictionary(atoms=tuple(atoms), name=f"exchange_n{n}")


def fourier_period_floor_dictionary(span: float, floor: float) -> Dictionary:
    """Constant + sine/cosine pairs at frequencies i/span while span/i >= floor.

    ``span`` is the covariate extent (max - min); the atom count is
    therefore data-dependent: 1 + 2*floor(span/floor).
    """
    if floor <= 0:
        raise ValidationError("period floor must be positive")
    if span <= 0:
        raise ValidationError("covariate span must be positive")
    atoms: list[Atom] = [constant_atom()]
    i = 1
    while span / i >= floor:
        w = i / span
        atoms.append(sine_atom(w, label=f"sin(2π×t/{span / i:g})"))
        atoms.append(cosine_atom(w, label=f"cos(2π×t/{span / i:g})"))
        i += 1
    if len(atoms) == 1:
        raise ValidationError("period floor excludes every frequency")
    return Dictionary(atoms=tuple(atoms), name=f"fourier_span{span:g}_floor{floor:g}")


def load_design_matrix(path) -> DesignMatrix:
    """Read a custom design from CSV: header row of atom
    labels, then n rows by M columns.  The first column is forced to
    ones after checking it is constant."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read dictionary file {path}: {exc}") from exc
    if len(rows) < 2:
        raise DataError(f"dictionary file {path} needs a header plus data rows")
    labels = tuple(s.strip() for s in rows[0])
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(labels):
            raise DataError(f"{path}: row {i} has {len(row)} fields, expected {len(labels)}")
        try:
            data.append([float(v) for v in row])
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from exc
    F = np.array(data)
    if not np.all(np.isfinite(F)):
        raise DataError(f"{path}: non-finite entries")
    first = F[:, 0]
    if not np.allclose(first, first[0]) or first[0] == 0.0:
        raise DataError(f"{path}: first column must be a nonzero constant")
    F[:, 0] = 1.0
    return DesignMatrix(matrix=F, labels=labels)
