import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dictseg import (
    MODE_P,
    MODE_SP,
    DesignMatrix,
    Hyperparameters,
    LatentState,
    PosteriorContext,
    TimeSeries,
)
from dictseg import mh


def make_state(gamma_positions, n, atom_indices=None, num_atoms=None):
    """LatentState from 1-based selected positions/atom indices."""
    gamma = np.zeros(n, dtype=bool)
    gamma[np.asarray(gamma_positions, dtype=int) - 1] = True
    r = None
    if atom_indices is not None:
        r = np.zeros(num_atoms, dtype=bool)
        r[np.asarray(atom_indices, dtype=int) - 1] = True
    return LatentState(gamma=gamma, r=r)


def proposal_hits(seed, trials):
    """Forward and backward hits between the gamma states {1, 3} and
    {1, 4} at n = 8 over ``trials`` 2-bit proposals each, drawn and
    applied as the kernel does from one PCG64 stream.  The states differ
    in two free bits, so each direction hits with probability 1/C(7, 2)."""
    n, states = 8, ([1, 3], [1, 4])
    bit_generator = np.random.PCG64(seed)
    hits = []
    for start, end in (states, states[::-1]):
        flips = mh._draw_block(bit_generator, trials, (n, 2))[1]
        rows = mh._flip(np.asarray(start) - 1, flips, n)
        bits = np.zeros((trials, n + 1), dtype=bool)
        np.put_along_axis(bits, rows, True, axis=1)
        hits.append(int((bits[:, :n] == make_state(end, n).gamma).all(axis=1).sum()))
    return hits


def design_of(x, *columns):
    """Design of the constant column followed by ``columns``, each one
    atom evaluated on the covariate ``x``."""
    labels = ("constant term", *(f"atom {j}" for j in range(2, len(columns) + 2)))
    return DesignMatrix.from_matrix(np.column_stack([np.ones_like(x), *columns]), labels)


def indicator(x, location):
    """Unit point indicator of ``x == location``."""
    return np.where(np.abs(x - location) <= 1e-9, 1.0, 0.0)


def small_design(x):
    """Constant + one sine + one point indicator (M = 3)."""
    return design_of(x, np.sin(2.0 * np.pi * (1 / 6) * x), indicator(x, 4.0))


def small_context(n=12, seed=42, mode=MODE_SP, pi=0.1, eta=0.2, c1=50.0, c2=50.0):
    """Seeded instance used across the posterior tests."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, n) + np.where(np.arange(1, n + 1) > n // 2, 2.0, 0.0)
    series = TimeSeries(values=values)
    if mode == MODE_P:
        hyper = Hyperparameters.flat(n, None, c1=c1, pi=pi)
        return PosteriorContext(series, hyper, None, MODE_P)
    design = small_design(series.covariate)
    hyper = Hyperparameters.flat(n, design.num_atoms, c1=c1, c2=c2, pi=pi, eta=eta)
    return PosteriorContext(series, hyper, design, MODE_SP)


def chain_context(mode, duplicate=False):
    """n = 40: two change-points, a sine and a peak; in mode sp a
    dictionary of 6 atoms, or 7 with the sine twice."""
    rng = np.random.default_rng(31)
    n = 40
    t = np.arange(1.0, n + 1.0)
    values = (np.where(t > 12, 1.5, 0.0) - np.where(t > 27, 2.0, 0.0)
              + 0.6 * np.sin(2 * np.pi * t / 10) + np.where(t == 20, 2.0, 0.0)
              + rng.normal(0.0, 0.4, n))
    series = TimeSeries(values=values)
    if mode == MODE_P:
        return PosteriorContext(series, Hyperparameters.flat(n, None, pi=0.05), None, MODE_P)
    x = series.covariate
    columns = [np.sin(2.0 * np.pi * 0.1 * x), np.cos(2.0 * np.pi * 0.1 * x),
               indicator(x, 20.0), x ** 1, np.sin(2.0 * np.pi * 0.23 * x)]
    if duplicate:
        columns.insert(1, columns[0])
    design = design_of(x, *columns)
    hyper = Hyperparameters.flat(n, design.num_atoms, pi=0.05, eta=0.3)
    return PosteriorContext(series, hyper, design, MODE_SP)


def random_instance(rng, n_max=64, mode=MODE_SP, d_gamma_max=8, d_r_max=6):
    """Random (context, state) pair for oracle-agreement sweeps."""
    n = int(rng.integers(8, n_max + 1))
    values = rng.normal(0.0, 1.0, n) + rng.normal(0.0, 2.0) \
        + np.where(np.arange(n) > n // 2, rng.normal(0.0, 1.5), 0.0)
    series = TimeSeries(values=values)
    d_gamma = int(rng.integers(1, min(d_gamma_max, n - 1) + 1))
    gpos = [1] + sorted(rng.choice(np.arange(2, n + 1), size=d_gamma - 1,
                                   replace=False).tolist())
    pi_scalar = float(rng.uniform(0.005, 0.3))
    c1 = float(rng.uniform(2.0, 200.0))
    if mode == MODE_P:
        hyper = Hyperparameters.flat(n, None, c1=c1, pi=pi_scalar)
        ctx = PosteriorContext(series, hyper, None, MODE_P)
        return ctx, make_state(gpos, n)
    num_atoms = int(rng.integers(2, 9))
    x = series.covariate
    columns = []
    for _ in range(1, num_atoms):
        kind = rng.choice(["sine", "cosine", "point_indicator", "poly"])
        if kind in ("sine", "cosine"):
            wave = np.sin if kind == "sine" else np.cos
            columns.append(wave(2.0 * np.pi * float(rng.uniform(0.02, 0.45)) * x))
        elif kind == "poly":
            columns.append(x ** int(rng.integers(1, 4)))
        else:
            columns.append(indicator(x, float(rng.integers(1, n + 1))))
    design = design_of(x, *columns)
    d_r = int(rng.integers(1, min(d_r_max, num_atoms) + 1))
    ratoms = [1] + sorted(rng.choice(np.arange(2, num_atoms + 1), size=d_r - 1,
                                     replace=False).tolist())
    c2 = float(rng.uniform(2.0, 200.0))
    eta_scalar = float(rng.uniform(0.005, 0.3))
    hyper = Hyperparameters.flat(n, num_atoms, c1=c1, c2=c2, pi=pi_scalar, eta=eta_scalar)
    ctx = PosteriorContext(series, hyper, design, MODE_SP)
    return ctx, make_state(gpos, n, ratoms, num_atoms)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
