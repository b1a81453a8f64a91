"""Run configuration: defaults, named presets, flat-file round-trip.

A config file is plain ``key = value`` text, one key per line, with
``#`` comments.  Keys mirror the sampler knobs: c1, c2, pi, eta,
iterations, burn_in, gibbs_iterations, gibbs_burn_in, init_segments,
init_functions, flip_gamma, flip_r, seed, mode, dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .errors import DataError, ValidationError
from .gibbs import GibbsConfig
from .io import read_input
from .mh import MHConfig
from .posterior import MODE_P, MODE_SP, Hyperparameters


@dataclass(frozen=True)
class RunConfig:
    mode: str = MODE_SP
    c1: float = 50.0
    c2: float = 50.0
    pi: float = 0.01
    eta: float = 0.01
    iterations: int = 20000
    burn_in: int = 5000
    gibbs_iterations: int = 20000
    gibbs_burn_in: int = 5000  # accepted and ignored; the exact coefficient stage needs none
    init_segments: int = 3
    init_functions: int = 3
    flip_gamma: int = 2
    flip_r: int = 2
    seed: int = 0
    dictionary: str = "simulation_n100:point100"

    def validate(self) -> "RunConfig":
        """Check every setting by building the prior and the two stages'
        configs from it."""
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if self.mode not in (MODE_SP, MODE_P):
            raise ValidationError(f"mode must be '{MODE_SP}' or '{MODE_P}'")
        Hyperparameters.flat(2, 2, c1=self.c1, c2=self.c2, pi=self.pi, eta=self.eta)
        self.mh_config()
        self.gibbs_config()
        return self

    @classmethod
    def default(cls) -> "RunConfig":
        """Simulation-study settings: 20000 iterations (5000 burn-in),
        c1 = c2 = 50, 3 initial segments and atoms, 2-bit flips,
        flat 0.01 inclusion priors."""
        return cls()

    @classmethod
    def application(cls) -> "RunConfig":
        """Long-series settings: 100000 search iterations (30000
        burn-in), 100000 coefficient draws (gibbs_burn_in 50000),
        5 initial segments and atoms, single-bit flips."""
        return cls(iterations=100_000, burn_in=30_000,
                   gibbs_iterations=100_000, gibbs_burn_in=50_000,
                   init_segments=5, init_functions=5,
                   flip_gamma=1, flip_r=1)

    def seeds(self, count: int = 2) -> list[int]:
        """Child seeds derived from the master seed by fixed splitting."""
        return derive_seeds(self.seed, count)

    def mh_config(self, seed: int | None = None) -> MHConfig:
        return MHConfig(
            total_iterations=self.iterations, burn_in=self.burn_in,
            flip_gamma=self.flip_gamma, flip_r=self.flip_r,
            init_segments=self.init_segments, init_functions=self.init_functions,
            seed=self.seed if seed is None else seed,
        )

    def gibbs_config(self, seed: int | None = None, store_trace: bool = True) -> GibbsConfig:
        return GibbsConfig(
            total_iterations=self.gibbs_iterations,
            seed=self.seed if seed is None else seed, store_trace=store_trace,
        )

    def hyperparameters(self, n: int, num_atoms: int | None) -> Hyperparameters:
        if self.mode == MODE_P:
            return Hyperparameters.flat(n, None, c1=self.c1, pi=self.pi)
        return Hyperparameters.flat(n, num_atoms, c1=self.c1, c2=self.c2,
                                    pi=self.pi, eta=self.eta)


def derive_seeds(master_seed: int, count: int) -> list[int]:
    if master_seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {master_seed}")
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


# each key's parser is its field's type: int, float or str
_KEY_TYPES = get_type_hints(RunConfig)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise DataError(f"config line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = _KEY_TYPES[key](value)
        except ValueError as exc:
            raise DataError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
    return replace(cfg, **overrides).validate()


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    return parse_config(read_input(path, "config", lambda fh: fh.read()), base=base)


def sensitivity_presets() -> dict[int, RunConfig]:
    """The 21 named sensitivity runs (one knob varied per block of
    three, 20000 iterations with 5000 burn-in throughout)."""
    base = RunConfig.default()
    overrides: dict[int, dict] = {
        1: {},
        2: {"c1": 10.0, "c2": 10.0},
        3: {"c1": 500.0, "c2": 500.0},
        4: {"init_segments": 1},
        5: {"init_segments": 3},
        6: {"init_segments": 10},
        7: {"init_functions": 1, "flip_gamma": 3},
        8: {"init_functions": 3, "flip_gamma": 3},
        9: {"init_functions": 10, "flip_gamma": 3},
        10: {"flip_gamma": 1},
        11: {"flip_gamma": 2},
        12: {"flip_gamma": 5},
        13: {"flip_r": 1},
        14: {"flip_r": 2},
        15: {"flip_r": 5},
        16: {"pi": 1 / 20},
        17: {"pi": 1 / 100},
        18: {"pi": 1 / 500},
        19: {"eta": 1 / 20},
        20: {"eta": 1 / 100},
        21: {"eta": 1 / 500},
    }
    return {run: replace(base, **kw) for run, kw in overrides.items()}
