#!/usr/bin/env python3
"""Tests of the benchmark's output checks.

    python3 perfbench/selftest.py

One short fit of a low-noise n = 100 series in mode sp gives today's
outputs.  The checks must pass them and must fail each perturbation: a
log density off by 1e-6 relative, a segment mean off by 10 Monte Carlo
standard errors, a selection that disagrees with its inclusion table
and a missed true change-point that the model rates above the selected
one.  A miss the model itself prefers must pass.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy
import shutil
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from dictseg.cli import resolve_design  # noqa: E402
from dictseg.stepmodel import TimeSeries  # noqa: E402
from spans import NULL  # noqa: E402
from workloads import sim100, simulation_atoms  # noqa: E402


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = sim100(seed=13).fits[0]
        cfg = replace(spec.config, iterations=6000, burn_in=1500,
                      gibbs_iterations=6000, gibbs_burn_in=1500)
        cls.spec = replace(spec, config=cfg)
        cls.dir = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
        series_path = cls.dir / "series.csv"
        series_path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in spec.values))
        prep = run.set_up(cls.spec, series_path, NULL)
        cls.out = run.fit(cls.spec, prep, cls.dir, NULL)
        cls.y = prep.series.values
        draws = cls.out.fit.trace
        cls.mcse = checks.coefficient_mcse((draws.beta, draws.lam, draws.sigma2),
                                           cfg.gibbs_burn_in, sp=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def outputs(self):
        return checks.read_outputs(self.dir)

    def samples(self):
        trace = self.out.mh_trace
        out = []
        for t in np.linspace(0, len(trace) - 1, 10).astype(int):
            state = trace.state_at(int(t))
            out.append((int(t), state.positions(), state.atoms(), float(trace.log_density[t])))
        return out

    def coefficient_failures(self, outputs):
        return checks.check_coefficients(self.y, self.spec.config.dictionary, self.spec.config,
                                         outputs, self.mcse)

    def recovery_failures(self, outputs, change_points=None):
        cfg = self.spec.config

        def rate(positions, atoms):
            return checks.model_log_density(self.y, cfg.dictionary, cfg, positions, atoms)

        return checks.check_recovery(outputs, change_points or self.spec.change_points, 2,
                                     rate=rate, true_atoms=simulation_atoms(100))

    def test_todays_outputs_pass(self):
        cfg = self.spec.config
        self.assertEqual(checks.check_consistency(self.outputs()), [])
        self.assertEqual(checks.check_log_densities(self.y, cfg.dictionary, cfg,
                                                    self.samples()), [])
        self.assertEqual(self.coefficient_failures(self.outputs()), [])
        self.assertEqual(self.recovery_failures(self.outputs()), [])

    def test_log_density_off_by_1e6_relative_fails(self):
        t, positions, atoms, value = self.samples()[-1]
        cfg = self.spec.config
        bad = [(t, positions, atoms, value * (1.0 + 1e-6))]
        self.assertEqual(len(checks.check_log_densities(self.y, cfg.dictionary, cfg, bad)), 1)

    def test_segment_mean_off_by_10_mcse_fails(self):
        outputs = self.outputs()
        k = len(outputs.summary["means"]) // 2
        outputs.summary["means"][k] += 10.0 * self.mcse["means"][k]
        failures = self.coefficient_failures(outputs)
        self.assertEqual(len(failures), 1)
        self.assertIn(f"segment mean[{k}]", failures[0])

    def test_selection_disagreeing_with_inclusion_table_fails(self):
        outputs = self.outputs()
        outputs.selection = copy.deepcopy(outputs.selection)
        outputs.selection["positions"] = outputs.selection["positions"][:-1]
        failures = checks.check_consistency(outputs)
        self.assertEqual(len(failures), 1)
        self.assertIn("selection.json positions", failures[0])

    def test_missed_true_change_point_fails(self):
        outputs = self.outputs()
        missed = self.spec.change_points[1]
        summary = outputs.summary
        summary["change_points"] = [c for c in summary["change_points"] if abs(c - missed) > 5]
        summary["selected_positions"] = [1] + [c + 1 for c in summary["change_points"]]
        failures = self.recovery_failures(outputs)
        self.assertEqual(len(failures), 2)
        self.assertIn(f"true change-point {missed}", failures[0])
        self.assertIn("exceeds the selected model's", failures[1])

    def test_miss_the_model_prefers_passes(self):
        # A "true" change-point with no jump at it: the selection leaves it
        # out, and the model rates the truth with it lower.
        extra = 70
        self.assertNotIn(extra, self.spec.change_points)
        cps = tuple(sorted(self.spec.change_points + (extra,)))
        self.assertEqual(self.recovery_failures(self.outputs(), cps), [])

    def test_atom_columns_match_the_program_dictionaries(self):
        for spec, n in (("simulation_n100:point100", 100), ("exchange", 500)):
            design, _ = resolve_design(spec, TimeSeries(values=np.zeros(n)))
            mine = checks.atom_columns(spec, n, range(1, design.num_atoms + 1))
            np.testing.assert_array_equal(mine, design.matrix)


if __name__ == "__main__":
    unittest.main()
