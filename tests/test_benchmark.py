import json

import numpy as np
import pytest

from dictseg import RunConfig, ValidationError, benchmark, run_benchmark

FAST = RunConfig(iterations=800, burn_in=200, gibbs_iterations=400,
                 gibbs_burn_in=100)


class TestRunBenchmark:
    def test_rows_and_averages_are_consistent(self):
        report = run_benchmark([0.1], replicates=3, methods=("sp", "p"),
                               config=FAST, master_seed=1)
        assert len(report.rows) == 6
        averages = report.averages()
        for (sigma, method), summary in averages.items():
            rows = [r for r in report.rows
                    if r.sigma == sigma and r.method == method and r.ok]
            assert summary["replicates"] == 3
            np.testing.assert_allclose(summary["k_hat"],
                                       np.mean([r.k_hat for r in rows]))
            np.testing.assert_allclose(summary["rmse_mu"],
                                       np.mean([r.rmse_mu for r in rows]))

    def test_methods_share_the_simulated_series(self):
        report = run_benchmark([0.1], replicates=2, methods=("sp", "p"),
                               config=FAST, master_seed=3)
        by_rep = {}
        for row in report.rows:
            by_rep.setdefault(row.replicate, set()).add(row.sim_seed)
        for seeds in by_rep.values():
            assert len(seeds) == 1

    @staticmethod
    def strip_runtime(report):
        from dataclasses import replace
        return [replace(r, runtime_s=None) for r in report.rows]

    def test_deterministic_given_master_seed(self):
        a = run_benchmark([0.5], replicates=2, methods=("sp",), config=FAST,
                          master_seed=7)
        b = run_benchmark([0.5], replicates=2, methods=("sp",), config=FAST,
                          master_seed=7)
        assert self.strip_runtime(a) == self.strip_runtime(b)

    def test_worker_pool_matches_serial(self):
        serial = run_benchmark([0.5], replicates=2, methods=("sp", "p"),
                               config=FAST, master_seed=9, n_jobs=1)
        pooled = run_benchmark([0.5], replicates=2, methods=("sp", "p"),
                               config=FAST, master_seed=9, n_jobs=2)
        assert self.strip_runtime(serial) == self.strip_runtime(pooled)

    def test_p_mode_rows_have_no_functional_metrics(self):
        report = run_benchmark([0.1], replicates=1, methods=("p",), config=FAST,
                               master_seed=2)
        row = report.rows[0]
        assert row.ok
        assert row.rmse_f is None and row.fdr_f is None and row.fnr_f is None

    def test_failures_recorded_not_raised(self, monkeypatch):
        # a simulation that fails inside every replicate
        def failing(n, sigma, rng):
            raise ValidationError("simulation failed")

        monkeypatch.setattr(benchmark, "simulate_series", failing)
        report = run_benchmark([0.1], replicates=2, methods=("sp",), config=FAST,
                               master_seed=4)
        assert all(not r.ok for r in report.rows)
        assert all("ValidationError" in r.error for r in report.rows)
        averages = report.averages()
        assert averages[(0.1, "sp")]["failures"] == 2
        assert averages[(0.1, "sp")]["k_hat"] is None

    def test_exports(self, tmp_path):
        report = run_benchmark([0.1], replicates=2, methods=("sp",), config=FAST,
                               master_seed=5)
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        report.export_csv(csv_path)
        report.export_json(json_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("sigma,method,replicate")
        payload = json.loads(json_path.read_text())
        assert payload[0]["method"] == "sp"
        assert payload[0]["replicates"] == 2

    def test_replicates_must_be_positive(self):
        with pytest.raises(ValueError):
            run_benchmark([0.1], replicates=0, config=FAST)

    def test_series_too_short_to_simulate_is_rejected_up_front(self):
        with pytest.raises(ValidationError, match="n must be >= 25"):
            run_benchmark([0.1], replicates=1, config=FAST, n=24)


class TestNoiseFreeRecovery:
    def test_exact_detection_on_most_seeds(self):
        # noise-free series at the standard settings recover the
        # change-points exactly on at least 18 of 20 replicates
        report = run_benchmark([0.0], replicates=20, methods=("sp",),
                               config=RunConfig.default(), master_seed=77,
                               n_jobs=2)
        clean = sum(1 for r in report.rows
                    if r.ok and r.fdr_bp == 0.0 and r.fnr_bp == 0.0)
        assert clean >= 18


class TestLowNoiseSelectionQuality:
    def test_detection_rates_at_easy_noise(self):
        # pilot-pinned bounds (master seed 2024, 20 replicates): both
        # change-point rates stay under 0.15 and both atom rates under 0.25
        report = run_benchmark([0.1], replicates=20, methods=("sp",),
                               config=RunConfig.default(), master_seed=2024,
                               n_jobs=2)
        summary = report.averages()[(0.1, "sp")]
        assert summary["failures"] == 0
        assert summary["fdr_bp"] <= 0.15
        assert summary["fnr_bp"] <= 0.15
        assert summary["fdr_f"] <= 0.25
        assert summary["fnr_f"] <= 0.25
