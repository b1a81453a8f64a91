import hashlib
import json

import numpy as np
import pytest

from dictseg.cli import main

FAST_CFG = """\
iterations = 1500
burn_in = 300
gibbs_iterations = 800
gibbs_burn_in = 200
flip_gamma = 1
flip_r = 1
init_segments = 2
init_functions = 2
"""


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    return tmp_path


class TestSimulate:
    def test_writes_series_and_truth(self, workspace, capsys):
        out = workspace / "series.csv"
        truth = workspace / "truth.json"
        code = main(["simulate", "--n", "100", "--sigma", "0.1", "--seed", "3",
                     "--out", str(out), "--truth", str(truth)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 101
        payload = json.loads(truth.read_text())
        assert payload["n"] == 100
        assert len(payload["change_points"]) == 3
        assert len(payload["f_true"]) == 100


class TestFitAndMetrics:
    def test_full_pipeline(self, workspace, capsys):
        series = workspace / "series.csv"
        truth = workspace / "truth.json"
        out_dir = workspace / "fit"
        assert main(["simulate", "--n", "100", "--sigma", "0.1", "--seed", "3",
                     "--out", str(series), "--truth", str(truth)]) == 0
        assert main(["fit", "--input", str(series), "--out-dir", str(out_dir),
                     "--mode", "sp", "--dictionary", "simulation_n100:point100",
                     "--config", str(workspace / "fast.cfg"), "--seed", "1"]) == 0
        summary = out_dir / "summary.json"
        assert summary.exists()
        assert (out_dir / "inclusion.csv").exists()
        assert (out_dir / "reconstruction.csv").exists()
        assert (out_dir / "selection.json").exists()
        report = workspace / "metrics.json"
        assert main(["metrics", "--estimate", str(summary), "--truth", str(truth),
                     "--out", str(report)]) == 0
        scores = json.loads(report.read_text())
        assert set(scores) >= {"rmse_mu", "fdr_bp", "fnr_bp"}

    def test_staged_fit(self, workspace):
        series = workspace / "series.csv"
        assert main(["simulate", "--n", "60", "--sigma", "0.1", "--seed", "4",
                     "--out", str(series)]) == 0
        stage_dir = workspace / "staged"
        assert main(["fit", "--input", str(series), "--out-dir", str(stage_dir),
                     "--mode", "p", "--config", str(workspace / "fast.cfg"),
                     "--stage", "mh", "--seed", "2"]) == 0
        selection = stage_dir / "selection.json"
        assert selection.exists()
        assert main(["fit", "--input", str(series), "--out-dir", str(stage_dir),
                     "--mode", "p", "--config", str(workspace / "fast.cfg"),
                     "--stage", "gibbs", "--selection", str(selection),
                     "--seed", "2"]) == 0
        summary = json.loads((stage_dir / "summary.json").read_text())
        assert summary["mode"] == "p"

    def test_gibbs_stage_requires_selection(self, workspace, capsys):
        series = workspace / "series.csv"
        main(["simulate", "--n", "60", "--sigma", "0.1", "--seed", "4",
              "--out", str(series)])
        code = main(["fit", "--input", str(series), "--out-dir",
                     str(workspace / "x"), "--mode", "p", "--stage", "gibbs"])
        assert code == 2
        assert "error (validation)" in capsys.readouterr().err

    def test_event_priors_flow_into_fit(self, workspace):
        series = workspace / "series.csv"
        main(["simulate", "--n", "60", "--sigma", "0.1", "--seed", "4",
              "--out", str(series)])
        events = workspace / "events.csv"
        events.write_text("12,0.5\n")
        out_dir = workspace / "events_fit"
        assert main(["fit", "--input", str(series), "--out-dir", str(out_dir),
                     "--mode", "p", "--config", str(workspace / "fast.cfg"),
                     "--event-priors", str(events), "--seed", "2"]) == 0

    def test_missing_input_is_a_data_error(self, workspace, capsys):
        code = main(["fit", "--input", str(workspace / "none.csv"),
                     "--out-dir", str(workspace / "y"), "--mode", "p"])
        assert code == 2
        assert "error (data)" in capsys.readouterr().err

    def test_determinism_byte_identical(self, workspace):
        series = workspace / "series.csv"
        main(["simulate", "--n", "60", "--sigma", "0.1", "--seed", "4",
              "--out", str(series)])
        args = ["fit", "--input", str(series), "--mode", "p",
                "--config", str(workspace / "fast.cfg"), "--seed", "11"]
        assert main(args + ["--out-dir", str(workspace / "r1")]) == 0
        assert main(args + ["--out-dir", str(workspace / "r2")]) == 0
        for name in ("summary.json", "inclusion.csv", "reconstruction.csv"):
            assert ((workspace / "r1" / name).read_bytes()
                    == (workspace / "r2" / name).read_bytes())

    def test_draws_only_with_save_draws(self, workspace):
        series = workspace / "series.csv"
        main(["simulate", "--n", "60", "--sigma", "0.1", "--seed", "4",
              "--out", str(series)])
        args = ["fit", "--input", str(series), "--mode", "sp",
                "--dictionary", "exchange",
                "--config", str(workspace / "fast.cfg"), "--seed", "11"]
        assert main(args + ["--out-dir", str(workspace / "plain")]) == 0
        assert not (workspace / "plain" / "gibbs_draws.csv").exists()
        for name in ("d1", "d2"):
            assert main(args + ["--out-dir", str(workspace / name), "--save-draws"]) == 0
        first = (workspace / "d1" / "gibbs_draws.csv").read_bytes()
        assert len(first.decode().splitlines()) == 1 + 800  # header + gibbs_iterations
        assert first == (workspace / "d2" / "gibbs_draws.csv").read_bytes()

    def test_gibbs_stage_draws_only_with_save_draws(self, workspace):
        series = workspace / "series.csv"
        main(["simulate", "--n", "60", "--sigma", "0.1", "--seed", "4",
              "--out", str(series)])
        selection = workspace / "selection.json"
        selection.write_text(json.dumps({"positions": [1, 20, 40]}))
        args = ["fit", "--input", str(series), "--mode", "p", "--stage", "gibbs",
                "--selection", str(selection),
                "--config", str(workspace / "fast.cfg"), "--seed", "2"]
        assert main(args + ["--out-dir", str(workspace / "plain")]) == 0
        assert not (workspace / "plain" / "gibbs_draws.csv").exists()
        assert main(args + ["--out-dir", str(workspace / "draws"), "--save-draws"]) == 0
        lines = (workspace / "draws" / "gibbs_draws.csv").read_text().splitlines()
        assert lines[0] == "iteration,beta@1,beta@20,beta@40,sigma2"
        assert len(lines) == 1 + 800

    def test_gibbs_stage_rejects_dependent_atoms(self, workspace, capsys):
        series = workspace / "series.csv"
        main(["simulate", "--n", "60", "--sigma", "0.1", "--seed", "4",
              "--out", str(series)])
        # atom 5 of the design file is the sum of atoms 3 and 4
        F = np.random.default_rng(2).normal(size=(60, 6))
        F[:, 0] = 1.0
        F[:, 4] = F[:, 2] + F[:, 3]
        design = workspace / "design.csv"
        design.write_text(",".join(f"a{j}" for j in range(6)) + "\n"
                          + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in F))
        selection = workspace / "selection.json"
        selection.write_text(json.dumps({"positions": [1, 20, 40], "atoms": [1, 3, 4, 5]}))
        code = main(["fit", "--input", str(series), "--out-dir", str(workspace / "x"),
                     "--mode", "sp", "--dictionary", f"file:{design}", "--stage", "gibbs",
                     "--selection", str(selection), "--config", str(workspace / "fast.cfg")])
        assert code == 2
        assert "error (compute)" in capsys.readouterr().err

    def test_run_preset_with_application_preset_is_rejected(self, workspace, capsys):
        series = workspace / "series.csv"
        main(["simulate", "--n", "60", "--sigma", "0.1", "--seed", "4",
              "--out", str(series)])
        code = main(["fit", "--input", str(series), "--out-dir", str(workspace / "x"),
                     "--mode", "p", "--preset", "application", "--run", "3"])
        assert code == 2
        assert "error (validation)" in capsys.readouterr().err


# sha256 of the search-stage files of one seeded default-preset fit of a
# simulated n = 100 series; any change to the search's random stream, its
# scores or its file format changes them
SEARCH_DIGESTS = {
    "sp": {
        "selection.json": "5c2c29c2e239cec0d533870f2ec84981d43b523a7d95c235d6c395237336b3a7",
        "inclusion.csv": "beb9dd35407cf3e17c11d939c0617fda0317d23afff5ec4190ff774c44b43343",
        "mh_trace.csv": "89ddf3d7ea02aea5c4dafa9f0dc97a759451b0cd9a9e7e1bc8f3a6acb76ef7d0",
    },
    "p": {
        "selection.json": "2bc5860db375244fdc371415fb2377e97186257328d322343c8a9584ad19ce7f",
        "inclusion.csv": "d47aa031416acc8c4d0b8a5119a3dd27f0c2780dc501d95159e0962e0a1dcad2",
        "mh_trace.csv": "8f14376720eb26ce6894528164ca62cd2c1795a2930aabd699fb35838107479c",
    },
}


class TestDeterminismPin:
    @pytest.mark.parametrize("mode", ["sp", "p"])
    def test_search_files_keep_their_digests(self, tmp_path, mode):
        series = tmp_path / "series.csv"
        assert main(["simulate", "--n", "100", "--sigma", "0.5", "--seed", "3",
                     "--out", str(series)]) == 0
        out_dir = tmp_path / "fit"
        assert main(["fit", "--input", str(series), "--out-dir", str(out_dir),
                     "--mode", mode, "--seed", "7", "--save-trace"]) == 0
        digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                   for name in SEARCH_DIGESTS[mode]}
        assert digests == SEARCH_DIGESTS[mode]


class TestDict:
    def test_design_matrix_export(self, workspace):
        out = workspace / "design.csv"
        assert main(["dict", "--preset", "simulation_n100", "--n", "100",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 101
        assert len(lines[0].split(",")) == 151

    def test_point_variant(self, workspace):
        out = workspace / "design.csv"
        assert main(["dict", "--preset", "simulation_n100:point100", "--n", "100",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()[0].split(",")) == 123

    def test_unknown_preset(self, workspace, capsys):
        code = main(["dict", "--preset", "wavelets", "--n", "10",
                     "--out", str(workspace / "d.csv")])
        assert code == 2
        assert "error (validation)" in capsys.readouterr().err


class TestBench:
    def test_tiny_batch(self, workspace):
        cfg = workspace / "bench.cfg"
        cfg.write_text("iterations = 800\nburn_in = 200\n"
                       "gibbs_iterations = 400\ngibbs_burn_in = 100\n")
        out_dir = workspace / "bench"
        assert main(["bench", "--sigmas", "0.1", "--replicates", "2",
                     "--methods", "sp,p", "--seed", "5", "--jobs", "1",
                     "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "replicates.csv").read_text().splitlines()
        assert len(rows) == 1 + 4  # header + 2 replicates x 2 methods
        summary = json.loads((out_dir / "summary.json").read_text())
        assert {s["method"] for s in summary} == {"sp", "p"}

    def test_run_preset_with_application_preset_is_rejected(self, workspace, capsys):
        code = main(["bench", "--sigmas", "0.1", "--replicates", "1",
                     "--preset", "application", "--run", "3",
                     "--out-dir", str(workspace / "bench")])
        assert code == 2
        assert "error (validation)" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--replicates", "0"], ["--sigmas", "0.1,abc"],
                                        ["--sigmas", "0.1,-1"], ["--methods", "sp,pp"]],
                             ids=["replicates", "sigmas", "negative-sigma", "methods"])
    def test_bad_input_is_a_validation_error(self, workspace, capsys, option):
        code = main(["bench", "--sigmas", "0.1", "--replicates", "1",
                     "--config", str(workspace / "fast.cfg"), *option,
                     "--out-dir", str(workspace / "bench")])
        assert code == 2
        assert "error (validation)" in capsys.readouterr().err
        assert not (workspace / "bench").exists()
