import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from dictseg import RunConfig, fit_series, load_config, resolve_design
from dictseg import io as dio
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


# a field left out of a metrics input
MISSING = object()


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


    def test_unwritable_output_is_a_data_error(self, workspace, capsys):
        code = main(["simulate", "--out", str(workspace / "missing" / "x.csv")])
        assert code == 2
        assert "error (data)" in capsys.readouterr().err

    def test_negative_seed_is_a_validation_error(self, workspace, capsys):
        out = workspace / "series.csv"
        assert main(["simulate", "--seed", "-2", "--out", str(out)]) == 2
        assert "error (validation)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_bad_sigma_is_a_validation_error(self, workspace, capsys, sigma):
        out, truth = workspace / "series.csv", workspace / "truth.json"
        assert main(["simulate", "--sigma", sigma, "--out", str(out),
                     "--truth", str(truth)]) == 2
        assert "error (validation): sigma must be a finite number" in capsys.readouterr().err
        assert not out.exists() and not truth.exists()


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

    @pytest.mark.parametrize("mode", ["sp", "p"])
    def test_staged_fit_equals_one_shot(self, workspace, mode):
        series = workspace / "series.csv"
        assert main(["simulate", "--n", "100", "--sigma", "0.5", "--seed", "3",
                     "--out", str(series)]) == 0
        args = ["fit", "--input", str(series), "--mode", mode,
                "--config", str(workspace / "fast.cfg"), "--seed", "5"]
        one, staged = workspace / "one", workspace / "staged"
        assert main(args + ["--out-dir", str(one), "--save-trace", "--save-draws"]) == 0
        assert main(args + ["--out-dir", str(staged), "--stage", "mh", "--save-trace"]) == 0
        assert main(args + ["--out-dir", str(staged), "--stage", "gibbs", "--save-draws",
                            "--selection", str(staged / "selection.json")]) == 0
        for name in ("selection.json", "mh_trace.csv", "reconstruction.csv",
                     "gibbs_draws.csv"):
            assert (staged / name).read_bytes() == (one / name).read_bytes(), name
        # the coefficient stage alone has no search to report on
        want = json.loads((one / "summary.json").read_text())
        got = json.loads((staged / "summary.json").read_text())
        assert got.pop("acceptance") == {"overall": None, "gamma": None, "by_block": None}
        assert want.pop("acceptance")["overall"] is not None
        assert got == want

    @pytest.mark.parametrize("mode", ["sp", "p"])
    def test_fit_series_runs_the_mode_of_its_design(self, workspace, mode):
        # the library call writes what `dictseg fit` writes: mode sp when
        # given a design, mode p without one, whatever the config's mode
        series_path = workspace / "series.csv"
        assert main(["simulate", "--n", "100", "--sigma", "0.5", "--seed", "3",
                     "--out", str(series_path)]) == 0
        cli = workspace / "cli"
        assert main(["fit", "--input", str(series_path), "--mode", mode, "--out-dir", str(cli),
                     "--config", str(workspace / "fast.cfg"), "--seed", "5",
                     "--save-trace", "--save-draws"]) == 0
        cfg = load_config(workspace / "fast.cfg", base=replace(RunConfig(), seed=5))
        series = dio.load_series(series_path)
        design = labels = None
        if mode == "sp":
            design, labels = resolve_design(cfg.dictionary, series)
        mh_seed, gibbs_seed = cfg.seeds()
        hyper = cfg.hyperparameters(series.n, design.num_atoms if design else None)
        out = fit_series(series, hyper, cfg.mh_config(seed=mh_seed),
                         cfg.gibbs_config(seed=gibbs_seed), design=design)
        assert out.fit.mode == mode
        lib = workspace / "lib"
        dio.write_results(out.fit, out.mh_trace, series, lib, atom_labels=labels)
        dio.write_selection(out.selection, lib / "selection.json")
        dio.write_trace(out.mh_trace, lib / "mh_trace.csv")
        dio.write_draws(out.fit.trace, lib / "gibbs_draws.csv")
        for name in ("selection.json", "mh_trace.csv", "inclusion.csv", "reconstruction.csv",
                     "summary.json", "gibbs_draws.csv"):
            assert (lib / name).read_bytes() == (cli / name).read_bytes(), name

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

    @pytest.mark.parametrize("field,value", [
        pytest.param("n", MISSING, id="n"),
        pytest.param("change_points", MISSING, id="change_points"),
        pytest.param("means", MISSING, id="means"),
        # present, of the wrong type
        pytest.param("n", "abc", id="n-string"),
        pytest.param("n", 0, id="n-zero"),
        pytest.param("n", -3, id="n-negative"),
        pytest.param("change_points", 4, id="change_points-number"),
        pytest.param("change_points", [[4]], id="change_points-nested"),
        pytest.param("means", ["a", 1.0], id="means-string"),
    ])
    def test_metrics_input_without_a_field_is_a_data_error(self, workspace, capsys, field,
                                                           value):
        truth = {"n": 10, "change_points": [4], "means": [0.0, 1.0]}
        estimate = workspace / "estimate.json"
        estimate.write_text(json.dumps(truth))
        if value is MISSING:
            del truth[field]
        else:
            truth[field] = value
        (workspace / "truth.json").write_text(json.dumps(truth))
        code = main(["metrics", "--estimate", str(estimate),
                     "--truth", str(workspace / "truth.json")])
        assert code == 2
        path = workspace / "truth.json"
        want = f"{path} lacks {field}" if value is MISSING else f"{path}: {field} must be"
        assert f"error (data): {want}" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["option", "config"])
    def test_negative_seed_is_a_validation_error(self, workspace, capsys, how):
        series = workspace / "series.csv"
        assert main(["simulate", "--n", "60", "--out", str(series)]) == 0
        args = ["fit", "--input", str(series), "--out-dir", str(workspace / "x"), "--mode", "p"]
        if how == "option":
            args += ["--seed", "-1"]
        else:
            (workspace / "seed.cfg").write_text("seed = -1\n")
            args += ["--config", str(workspace / "seed.cfg")]
        assert main(args) == 2
        assert "error (validation): seed must be nonnegative" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_series_label_with_carriage_return_is_a_data_error(self, workspace, capsys):
        # csv.writer would write the label unquoted and split its row
        values = np.random.default_rng(1).normal(size=40).tolist()
        labels = [f"d{i}" for i in range(1, 41)]
        labels[5] = '"d\r6"'
        series = workspace / "series.csv"
        series.write_text("".join(f"{lab},{v!r}\n" for lab, v in zip(labels, values)))
        code = main(["fit", "--input", str(series), "--out-dir", str(workspace / "x"),
                     "--mode", "p", "--config", str(workspace / "fast.cfg")])
        assert code == 2
        assert (f"error (data): {series}: row 6 has a carriage return in its label"
                in capsys.readouterr().err)
        assert not (workspace / "x").exists()

    def test_design_label_with_carriage_return_is_a_data_error(self, workspace, capsys):
        series = workspace / "series.csv"
        main(["simulate", "--n", "60", "--sigma", "0.1", "--seed", "4",
              "--out", str(series)])
        F = np.random.default_rng(2).normal(size=(60, 3))
        F[:, 0] = 1.0
        design = workspace / "design.csv"
        design.write_text('a0,"a\r1",a2\n'
                          + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in F))
        code = main(["fit", "--input", str(series), "--out-dir", str(workspace / "x"),
                     "--mode", "sp", "--dictionary", f"file:{design}",
                     "--config", str(workspace / "fast.cfg")])
        assert code == 2
        assert (f"error (data): {design}: row 1 has a carriage return in an atom label"
                in capsys.readouterr().err)
        assert not (workspace / "x").exists()

    def test_negative_tolerance_is_a_validation_error(self, workspace, capsys):
        truth = workspace / "truth.json"
        truth.write_text(json.dumps({"n": 10, "change_points": [4], "means": [0.0, 1.0]}))
        code = main(["metrics", "--estimate", str(truth), "--truth", str(truth),
                     "--tolerance", "-1"])
        assert code == 2
        assert "error (validation): tolerance must be >= 0" in capsys.readouterr().err

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
        "inclusion.csv": "5e437c1faade00949601ff39ebb50a6530dfcab40eff2496b0141aa25af432be",
        "mh_trace.csv": "89ddf3d7ea02aea5c4dafa9f0dc97a759451b0cd9a9e7e1bc8f3a6acb76ef7d0",
    },
    "p": {
        "selection.json": "2bc5860db375244fdc371415fb2377e97186257328d322343c8a9584ad19ce7f",
        "inclusion.csv": "a2325b96ae98ba325d07ae0e4eaad77cab1a360474ff6938b1c7eed96b4f108c",
        "mh_trace.csv": "8f14376720eb26ce6894528164ca62cd2c1795a2930aabd699fb35838107479c",
    },
}


# sha256 of the estimate files of the same fits; the coefficient stage's
# rounding and the result files' format change them too
ESTIMATE_DIGESTS = {
    "sp": {
        "summary.json": "59b17e8129728ac7d1e2dd01632f748db383cb93f06af04b3aa495a2a0aa1d87",
        "reconstruction.csv": "b543e44d70a630a55cac13d357f57082aa8f49b81ceb99955f7e4e55dc1edb31",
    },
    "p": {
        "summary.json": "3122a1c1e4f6f147280bc585cc742def9b2feae70ee86da9d427afb36df144d1",
        "reconstruction.csv": "41466e97dd1c0c5ff90735bf436c4a81c62ef0eac6e3280844081bf8c106d07f",
    },
}


# sha256 of the search-stage files of the same mode-sp fit with
# single-bit flips (flip_gamma = flip_r = 1, as in the application
# preset), whose proposals each take one half-word of the random stream
SINGLE_FLIP_DIGESTS = {
    "selection.json": "22e1cbc7a36fdaef58fb03fd3cb563d8f1f5af97056e77dd470fd0f3ad4baa8a",
    "mh_trace.csv": "81b5bfb3c4b5b5405d57e475fd9550d6978e3d06e6d266ac8965022f6c025619",
}


# sha256 of every file of a seeded point100 fit of a simulated n = 2000
# series at the wide-point benchmark's chain lengths, a design large
# enough for the context to hold its point atoms in closed form; the
# selection holds two point atoms, so the estimates read them too
POINT_FIT_CFG = "iterations = 600\nburn_in = 150\ngibbs_iterations = 3000\ngibbs_burn_in = 750\n"
POINT_FIT_DIGESTS = {
    "selection.json": "0c7593a17a8d836ae182cdf00d23e246c8d763fda41ffac9d3cfd7d1410bb584",
    "inclusion.csv": "1083e9752cff4cdd8a458a1d921afe751122b4b9e36f5b29654cbfb86918439c",
    "mh_trace.csv": "fccc763eedffd27c2920be56e6c000d229f70b80c5142fd1bed1fc2f51a259db",
    "summary.json": "16ebff08b29f632162a28774bde8d401fdb02ffcd148daff9e688ac3d52b3b44",
    "reconstruction.csv": "f6fa8a9fba68d21451d20b1c19256f090d5873e8f2e85148b0699293b5f6d29f",
    "gibbs_draws.csv": "91f996bc1885dc49542d5e2f5ff94296fcb401855fb8467bd28d4da5e24a1374",
}
# sha256 of ``dictseg dict --preset simulation_n100:point100 --n 100``
POINT_DICT_DIGEST = "78e618991434b529e0f9d16813f40a9c792ca85584ff72ece7f06f702bbb6293"


class TestDeterminismPin:
    @pytest.fixture(scope="class", params=["sp", "p"])
    def fit(self, request, tmp_path_factory):
        """(mode, output directory) of one seeded default fit."""
        mode = request.param
        tmp_path = tmp_path_factory.mktemp(f"pin-{mode}")
        series = tmp_path / "series.csv"
        assert main(["simulate", "--n", "100", "--sigma", "0.5", "--seed", "3",
                     "--out", str(series)]) == 0
        out_dir = tmp_path / "fit"
        assert main(["fit", "--input", str(series), "--out-dir", str(out_dir),
                     "--mode", mode, "--seed", "7", "--save-trace"]) == 0
        return mode, out_dir

    @staticmethod
    def digests(out_dir, names):
        return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in names}

    def test_search_files_keep_their_digests(self, fit):
        mode, out_dir = fit
        assert self.digests(out_dir, SEARCH_DIGESTS[mode]) == SEARCH_DIGESTS[mode]

    def test_estimate_files_keep_their_digests(self, fit):
        mode, out_dir = fit
        assert self.digests(out_dir, ESTIMATE_DIGESTS[mode]) == ESTIMATE_DIGESTS[mode]

    def test_single_flip_search_files_keep_their_digests(self, tmp_path):
        series, cfg = tmp_path / "series.csv", tmp_path / "single.cfg"
        cfg.write_text("flip_gamma = 1\nflip_r = 1\n")
        assert main(["simulate", "--n", "100", "--sigma", "0.5", "--seed", "3",
                     "--out", str(series)]) == 0
        assert main(["fit", "--input", str(series), "--out-dir", str(tmp_path / "fit"),
                     "--mode", "sp", "--seed", "7", "--save-trace", "--config", str(cfg)]) == 0
        assert self.digests(tmp_path / "fit", SINGLE_FLIP_DIGESTS) == SINGLE_FLIP_DIGESTS

    def test_point_design_files_keep_their_digests(self, tmp_path):
        series, cfg = tmp_path / "series.csv", tmp_path / "wide.cfg"
        cfg.write_text(POINT_FIT_CFG)
        assert main(["simulate", "--n", "2000", "--sigma", "0.5", "--seed", "3",
                     "--out", str(series)]) == 0
        out_dir = tmp_path / "fit"
        assert main(["fit", "--input", str(series), "--out-dir", str(out_dir),
                     "--dictionary", "simulation_n100:point100", "--seed", "7",
                     "--save-trace", "--save-draws", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(POINT_FIT_DIGESTS)
        assert self.digests(out_dir, POINT_FIT_DIGESTS) == POINT_FIT_DIGESTS
        assert main(["dict", "--preset", "simulation_n100:point100", "--n", "100",
                     "--out", str(tmp_path / "design.csv")]) == 0
        assert self.digests(tmp_path, ["design.csv"]) == {"design.csv": POINT_DICT_DIGEST}


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

    def test_fourier_design_past_physical_memory_exits_2_at_once(self, workspace, capsys):
        start = time.perf_counter()
        code = main(["dict", "--preset", "fourier:floor=1e-9",
                     "--out", str(workspace / "d.csv")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "physical memory" in capsys.readouterr().err
        assert not (workspace / "d.csv").exists()

    @pytest.mark.parametrize("n", ["-1", "0", "1"])
    def test_series_shorter_than_two_is_rejected(self, workspace, capsys, n):
        code = main(["dict", "--preset", "simulation_n100", "--n", n,
                     "--out", str(workspace / "d.csv")])
        assert code == 2
        assert "error (validation)" in capsys.readouterr().err
        assert not (workspace / "d.csv").exists()

    def test_unknown_preset(self, workspace, capsys):
        code = main(["dict", "--preset", "wavelets", "--n", "10",
                     "--out", str(workspace / "d.csv")])
        assert code == 2
        assert "error (validation)" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["simulation_n100xyz", "fourierZZ", "fourier:floor=abc",
                                        "simulation_n100:"])
    def test_inexact_preset_is_rejected(self, workspace, capsys, preset):
        # a spec is read whole: no known prefix stands in for the rest
        code = main(["dict", "--preset", preset, "--n", "10",
                     "--out", str(workspace / "d.csv")])
        assert code == 2
        assert "error (validation)" in capsys.readouterr().err
        assert not (workspace / "d.csv").exists()


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
                                        ["--sigmas", "0.1,-1"], ["--sigmas", "inf"],
                                        ["--sigmas", "0.1,nan"], ["--methods", "sp,pp"],
                                        ["--seed", "-3"], ["--n", "24"], ["--jobs", "-3"]],
                             ids=["replicates", "sigmas", "negative-sigma", "infinite-sigma",
                                  "nan-sigma", "methods", "negative-seed", "short-series",
                                  "jobs"])
    def test_bad_input_is_a_validation_error(self, workspace, capsys, option):
        code = main(["bench", "--sigmas", "0.1", "--replicates", "1",
                     "--config", str(workspace / "fast.cfg"), *option,
                     "--out-dir", str(workspace / "bench")])
        assert code == 2
        assert "error (validation)" in capsys.readouterr().err
        assert not (workspace / "bench").exists()
