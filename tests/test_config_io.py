import json

import numpy as np
import pytest

from dictseg import (
    DataError,
    EventPriorFile,
    GibbsConfig,
    Hyperparameters,
    MHConfig,
    RunConfig,
    TimeSeries,
    ValidationError,
    apply_event_priors,
    derive_seeds,
    load_event_priors,
    load_selection,
    load_series,
    parse_config,
    sensitivity_presets,
    serialize_config,
    write_results,
    write_selection,
)
from dictseg.config import load_config


class TestRunConfig:
    def test_simulation_defaults(self):
        cfg = RunConfig.default()
        assert (cfg.iterations, cfg.burn_in) == (20000, 5000)
        assert (cfg.c1, cfg.c2) == (50.0, 50.0)
        assert (cfg.init_segments, cfg.init_functions) == (3, 3)
        assert (cfg.flip_gamma, cfg.flip_r) == (2, 2)
        assert (cfg.pi, cfg.eta) == (0.01, 0.01)
        assert (cfg.gibbs_iterations, cfg.gibbs_burn_in) == (20000, 5000)

    def test_application_preset(self):
        cfg = RunConfig.application()
        assert (cfg.iterations, cfg.burn_in) == (100_000, 30_000)
        assert (cfg.gibbs_iterations, cfg.gibbs_burn_in) == (100_000, 50_000)
        assert (cfg.init_segments, cfg.init_functions) == (5, 5)
        assert (cfg.flip_gamma, cfg.flip_r) == (1, 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RunConfig(burn_in=30000).validate()
        nan, inf = float("nan"), float("inf")
        for prior in ({"c1": -1}, {"c2": 0}, {"pi": 1.5}, {"eta": -0.1},
                      {"c1": nan}, {"c2": nan}, {"pi": nan}, {"eta": nan},
                      {"c1": inf}, {"c2": inf}):
            with pytest.raises(ValidationError):
                RunConfig(**prior).validate()
        for key in ("c1", "c2"):
            with pytest.raises(ValidationError, match=f"{key} must be finite and positive"):
                parse_config(f"{key} = inf\n")
        with pytest.raises(ValidationError):
            RunConfig(mode="both").validate()

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig(seed=-1).validate()
        with pytest.raises(ValidationError):
            derive_seeds(-1, 2)

    def test_stage_configs_reject_a_negative_seed(self):
        for make in (lambda seed: MHConfig(seed=seed),
                     lambda seed: GibbsConfig(seed=seed, store_trace=False)):
            with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
                make(-1)
            assert make(0).seed == 0

    def test_gibbs_burn_in_is_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gibbs_iterations = 800\n")
        cfg = load_config(path)
        assert (cfg.gibbs_iterations, cfg.gibbs_burn_in) == (800, 5000)
        with pytest.raises(ValidationError):
            parse_config("gibbs_iterations = 0\n")

    def test_sub_configs_inherit_values(self):
        cfg = RunConfig(iterations=500, burn_in=100, seed=9)
        mh = cfg.mh_config()
        assert isinstance(mh, MHConfig)
        assert (mh.total_iterations, mh.burn_in, mh.seed) == (500, 100, 9)
        gibbs = cfg.gibbs_config(seed=4)
        assert isinstance(gibbs, GibbsConfig)
        assert gibbs.seed == 4

    def test_hyperparameters_expansion(self):
        cfg = RunConfig(pi=0.05, eta=0.2)
        hyper = cfg.hyperparameters(10, 4)
        assert hyper.pi[0] == 1.0
        np.testing.assert_array_equal(hyper.pi[1:], np.full(9, 0.05))
        np.testing.assert_array_equal(hyper.eta[1:], np.full(3, 0.2))


class TestConfigFile:
    def test_parse_overrides(self):
        cfg = parse_config("c1 = 10\niterations = 1000\nburn_in = 100\n"
                           "# comment\nmode = p\n")
        assert cfg.c1 == 10.0
        assert cfg.iterations == 1000
        assert cfg.mode == "p"

    def test_round_trip_is_idempotent(self):
        cfg = RunConfig(c1=12.5, iterations=777, burn_in=77, dictionary="exchange")
        text = serialize_config(cfg)
        once = parse_config(text)
        assert once == cfg
        assert serialize_config(parse_config(serialize_config(once))) == text

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="line 1"):
            parse_config("c3 = 10\n")

    def test_bad_value_rejected(self):
        with pytest.raises(DataError, match="line 2"):
            parse_config("c1 = 10\niterations = ten\n")

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("flip_gamma = 1\nflip_r = 1\n")
        cfg = load_config(path)
        assert (cfg.flip_gamma, cfg.flip_r) == (1, 1)


class TestSensitivityPresets:
    def test_grid_shape(self):
        presets = sensitivity_presets()
        assert sorted(presets) == list(range(1, 22))
        for cfg in presets.values():
            assert (cfg.iterations, cfg.burn_in) == (20000, 5000)

    def test_spot_rows(self):
        presets = sensitivity_presets()
        assert presets[2].c1 == presets[2].c2 == 10.0
        assert presets[3].c1 == 500.0
        assert presets[6].init_segments == 10
        assert presets[9].init_functions == 10
        assert presets[12].flip_gamma == 5
        assert presets[15].flip_r == 5
        assert presets[16].pi == pytest.approx(1 / 20)
        assert presets[18].pi == pytest.approx(1 / 500)
        assert presets[21].eta == pytest.approx(1 / 500)
        assert presets[1] == RunConfig.default()


class TestLoadSeries:
    def test_plain_value_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n" + "\n".join(str(v) for v in range(100)) + "\n")
        series = load_series(path)
        assert series.n == 100
        assert series.labels is None

    def test_blank_value_names_the_row(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0\n\n2.0\n")  # blank line is skipped, not an error
        assert load_series(path).n == 2
        path.write_text("1.0\n \n2.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_series(path)

    def test_labels_are_retained(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,value\n2001-01-07,1.5\n2001-01-14,2.5\n")
        series = load_series(path)
        assert series.labels == ("2001-01-07", "2001-01-14")
        np.testing.assert_array_equal(series.values, [1.5, 2.5])

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0\ninf\n")
        with pytest.raises(DataError, match="row 2"):
            load_series(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_series(tmp_path / "none.csv")


class TestEventPriors:
    def base(self, n=10):
        return Hyperparameters.flat(n, None, pi=0.01)

    def series(self, n=10, labels=None):
        return TimeSeries(values=np.arange(1.0, n + 1.0), labels=labels)

    def test_two_positions_overridden(self):
        events = EventPriorFile(rows=(("4", 0.5), ("7", 0.5)))
        hyper = apply_event_priors(self.base(), events, self.series())
        assert hyper.pi[3] == 0.5 and hyper.pi[6] == 0.5
        assert hyper.pi[0] == 1.0
        assert np.sum(hyper.pi == 0.5) == 2

    def test_empty_events_change_nothing(self):
        base = self.base()
        hyper = apply_event_priors(base, EventPriorFile(rows=()), self.series())
        np.testing.assert_array_equal(hyper.pi, base.pi)

    def test_position_one_is_rejected(self):
        events = EventPriorFile(rows=(("1", 0.5),))
        with pytest.raises(ValidationError):
            apply_event_priors(self.base(), events, self.series())

    def test_label_resolution(self):
        labels = tuple(f"w{i}" for i in range(10))
        events = EventPriorFile(rows=(("w3", 0.5),))
        hyper = apply_event_priors(self.base(), events, self.series(labels=labels))
        assert hyper.pi[3] == 0.5

    def test_unresolvable_label(self):
        events = EventPriorFile(rows=(("nope", 0.5),))
        labels = tuple(f"w{i}" for i in range(10))
        with pytest.raises(DataError):
            apply_event_priors(self.base(), events, self.series(labels=labels))

    def test_duplicate_positions_rejected(self):
        events = EventPriorFile(rows=(("4", 0.5), ("4", 0.6)))
        with pytest.raises(ValidationError):
            apply_event_priors(self.base(), events, self.series())

    def test_probability_domain(self):
        events = EventPriorFile(rows=(("4", 1.0),))
        with pytest.raises(ValidationError):
            apply_event_priors(self.base(), events, self.series())

    def test_file_loader(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("4,0.5\n7,0.5\n")
        events = load_event_priors(path)
        assert events.rows == (("4", 0.5), ("7", 0.5))


class TestSelectionFiles:
    def test_round_trip(self, tmp_path):
        from conftest import make_state
        state = make_state([1, 8, 19], 30, [1, 4], 6)
        path = tmp_path / "selection.json"
        write_selection(state, path)
        back = load_selection(path, 30, 6)
        np.testing.assert_array_equal(back.gamma, state.gamma)
        np.testing.assert_array_equal(back.r, state.r)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "selection.json"
        path.write_text(json.dumps({"positions": [1, 99]}))
        with pytest.raises(DataError):
            load_selection(path, 30, None)

    @pytest.mark.parametrize("payload", [{"positions": [1.5]}, {"positions": ["3"]},
                                         {"positions": [True]}, {"positions": 4},
                                         {"positions": [2], "atoms": [2.0]}, [1, 2]],
                             ids=["float", "string", "bool", "not-a-list", "float-atom",
                                  "not-an-object"])
    def test_non_integer_entry_rejected(self, tmp_path, payload):
        path = tmp_path / "selection.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_selection(path, 30, 6)


class TestWriteResults:
    def fit_and_write(self, tmp_path, mode="sp"):
        from dictseg import (MODE_P, MODE_SP, PosteriorContext,
                             inclusion_probabilities, run_gibbs,
                             run_metropolis_hastings,
                             select_median_probability_model)
        from conftest import small_context
        ctx = small_context(n=12, mode=MODE_SP if mode == "sp" else MODE_P)
        cfg = MHConfig(total_iterations=400, burn_in=100, flip_gamma=1, flip_r=1,
                       init_segments=2, init_functions=2, seed=5)
        trace = run_metropolis_hastings(ctx, cfg)
        incl = inclusion_probabilities(trace, cfg.burn_in)
        sel = select_median_probability_model(incl)
        fit = run_gibbs(ctx, sel, GibbsConfig(total_iterations=300, seed=6),
                        inclusion=incl)
        labels = ctx.design.labels if ctx.design is not None else None
        return write_results(fit, trace, ctx.series, tmp_path / mode,
                             atom_labels=labels)

    def test_sp_outputs(self, tmp_path):
        paths = self.fit_and_write(tmp_path, "sp")
        summary = json.loads(paths["summary"].read_text())
        assert summary["mode"] == "sp"
        assert "selected_atoms" in summary and "f_hat" in summary
        assert len(summary["f_hat"]) == 12
        header = paths["reconstruction"].read_text().splitlines()[0]
        assert header == "t,y,mu_hat,f_hat,fit"
        lines = paths["inclusion"].read_text().splitlines()
        assert len(lines) == 1 + 12 + 3  # header + positions + atoms

    def test_p_mode_outputs_have_no_functional_fields(self, tmp_path):
        paths = self.fit_and_write(tmp_path, "p")
        summary = json.loads(paths["summary"].read_text())
        assert "selected_atoms" not in summary and "f_hat" not in summary
        header = paths["reconstruction"].read_text().splitlines()[0]
        assert header == "t,y,mu_hat,fit"

    def test_rerun_is_byte_identical(self, tmp_path):
        first = self.fit_and_write(tmp_path / "a")
        second = self.fit_and_write(tmp_path / "b")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()

    def test_recovered_particular_series_summary(self, tmp_path):
        # coefficient stage on the exactly recovered model: the summary
        # lists the three change-points and the selection-table labels
        from dictseg import (MODE_SP, GibbsConfig, PosteriorContext, make_series,
                             run_gibbs, simulation_design)
        from conftest import make_state
        n = 100
        noise = np.random.default_rng(2033).normal(0, 0.1, n)
        noise[35] = 0.5
        series, _ = make_series(n, (7, 18, 36), (2.0, 0.0, 2.0, 3.0), 0.1,
                                noise=noise)
        design = simulation_design(series.covariate, "point100")
        hyper = Hyperparameters.flat(n, design.num_atoms)
        ctx = PosteriorContext(series, hyper, design, MODE_SP)
        selection = make_state([1, 8, 19, 37], n, [1, 11, 51, 61, 110],
                               design.num_atoms)
        fit = run_gibbs(ctx, selection, GibbsConfig(seed=3, store_trace=False))
        paths = write_results(fit, None, series, tmp_path,
                              atom_labels=design.labels)
        summary = json.loads(paths["summary"].read_text())
        assert summary["change_points"] == [7, 18, 36]
        labels = {a["index"]: a["label"] for a in summary["selected_atoms"]}
        assert labels[11] == "Haar function at t=10"
        assert labels[110] == "sin(2π×5×t/100)"
        assert labels[1] == "constant term"
