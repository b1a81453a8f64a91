import tracemalloc

import numpy as np
import pytest

from dictseg import (
    DataError,
    DesignMatrix,
    ValidationError,
    exchange_design,
    fourier_design,
    load_design_matrix,
    simulation_design,
)

T_GRID = np.arange(1.0, 101.0)


class TestPresetSizes:
    def test_simulation_preset_has_151_atoms(self):
        assert simulation_design(T_GRID).num_atoms == 151

    def test_point_family_indexes_like_the_selection_tables(self):
        d = simulation_design(T_GRID, family="point100")
        assert d.num_atoms == 123  # 1 constant + 100 indicators + 20 Fourier + t + t^2

    def test_exchange_preset_has_23_atoms(self):
        assert exchange_design(np.arange(1.0, 1501.0)).num_atoms == 23

    def test_period_floor_count_follows_the_rule(self):
        # span/i >= floor keeps i = 1..floor(span/floor): 1 + 2*96 atoms
        d = fourier_design(np.arange(1.0, 774.0), floor=8.0)
        assert d.num_atoms == 1 + 2 * 96

    @pytest.mark.parametrize("extent", [99.0, 772.0, 0.3])
    def test_period_floor_count_matches_the_rule_at_its_edges(self, extent):
        # floors at and next to span/i, where span/i >= floor flips
        x = np.array([1.0, 1.0 + extent])
        span = float(x[-1] - x[0])
        for i in range(1, 60):
            for floor in (span / i, np.nextafter(span / i, 0), np.nextafter(span / i, np.inf)):
                count = 0
                while span / (count + 1) >= floor:
                    count += 1
                if count:
                    assert fourier_design(x, floor).num_atoms == 1 + 2 * count

    def test_period_floor_rejects_bad_floor(self):
        for floor in (0.0, -1.0, float("nan")):
            with pytest.raises(ValidationError):
                fourier_design(T_GRID, floor=floor)

    def test_design_past_physical_memory_is_rejected_before_counting(self):
        # about 2e11 atoms: the frequency count is not walked one by one
        with pytest.raises(ValidationError, match="physical memory"):
            fourier_design(T_GRID, floor=1e-9)

    def test_unknown_simulation_family(self):
        with pytest.raises(ValidationError):
            simulation_design(T_GRID, family="wavelet")

    def test_custom_list_must_start_with_constant(self):
        with pytest.raises(ValidationError):
            DesignMatrix(matrix=T_GRID[:, None], labels=("t",))
        with pytest.raises(ValidationError):
            DesignMatrix(matrix=np.empty((100, 0)), labels=())

    def test_label_with_carriage_return_is_rejected(self):
        F = np.column_stack([np.ones(100), T_GRID])
        with pytest.raises(ValidationError, match="carriage return"):
            DesignMatrix(matrix=F, labels=("constant term", "t\r"))


class TestEvaluation:
    def test_sine_vanishes_at_half_period(self):
        # atom 110 is sin(2π×5×t/100), zero at t = 10
        F = simulation_design(T_GRID, "point100").matrix
        assert F[9, 109] == pytest.approx(0.0, abs=1e-12)

    def test_scaled_haar_value(self):
        # 2^7*10/100 - 12 = 0.8 lies in [0, 1] so the atom is at full height
        F = simulation_design(T_GRID, "haar128").matrix
        assert F[9, 1 + 12] == pytest.approx(11.313708498984761)
        assert F[10, 1 + 12] == 0.0

    def test_constant_is_one(self):
        for design in (simulation_design(T_GRID, "haar128"), exchange_design(T_GRID),
                       fourier_design(T_GRID, floor=8.0)):
            np.testing.assert_array_equal(design.matrix[:, 0], np.ones(100))

    def test_first_column_is_ones(self):
        design = simulation_design(T_GRID, "point100")
        np.testing.assert_array_equal(design.matrix[:, 0], np.ones(100))

    def test_point_family_reproduces_disturbance_components(self):
        # indices 11/51/61 are the unit peaks at t = 10/50/60; index 110 is
        # the period-20 sine
        F = simulation_design(T_GRID, "point100").matrix
        for idx, t0 in ((11, 10), (51, 50), (61, 60)):
            expected = (T_GRID == t0).astype(float)
            np.testing.assert_array_equal(F[:, idx - 1], expected)
        np.testing.assert_allclose(F[:, 109], np.sin(2 * np.pi * T_GRID / 20.0),
                                   atol=1e-12)

    def test_haar_family_covers_the_same_peaks_up_to_amplitude(self):
        F = simulation_design(T_GRID, "haar128").matrix
        amp = 2.0 ** 3.5
        for t0 in (10, 50, 60):
            k = int(np.floor(2 ** 7 * t0 / 100 - 1e-9))
            col = F[:, 1 + k]
            assert col[t0 - 1] == pytest.approx(amp)

    @pytest.mark.parametrize("preset", ["haar128", "point100", "exchange", "fourier"])
    def test_columns_follow_the_atom_formulas_bit_for_bit(self, preset):
        # an irregular grid, partly on integers: every column equals its
        # atom's formula evaluated on its own
        x = 0.75 + np.cumsum(np.random.default_rng(5).choice([0.25, 0.5, 1.0, 0.7], 90))
        n = x.size

        def pairs(frequencies):
            return [wave(2.0 * np.pi * f * x) for f in frequencies for wave in (np.sin, np.cos)]

        ones, trend = np.ones_like(x), [x ** 1, x ** 2]
        if preset == "haar128":
            local = [np.where(((2.0 ** 7) * x / float(n) - k >= 0.0)
                              & ((2.0 ** 7) * x / float(n) - k <= 1.0), 2.0 ** 3.5, 0.0)
                     for k in range(128)]
            expected = [ones, *local, *pairs(j / n for j in range(1, 11)), *trend]
            design = simulation_design(x, "haar128")
        elif preset == "point100":
            local = [np.where(np.abs(x - float(t)) <= 1e-9, 1.0, 0.0) for t in range(1, n + 1)]
            assert sum(col.sum() for col in local) > 0  # some points sit on integer times
            expected = [ones, *local, *pairs(j / n for j in range(1, 11)), *trend]
            design = simulation_design(x, "point100")
        elif preset == "exchange":
            expected = [ones, *trend, *pairs(j / n for j in range(1, 11))]
            design = exchange_design(x)
        else:
            span = float(x[-1] - x[0])
            expected = [ones, *pairs(i / span for i in range(1, int(span // 8.0) + 1))]
            design = fourier_design(x, floor=8.0)
        assert design.matrix.tobytes() == np.column_stack(expected).tobytes()

    def test_point_family_holds_one_mask_next_to_the_matrix(self):
        # the n x n indicator block is built in place: set-up peaks at the
        # final matrix plus one boolean mask of its size, not at two
        # matrices; the slack covers the labels and the ufuncs' buffers
        n = 600
        x = np.arange(1.0, n + 1.0)
        tracemalloc.start()
        try:
            design = simulation_design(x, "point100")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= design.matrix.nbytes + design.matrix.size + 256 * 1024


class TestLabels:
    def test_table_conventions(self):
        labels = simulation_design(T_GRID, family="point100").labels
        assert labels[0] == "constant term"
        assert labels[50] == "Haar function at t=50"
        assert labels[109] == "sin(2π×5×t/100)"
        assert labels[119] == "sin(2π×10×t/100)"
        assert labels[121] == "t"
        assert labels[122] == "t^2"

    def test_period_floor_labels_name_the_period(self):
        labels = fourier_design(T_GRID, floor=30.0).labels
        assert labels == ("constant term", "sin(2π×t/99)", "cos(2π×t/99)",
                          "sin(2π×t/49.5)", "cos(2π×t/49.5)", "sin(2π×t/33)", "cos(2π×t/33)")


class TestFileIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("const,ramp\n1,0.5\n1,1.0\n1,1.5\n")
        design = load_design_matrix(path)
        assert design.labels == ("const", "ramp")
        np.testing.assert_array_equal(design.matrix[:, 0], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(design.matrix[:, 1], [0.5, 1.0, 1.5])

    def test_constant_first_column_rescaled(self):
        # any nonzero constant first column is normalized to ones
        import tempfile, os
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "a.csv")
            with open(path, "w") as fh:
                fh.write("c,x\n2,3\n2,4\n")
            design = load_design_matrix(path)
            np.testing.assert_array_equal(design.matrix[:, 0], [1.0, 1.0])

    def test_non_constant_first_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c,x\n1,3\n2,4\n")
        with pytest.raises(DataError):
            load_design_matrix(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("c,x\n1,3\n1\n")
        with pytest.raises(DataError, match="row 3"):
            load_design_matrix(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("c,x\n\n1,3\n\n1,4\n\n")
        np.testing.assert_array_equal(load_design_matrix(path).matrix, [[1.0, 3.0], [1.0, 4.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_design_matrix(tmp_path / "nope.csv")
