import numpy as np
import pytest

from dictseg import (
    Atom,
    DataError,
    Dictionary,
    ValidationError,
    atom_label,
    evaluate_dictionary,
    exchange_dictionary,
    fourier_period_floor_dictionary,
    load_design_matrix,
    simulation_dictionary,
)

T_GRID = np.arange(1.0, 101.0)


class TestPresetSizes:
    def test_simulation_preset_has_151_atoms(self):
        assert simulation_dictionary(100).size == 151

    def test_point_family_indexes_like_the_selection_tables(self):
        d = simulation_dictionary(100, family="point100")
        assert d.size == 123  # 1 constant + 100 indicators + 20 Fourier + t + t^2

    def test_exchange_preset_has_23_atoms(self):
        assert exchange_dictionary(1500).size == 23

    def test_period_floor_count_follows_the_rule(self):
        # span/i >= floor keeps i = 1..floor(span/floor): 1 + 2*96 atoms
        d = fourier_period_floor_dictionary(span=772.0, floor=8.0)
        assert d.size == 1 + 2 * 96

    def test_period_floor_rejects_bad_floor(self):
        with pytest.raises(ValidationError):
            fourier_period_floor_dictionary(span=100.0, floor=0.0)

    def test_custom_list_must_start_with_constant(self):
        with pytest.raises(ValidationError):
            Dictionary(atoms=(Atom("poly", {"degree": 1}),))
        with pytest.raises(ValidationError):
            Dictionary(atoms=())


class TestEvaluation:
    def test_sine_vanishes_at_half_period(self):
        atom = Atom("sine", {"frequency": 5 / 100})
        assert atom.evaluate(np.array([10.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_is_one(self):
        atom = Atom("constant")
        np.testing.assert_array_equal(atom.evaluate(np.array([3.0, 99.0])), [1.0, 1.0])

    def test_scaled_haar_value(self):
        # 2^7*10/100 - 12 = 0.8 lies in [0, 1] so the atom is at full height
        atom = Atom("haar", {"scale": 7, "shift": 12, "length": 100.0})
        assert atom.evaluate(np.array([10.0]))[0] == pytest.approx(11.313708498984761)
        assert atom.evaluate(np.array([11.0]))[0] == 0.0

    def test_haar_shift_range_validated(self):
        with pytest.raises(ValidationError):
            Atom("haar", {"scale": 7, "shift": 128, "length": 100.0})

    def test_first_column_is_ones(self):
        design = evaluate_dictionary(simulation_dictionary(100, "point100"), T_GRID)
        np.testing.assert_array_equal(design.matrix[:, 0], np.ones(100))

    def test_sub_dictionary_equals_column_selection(self):
        full = simulation_dictionary(100, "point100")
        design = evaluate_dictionary(full, T_GRID)
        keep = [0, 10, 109, 122]
        sub = Dictionary(atoms=tuple(full.atoms[i] for i in keep))
        sub_design = evaluate_dictionary(sub, T_GRID)
        np.testing.assert_array_equal(sub_design.matrix, design.matrix[:, keep])

    def test_point_family_reproduces_disturbance_components(self):
        # indices 11/51/61 are the unit peaks at t = 10/50/60; index 110 is
        # the period-20 sine
        design = evaluate_dictionary(simulation_dictionary(100, "point100"), T_GRID)
        F = design.matrix
        for idx, t0 in ((11, 10), (51, 50), (61, 60)):
            expected = (T_GRID == t0).astype(float)
            np.testing.assert_array_equal(F[:, idx - 1], expected)
        np.testing.assert_allclose(F[:, 109], np.sin(2 * np.pi * T_GRID / 20.0),
                                   atol=1e-12)

    def test_haar_family_covers_the_same_peaks_up_to_amplitude(self):
        design = evaluate_dictionary(simulation_dictionary(100, "haar128"), T_GRID)
        F = design.matrix
        amp = 2.0 ** 3.5
        for t0 in (10, 50, 60):
            k = int(np.floor(2 ** 7 * t0 / 100 - 1e-9))
            col = F[:, 1 + k]
            assert col[t0 - 1] == pytest.approx(amp)


class TestLabels:
    def test_table_conventions(self):
        d = simulation_dictionary(100, family="point100")
        assert atom_label(d, 1) == "constant term"
        assert atom_label(d, 51) == "Haar function at t=50"
        assert atom_label(d, 110) == "sin(2π×5×t/100)"
        assert atom_label(d, 120) == "sin(2π×10×t/100)"
        assert atom_label(d, 122) == "t"
        assert atom_label(d, 123) == "t^2"

    def test_index_out_of_range(self):
        d = simulation_dictionary(100, family="point100")
        with pytest.raises(ValidationError):
            atom_label(d, 0)
        with pytest.raises(ValidationError):
            atom_label(d, 124)


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_design_matrix(tmp_path / "nope.csv")
