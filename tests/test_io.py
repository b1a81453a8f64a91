"""The package's file formats: one CSV writer and one JSON writer in
dictseg.io, UTF-8 readers, and round trips through the command line."""

import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dictseg import (
    BenchmarkReport,
    DataError,
    ReplicateRow,
    TimeSeries,
    exchange_design,
    load_design_matrix,
    load_event_priors,
    load_selection,
    load_series,
    resolve_design,
    simulate_series,
)
from dictseg.cli import main
from dictseg.io import write_csv, write_json
from dictseg.config import load_config

SRC = Path(__file__).resolve().parents[1] / "src"

FAST_CFG = """\
iterations = 600
burn_in = 100
gibbs_iterations = 50
flip_gamma = 1
flip_r = 1
"""


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestWriters:
    def test_csv_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [
            np.array([0.1, 1e300, -np.inf]),
            np.array([True, False, True]),
            ["plain", 'with "quotes", comma', "π×\nline"],
        ])
        assert path.read_bytes().decode("utf-8") == (
            'a,b,c\n0.1,True,plain\n1e+300,False,"with ""quotes"", comma"\n'
            '-inf,True,"π×\nline"\n')

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [range(3), range(2)])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [range(3), np.zeros(4)])

    def test_numeric_table_has_the_bytes_of_csv_writer(self, tmp_path):
        # a table of numeric arrays and ranges alone skips csv.writer
        rng = np.random.default_rng(3)
        columns = [range(1, 6001), rng.normal(size=6000) * 10.0 ** rng.integers(-300, 300, 6000),
                   rng.integers(-2**62, 2**62, 6000), np.arange(6000, dtype=np.uint32),
                   rng.normal(size=6000).astype(np.float32)]
        columns[1][:4] = [np.nan, np.inf, -np.inf, -0.0]
        path = tmp_path / "t.csv"
        write_csv(path, ["t", "x", "i", "u", "f"], columns)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "x", "i", "u", "f"])
            writer.writerows(zip(*(list(c) if isinstance(c, range) else c.tolist()
                                   for c in columns)))
        assert path.read_bytes() == reference.read_bytes()

    def test_json_format(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": [1, 2.5], "a": "π"})
        assert path.read_text() == '{\n  "a": "\\u03c0",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'

    @pytest.mark.parametrize("write", [
        lambda path: write_csv(path, ["a"], [[1]]),
        lambda path: write_json(path, {}),
    ], ids=["csv", "json"])
    def test_failed_write_is_a_data_error_naming_the_file(self, tmp_path, write):
        path = tmp_path / "missing" / "out"
        with pytest.raises(DataError, match=str(path)):
            write(path)


LATIN1 = b"\xe9t\xe9"  # "été" in Latin-1, not valid UTF-8


@pytest.mark.parametrize("name,content,read", [
    ("series", b"label,value\n" + LATIN1 + b",1.5\n", load_series),
    ("events", LATIN1 + b",0.5\n", load_event_priors),
    ("selection", b'{"positions": [1], "note": "' + LATIN1 + b'"}',
     lambda path: load_selection(path, 10, None)),
    ("design", b"c," + LATIN1 + b"\n1,2\n1,3\n", load_design_matrix),
    ("config", b"# " + LATIN1 + b"\nseed = 1\n", load_config),
], ids=["series", "events", "selection", "design", "config"])
def test_reader_reports_bad_utf8_as_a_data_error(tmp_path, name, content, read):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(DataError, match=str(path)):
        read(path)


@pytest.mark.parametrize("content,read,line", [
    ("a,1.0\n\nb,2.0\nc,x\n", load_series, 4),
    ("4,0.5\n\n7,x\n", load_event_priors, 3),
    ("c,x\n1,3\n\n1,4\n1\n", load_design_matrix, 5),
], ids=["series", "events", "design"])
def test_reader_names_the_file_line_past_blank_lines(tmp_path, content, read, line):
    # one row reader for every CSV input: blank lines are skipped, not
    # counted out of the numbering and not rejected
    path = tmp_path / "input.csv"
    path.write_text(content)
    with pytest.raises(DataError, match=re.escape(f"{path}: row {line}") + r"\b"):
        read(path)


def test_metrics_input_with_bad_utf8_is_a_data_error(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"n": 10, "change_points": [4], "means": [0.0, 1.0]}))
    estimate = tmp_path / "estimate.json"
    estimate.write_bytes(b'{"change_points": [4], "means": [0.0, 1.0], "x": "' + LATIN1 + b'"}')
    assert main(["metrics", "--estimate", str(estimate), "--truth", str(truth)]) == 2
    assert f"error (data): cannot read metrics input {estimate}" in capsys.readouterr().err


class TestRoundTrips:
    @pytest.mark.parametrize("n,sigma,seed", [(100, 0.5, 3), (250, 1.0, 8)])
    def test_simulated_series_reads_back_bit_identical(self, tmp_path, n, sigma, seed):
        path = tmp_path / "series.csv"
        assert main(["simulate", "--n", str(n), "--sigma", str(sigma), "--seed", str(seed),
                     "--out", str(path)]) == 0
        series, _ = simulate_series(n, sigma, np.random.default_rng(seed))
        assert load_series(path).values.tobytes() == series.values.tobytes()

    @pytest.mark.parametrize("preset", ["simulation_n100", "exchange", "fourier"])
    def test_design_reads_back_bit_identical(self, tmp_path, preset):
        path = tmp_path / "design.csv"
        assert main(["dict", "--preset", preset, "--n", "100", "--out", str(path)]) == 0
        series = TimeSeries(values=np.zeros(100))
        want, want_labels = resolve_design(preset, series)
        got, got_labels = resolve_design(f"file:{path}", series)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got_labels == want_labels
        assert any("π" in label and "×" in label for label in got_labels)

    def test_benchmark_error_field_is_quoted(self, tmp_path):
        error = 'DataError: cannot read "a, b"\nsecond line'
        report = BenchmarkReport(rows=(
            ReplicateRow(sigma=0.5, method="sp", replicate=1, sim_seed=2, fit_seed=3,
                         ok=False, error=error),))
        path = tmp_path / "rows.csv"
        report.export_csv(path)
        header, row = read_rows(path)
        assert (header[-1], row[-1]) == ("error", error)
        assert row[:-1] == ["0.5", "sp", "1", "2", "3", "False"] + [""] * 9


class TestAsciiLocale:
    """Labels such as sin(2π×t/52) are written as UTF-8 whatever the
    locale's preferred encoding."""

    @staticmethod
    def run(args, cwd):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("LC_", "LANG", "PYTHONIOENCODING"))}
        env.update(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
                   PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-m", "dictseg.cli", *args], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=300)

    def test_fit_writes_utf8_labels(self, tmp_path):
        assert main(["simulate", "--n", "100", "--sigma", "0.5", "--seed", "3",
                     "--out", str(tmp_path / "series.csv")]) == 0
        (tmp_path / "fast.cfg").write_text(FAST_CFG)
        done = self.run(["fit", "--input", "series.csv", "--out-dir", "fit", "--mode", "sp",
                         "--config", "fast.cfg"], tmp_path)
        assert done.returncode == 0, done.stderr
        _, labels = resolve_design("simulation_n100:point100",
                                        TimeSeries(values=np.zeros(100)))
        atoms = [row[2] for row in read_rows(tmp_path / "fit" / "inclusion.csv")
                 if row[0] == "atom"]
        assert atoms == list(labels)
        summary = json.loads((tmp_path / "fit" / "summary.json").read_text(encoding="utf-8"))
        assert all(a["label"] == labels[a["index"] - 1] for a in summary["selected_atoms"])

    def test_dict_writes_utf8_labels(self, tmp_path):
        done = self.run(["dict", "--preset", "exchange", "--out", "design.csv"], tmp_path)
        assert done.returncode == 0, done.stderr
        labels = read_rows(tmp_path / "design.csv")[0]
        assert labels == list(exchange_design(np.arange(1.0, 101.0)).labels)
        assert any("π" in label for label in labels)


def writes_files(source: str) -> list[int]:
    """Lines of ``source`` that open a file for writing, write one
    through pathlib or build a csv.writer."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "open":
            # open(path, mode) or path.open(mode)
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes += [k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                lines.append(node.lineno)
        elif name in ("write_text", "write_bytes") or (
                name == "writer" and getattr(func.value, "id", None) == "csv"):
            lines.append(node.lineno)
    return lines


class TestOneWriterModule:
    def test_detector(self):
        assert writes_files("open(p, 'w')\nopen(p, mode='a')\np.open('wb')\n"
                            "csv.writer(fh)\np.write_text(s)\nopen(p, m)\n") == [1, 2, 3, 4, 5, 6]
        assert writes_files("open(p)\nopen(p, 'rb')\nopen(p, newline='', encoding='utf-8')\n"
                            "p.open()\ncsv.reader(fh)\n") == []

    def test_only_io_writes_files(self):
        modules = sorted((SRC / "dictseg").glob("*.py"))
        assert (SRC / "dictseg" / "io.py") in modules
        found = {m.name: writes_files(m.read_text(encoding="utf-8"))
                 for m in modules if m.name != "io.py"}
        assert {name: lines for name, lines in found.items() if lines} == {}
