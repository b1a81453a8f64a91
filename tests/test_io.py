"""The package's file formats: one CSV writer and one JSON writer in
dictseg.io, UTF-8 readers, and round trips through the command line."""

import ast
import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dictseg import (
    BenchmarkReport,
    DataError,
    ReplicateRow,
    TimeSeries,
    ValidationError,
    exchange_design,
    load_design_matrix,
    load_event_priors,
    load_selection,
    load_series,
    resolve_design,
    simulate_series,
)
from dictseg import io as dio
from dictseg.cli import main
from dictseg.io import write_csv, write_json
from dictseg.config import RunConfig, load_config
from dictseg.pipeline import fit_series

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
        # iterators, whose lengths show only chunk by chunk
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(5000), iter(range(4999))])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(64), iter(range(65))])

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


def outcome(read, path):
    """What a reader makes of a file: its result, or its error's type
    and message."""
    try:
        return read(path)
    except (DataError, ValidationError) as exc:
        return type(exc), str(exc)


# Floats written the three ways a series file may hold them (hypothesis'
# floats include subnormals, infinities and NaN), and fields the C
# reader refuses or float() refuses.
NUMBER_FORMS = (repr, "%.17g".__mod__, "%e".__mod__)
ODD_FIELDS = ("", " ", "\t", "1_000", '"2.5"', '"3', "nan", "-inf", "Infinity", "﻿1.5",
              "x", "1e400", "0x10", "١", "1\x002", " 1.5 ")
LABELS = ("a", " b ", '"c,d"', '"e""f"', "", "2001-01-07")
HEADERS = ("value", " value", '"value"', '"1.5"', "", "﻿value", "v\x00", "label,value")


@st.composite
def value_fields(draw):
    if draw(st.integers(0, 9)) < 8:
        text = draw(st.sampled_from(NUMBER_FORMS))(draw(st.floats()))
    else:
        text = draw(st.sampled_from(ODD_FIELDS))
    pad = st.text(alphabet=" \t", max_size=2)
    return draw(pad) + text + draw(pad)


@st.composite
def series_files(draw):
    """Text of a series file: an optional header, one or two columns,
    blank lines, LF, CRLF or lone CR line ends, perhaps a BOM."""
    labelled = draw(st.integers(0, 4)) == 0
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        elif labelled:
            lines.append(f"{draw(st.sampled_from(LABELS))},{draw(value_fields())}")
        else:
            lines.append(draw(value_fields()))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(HEADERS)))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return ("﻿" if draw(st.integers(0, 5)) == 0 else "") + text


class TestReaderEquivalence:
    """The C reader gives what walking every record with float() gives:
    the same value bits and labels, or the same error."""

    @settings(max_examples=400, deadline=None)
    @given(text=series_files())
    def test_series(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "series-equivalence.csv"
        path.write_bytes(text.encode("utf-8"))
        want, got = outcome(oracles.load_series_rows, path), outcome(load_series, path)
        if isinstance(want, TimeSeries):
            assert isinstance(got, TimeSeries)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.labels == want.labels
        else:
            assert got == want

    @settings(max_examples=200, deadline=None)
    @given(header=st.lists(st.sampled_from(["c", "x", '"a,b"', '"q""t"', " y "]),
                           min_size=1, max_size=3),
           rows=st.lists(st.lists(value_fields(), min_size=1, max_size=3), max_size=8),
           end=st.sampled_from(["\n", "\r\n", "\r"]), constant=st.booleans())
    def test_design(self, tmp_path_factory, header, rows, end, constant):
        if constant:  # most designs pass the first-column check
            rows = [["1", *row[1:]] for row in rows]
        text = "".join(",".join(row) + end for row in [header, *rows])
        path = tmp_path_factory.getbasetemp() / "design-equivalence.csv"
        path.write_bytes(text.encode("utf-8"))
        want = outcome(oracles.load_design_matrix_rows, path)
        got = outcome(load_design_matrix, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.labels == want.labels
            assert got.matrix.tobytes() == want.matrix.tobytes()

    def test_plain_files_are_not_walked(self, tmp_path, monkeypatch):
        def walk(fh):
            raise AssertionError("walked row by row")

        series, design = tmp_path / "series.csv", tmp_path / "design.csv"
        series.write_text("value\r\n\r\n 1.5\r\n-2e-310\t\r\n3\r\n")
        design.write_text('"c,1",x\n\n1,0.5\n1,-0.0\n')
        monkeypatch.setattr(dio, "csv_records", walk)
        assert load_series(series).values.tolist() == [1.5, -2e-310, 3.0]
        assert load_design_matrix(design).labels == ("c,1", "x")


NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
                        dtype=np.uint64).view(np.float64)
FLOAT_POOL = np.concatenate([NAN_PAYLOADS, [np.nan, 0.0, -0.0, 1.0, -1.5, 0.1, 1 / 3, np.inf,
                                            -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                                            1e-310, 1e300, 1e16, 1e-5]])
TEXT_POOL = ["", "a", "a,b", 'say "hi"', "two\nlines", "π×", " pad ", "0.5"]
COLUMN_KINDS = ("repeats", "spread", "float32", "int64", "uint64", "int8", "bool", "range",
                "texts", "generator", "block")


def make_column(kind: str, rows: int, rng: np.random.Generator):
    if kind == "repeats":
        return rng.choice(FLOAT_POOL, rows)
    if kind == "spread":
        with np.errstate(over="ignore"):
            values = rng.normal(size=rows) * 10.0 ** rng.integers(-320, 309, rows)
        return np.where(rng.random(rows) < 0.3, rng.choice(FLOAT_POOL, rows), values)
    if kind == "float32":
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(rng.random(rows) < 0.5, rng.choice(FLOAT_POOL, rows),
                            rng.normal(size=rows)).astype(np.float32)
    if kind == "int64":
        return rng.integers(-2**63, 2**63 - 1, rows, dtype=np.int64) >> rng.integers(0, 63, rows)
    if kind == "uint64":
        return rng.integers(0, 2**64 - 1, rows, dtype=np.uint64, endpoint=True)
    if kind == "int8":
        return rng.integers(-2, 2, rows, dtype=np.int8)
    if kind == "bool":
        return rng.random(rows) < 0.5
    if kind == "range":
        return range(7, 7 + rows)
    texts = [TEXT_POOL[i] for i in rng.integers(0, len(TEXT_POOL), rows)]
    if kind == "texts":
        return texts
    if kind == "generator":
        return (text for text in texts)
    return rng.choice(FLOAT_POOL, (int(rng.integers(1, 4)), rows))


class TestWriterEquivalence:
    """write_csv gives the bytes of csv.writer over the rows' Python
    values, and write_json those of json.dumps over the arrays' lists."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           rows=st.integers(0, 300) | st.sampled_from([819, 820, 1638, 2500]),
           kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6),
           whole=st.booleans())
    def test_csv(self, tmp_path_factory, seed, rows, kinds, whole):
        def columns():
            rng = np.random.default_rng(seed)
            made = [make_column(kind, rows, rng) for kind in kinds]
            # one 2-D array may stand for all the columns
            return made[0] if whole and kinds == ["block"] else made

        base = tmp_path_factory.getbasetemp()
        header = [f"c{i}" for i in range(len(kinds))]
        write_csv(base / "got.csv", header, columns())
        oracles.write_csv_rows(base / "want.csv", header, columns())
        assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(0, 5000), min_size=1,
                                                          max_size=3))
    def test_json(self, tmp_path_factory, seed, sizes):
        rng = np.random.default_rng(seed)
        arrays = {key: rng.choice(FLOAT_POOL, size) if size % 2 else rng.normal(size=size)
                  for key, size in zip(("a", "f_hat", "zz"), sizes)}
        if len(sizes) > 2:
            with np.errstate(over="ignore", invalid="ignore"):
                arrays["zz"] = arrays["zz"].astype(np.float32)
        payload = {**arrays, "f": {"f_hat": [1.5, None]}, "mode": "sp", "n": 3, "y": []}
        path = tmp_path_factory.getbasetemp() / "got.json"
        write_json(path, payload)
        lists = {key: value.tolist() for key, value in arrays.items()}
        assert path.read_bytes().decode("utf-8") == json.dumps(
            {**payload, **lists}, indent=2, sort_keys=True) + "\n"


def long_fit(directory: Path):
    """(series file, series, atom labels, fit output) of a 20000-point
    fit shaped like the benchmark's long-app workload: eight levels, a
    yearly sine and noise, the exchange dictionary in mode sp, and a
    shortened search."""
    rng = np.random.default_rng(2015)
    n = 20000
    t = np.arange(1, n + 1)
    values = (np.repeat(rng.normal(0.0, 2.0, 8), n // 8) + 0.3 * np.sin(2 * np.pi * t / 52.18)
              + rng.normal(0.0, 0.5, n))
    path = directory / "series.csv"
    write_csv(path, ["value"], [values])
    series = load_series(path)
    design, labels = resolve_design("exchange", series)
    cfg = replace(RunConfig.application(), dictionary="exchange", seed=11,
                  iterations=4000, burn_in=1200, gibbs_iterations=100)
    out = fit_series(series, cfg.hyperparameters(n, design.num_atoms), cfg.mh_config(),
                     cfg.gibbs_config(), design=design)
    return path, series, labels, out


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one call after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryPeaks:
    """Reading and writing a long series hold no more memory than the
    row walk and the row-at-a-time writer did.  The bounds are their
    tracemalloc peaks on ``long_fit``, measured with the code they
    replaced (Python 3.11, numpy 2.4).  The writer stays below its bound
    only because it formats and writes a chunk of rows at a time."""

    LOAD_PEAK = 4_431_586
    WRITE_PEAK = 3_168_449

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        return long_fit(tmp_path_factory.mktemp("long-fit"))

    def test_load_series(self, fitted):
        path = fitted[0]
        assert traced_peak(lambda: load_series(path)) <= self.LOAD_PEAK

    def test_write_results(self, fitted, tmp_path):
        _, series, labels, out = fitted
        peak = traced_peak(lambda: dio.write_results(out.fit, out.mh_trace, series, tmp_path,
                                                     atom_labels=labels))
        assert peak <= self.WRITE_PEAK
