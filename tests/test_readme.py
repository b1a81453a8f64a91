"""The README's code examples run against the package as it is."""

import re
from pathlib import Path

from dictseg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section_code(title):
    """The first ```python block under the README heading ``title``."""
    text = README.read_text()
    section = text.split(f"\n{title}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    assert main(["simulate", "--n", "100", "--sigma", "0.1", "--seed", "3",
                 "--out", str(tmp_path / "series.csv")]) == 0
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(section_code("## Library"), namespace)
    assert namespace["out"].fit.sigma_hat > 0
    assert capsys.readouterr().out.strip()
