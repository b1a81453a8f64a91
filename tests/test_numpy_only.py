"""The package runs on numpy alone: scipy is a test dependency only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """\
iterations = 600
burn_in = 150
gibbs_iterations = 300
flip_gamma = 1
flip_r = 1
init_segments = 2
init_functions = 2
"""

# every subcommand, run in a process where importing scipy raises
COMMANDS = """\
import sys
sys.modules["scipy"] = None
from dictseg.cli import main

cfg = ["--config", "fast.cfg"]
fit = ["fit", "--input", "series.csv", "--dictionary", "simulation_n100:point100", *cfg]
runs = [
    ["simulate", "--n", "100", "--seed", "3", "--out", "series.csv", "--truth", "truth.json"],
    [*fit, "--mode", "sp", "--out-dir", "sp", "--save-trace", "--save-draws"],
    [*fit, "--mode", "p", "--out-dir", "p"],
    [*fit, "--mode", "sp", "--out-dir", "gibbs", "--stage", "gibbs",
     "--selection", "sp/selection.json"],
    ["dict", "--preset", "exchange", "--n", "50", "--out", "design.csv"],
    ["metrics", "--estimate", "sp/summary.json", "--truth", "truth.json"],
    ["bench", "--sigmas", "0.5", "--replicates", "1", "--n", "60", *cfg, "--out-dir", "bench"],
]
for argv in runs:
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    result = run_python("import sys, dictseg.cli\n"
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                        tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    (tmp_path / "fast.cfg").write_text(CONFIG)
    result = run_python(COMMANDS, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert (tmp_path / "sp" / "gibbs_draws.csv").exists()
    assert (tmp_path / "sp" / "mh_trace.csv").exists()
    assert (tmp_path / "gibbs" / "summary.json").exists()
    assert (tmp_path / "bench" / "replicates.csv").exists()
