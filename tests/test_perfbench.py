"""The benchmark harness runs against the package as it stands.

A traced run uses every name that ``perfbench/`` takes from dictseg, so
removing or reshaping one of them fails here.  The two workloads take
the context down its two paths: the full tables of every atom
(sim100) and the point atoms in closed form (wide-point).  The run writes only
under the git-ignored ``.perfbench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sim100", "wide-point"])
def test_traced_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, report
