"""scipy loads where conelab calls it, never with the package and never in
the middle of a benchmark batch.  Each check runs in a fresh interpreter,
as this one has scipy loaded already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Builds a perfbench workload's batch, runs it once, and prints the modules
# the run imported and whether scipy was loaded before it.
BATCH = """
import sys
from workloads import WORKLOADS

requests = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
before = set(sys.modules)
for req in requests:
    req.call()
print(sorted(set(sys.modules) - before))
print("scipy" in before)
"""


def run(code: str, *args: str) -> list[str]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()


def test_cli_imports_no_scipy():
    code = "import sys, conelab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert run(code) == ["[]"]


# decompose seed 6 reaches nnls's active set, tensor-gap seed 30 HiGHS.
@pytest.mark.parametrize("workload, seed, scipy", [
    ("verdicts", 0, False), ("verdicts", 6, False), ("verdicts", 1000, False),
    ("decompose", 0, False), ("decompose", 6, False), ("decompose", 1000, False),
    ("tensor-gap", 0, True), ("tensor-gap", 30, True),
])
def test_a_benchmark_batch_imports_nothing(workload, seed, scipy):
    # tensor-gap's set-up builds polytopes, which load scipy
    assert run(BATCH, workload, str(seed)) == ["[]", str(scipy)]
