"""scipy loads where conelab calls it, never with the package and never in
the middle of a benchmark batch.  Each run check uses a fresh interpreter,
as this one has scipy loaded already; the functions that import scipy are
read from the source."""

import ast
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


# Every function in src/conelab that imports scipy, as module.qualified_name.
# A new scipy call site must be added here, and to ROADMAP item 29.
SCIPY_CALLERS = {
    "cones.least_squares",
    "polytopes.Polytope.__post_init__",
    "polytopes.Polytope.chart_rays",
    "polytopes.linprog",
    "polytopes._block_lps",
    "polytopes._exact_distances",
    "polytopes.relative_bound",
}


def scipy_imports(node, name: str):
    """The qualified name of the definition around each scipy import under
    ``node``; a module-level import yields the module's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from scipy_imports(child, f"{name}.{child.name}")
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            modules = [child.module] if isinstance(child, ast.ImportFrom) else [a.name for a in child.names]
            if any(m and m.split(".")[0] == "scipy" for m in modules):
                yield name
        else:
            yield from scipy_imports(child, name)


def test_scipy_is_imported_only_where_listed():
    found = {name for path in sorted((ROOT / "src" / "conelab").glob("*.py"))
             for name in scipy_imports(ast.parse(path.read_text()), path.stem)}
    assert found == SCIPY_CALLERS


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
