"""conelab needs numpy only: no function in the package imports scipy, a
benchmark batch imports nothing, and the commands run with scipy
unimportable.  Each run check uses a fresh interpreter, as this one has
scipy loaded already; the functions that import scipy are read from the
source.  Every module constant and every import in the package is read
somewhere."""

import ast
import os
import re
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


# Every function in src/conelab that imports scipy, as module.qualified_name:
# none, as conelab needs numpy only at run time.
SCIPY_CALLERS = set()


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


# decompose seed 6 reaches nnls's active set; tensor-gap seeds 30, 36 and 44
# tie gap rows at the largest distance, which the simplex screen closes.
@pytest.mark.parametrize("workload, seed, scipy", [
    ("verdicts", 0, False), ("verdicts", 6, False), ("verdicts", 1000, False),
    ("decompose", 0, False), ("decompose", 6, False), ("decompose", 1000, False),
    ("tensor-gap", 0, False), ("tensor-gap", 30, False), ("tensor-gap", 36, False),
    ("tensor-gap", 44, False),
])
def test_a_benchmark_batch_imports_nothing(workload, seed, scipy):
    assert run(BATCH, workload, str(seed)) == ["[]", str(scipy)]


# Builds a perfbench workload's batch with scipy unimportable, runs it once
# and judges every answer.
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from workloads import WORKLOADS

requests = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
for req in requests:
    req.judge(req.call())
print(len(requests), "judged")
"""


@pytest.mark.parametrize("seed", [0, 30, 1000])
def test_tensor_gap_runs_without_scipy(seed):
    assert run(NO_SCIPY, "tensor-gap", str(seed)) == ["13 judged"]


# Writes two polytope files and runs the polytope commands on them, then
# the extremality test and the min-side membership test, with scipy
# unimportable.
POLYTOPE_COMMANDS = """
import io, json, sys
from contextlib import redirect_stdout
sys.modules["scipy"] = None
import numpy as np
from conelab import cli, polytopes

t = np.pi * np.arange(6) / 3
hexagon = np.column_stack([np.cos(t), np.sin(t)])
for name, vertices in [("hexagon", hexagon), ("square", polytopes.square().vertices)]:
    with open(f"{sys.argv[1]}/{name}.json", "w") as f:
        json.dump({"dim": 2, "vertices": vertices.tolist()}, f)
files = [f"{sys.argv[1]}/hexagon.json", f"{sys.argv[1]}/square.json"]
for argv in (["barker"], ["polytope", "tensor", "--gap", "--relative-bound"]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv + ["--k1", files[0], "--k2", files[1]])
    results = json.loads(out.getvalue())["results"]
    print(code, round(results["gap_margin"], 12), round(results.get("relative_bound", -1.0), 12))
points = np.vstack([hexagon, [[0.0, 0.0]]])
print(polytopes.non_vertices(points).tolist())
k = polytopes.square()
mv = polytopes.min_tensor(k, k).vertices
for flat in (mv.mean(axis=0), polytopes.max_tensor_polytope(k, k).vertices[8]):
    phi = polytopes.functional_from_flat(flat, k, k)
    print(polytopes.min_tensor_membership(phi, k, k).status.value)
"""


def test_polytope_commands_run_without_scipy(tmp_path):
    assert run(POLYTOPE_COMMANDS, str(tmp_path)) == [
        "0 0.25 -1.0", "0 0.25 0.25", "[6]", "in", "out"]


# Writes the five-term 2x3 product mixture default_rng([2, 3, 5, 0]), which
# only the polish decomposes, and runs the separable membership command on
# it with scipy unimportable.
SEPARABLE_COMMAND = """
import io, json, sys
from contextlib import redirect_stdout
sys.modules["scipy"] = None
import numpy as np
from conelab import cli
from conelab.operators import bipartite, kron_rows, random_unit_rows
from conelab.serialize import bipartite_to_dict

rng = np.random.default_rng([2, 3, 5, 0])
v = kron_rows(random_unit_rows(5, 2, rng), random_unit_rows(5, 3, rng))
state = bipartite((v.T * rng.dirichlet(np.ones(5))) @ v.conj(), 2, 3)
with open(f"{sys.argv[1]}/state.json", "w") as f:
    json.dump(bipartite_to_dict(state), f)
out = io.StringIO()
with redirect_stdout(out):
    code = cli.main(["membership", "--cone", "separable", "--input", f"{sys.argv[1]}/state.json"])
report = json.loads(out.getvalue())
print(code, report["results"]["status"], report["certificates"]["verdict"]["certificate"]["type"])
"""


def test_separable_membership_runs_without_scipy(tmp_path):
    assert run(SEPARABLE_COMMAND, str(tmp_path)) == ["0 in decomposition"]


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Every UPPER_CASE name assigned at module level that no module reads
    (as a name, an attribute or an imported name)."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            unread += [f"{name}: {t.id}" for t in targets
                       if isinstance(t, ast.Name) and t.id.isupper() and t.id not in read]
    return unread


def unread_imports(name: str, source: str) -> list[str]:
    """Every name an import binds that its module never reads as a name (or
    as the base of an attribute).  An import kept for its side effect or for
    a pinned alias carries ``# noqa: F401``."""
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any(re.search(r"#\s*noqa:.*F401", line) for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unread.append(f"{name}:{node.lineno}: {bound}")
    return unread


SOURCES = {path.name: path.read_text() for path in sorted((ROOT / "src" / "conelab").glob("*.py"))}


def test_every_module_constant_is_read():
    # a deleted mechanism cannot leave its knob behind
    assert unread_constants(SOURCES) == []


def test_every_import_is_read():
    # each function keeps one import path, and a deleted call cannot leave
    # its import behind
    assert [line for name, source in SOURCES.items() for line in unread_imports(name, source)] == []


def test_the_lint_rules_flag_what_they_describe():
    constants = {"a.py": "GATE = 0.05\nUSED = 1\nTOL: float = 2\n",
                 "b.py": "from a import TOL\nprint(USED)\n"}
    assert unread_constants(constants) == ["a.py: GATE"]
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import scipy.optimize\nfrom . import kept  # noqa: F401\nnp.eye(2)\n")
    assert unread_imports("m.py", source) == ["m.py:2: os", "m.py:4: scipy"]
