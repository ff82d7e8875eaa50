"""Golden verdicts: fixed CLI invocations give the exit codes and results
recorded in data/golden_verdicts.json.

The fixture holds the input documents ("inputs", by name) and the cases
("cases": argv, exit code, results section or null).  An argv word "@name"
stands for the path of input "name" written to a temporary directory.
Exit codes and every non-float results field must match exactly; floats
must agree to 1e-9 relative (1e-12 absolute, for values that are zero up
to rounding).  Certificates and wall times are not compared.
"""

import json
import math
from pathlib import Path

import pytest

from conelab import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_verdicts.json").read_text())


def assert_same(got, want, where="results"):
    if isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), f"{where}: {got} != {want}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, doc in GOLDEN["inputs"].items():
        (path / f"{name}.json").write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=[" ".join(c["argv"]) for c in GOLDEN["cases"]])
def test_same_verdict(case, input_dir, capsys):
    argv = [str(input_dir / f"{a[1:]}.json") if a.startswith("@") else a for a in case["argv"]]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == case["exit"]
    if case["results"] is None:
        assert out == ""
    else:
        assert_same(json.loads(out)["results"], case["results"])
