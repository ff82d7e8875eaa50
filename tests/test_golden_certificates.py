"""Golden certificates: the certificates sections of the fixed CLI
invocations of test_golden.py, recorded in data/golden_certificates.json.

The invocations and their input documents come from
data/golden_verdicts.json; case i here is case i there.  A case whose
command printed nothing (exit 65) records ``null``.  Floats must agree to
1e-9 relative (1e-12 absolute), every other field exactly, as in
test_golden.py.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conelab import cli
from test_golden import GOLDEN, assert_same, input_dir  # noqa: F401 (fixture)

CERTIFICATES = json.loads(
    (Path(__file__).parent / "data" / "golden_certificates.json").read_text())["cases"]


def test_fixture_matches_the_golden_cases():
    assert [c["argv"] for c in CERTIFICATES] == [c["argv"] for c in GOLDEN["cases"]]


@pytest.mark.parametrize("case", CERTIFICATES, ids=[" ".join(c["argv"]) for c in CERTIFICATES])
def test_same_certificates(case, input_dir, capsys):  # noqa: F811
    argv = [str(input_dir / f"{a[1:]}.json") if a.startswith("@") else a for a in case["argv"]]
    cli.main(argv)
    out = capsys.readouterr().out
    if case["certificates"] is None:
        assert out == ""
    else:
        assert_same(json.loads(out)["certificates"], case["certificates"], "certificates")


def decompositions(doc):
    """Every decomposition certificate inside a certificates section."""
    if isinstance(doc, dict):
        if doc.get("type") == "decomposition":
            yield doc
        for value in doc.values():
            yield from decompositions(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from decompositions(value)


SEPARABLE = [c for c in CERTIFICATES if c["argv"][:3] == ["membership", "--cone", "separable"]]


@pytest.mark.parametrize("case", SEPARABLE, ids=[" ".join(c["argv"]) for c in SEPARABLE])
def test_decomposition_certificates_are_canonical(case, input_dir, capsys):  # noqa: F811
    """Atoms by descending weight; in each factor, the first entry within
    1e-9 of the largest modulus is real and positive."""
    argv = [str(input_dir / f"{a[1:]}.json") if a.startswith("@") else a for a in case["argv"]]
    cli.main(argv)
    out = capsys.readouterr().out
    found = list(decompositions(json.loads(out)["certificates"])) if out else []
    assert len(found) == len(list(decompositions(case["certificates"])))
    for cert in found:
        assert np.all(np.diff(np.round(cert["weights"], 12)) <= 0)
        for factor in cert["factors"]:
            for side in ("left", "right"):
                z = np.array([complex(re, im) for re, im in factor[side]])
                lead = z[np.argmax(np.abs(z) >= np.abs(z).max() - 1e-9)]
                assert lead.imag == 0.0 and lead.real > 0.0
