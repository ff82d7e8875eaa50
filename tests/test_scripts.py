"""The walk-through scripts under scripts/ run to completion and print the
numbers they are written to show."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_barker_square():
    proc = run_script("barker_square.py")
    assert proc.returncode == 0, proc.stderr
    assert "minimal tensor product: 16 vertices" in proc.stdout
    assert "maximal tensor product: 24 vertices" in proc.stdout
    assert "relative bound r = 0.500000" in proc.stdout


def test_kappa_scan():
    proc = run_script("kappa_scan.py", "--max-dim", "2", "--starts", "5")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [(int(n), int(m), float(exact)) for n, m, exact, *_ in rows] == [
        (1, 1, 1.0), (1, 2, 1.0), (2, 2, 2.0)
    ]
