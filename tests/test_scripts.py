"""Smoke tests: every script in scripts/ runs at a small size, with every
warning an error, and prints its table."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_string_conditioning_table():
    lines = run_script("string_conditioning.py", "--decades", "2", "--seed", "3")
    assert lines[0].split() == ["K", "eps", "cond(I)", "max|P|", "unitary", "ok"]
    rows = [line.split() for line in lines[1:] if line.strip()]
    assert [r[0] for r in rows] == ["R", "R", "C", "C", "H", "H", "O", "O"]
    assert all(r[-1] == "True" for r in rows)
