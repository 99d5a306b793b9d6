"""Smoke tests: every script in scripts/ runs at a small size and prints
its table."""

import csv
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_rabi_inversion_csv():
    lines = run_script("rabi_inversion.py", "--thetas", "-0.5,0", "--dim", "6", "--t-max", "2", "--t-steps", "5")
    rows = list(csv.reader(lines))
    assert rows[0] == ["t", "sigma3_theta_-0.5", "sigma3_theta_0"]
    assert len(rows) == 6
    values = [[float(x) for x in row] for row in rows[1:]]
    assert [v[0] for v in values] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert all(abs(s) <= 1.0 + 1e-12 for v in values for s in v[1:])
    assert values[0][1:] == [1.0, 1.0]  # starts excited


def test_ground_string_map_table():
    lines = run_script("ground_string_map.py", "--thetas", "-1,1", "--dim", "4")
    assert lines[0] == "theta = -1.000"
    assert lines[3] == "  singular sectors: [('I', 0)]"
    assert lines[4] == "theta = +1.000"
    assert lines[7] == "  singular sectors: [('II', 0)]"
    assert lines[9] == "level-pair map (rows/cols = field levels; # touches ground):"
    assert lines[10:] == ["  # # # #", "  # . . .", "  # . . .", "  # . . ."]


def test_string_conditioning_table():
    lines = run_script("string_conditioning.py", "--decades", "2", "--seed", "3")
    assert lines[0].split() == ["K", "eps", "cond(I)", "max|P|", "unitary", "ok"]
    rows = [line.split() for line in lines[1:] if line.strip()]
    assert [r[0] for r in rows] == ["R", "R", "C", "C", "H", "H", "O", "O"]
    assert all(r[-1] == "True" for r in rows)
