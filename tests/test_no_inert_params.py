"""Every param a command declares must be able to change its records.

A param that no check reads is an option the user can set without effect:
the report states it in ``params`` and nothing else changes.  For each
param that ``hjc.cli.PARAMS`` declares, two valid values must therefore
give different ``records`` (the envelope, which repeats the params, is not
compared).  A new param needs its pair of values below.
"""

import json

import pytest

from hjc import cli

# (command, param): the argv shared by both runs, and the two values
PAIRS = {
    ("berry", "algebra"): (["--samples=2"], ["--algebra=C"], ["--algebra=H"]),
    ("berry", "grid"): (["--samples=2"], ["--grid=z=-2:2:5,w=0:1:3"], ["--grid=z=-1:1:5,w=0:1:3"]),
    ("berry", "samples"): ([], ["--samples=2"], ["--samples=3"]),
    ("jc", "theta"): (["--dim=4"], ["--theta=0.5"], ["--theta=0.7"]),
    ("jc", "dim"): ([], ["--dim=4"], ["--dim=5"]),
    ("strings", "thetas"): (["--dim=4"], ["--theta=-1,1"], ["--theta=-0.5,1"]),
    ("strings", "dim"): ([], ["--dim=4"], ["--dim=5"]),
    ("evolve", "theta"): (["--dim=4", "--t-steps=3"], ["--theta=0.25"], ["--theta=0.5"]),
    ("evolve", "g"): (["--dim=4", "--t-steps=3"], ["--g=1"], ["--g=2"]),
    # the same theta = (delta - omega)/2g = 1/2: omega changes the free part
    ("evolve", "omega"): (["--dim=4", "--t-steps=3"], ["--omega=1", "--delta=2"], ["--omega=2", "--delta=3"]),
    ("evolve", "delta"): (["--dim=4", "--t-steps=3"], ["--omega=1", "--delta=2"], ["--omega=1", "--delta=3"]),
    # the initial level d - 1 = 3 is uncoupled at d = 4, not at d = 5
    ("evolve", "dim"): (["--t-steps=3", "--n0=3"], ["--dim=4"], ["--dim=5"]),
    ("evolve", "t_max"): (["--dim=4", "--t-steps=3"], ["--t-max=10"], ["--t-max=5"]),
    ("evolve", "t_steps"): (["--dim=4"], ["--t-steps=3"], ["--t-steps=4"]),
    ("evolve", "n0"): (["--dim=4", "--t-steps=3"], ["--n0=0"], ["--n0=1"]),
    ("grassmann", "thetas"): (["--dim=4"], ["--theta=0.25,1"], ["--theta=0.5,1"]),
    ("grassmann", "dim"): ([], ["--dim=4"], ["--dim=5"]),
}

DECLARED = [(command, f.name) for command, params in cli.PARAMS.items() for f in params.fields]


def test_every_declared_param_has_a_pair():
    assert sorted(PAIRS) == sorted(DECLARED)


def _records(capsys, command, argv):
    assert cli.main([command, *argv, "--format=json"]) in (0, 1)
    return json.loads(capsys.readouterr().out)["records"]


@pytest.mark.parametrize("command, name", DECLARED)
def test_two_values_of_each_param_give_different_records(command, name, capsys):
    shared, first, second = PAIRS[command, name]
    assert _records(capsys, command, shared + first) != _records(capsys, command, shared + second)
