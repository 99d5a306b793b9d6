"""Every residual a report judges must be able to read something other than 0.

A residual whose two sides are computed from the same level values reads
exactly 0.0 on every input and can never fail: it costs work and reports
nothing.  Each residual that ``hjc.cli.RECORDS`` declares with a tolerance
must therefore read a nonzero value on at least one input of a small fixed
corpus, over the whole double range of theta.
"""

import json

import pytest

from hjc import cli
from hjc.report import Record

THETAS = (0.0,) + tuple(s * t for t in (1e-300, 1e-8, 0.5, 3.0, 1e8, 1e200, 1.7e308) for s in (1.0, -1.0))
THETA_LIST = "--theta=" + ",".join(map(repr, THETAS))
DIMS = (2, 7, 24)

CORPUS = {
    "berry": [
        ["--algebra", tag, "--grid", grid, "--samples", "4"]
        for tag in ("R", "C", "H", "O")
        for grid in ("z=-2:2:5,w=0:1:3", "z=-1e300:1e300:3,w=0:1e300:2")
    ],
    "jc": [[f"--theta={theta!r}", f"--dim={d}"] for theta in THETAS for d in DIMS],
    "strings": [[THETA_LIST, f"--dim={d}"] for d in DIMS],
    "grassmann": [[THETA_LIST, f"--dim={d}"] for d in DIMS],
    # at |theta| = 1.7e308 the phases t g R are NaN and every step past t = 0
    # fails, an open defect of evolve
    "evolve": [
        [f"--theta={theta!r}", f"--dim={d}", "--t-steps=3", "--format=json"]
        for theta in THETAS
        if abs(theta) < 1e308
        for d in DIMS
    ],
}


def _declared_residuals(rec: Record, prefix: str = ""):
    """The dotted path of every field that a tolerance judges."""
    for f in rec.fields:
        if isinstance(f.kind, Record):
            yield from _declared_residuals(f.kind, prefix + f.name + ".")
        elif f.tol is not None:
            yield prefix + f.name


@pytest.mark.parametrize("command", sorted(cli.RECORDS))
def test_every_declared_residual_reads_nonzero_on_some_input(command, capsys, columns_of):
    decl = cli.RECORDS[command]
    records = []
    for argv in CORPUS[command]:
        assert cli.main([command, *argv]) in (0, 1)
        records += json.loads(capsys.readouterr().out)["records"]
    cols = columns_of(decl, records)
    vacuous = [path for path in _declared_residuals(decl) if not any(v is not None and v > 0.0 for v in cols[path])]
    assert vacuous == []
