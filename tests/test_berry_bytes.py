"""The bytes of small berry reports, pinned.

Each digest is the sha256 of ``hjc berry --algebra=K
--grid=z=-1:1:3,w=0:1:2 --samples=3 --seed=7`` in JSON or CSV; the grid
crosses both Dirac strings and the origin.  A change to the pass or the
writers that moves one byte of a report fails here.  The residuals come
from BLAS products, whose last bits can differ on another numpy build, so
the digests are checked against the numpy they were recorded with.
"""

import hashlib

import numpy as np
import pytest

from hjc import cli

RECORDED_WITH = "2.4.6"
DIGESTS = {
    ("R", "json"): "e1a900a2554d1b912a3bfc584c7ddf0253566a90ddc9bfe1bd060356bd1f03dc",
    ("R", "csv"): "4dfaeb5638f311f76ee929157ce1d7b795b154e66ce292d612917954b2c39e30",
    ("C", "json"): "e70f446716fb13ad3e2abcb8feea283a16d2680afd5b55738c74fd151880fb28",
    ("C", "csv"): "965f2619ababa77586a81d40d50e0f0d9ced84ae58c05c804b7bdbe8a22df62e",
    ("H", "json"): "91a3c86b253bb08d1f9559a893994e83350934200b7ffca79727edaf1177e2ac",
    ("H", "csv"): "6c20fb2f8e6ddc6780d86b9366620693ce486e69e83a50e1dd4e26bb454b15d8",
    ("O", "json"): "9f75569ec2f329004d4580200320d7fa6201867311693707ce74e7f2d8ed47a1",
    ("O", "csv"): "e6bef26205ed0036470cf002f0eb199751ea9162bdca6f7264955d927bfd07be",
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH, reason=f"digests recorded with numpy {RECORDED_WITH}")
@pytest.mark.parametrize("tag, fmt", sorted(DIGESTS))
def test_berry_report_bytes_are_pinned(tag, fmt, capsys):
    argv = ["berry", f"--algebra={tag}", "--grid=z=-1:1:3,w=0:1:2", "--samples=3", "--seed=7", f"--format={fmt}"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[tag, fmt], out
