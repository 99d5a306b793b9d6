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
    ("R", "json"): "31d3da0f16c058e0f1049084da45cc8c899710fad4e00665b1968bb72f818751",
    ("R", "csv"): "6f1af77e930d425b1e7e158f25995a1170971b09e688ab7d82ae09cb526d60e8",
    ("C", "json"): "3029f197c7597b17c319f0e311a2615b448b9f050ad86b25127507b56689a9b6",
    ("C", "csv"): "b12d0530874486291378cea75d81c8c05b8f1c2b02160105c370d43f6ac6c523",
    ("H", "json"): "063a16cfa8608e40a8100afc33b48236b1ec3670c42efa47fbcacf7a39333c61",
    ("H", "csv"): "d7f3c4dc037d876f41e568a5ac849fd3b5cf20df8d241e0bb77e42a70b6ccd36",
    ("O", "json"): "34ed399f596079e1d57cc6647f62713faac9ea4b1cf50f2648df5b2dfea6d806",
    ("O", "csv"): "07e9f684e1f229a93902211013e0ac6023be0f1d2366605b8ce58b59f60a5291",
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH, reason=f"digests recorded with numpy {RECORDED_WITH}")
@pytest.mark.parametrize("tag, fmt", sorted(DIGESTS))
def test_berry_report_bytes_are_pinned(tag, fmt, capsys):
    argv = ["berry", f"--algebra={tag}", "--grid=z=-1:1:3,w=0:1:2", "--samples=3", "--seed=7", f"--format={fmt}"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[tag, fmt], out
