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
    ("R", "json"): "1fb76a0a1570183a026abbb5d5f0cfed8f0f14f30b1cec97134efac04ceb9f9e",
    ("R", "csv"): "ac82448f21d421d7a6e8dd3ddbb578c14ddfe95da98117777a262c9d4355e63c",
    ("C", "json"): "f0e1dbefadd6c8e8fc40ce99034792c4adca9cd71a3afb656a71238bef467801",
    ("C", "csv"): "7beca6ae0fe77e93af7146dc79b6e705a77b7481fe5acf40f66b6d37cddd2481",
    ("H", "json"): "7eb45eebae29756b67f3c31f461da7add5ef5a40e35bf07d8f1bc13198fe725f",
    ("H", "csv"): "237a479d1753b3ddda4613cf487fee1ebc2d27a39479502938185c09132a028a",
    ("O", "json"): "4e4170c6e0fe85715e46e01ed00535584ff38c28479cc05c54fd45cdfd2351c6",
    ("O", "csv"): "96390eb41e5d8b8e1db1e394103467df66335112e71083b93871acb763908d29",
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH, reason=f"digests recorded with numpy {RECORDED_WITH}")
@pytest.mark.parametrize("tag, fmt", sorted(DIGESTS))
def test_berry_report_bytes_are_pinned(tag, fmt, capsys):
    argv = ["berry", f"--algebra={tag}", "--grid=z=-1:1:3,w=0:1:2", "--samples=3", "--seed=7", f"--format={fmt}"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[tag, fmt], out
