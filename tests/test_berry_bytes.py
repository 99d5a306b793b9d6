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
    ("R", "json"): "3e0029e34d6d380564eb26ac93695d86db1161c9f600cdca728bd14dceab8088",
    ("R", "csv"): "3ff80bbe7e7e4b52a0deffdaf75fc294d78d15a266f0166d30cbfff5ab592855",
    ("C", "json"): "ff56f64eb9cf64a804e00d2f8f3a2eed56cdfb50d845c3c69e4e33ea11f9baff",
    ("C", "csv"): "739c1c7b35b27dbdecfb89dfc5ecf1c21ac676b905eae62d46fd8518861d945c",
    ("H", "json"): "286349337711468ef7d1b30fbbc9be9c649b433bc3271deb36739b9cb7186479",
    ("H", "csv"): "d80036ffe9f086e14af3bb721e040783094e78212723799071e7a91dbe3b798b",
    ("O", "json"): "79519fb3802682d65029a512243c0d4e21eab34934325f4f453643841c00c577",
    ("O", "csv"): "2f246688a198820396e382572e0d88d269b39406dc75eef5358c0be7dd2ffa88",
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH, reason=f"digests recorded with numpy {RECORDED_WITH}")
@pytest.mark.parametrize("tag, fmt", sorted(DIGESTS))
def test_berry_report_bytes_are_pinned(tag, fmt, capsys):
    argv = ["berry", f"--algebra={tag}", "--grid=z=-1:1:3,w=0:1:2", "--samples=3", "--seed=7", f"--format={fmt}"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[tag, fmt], out
