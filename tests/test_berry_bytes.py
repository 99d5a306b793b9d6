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
    ("R", "json"): "f27abb4fabe2fb5d6a7cea3717e67eca2e45847bf4f2238806ef97e42f489667",
    ("R", "csv"): "c2eb92384962168e818452d28c352be77cce51e3fb9b0521211857ea8387b73f",
    ("C", "json"): "f1197c52ba91c6701bc7bb41314b4d1618f8ca5bdbf7affe5443d2a3070f8545",
    ("C", "csv"): "1a2ed81d5441dde823a52fbd1d05278d818b3a8c3436cbed9b9e429eb03035f3",
    ("H", "json"): "262c5ebab423ea269e8a403e395f3d4331e69234a628002f9b290ac246ef6c87",
    ("H", "csv"): "3d83fd6bee2ce9b4e99078f42a79152954da42dec2c7c36e4cc2ac50bd6d1b19",
    ("O", "json"): "d682dc9b098c78a16b8446fb0f0c66835b766dd8c5d18748bec2fbbc002ce002",
    ("O", "csv"): "be7dd1c5c526e8e33197456cb873ea3e62ed402b527fbfa80542a8ddc51b4f0d",
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH, reason=f"digests recorded with numpy {RECORDED_WITH}")
@pytest.mark.parametrize("tag, fmt", sorted(DIGESTS))
def test_berry_report_bytes_are_pinned(tag, fmt, capsys):
    argv = ["berry", f"--algebra={tag}", "--grid=z=-1:1:3,w=0:1:2", "--samples=3", "--seed=7", f"--format={fmt}"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[tag, fmt], out
