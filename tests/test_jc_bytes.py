"""The bytes of small Jaynes-Cummings reports, pinned.

Each digest is the sha256 of the stdout of one ``hjc`` command at d = 7,
in JSON and in CSV, with its exit code: ``jc``, ``evolve`` (the bare
interaction Hamiltonian and, with ``--omega/--delta``, the full model),
``grassmann`` and ``strings``, at a detuning below 0, above 0 and at
1e200.  A change to the closed forms, the dense oracle's input or the
writers that moves one byte of a report fails here.  The full-model
evolve at theta = 1e200 exits 1: its propagator residual is judged
against an absolute tolerance while the phases round to about t |H| eps.
The residuals come from BLAS and LAPACK, whose last bits can differ on
another numpy build, so the digests are checked against the numpy they
were recorded with.
"""

import hashlib

import numpy as np
import pytest

from hjc import cli

RECORDED_WITH = "2.4.6"
DIGESTS = {
    ("jc --theta=0.7 --dim=7", "json"): (0, "f68440d58764ccd068a80ef54819c418371691e9023a5bf2b5eea03bfac3f185"),
    ("jc --theta=0.7 --dim=7", "csv"): (0, "d3c64db4176dd0c862ed8ebf5f8566a0224af5ad91bd4bd84a8a77fe5eee1ab9"),
    ("jc --theta=-0.7 --dim=7", "json"): (0, "ae76589ffad71f1889a2cb7141ce6fd2967d1c8856a375e5f6139de61731f5e9"),
    ("jc --theta=-0.7 --dim=7", "csv"): (0, "ab06ef5fcdb184428eea85e1cc0652345504bb22c9281c9ea95051b309d075b7"),
    ("jc --theta=1e200 --dim=7", "json"): (0, "daa2ea65d5474db2c6823f0a379a7398849360a829b007f3f55f1403042641fc"),
    ("jc --theta=1e200 --dim=7", "csv"): (0, "ef3b80386ab045fb4eea1d8f4d3f3a35721e9fbeaea18f3c53f318feeee9e12a"),
    ("evolve --theta=0.7 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "4be503cdd3649a78380fbe01a20346dca7d9aa5127413f977e8514a4c5f624a3"),
    ("evolve --theta=0.7 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "9a76e235b1d10c7e63d9caba00e7c16d13d85945cc9a11f461791911abfedcc2"),
    ("evolve --theta=-0.7 --g=0.6 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "0bf226de6f1cdb613e6cef6b0fcc5ae102cf4798398407de051aafa73a224de9"),
    ("evolve --theta=-0.7 --g=0.6 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "b05958a20c5e613371850f5b6ba4153a4e8144b5aafb2c78536fc1d396f12dd0"),
    ("evolve --theta=1e200 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "d9618af8951eb3f443fa26cdb449baaf3159f532f4babaae68f7ad0e1c2518f0"),
    ("evolve --theta=1e200 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "b73194bdb43e37178bc1c172c07ad30909a55707d774e3ba33b7b38c11c8583c"),
    ("evolve --omega=1 --delta=2.4 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "008b2c96d6ea451f81e7968f407b5d26a477699e1d30952ecde0dd50d810729e"),
    ("evolve --omega=1 --delta=2.4 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "c4b27fc5047f28e64643297c86fb08788e028684a5c82c67397b78cb8b8b5298"),
    ("evolve --omega=2 --delta=0.6 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "14405bd82244bcfa432d0b98762a47d775e1ca6c10a96f20892920c4963c32c2"),
    ("evolve --omega=2 --delta=0.6 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "545f85a345888d563428bbde692dc6b119f60e55349129110009b58a11f69550"),
    ("evolve --omega=1 --delta=2e200 --dim=7 --t-steps=5 --n0=2", "json"): (
        1, "4762dc3a1d52b837ea8c02c9a6313d1e32852eb88f446baaf93bd52502b8887e"),
    ("evolve --omega=1 --delta=2e200 --dim=7 --t-steps=5 --n0=2", "csv"): (
        1, "893866649d63948ac9daf111e094f653381fec5ac76006557818b673790f2892"),
    ("grassmann --theta=-0.7,0.7,1e200 --dim=7", "json"): (
        0, "33bc5c4297baa8352e1d38e235f6dcb72714f41d101e6330689174608e07601c"),
    ("grassmann --theta=-0.7,0.7,1e200 --dim=7", "csv"): (
        0, "e672f48f274a21499eb7e547eb40cc9834ff4772a7b330a18f5cd69a3657af98"),
    ("strings --theta=-0.7,0.7,1e200 --dim=7", "json"): (
        0, "2fa447641f7781840507622f5b7b76f532cde3c8e98189e34019c6e16d2dac2a"),
    ("strings --theta=-0.7,0.7,1e200 --dim=7", "csv"): (
        0, "03a775e02451c097360c3264ec766cc0859c39240582c2c12074b4b0418118ca"),
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH, reason=f"digests recorded with numpy {RECORDED_WITH}")
@pytest.mark.parametrize("command, fmt", sorted(DIGESTS))
def test_jc_report_bytes_are_pinned(command, fmt, capsys):
    code = cli.main(command.split() + [f"--format={fmt}"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[command, fmt], out
