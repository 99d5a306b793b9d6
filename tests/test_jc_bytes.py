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
    ("jc --theta=0.7 --dim=7", "json"): (0, "2d2af92bd25d335932631e026793be776e60cf21caac100ca5e853f643671cd0"),
    ("jc --theta=0.7 --dim=7", "csv"): (0, "a93106c1329c158fa14e76b77a08211e9c4ca27f18e85560baa4bfbe10dede74"),
    ("jc --theta=-0.7 --dim=7", "json"): (0, "086cf389c4352a4dce1e93a5ab36f30a8b7614c0b09a5568d6559f251c5af8b9"),
    ("jc --theta=-0.7 --dim=7", "csv"): (0, "76e008dc6f75806b4d3ba4d3ce7774c06db68031690871f9a6485a86d2cd4e9e"),
    ("jc --theta=1e200 --dim=7", "json"): (0, "657e81a4198e17fc6511ac0d8b25488f24ceb5cdd9617e3641f7f9124c79212c"),
    ("jc --theta=1e200 --dim=7", "csv"): (0, "147a52d972e6f2b778d88db87c162241bceae7af584487dd14855e40f7829cb1"),
    ("evolve --theta=0.7 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "f6bc5d78c8fea9b02af1165e0a7f7e3bd9af8ec73bb5b976e70a4e7c7ccd6abb"),
    ("evolve --theta=0.7 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "db8729792ef1e2ad5a338983b7fc4ebaeddd618c53e976da48279dceb6fad5c2"),
    ("evolve --theta=-0.7 --g=0.6 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "0e640f83698b6f5644eb9a08e22dab17597caa7e813eede4797e5804acec6ccd"),
    ("evolve --theta=-0.7 --g=0.6 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "390bce13a1390c9c19611027e0038160795f8cf12a83ff5af1b299cc57c1991c"),
    ("evolve --theta=1e200 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "d26af5b11de7260cc4e39fca221c4b400e8a696f9d82190442cc7a42234309e4"),
    ("evolve --theta=1e200 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "5638e414e07da643308ef0cb790fef0c77e09a4918c1f3be4c503260149b49e2"),
    ("evolve --omega=1 --delta=2.4 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "8bf5887543e0b7098634a1ad492b121fe82ef2f40e09d33eea0b8577d989ab0e"),
    ("evolve --omega=1 --delta=2.4 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "e4282bf6ec9dd4cfebee4dda96ce14fef70b8039b7e886e7f12e8d2f895eb252"),
    ("evolve --omega=2 --delta=0.6 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "8b83a636bae8ca253f86ad8b0d2653ab85ba613a89e623e0271a590775ece799"),
    ("evolve --omega=2 --delta=0.6 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "b61223feeb3abbbd7d000a78daddbb93b6dd1a2a0c5234348db6b092cbda5afe"),
    ("evolve --omega=1 --delta=2e200 --dim=7 --t-steps=5 --n0=2", "json"): (
        1, "7a22444a5a7616620dd94d75ae7c3ea205de5f0440db38e90e6324e2fe098154"),
    ("evolve --omega=1 --delta=2e200 --dim=7 --t-steps=5 --n0=2", "csv"): (
        1, "fb526557c72f2ff3e0605b20afe028fcb6c105dc1030060fb02ae33e4d607e2d"),
    ("grassmann --theta=-0.7,0.7,1e200 --dim=7", "json"): (
        0, "852d2cd8147542de93ebf93ea2d9e3a66285700782f8fd5a874148f2b5ad0ee1"),
    ("grassmann --theta=-0.7,0.7,1e200 --dim=7", "csv"): (
        0, "aafd72c7eda6ca0447660d475d758557e9399f101e7e1389e9754fdc4d66051b"),
    ("strings --theta=-0.7,0.7,1e200 --dim=7", "json"): (
        0, "0dcb5f6d6a4877b059698ca0ad8f719626950c96538a31c692fae4931f18a35e"),
    ("strings --theta=-0.7,0.7,1e200 --dim=7", "csv"): (
        0, "22d1d0e26bbf2e7e34af7ca2eb712125aa7feeee00a05d1fed467f2547665f2a"),
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH, reason=f"digests recorded with numpy {RECORDED_WITH}")
@pytest.mark.parametrize("command, fmt", sorted(DIGESTS))
def test_jc_report_bytes_are_pinned(command, fmt, capsys):
    code = cli.main(command.split() + [f"--format={fmt}"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[command, fmt], out
