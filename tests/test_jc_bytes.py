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
    ("jc --theta=0.7 --dim=7", "json"): (0, "b7073ef7d1ae6d5fb5768f9bfd72eafd3c02f1de4c1ef4aeec5fdcac12abe6e3"),
    ("jc --theta=0.7 --dim=7", "csv"): (0, "dbe6f6c46163c50523866acff7ecdd424885d0381af6be23adb867f895205dc9"),
    ("jc --theta=-0.7 --dim=7", "json"): (0, "a3081db322c11aed77a143be5d782895f13e9d7e513c604c3f22791a495d1425"),
    ("jc --theta=-0.7 --dim=7", "csv"): (0, "d3dec75c90e9064b1ff5bc195851ac335f119a53d82d769a19baf6b757ddd47a"),
    ("jc --theta=1e200 --dim=7", "json"): (0, "0131e2d3b2ac2c1247274b6575d383746a83485d5a8d588bba4d1191ded0044f"),
    ("jc --theta=1e200 --dim=7", "csv"): (0, "dfa69ec4fd26db307f6cf3e65e030211ad2eddfa3b0f3065da5ced0bf9167a24"),
    ("evolve --theta=0.7 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "3a46abddc771077656faaac801a1d18222d5e8c02063cbcc00b3c37021a1681e"),
    ("evolve --theta=0.7 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "f490420f05329e7917332d0fa247150915f9c21a00878cee4d76134c48804d98"),
    ("evolve --theta=-0.7 --g=0.6 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "a6d17e8097e29502995a1dcb6be8ce9d104e9e73cc8f8bb14db641e235d71ea3"),
    ("evolve --theta=-0.7 --g=0.6 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "f29e30911e7fe3739ba4855367b198c7124facc8a2807cd1afca14b86f4e3b7b"),
    ("evolve --theta=1e200 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "818351243c464cb921735f3b364bf2498e7fbcb60c697ce057a88ad3b9f9736c"),
    ("evolve --theta=1e200 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "45dd348e22b44413f8f79d0f41c4c275145341bec4d579bf33932b0663fb5b67"),
    ("evolve --omega=1 --delta=2.4 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "f8ac322268c7d1a53b0e5b708fae3dc3db27cf63ec067ec28865eea12fcf4037"),
    ("evolve --omega=1 --delta=2.4 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "befb13fb36acdaac8ebe188fc41551c73c252687c924662db3c6690982797020"),
    ("evolve --omega=2 --delta=0.6 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "da600c1f451da1c6f28381c89f4208906b231d232283b542d9bad1eeb2fe6642"),
    ("evolve --omega=2 --delta=0.6 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "19fa741bda185f04f92d6997dc7c4f937d4884bb4135c54fd28dc5a350a3003a"),
    ("evolve --omega=1 --delta=2e200 --dim=7 --t-steps=5 --n0=2", "json"): (
        1, "cfee01f314ff167f348423f28f5e796ff9855cd9ebbe75c7c7611b21ad3890da"),
    ("evolve --omega=1 --delta=2e200 --dim=7 --t-steps=5 --n0=2", "csv"): (
        1, "9929105c44a05474029d2a11dc03a8fbb9709d8efb2b4f92ffbbad42395f762b"),
    ("grassmann --theta=-0.7,0.7,1e200 --dim=7", "json"): (
        0, "99af9fc6bb4650742927996cc36c9b58c57d5dc2cf73cfeb738d359c13735e4c"),
    ("grassmann --theta=-0.7,0.7,1e200 --dim=7", "csv"): (
        0, "70a6c24d542300a9d4e12315b8eceaa7a140b2dd1c4ad07d75e1ac5a47fba813"),
    ("strings --theta=-0.7,0.7,1e200 --dim=7", "json"): (
        0, "d32c6b7515b85e9ded46500a80d0e7bd147b95c74ed461ac2ae68158eb143311"),
    ("strings --theta=-0.7,0.7,1e200 --dim=7", "csv"): (
        0, "12f911a472c4a539b6309af55b3eb0f237d56e337fea59280ad26f16f226b911"),
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH, reason=f"digests recorded with numpy {RECORDED_WITH}")
@pytest.mark.parametrize("command, fmt", sorted(DIGESTS))
def test_jc_report_bytes_are_pinned(command, fmt, capsys):
    code = cli.main(command.split() + [f"--format={fmt}"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[command, fmt], out
