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
    ("jc --theta=0.7 --dim=7", "json"): (0, "67633142445033c86dbe3343da3b67de82d2c07645de985c590cdd05ef550a33"),
    ("jc --theta=0.7 --dim=7", "csv"): (0, "371db6e6cb5258fb3cd18a6ef4f772786ea107abbe8aea5d12d87357b238b614"),
    ("jc --theta=-0.7 --dim=7", "json"): (0, "da2deb019d522cd530ff12673753c813f0ac9405accc0aebb6a11192c24bdf2c"),
    ("jc --theta=-0.7 --dim=7", "csv"): (0, "f9f7ad909fb345b3a386786787807c95e0aeee2cf4fb13d66612e00257a0e0a0"),
    ("jc --theta=1e200 --dim=7", "json"): (0, "e11c51fada4e131ff897fc219df3136608f6e4dc756e935d8a0d8cfcd33e9b95"),
    ("jc --theta=1e200 --dim=7", "csv"): (0, "a2308e3e0097ed638a287b739835e8dcadd64e2db310439ba2a8c3616b68453f"),
    ("evolve --theta=0.7 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "60c35b2fcdc286c75b85e59636685089a351935c105736264a342ca7714bee93"),
    ("evolve --theta=0.7 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "5f312ec35934265e9a14deb00f722ffc486ff16ac3d8d5238b3ff3387594e580"),
    ("evolve --theta=-0.7 --g=0.6 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "9a09aa1259249c17cf0cf341799738be1cd1154cc0c2d3a0263105bf0b4e7596"),
    ("evolve --theta=-0.7 --g=0.6 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "305a1141ed1f812c75446a590845e2a277a83636e99f910a886e02620b2bdb3b"),
    ("evolve --theta=1e200 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "5d0a6ae9a2eca803286d9ac00b65c0b975850e6b65bcc3d9a012469119abe3af"),
    ("evolve --theta=1e200 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "1121bc4f4fc40270ce52e5dce7899753aa7865c743d4bf633b7b9207722e1b0e"),
    ("evolve --omega=1 --delta=2.4 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "9cd74132c5aaa3943d128182cfe053057b81c7db601f2009adfa896868b22215"),
    ("evolve --omega=1 --delta=2.4 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "56833aff7c70decc06066afbcd495f35f9d94805e017d97d48a2d8eb1ac7661e"),
    ("evolve --omega=2 --delta=0.6 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "4a565178e2a9e4a9782eeecc8b9b909d95173016d7d66d933f9bdd9aa7f773b7"),
    ("evolve --omega=2 --delta=0.6 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "daabcd6c778213b446133c57cced2a1152be35963bff03e51e38b8d6fb2ffb1b"),
    ("evolve --omega=1 --delta=2e200 --dim=7 --t-steps=5 --n0=2", "json"): (
        1, "4034b8c467d32670d4bf7510e6d4eca36e0c502335c88bab6130ded5b5f0b6b8"),
    ("evolve --omega=1 --delta=2e200 --dim=7 --t-steps=5 --n0=2", "csv"): (
        1, "4ea93272774258f4a1747c70001b39e67416c2086cb7089f2924e38aaa301a02"),
    ("grassmann --theta=-0.7,0.7,1e200 --dim=7", "json"): (
        0, "fafc22ff5b29cdba094c9fc4f285d45e49495487a686246cdd7e6acfebbb6126"),
    ("grassmann --theta=-0.7,0.7,1e200 --dim=7", "csv"): (
        0, "0aa84e8c7b3105ca68b33aa38a8f94d2880045a9d2cc2221a2bf89c5f4033f96"),
    ("strings --theta=-0.7,0.7,1e200 --dim=7", "json"): (
        0, "d590436271d6f4308d019eb891a7640427f38117a7b9575b741f444d7925876c"),
    ("strings --theta=-0.7,0.7,1e200 --dim=7", "csv"): (
        0, "55335f8cc70919d0f07d810123340d38d612dc558564aa62b87fa91e00c1b9d9"),
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH, reason=f"digests recorded with numpy {RECORDED_WITH}")
@pytest.mark.parametrize("command, fmt", sorted(DIGESTS))
def test_jc_report_bytes_are_pinned(command, fmt, capsys):
    code = cli.main(command.split() + [f"--format={fmt}"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[command, fmt], out
