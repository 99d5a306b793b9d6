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
    ("jc --theta=0.7 --dim=7", "json"): (0, "57ce0e8ee18633dac67b63166c5b98cd436f5e2e5b42cc71a395af5e5f7a8d0c"),
    ("jc --theta=0.7 --dim=7", "csv"): (0, "3caf4574f5ea3a225def7270c6acbf356bb8abcba31a6e4b7fb765aacd7cac35"),
    ("jc --theta=-0.7 --dim=7", "json"): (0, "ea685cb87d23ac60b87b55bcc528d571fa8fcf03655b687ee46d0c0b326ffc91"),
    ("jc --theta=-0.7 --dim=7", "csv"): (0, "8ece30313c2358abefa90023ee12f854726236c8752fa2f1e03846384b5bbbbb"),
    ("jc --theta=1e200 --dim=7", "json"): (0, "df26e9496ddd276387c74cbee23c69af9151e9ed85b9b88000a7b8e77cef5435"),
    ("jc --theta=1e200 --dim=7", "csv"): (0, "b85ae8a5c4fccaf363e6a37f70404f1366cbecc9d2c15b59b4753f2fafeaba81"),
    ("evolve --theta=0.7 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "91d507c553568e4b69e08893836914b10c7cb8bbaf99c646593e858c6a31c47d"),
    ("evolve --theta=0.7 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "4642ad7144870f0481b42685308d4eddb8b747122dfddbb79a38c025f6c8ed64"),
    ("evolve --theta=-0.7 --g=0.6 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "2595f876d5c42150e64e321c079cc6994c8a810e92db0d57f92ab2afb4a2a9fa"),
    ("evolve --theta=-0.7 --g=0.6 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "38834d4f195c144ab8a86004043b3ddeadbbf5ec3863c595a0437e5e361af2a9"),
    ("evolve --theta=1e200 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "ec8083426ac39cf41432bf932b40cee439698279dbb2dc608420a5deb80a0e89"),
    ("evolve --theta=1e200 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "df8ea4eb599b21a80dedd68e6931e99b92e84986c9fb3d7bf47f8edc5473ccc7"),
    ("evolve --omega=1 --delta=2.4 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "19e727ac97faccbdc147592b3806883347ce959f0fb153768fb84f17f2ca48c1"),
    ("evolve --omega=1 --delta=2.4 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "9112f9d25f6a00782e29db2f19d97cc802eb9a877e588ae22792eacd107f9084"),
    ("evolve --omega=2 --delta=0.6 --dim=7 --t-steps=5 --n0=2", "json"): (
        0, "c6042eb0005dfbbe600642779476461eec803d7d77281ccc03b91b45b1868079"),
    ("evolve --omega=2 --delta=0.6 --dim=7 --t-steps=5 --n0=2", "csv"): (
        0, "1a4e779b9cee806292716fec052cd8ce44fd184b8a0e00e0ccc217261978f357"),
    ("evolve --omega=1 --delta=2e200 --dim=7 --t-steps=5 --n0=2", "json"): (
        1, "da7eef74c62d50743e0335159ff98d9905cf9cc98185fcf56ba7341ab6e6a0a4"),
    ("evolve --omega=1 --delta=2e200 --dim=7 --t-steps=5 --n0=2", "csv"): (
        1, "aeaf621624f2421f24ec58cac3466cdd55b4f8ae5318430a5d52d7f505065f73"),
    ("grassmann --theta=-0.7,0.7,1e200 --dim=7", "json"): (
        0, "d24473a8d54bbe31092241db6775a3a859e80aaf4eef8b1158cda7933f601096"),
    ("grassmann --theta=-0.7,0.7,1e200 --dim=7", "csv"): (
        0, "238f28c9dda7d75905e00cbddc15ec93a05c4df3997b3cefb9df0a2266579686"),
    ("strings --theta=-0.7,0.7,1e200 --dim=7", "json"): (
        0, "6a847dc30cfb99c00ad0f649d1a54e37e6dfaa0521a710d761ec8d39cb9beb4b"),
    ("strings --theta=-0.7,0.7,1e200 --dim=7", "csv"): (
        0, "5c6c3289030c5b6b33b7532a24bbb65f8898ac3abe33c52ea33958a30e8eb4f9"),
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH, reason=f"digests recorded with numpy {RECORDED_WITH}")
@pytest.mark.parametrize("command, fmt", sorted(DIGESTS))
def test_jc_report_bytes_are_pinned(command, fmt, capsys):
    code = cli.main(command.split() + [f"--format={fmt}"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[command, fmt], out
