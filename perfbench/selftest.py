"""Self-tests of the benchmark itself (not part of the package test suite).

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker.import_program()

SMALL = {
    "berry": ["berry", "--algebra=H", "--grid=z=-1:1:3,w=0:1:2", "--samples=3", "--seed=4"],
    "jc": ["jc", "--theta=-0.7", "--dim=12", "--seed=4"],
    "strings": ["strings", "--theta=-1e8,-0.5,0.5", "--dim=10", "--seed=4"],
    "grassmann": ["grassmann", "--theta=0.25,-2", "--dim=12", "--seed=4"],
    "evolve": [
        "evolve", "--theta=-0.8", "--g=1", "--dim=16", "--t-max=10", "--t-steps=7",
        "--n0=3", "--format=csv", "--seed=4",
    ],
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def _first_blocks(workload, seed, n=3):
    return list(itertools.islice(workloads.blocks(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_requests(workload):
    assert _first_blocks(workload, 5) == _first_blocks(workload, 5)
    assert _first_blocks(workload, 5) != _first_blocks(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_blocks_keep_the_command_mix(workload):
    mixes = {tuple(sorted(argv[0] for argv in block)) for block in _first_blocks(workload, 9, 6)}
    assert len(mixes) == 1


def test_sigma3_check_rejects_perturbed_record():
    client = worker.Client(cli)
    argv = SMALL["evolve"]
    rc, text = _run(argv)
    good = checks.check(argv, rc, text, client.validators, client.columns)
    assert good.problems == [] and good.records == 7
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    bad_text = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    bad = checks.check(argv, rc, bad_text, client.validators, client.columns)
    assert any("Rabi law" in p for p in bad.problems)


def test_failed_requests_are_counted_and_the_run_goes_on():
    client = worker.Client(cli)
    requests = [
        # raises ZeroDivisionError inside cli.main (near-string chart I)
        ["berry", "--algebra=C", "--grid=z=-1:-1:1,w=1e-10:1e-10:1", "--samples=0", "--seed=1"],
        # parser.error: the space-separated negative theta list exits 2
        ["strings", "--theta", "-1,1", "--dim=8"],
        # parser.error from a configuration check
        ["jc", "--theta=0.5", "--dim=1"],
        SMALL["jc"],
    ]
    results = [client.issue(argv) for argv in requests]
    stats = worker.summarize(results)
    assert stats["attempted"] == 4 and stats["failed"] == 3 and stats["incorrect"] == 0
    assert results[0]["error"].startswith("ZeroDivisionError")
    assert results[1]["error"] == results[2]["error"] == "exit 2"
    assert results[3]["ok"] and stats["records"] == 1


def test_timed_requests_leave_the_defect_probe_out():
    # the near-string bands live only in the classical_sweep defect probe
    for block in _first_blocks("classical_sweep", 3):
        assert {checks.options(argv)["grid"] for argv in block} == {workloads.BERRY_GRID}
    probe = workloads.DEFECT_PROBE["classical_sweep"]
    assert len(probe) == 28 and all(workloads.BERRY_GRID not in argv[2] for argv in probe)


def test_defect_probe_is_counted_without_ending_the_run():
    client = worker.Client(cli)
    probe = workloads.DEFECT_PROBE["jc_scaling"]
    stats = worker.summarize([client.issue(argv) for argv in probe])
    assert stats["attempted"] == len(probe) and stats["incorrect"] == 0
    assert stats["records"] == sum(checks.expected_records(argv) for argv in probe)


def test_exit_code_and_failure_count_are_checked():
    client = worker.Client(cli)
    argv = SMALL["strings"]
    rc, text = _run(argv)
    ok = checks.check(argv, rc, text, client.validators, client.columns)
    assert ok.problems == [] and ok.records == 3
    wrong_rc = checks.check(argv, 1 - rc, text, client.validators, client.columns)
    assert any("exit code" in p for p in wrong_rc.problems)
    fewer = checks.check(argv[:1] + ["--theta=1,2,3,4"] + argv[2:], rc, text, client.validators, client.columns)
    assert any("records" in p for p in fewer.problems)


def test_schema_violations_are_caught():
    import json

    client = worker.Client(cli)
    argv = SMALL["berry"]
    rc, text = _run(argv)
    report = json.loads(text)
    del report["records"][0]["pass"]
    bad = checks.check(argv, rc, json.dumps(report), client.validators, client.columns)
    assert any("'pass' is a required property" in p for p in bad.problems)


def test_layer_self_times_sum_to_traced_request_time():
    tr = tracer.Tracer()
    client = worker.Client(cli, tr.main)
    results = []
    for i, argv in enumerate(SMALL.values()):
        tr.request = i
        tr.install()
        try:
            results.append(client.issue(argv))
        finally:
            tr.uninstall()
    assert cli.render_json.__name__ == "render_json" and not hasattr(cli.render_json, "__wrapped__")
    summary = tr.summary()
    layers = set(summary["layers"])
    assert layers == set(tracer.LAYERS)
    roots = [s for s in tr.spans if s[3] == -1]
    assert len(roots) == len(SMALL) and all(tr.names[s[0]] == tracer.ROOT for s in roots)
    total_self = sum(summary["layers"].values())
    assert total_self == pytest.approx(sum(s[2] - s[1] for s in roots), abs=1e-9)
    # stated remainder: the root wrapper's own entry and exit, < 1 ms a request
    wall = sum(r["wall"] for r in results)
    assert 0.0 <= wall - total_self < 1e-3 * len(results)
    for layer in ("algebra", "berry", "jc", "fock", "grassmann", "oracle", "cli.render", "cli.other"):
        assert summary["layers"][layer] > 0.0, layer
