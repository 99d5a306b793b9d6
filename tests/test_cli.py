import argparse
import dataclasses
import gc
import json
import math
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from references import expm_from_eig

from hjc import berry, cli, jc, oracle, report
from hjc.config import DEFAULT, Tolerances


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hjc.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


DEFAULT_RUNS = {
    "berry": ["berry", "--seed", "11"],
    "jc": ["jc", "--seed", "11"],
    "strings": ["strings", "--seed", "11"],
    "evolve": ["evolve", "--seed", "11", "--format", "json"],
    "grassmann": ["grassmann", "--seed", "11"],
}


def test_the_schema_is_6():
    # the one pin of the schema number: every other test reads the constant
    assert report.SCHEMA_VERSION == 6


@pytest.mark.parametrize("command", sorted(DEFAULT_RUNS))
def test_default_suite_passes_and_validates(command):
    proc = run_cli(*DEFAULT_RUNS[command])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, cli.SCHEMAS[command])
    params = cli.SCHEMAS[command]["properties"]["params"]
    assert sorted(params["required"]) == sorted(params["properties"]) == sorted(payload["params"])
    assert payload["schema"] == report.SCHEMA_VERSION
    assert payload["seed"] == 11
    assert payload["summary"]["passed"] is True


@pytest.mark.parametrize("command", ["berry", "evolve"])
def test_seeded_runs_byte_identical(command):
    args = DEFAULT_RUNS[command]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


def test_csv_output_header():
    proc = run_cli("evolve", "--seed", "3", "--t-steps", "5", "--dim", "12")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l == "# seed: 3" for l in meta)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == ",".join(cli.CSV_COLUMNS["evolve"])
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 5


def test_berry_grid_class_column():
    proc = run_cli("berry", "--grid", "z=-2:2:5,w=0:0:1", "--samples", "0", "--seed", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    classes = [r["class"] for r in payload["records"]]
    assert classes == [
        "lower_string",
        "lower_string",
        "origin",
        "upper_string",
        "upper_string",
    ]


@pytest.mark.parametrize("tag", ["R", "O"])
@pytest.mark.parametrize("samples", [0, 4])
def test_berry_records_are_the_grid_then_the_samples(tag, samples, capsys):
    # a record's position is its point's index in the sweep: the positions
    # below w_count * z_count are the grid, ||w|| outer and z inner, and
    # the rest are the samples, as drawn after the grid direction
    grid = "z=-1:1:3,w=0:2:2"
    assert cli.main(["berry", f"--algebra={tag}", f"--grid={grid}", f"--samples={samples}", "--seed=5"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    w = np.array([r["point"]["w"]["coeffs"] for r in records])
    z = np.array([r["point"]["z"] for r in records])
    wscales, zvals = cli.parse_grid(grid)
    cells = len(wscales) * len(zvals)
    assert len(records) == cells + samples
    assert z[:cells].tolist() == np.tile(zvals, len(wscales)).tolist()
    assert np.linalg.norm(w[:cells], axis=1) == pytest.approx(np.repeat(wscales, len(zvals)), rel=1e-15)
    rng = np.random.default_rng(5)
    rng.standard_normal(w.shape[1])  # the grid direction
    draws = rng.standard_normal((samples, w.shape[1] + 1))
    assert w[cells:].tolist() == draws[:, :-1].tolist() and z[cells:].tolist() == draws[:, -1].tolist()


def test_berry_octonion_sample_suite():
    proc = run_cli("berry", "--algebra", "O", "--samples", "100", "--seed", "5")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["summary"]["failures"] == 0


def test_empty_grid_is_usage_error():
    proc = run_cli("berry", "--grid", "z=-2:2:0,w=0:1:3")
    assert proc.returncode == 2


def test_malformed_grid_is_usage_error():
    proc = run_cli("berry", "--grid", "nonsense")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "grid, message",
    [
        ("z=-1:1:3,w=0:1:2,q=0:1:5", "unknown axis 'q'"),
        ("z=-1:1:3,z=0:0:1,w=0:1:2", "axis 'z' twice"),
    ],
)
def test_unknown_or_repeated_grid_axis_is_a_usage_error(grid, message, capsys):
    with pytest.raises(cli.ConfigError, match=message):
        cli.parse_grid(grid)
    with pytest.raises(SystemExit) as exc:
        cli.main(["berry", "--samples", "0", f"--grid={grid}"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # an impossible tolerance forces the failure path; report still written
        ["jc", "--theta", "0.5", "--dim", "16", "--tol-reconstruction", "1e-30"],
        # a phase t g R or t omega (n +- 1/2) beyond the double range is NaN,
        # not a warning: the report is complete and fails
        ["evolve", "--theta=1.7e308", "--dim=6", "--format=csv"],
        ["evolve", "--theta=-1.7e308", "--dim=6", "--format=csv"],
        ["evolve", "--omega=1e307", "--delta=1e307", "--dim=6", "--format=csv"],
    ],
)
def test_numerical_failure_exit_code(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1
    if argv[0] == "jc":
        payload = json.loads(proc.stdout)
        assert payload["summary"]["passed"] is False
    else:
        lines = proc.stdout.splitlines()
        assert lines[4] == ",".join(cli.CSV_COLUMNS["evolve"]) and len(lines) == 5 + 50  # t_steps records
    # warnings as errors leave the run as it was
    strict = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hjc.cli", *argv], capture_output=True, text=True, timeout=300
    )
    assert strict.returncode == 1 and "Traceback" not in strict.stderr
    assert strict.stdout == proc.stdout


# theta = 1: every oracle phase t W is NaN, t = 0 included (0 * inf), so
# every step fails; theta = 0: the eigenvalues stay finite, and only the
# step t = 0 is resolved
@pytest.mark.parametrize("theta,failures", [("1", 7), ("0", 6)])
@pytest.mark.parametrize("strict", [False, True])
def test_evolve_at_a_coupling_near_the_double_range_fails_with_a_complete_report(theta, failures, strict):
    # g H at g = 1e308: the oracle solves it scaled by a power of two and
    # returns eigenvalues beyond the double range as +-inf, and the phases
    # g t R (and g t itself at resonance) overflow to NaN; no traceback,
    # with warnings as errors too
    argv = ["evolve", f"--theta={theta}", "--g=1e308", "--dim=4", "--t-steps=7", "--format=json"]
    proc = subprocess.run(
        [sys.executable, *(["-W", "error"] if strict else []), "-m", "hjc.cli", *argv],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, cli.SCHEMAS["evolve"])
    assert len(payload["records"]) == 7 and payload["summary"]["failures"] == failures


def test_command_flag_alias():
    # the subcommand is spelt one way: as the first argument
    proc = run_cli("--command", "strings", "--seed", "2", "--dim", "8")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_env_seed_fallback():
    import os
    import subprocess as sp

    env = dict(os.environ, HJC_SEED="77")
    proc = sp.run(
        [sys.executable, "-m", "hjc.cli", "strings", "--dim", "8"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    # the seed is read from --seed only
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 0


def test_strings_report_stays_small(tmp_path):
    # the sector columns grow as 4d; no output grows as d^2
    target = tmp_path / "strings.json"
    assert cli.main(["strings", "--theta=-1,1", "--dim", "300", "--out", str(target)]) == 0
    assert target.stat().st_size < 1_000_000


def test_strings_ground_only_flag():
    proc = run_cli("strings", "--theta", "0.5,-0.5,0", "--dim", "8", "--seed", "0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert all(r["ground_only"] for r in payload["records"])


def test_grassmann_singular_theta_reported():
    proc = run_cli("grassmann", "--theta", "0.5,-0.5", "--dim", "12", "--seed", "0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    by_theta = {r["theta"]: r for r in payload["records"]}
    assert by_theta[-0.5]["singular_levels"] == [0]
    assert by_theta[-0.5]["roundtrip_residual"] is None
    assert by_theta[0.5]["singular_levels"] == []
    assert by_theta[0.5]["roundtrip_residual"] is not None


def test_evolve_full_hamiltonian_path():
    proc = run_cli(
        "evolve", "--omega", "1", "--delta", "1.5", "--g", "1", "--dim", "16",
        "--t-steps", "8", "--seed", "0", "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["params"]["theta"] == 0.25  # derived from (delta-omega)/2g
    assert payload["summary"]["passed"] is True


def _evolve_records(capsys, *argv):
    code = cli.main(["evolve", "--t-max=10", "--t-steps=5", "--format=json", *argv])
    return code, json.loads(capsys.readouterr().out)["records"]


@pytest.mark.parametrize("path", ["interaction", "omega_delta"])
@pytest.mark.parametrize("theta", [0.0, 0.25, -0.25, 3.0, -3.0])
@pytest.mark.parametrize("d", [2, 3, 12, 48])
def test_evolve_residual_bounds_the_dense_entrywise_error(d, theta, path, capsys):
    # the reported residual, a row 2-norm over all columns, is at least the
    # largest entry of U(t) - exp(-itH)
    if path == "interaction":
        argv = [f"--theta={theta!r}"]
        p = jc.JCParams(theta, d)
        h, evolve = jc.hamiltonian(p), jc.propagator
    else:
        argv = ["--omega=1", f"--delta={1 + 2 * theta!r}"]  # theta = (delta - omega) / 2g, exactly
        p = jc.JCParams(theta, d)
        h1, h2 = jc.full_hamiltonian(p, 1.0)
        h, evolve = h1 + h2, lambda p, t: jc.full_propagator(p, 1.0, t)
    code, records = _evolve_records(capsys, f"--dim={d}", *argv)
    assert code == 0
    w, v = oracle.eig_hermitian(h.full())
    # rounding slack: the dense reference V exp(-itW) V^T is itself only
    # as unitary as V, about 2d eps (measured gaps stay below 0.2 of it)
    slack = 2 * d * np.finfo(float).eps
    for rec in records:
        diff = evolve(p, rec["t"]).full() - expm_from_eig(w, v, rec["t"])
        entrywise = np.max(np.abs(diff))
        assert rec["closed_vs_oracle_residual"] >= entrywise - slack
        assert max(rec["closed_vs_oracle_residual"], entrywise) <= DEFAULT.propagator


def _perturb_propagator(mp, mutate):
    orig = jc.propagator

    def perturbed(p, t):
        u = orig(p, t)
        mutate(u)
        return u

    mp.setattr(jc, "propagator", perturbed)


def _ground_phase_off(mp):
    # the ground level |g,0> is a sector of its own: a phase error there
    # leaves U(t) unitary (the level axis is the last one of the stack)
    def mutate(u):
        u.diags[1][1][0][..., 0] *= np.exp(1e-6j)

    _perturb_propagator(mp, mutate)


def _top_phase_off(mp):
    # the top level |e,d-1> is a sector of its own too
    def mutate(u):
        u.diags[0][0][0][..., -1] *= np.exp(1e-6j)

    _perturb_propagator(mp, mutate)


def _off_sector_entry(mp):
    # <e,0| U |e,2>: two sectors that U(t) never couples
    def mutate(u):
        u.diags[0][0][2] = np.zeros(u.batch + (u.dim - 2,), dtype=complex)
        u.diags[0][0][2][..., 0] = 1e-6

    _perturb_propagator(mp, mutate)


def _oracle_eigenvalues_shifted(mp):
    orig = oracle.eig_hermitian

    def shifted(m):
        w, v = orig(m)
        return w + 1e-6, v

    mp.setattr(oracle, "eig_hermitian", shifted)


@pytest.mark.parametrize(
    "perturb", [_ground_phase_off, _top_phase_off, _off_sector_entry, _oracle_eigenvalues_shifted]
)
@pytest.mark.parametrize("path", [[], ["--omega=1", "--delta=1.5"]])
def test_evolve_residual_catches_errors_of_1e_6(perturb, path, capsys, monkeypatch):
    perturb(monkeypatch)
    code, records = _evolve_records(capsys, "--dim=8", *path)
    assert code == 1
    assert max(rec["closed_vs_oracle_residual"] for rec in records) > 1e-7
    if perturb in (_ground_phase_off, _top_phase_off):
        assert all(rec["unitarity"] <= 1e-15 for rec in records)


@pytest.mark.parametrize("path", ["interaction", "omega_delta"])
@pytest.mark.parametrize("d, steps", [(3, 1), (3, 7), (3, 50), (96, 3)])
@pytest.mark.parametrize("chunk", ["default", 2 * 6 * 4])
def test_evolve_stacks_equal_the_per_step_propagators(d, steps, path, chunk, capsys, monkeypatch):
    # the default chunk holds both planes of all six d = 3 rows; a chunk
    # of four d = 3 rows leaves a short last chunk of two.  Both planes of
    # the d = 96 rows exceed either chunk, so they are split (to single
    # rows in the small one).
    if chunk != "default":
        monkeypatch.setattr(jc, "RESIDUAL_CHUNK", chunk)
    assert 2 * 192 * 192 > jc.RESIDUAL_CHUNK >= 2 * 6 * (6 if chunk == "default" else 4)
    if path == "interaction":
        argv = ["--theta=0.3", "--g=0.7"]
        p = jc.JCParams(0.3, d, 0.7)
        h, evolve = 0.7 * jc.hamiltonian(p), jc.propagator
    else:
        argv = ["--omega=1", "--delta=1.6"]
        p = jc.JCParams((1.6 - 1.0) / 2.0, d)  # theta = (delta - omega) / 2g
        h1, h2 = jc.full_hamiltonian(p, 1.0)
        h, evolve = h1 + h2, lambda p, t: jc.full_propagator(p, 1.0, t)
    code, records = _evolve_records(capsys, f"--dim={d}", f"--t-steps={steps}", "--n0=1", *argv)
    assert code == 0
    assert [rec["t"] for rec in records] == np.linspace(0.0, 10.0, steps).tolist()
    w, v = oracle.eig_hermitian(h.full())
    start = np.zeros(2 * d)
    start[1] = 1.0
    ident = jc.BlockOperator.identity(d)
    for rec in records:
        # the per-step reference: one scalar-t propagator, as before stacks
        u = evolve(p, rec["t"])
        psi = u.apply(start)
        assert rec["unitarity"] == jc.block_residual(u.dagger() @ u, ident)
        assert rec["sigma3"] == float(np.sum(np.abs(psi[:d]) ** 2) - np.sum(np.abs(psi[d:]) ** 2))
        # the residual against a dense per-step evaluation: the two round
        # differently, by a few eps per row norm
        dense = u.full() @ v - v * np.exp(-1j * rec["t"] * w)
        expected = float(np.sqrt(np.max(np.sum(np.abs(dense) ** 2, axis=1))))
        assert abs(rec["closed_vs_oracle_residual"] - expected) <= 4 * np.finfo(float).eps * np.sqrt(2 * d)


def test_evolve_rejects_lone_omega():
    proc = run_cli("evolve", "--omega", "1.0", "--dim", "8")
    assert proc.returncode == 2
    assert "omega and delta must be supplied together" in proc.stderr


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("jc", "--dim", "12", "--seed", "4", "--out", str(target))
    assert proc.returncode == 0
    payload = json.loads(target.read_text())
    assert payload["command"] == "jc"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_out_dev_stdout_on_a_pipe_writes_the_stdout_bytes():
    # /dev/stdout on a pipe resolves to a /proc/<pid>/fd/pipe:[N] name that
    # cannot be opened; the device is written as it is
    argv = [sys.executable, "-m", "hjc", "jc", "--dim", "4"]
    piped = subprocess.run([*argv, "--out", "/dev/stdout"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    plain = subprocess.run([*argv, "--out", "-"], stdout=subprocess.PIPE, timeout=300)
    assert piped.returncode == 0, piped.stderr.decode()
    assert piped.stdout == plain.stdout and plain.returncode == 0


def test_out_dev_stdout_appended_to_a_file_keeps_its_earlier_content(tmp_path):
    # as `hjc jc --dim 2 --out /dev/stdout >> log.txt`: /dev/stdout is the
    # regular file itself, which must be appended to, not replaced
    log = tmp_path / "log.txt"
    log.write_bytes(b"earlier line\n")
    argv = [sys.executable, "-m", "hjc", "jc", "--dim", "2"]
    with open(log, "ab") as stdout:
        appended = subprocess.run([*argv, "--out", "/dev/stdout"], stdout=stdout, stderr=subprocess.PIPE, timeout=300)
    plain = subprocess.run([*argv, "--out", "-"], stdout=subprocess.PIPE, timeout=300)
    assert appended.returncode == 0, appended.stderr.decode()
    assert plain.returncode == 0 and plain.stdout.startswith(b'{\n  "command": "jc"')
    assert log.read_bytes() == b"earlier line\n" + plain.stdout
    assert [p.name for p in tmp_path.iterdir()] == ["log.txt"]


# numpy's message for the dense oracle matrix of d = 20000
_NO_MEMORY = "Unable to allocate 11.9 GiB for an array with shape (40000, 40000) and data type float64"
_TOO_LARGE = {"jc": ["jc", "--dim=20000"], "evolve": ["evolve", "--dim=20000", "--t-steps=2", "--format=csv"]}


@pytest.mark.parametrize("command", list(_TOO_LARGE))
def test_a_request_too_large_to_allocate_is_a_usage_error(command, tmp_path, monkeypatch, capsys):
    # the dense export refuses the allocation here without trying it
    def refuse(op):
        raise MemoryError(_NO_MEMORY)

    monkeypatch.setattr(jc.BlockOperator, "full", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main(_TOO_LARGE[command])
    assert exc.value.code == 2 and _NO_MEMORY in capsys.readouterr().err
    # as a command: no traceback, and an existing --out file keeps its bytes
    target = tmp_path / "report"
    target.write_bytes(b"the previous report\n")
    script = (
        "import sys; from hjc import cli, jc\n"
        "def refuse(op): raise MemoryError(sys.argv[1])\n"
        "jc.BlockOperator.full = refuse\n"
        "sys.exit(cli.main(sys.argv[2:]))\n"
    )
    argv = [sys.executable, "-c", script, _NO_MEMORY, *_TOO_LARGE[command], "--out", str(target)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and proc.stdout == ""
    assert _NO_MEMORY in proc.stderr and "Traceback" not in proc.stderr
    assert target.read_bytes() == b"the previous report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report"]


@pytest.mark.parametrize("command", ["berry", "evolve"])
def test_a_request_too_large_to_validate_is_a_usage_error(command, monkeypatch, capsys):
    # the berry grid and the evolve Hamiltonian are built while the options
    # are checked, before --out is opened
    def refuse(*args):
        raise MemoryError(_NO_MEMORY)

    monkeypatch.setattr(cli, "parse_grid", refuse)
    monkeypatch.setattr(jc, "hamiltonian", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main([command])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and _NO_MEMORY in err


# sizes beyond numpy's array limits, each refused before an array exists
_OVERSIZE = [
    "jc --dim=99999999999999999999",
    "evolve --dim=99999999999999999999",
    "grassmann --dim=99999999999999999999",
    "strings --dim=9223372036854775807",
    "evolve --dim 3 --t-steps=99999999999999999999",
    "berry --grid=z=0:1:99999999999999999999,w=0:1:1 --samples 0",
]


@pytest.mark.parametrize("argv", _OVERSIZE)
def test_a_size_beyond_numpys_array_limits_is_a_usage_error(argv, capsys):
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and str(cli._MAX_SIZE) in err
    assert peak < 2**20
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "hjc", *argv.split()], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("command", ["berry", "jc"])
def test_unwritable_out_is_a_usage_error_before_any_computation(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.COMMANDS, command, lambda args: pytest.fail("computed before the output was opened"))
    for out in (tmp_path / "missing" / "x", tmp_path):  # no such directory; a directory
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--samples=2" if command == "berry" else "--dim=4", "--format=csv", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot write --out" in err and "Traceback" not in err
    proc = run_cli(command, "--format=csv", "--out", str(tmp_path / "missing" / "x"))
    assert proc.returncode == 2 and "cannot write --out" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failing_chunk_leaves_the_out_file_untouched(fmt, tmp_path, monkeypatch):
    target = tmp_path / "report"
    target.write_text("the previous report\n")
    passes = []
    berry_pass = berry.check_points

    def fail_second(pts):
        passes.append(len(pts.z))
        if len(passes) == 2:
            raise FloatingPointError("injected")
        return berry_pass(pts)

    monkeypatch.setattr(cli, "BERRY_CHUNK", 4)
    monkeypatch.setattr(berry, "check_points", fail_second)
    with pytest.raises(FloatingPointError):
        cli.main(["berry", "--samples=10", f"--format={fmt}", "--out", str(target)])
    assert passes == [4, 4]
    assert target.read_text() == "the previous report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report"]
    monkeypatch.setattr(berry, "check_points", berry_pass)
    assert cli.main(["berry", "--samples=10", f"--format={fmt}", "--out", str(target)]) == 0
    assert target.read_text().startswith("{" if fmt == "json" else f"# schema: {report.SCHEMA_VERSION}")
    assert [p.name for p in tmp_path.iterdir()] == ["report"]


BERRY_GRIDS = [
    "z=-2:2:9,w=0:1:3",  # the default grid
    "z=-1:1:7,w=1e-13:1e-11:3",  # a near-string band
    "z=0:0:1,w=0:0:1",  # the origin alone
]


@pytest.mark.parametrize("tag", ["R", "C", "H", "O"])
@pytest.mark.parametrize("grid", BERRY_GRIDS)
def test_berry_reports_do_not_depend_on_the_chunk(tag, grid, monkeypatch, capsys):
    argv = ["berry", f"--algebra={tag}", f"--grid={grid}", "--samples=13", "--seed=3"]
    outputs = set()
    for chunk in (1, 7, 1024):
        monkeypatch.setattr(cli, "BERRY_CHUNK", chunk)
        codes = [cli.main(argv + [f"--format={fmt}"]) for fmt in ("json", "csv")]
        outputs.add((tuple(codes), capsys.readouterr().out))
    assert len(outputs) == 1


def test_chunked_draws_equal_one_draw():
    # the berry samples are drawn chunk by chunk from one generator
    one = np.random.default_rng(7).standard_normal((100, 9))
    rng = np.random.default_rng(7)
    parts = [rng.standard_normal((n, 9)) for n in (1, 7, 0, 64, 28)]
    assert np.array_equal(np.concatenate(parts), one)


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the reader goes away after one line of a report far larger than a
    # pipe's buffer
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "hjc", "berry", "--samples", "20000", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == f"# schema: {report.SCHEMA_VERSION}\n".encode()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert "Traceback" not in err and "Error" not in err, err


def test_tolerances_options_and_declared_residuals_name_the_same_fields():
    # each command takes the --tol-* options of the tolerances that judge
    # its records, and every Tolerances field judges some declared residual
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    for name, sub in commands.items():
        assert [a.dest for a in sub._actions if a.dest.startswith("tol_")] == [f"tol_{t}" for t in cli.RECORDS[name].tols]
    assert {t for rec in cli.RECORDS.values() for t in rec.tols} == {f.name for f in dataclasses.fields(Tolerances)}
    assert {name: rec.tols for name, rec in cli.RECORDS.items()} == {
        "berry": ("algebraic",),
        "jc": ("algebraic", "reconstruction"),
        "strings": (),
        "evolve": ("propagator",),
        "grassmann": ("algebraic", "reconstruction"),
    }
    # the walk reaches the fields of nested records and of list items
    inner = report.Record(report.Field("a", report.NUM, tol="reconstruction"))
    item = report.Record(report.Field("c", report.NUM, tol="propagator"))
    rec = report.Record(report.Field("r", report.Record(report.Field("n", inner))), report.Field("l", [item]))
    assert rec.tols == ("propagator", "reconstruction")


def test_params_declare_the_options_and_the_report_params_of_each_command():
    # every option of a command but the common ones and its --tol-* options
    # is a declared param, and every declared param is a key of the report's params
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    common = {"help", "seed", "fmt", "out"}
    assert list(commands) == list(cli.PARAMS) == list(cli.COMMANDS)
    for name, sub in commands.items():
        tols = {f"tol_{t}" for t in cli.RECORDS[name].tols}
        assert [a.dest for a in sub._actions if a.dest not in common | tols] == [f.dest for f in cli.PARAMS[name].fields]
        assert [f.name for f in cli.PARAMS[name].fields] == list(cli.SCHEMAS[name]["properties"]["params"]["properties"])


_COMMON_DEFAULTS = {"seed": 0, "fmt": None, "out": "-"}


@pytest.mark.parametrize(
    "command, defaults",
    [
        ("berry", {"tol_algebraic": None, "algebra": "C", "grid": "z=-2:2:9,w=0:1:3", "samples": 100}),
        ("jc", {"tol_algebraic": None, "tol_reconstruction": None, "theta": 0.5, "dim": 32}),
        ("strings", {"theta": "-1,-0.5,-0.25,0.25,0.5,1", "dim": 16}),
        (
            "evolve",
            {
                "tol_propagator": None, "theta": None, "g": 1.0, "omega": None, "delta": None,
                "dim": 40, "t_max": 10.0, "t_steps": 50, "n0": 0,
            },
        ),
        ("grassmann", {"tol_algebraic": None, "tol_reconstruction": None, "theta": "0.25,0.5,1,2", "dim": 24}),
    ],
)
def test_each_command_parses_to_its_pinned_defaults(command, defaults):
    # the same names, in the same order, with values of the same type
    parsed = vars(cli.build_parser().parse_args([command]))
    expected = {"command": command, **_COMMON_DEFAULTS, **defaults}
    assert list(parsed.items()) == list(expected.items())
    assert list(map(type, parsed.values())) == list(map(type, expected.values()))


def test_jc_csv_writes_one_row_per_chart(capsys):
    # the jc record has no CSV column of its own: each row starts with its
    # chart, without a leading comma
    assert cli.main(["jc", "--dim=4", "--format=csv"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0] == "chart,reconstruction,unitarity,singular_levels,pass"
    assert [l.split(",")[0] for l in lines[1:]] == ["I", "II"]


def test_csv_formats_for_json_commands(tmp_path):
    for command in ("berry", "jc", "strings", "grassmann"):
        args = DEFAULT_RUNS[command] + ["--format", "csv"]
        args = [a for a in args if a != "json"]
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        header = next(l for l in proc.stdout.splitlines() if not l.startswith("#"))
        assert header == ",".join(cli.CSV_COLUMNS[command])


README_COMMANDS = [
    line.strip()
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    if line.startswith("hjc ")
]


def test_readme_lists_commands():
    assert {shlex.split(line)[1] for line in README_COMMANDS} == set(DEFAULT_RUNS)


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_lines_run(line, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hjc.cli", *shlex.split(line)[1:]],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["strings", "grassmann"])
def test_negative_leading_theta_list(command):
    proc = run_cli(command, "--theta", "-1,-0.5,0.5,1", "--dim", "8", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert [r["theta"] for r in json.loads(proc.stdout)["records"]] == [-1.0, -0.5, 0.5, 1.0]


def _jc_record(capsys, theta, dim=8):
    code = cli.main(["jc", f"--theta={theta!r}", f"--dim={dim}"])
    return code, json.loads(capsys.readouterr().out)["records"][0]


@pytest.mark.parametrize("theta", [1e8, -1e8])
def test_jc_passes_at_large_theta(theta, capsys, radius):
    # eigh is off by ~eps ||H|| ~ 1e-8 here, far above the absolute 1e-10
    code, rec = _jc_record(capsys, theta)
    assert code == 0 and rec["pass"]
    # the record reports the residual itself, not the scaled one
    p = jc.JCParams(theta=theta, dim=8)
    radii = radius(8, theta)
    evals = oracle.eigvals_hermitian(jc.hamiltonian(p).full())
    assert rec["eigenvalue_max_dev"] == np.max(np.abs(np.sort(evals) - np.sort(np.concatenate([radii, -radii]))))


@pytest.mark.parametrize("theta", [0.0, 5e-324, -0.5, 0.5, 3.0, -1e200, 1.7e308])
def test_a_jc_chart_is_admissible_exactly_where_both_its_residuals_are_present(theta, capsys):
    # admissible means an empty singular set: both residuals are then
    # computed, and both are null otherwise
    code, rec = _jc_record(capsys, theta)
    assert code == 0
    for chart in rec["charts"].values():
        present = [chart[k] is not None for k in ("reconstruction", "unitarity")]
        assert present == [chart["singular_levels"] == []] * 2


def _shift_chart_diagonal(mp, shift):
    orig = jc.chart_decompose

    def shifted(p, chart):
        v, d = orig(p, chart)
        return v, d + shift * jc.BlockOperator.identity(p.dim)

    mp.setattr(jc, "chart_decompose", shifted)


def _shift_spectral(mp, shift):
    orig = jc.spectral_decomposition

    def shifted(radii, proj):
        plus, minus = orig(radii, proj)
        return plus + shift * jc.BlockOperator.identity(proj.dim), minus

    mp.setattr(jc, "spectral_decomposition", shifted)


def _shift_eigenvalues(mp, shift):
    # the oracle entry hjc jc calls
    orig = oracle.eigvals_hermitian
    mp.setattr(oracle, "eigvals_hermitian", lambda m: orig(m) + shift)


@pytest.mark.parametrize("theta", [0.5, 1e8, -1e8])
@pytest.mark.parametrize("perturb", [_shift_chart_diagonal, _shift_spectral, _shift_eigenvalues])
def test_jc_scaled_checks_still_catch_errors(theta, perturb, capsys, monkeypatch, radius):
    # a closed form off by 1e-6 * max R(n) fails, however large theta is
    scale = max(1.0, float(np.max(radius(8, theta))))
    perturb(monkeypatch, 1e-6 * scale)
    code, rec = _jc_record(capsys, theta)
    assert code == 1 and not rec["pass"]


@pytest.mark.parametrize("command", ["jc", "evolve"])
def test_dim_two_passes(command):
    # every residual covers the whole truncated space, so the smallest
    # truncation is checked like any other
    steps = ["--t-steps", "3"] if command == "evolve" else []
    proc = run_cli(command, "--dim", "2", *steps)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("theta", [0.5, -0.5, 3.0])
def test_jc_catches_a_top_level_projector_error_of_1e_6(theta, capsys, monkeypatch):
    # the top level |e,d-1> is a sector of its own, where P = [theta > 0]
    orig = jc.projector

    def perturbed(p, *args, **kwargs):
        proj = orig(p, *args, **kwargs)
        proj.diags[0][0][0][p.dim - 1] += 1e-6
        return proj

    monkeypatch.setattr(jc, "projector", perturbed)
    code, rec = _jc_record(capsys, theta)
    assert code == 1 and not rec["pass"]
    assert rec["projector"]["idempotency"] > 1e-7


@pytest.mark.parametrize(
    "argv",
    [
        ["jc", "--theta=1e200", "--dim=4"],
        ["jc", "--theta=-1e200", "--dim=4"],
        ["evolve", "--theta=1e200", "--dim=4", "--t-steps=2", "--format=json"],
        ["evolve", "--theta=-1e200", "--dim=4", "--t-steps=2", "--format=json"],
        ["grassmann", "--theta=-1e200,-1e15,1e200", "--dim=4"],
        ["strings", "--theta=-1e200,1e200", "--dim=4"],
        # the top of the double range, where R + |theta| itself overflows
        ["jc", "--theta=1.7e308", "--dim=6"],
        ["jc", "--theta=-1.7e308", "--dim=6"],
        ["grassmann", "--theta=-1.7e308,1.7e308", "--dim=6"],
        ["strings", "--theta=-1.7e308,1.7e308", "--dim=6"],
    ],
)
def test_jc_commands_pass_at_extreme_detuning(argv, capsys):
    # pytest turns any overflow RuntimeWarning into an error
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["passed"]


# where the closed form (R1 + theta)/2R1 of the upper-left block is read
# from halves (theta above 2**1022) or close to it, and either side of the
# smallest theta with a regular chart I (5e-8 is singular)
_HALF_SUM_EDGES = [
    2.0**1022, math.nextafter(2.0**1022, 0.0), math.nextafter(2.0**1022, math.inf), 2.0**1021,
    3e307, 6e307, 1e300, 2.0**-1022, 1e-7, 5e-8,
]


@pytest.mark.parametrize("theta", [-1e12, -1e15, -1e20, -1e200, -0.5, 0.0, 0.5, 1e200, *_HALF_SUM_EDGES])
def test_grassmann_singular_set_is_the_strings_chart_i_row_2_set(theta, capsys):
    argv = [f"--theta={theta!r}", "--dim=6"]
    assert cli.main(["grassmann", *argv]) == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert cli.main(["strings", *argv]) == 0
    sectors = json.loads(capsys.readouterr().out)["records"][0]["sectors"]
    row_2 = [s["level"] for s in sectors if (s["chart"], s["row"], s["status"]) == ("I", 2, "singular")]
    assert rec["singular_levels"] == row_2 == ([0] if theta <= 5e-8 else [])
    assert rec["pass"]
    if not row_2:
        assert 0.0 <= rec["roundtrip_residual"] <= DEFAULT.reconstruction
        assert 0.0 <= rec["intermediate_identity_residual"] <= DEFAULT.algebraic


# the band 1e-14 < |theta| < 5e-8 and its edges: berry puts (0, theta) on one
# half-axis, so it expects one ground sector, while both quantum ground
# denominators 4 theta^2 are under the threshold; at |theta| <= 1e-14 berry
# puts it at the origin and expects both
_BAND = [s * t for t in (5e-8, 1e-10, 1e-14, 1e-15, 5e-324) for s in (-1.0, 1.0)]


@pytest.mark.parametrize("theta", [0.0, 1e-200, 1e-8, -1e-8, 0.5, -3.0, 1e15, -1e200, *_BAND])
@pytest.mark.parametrize("d", [2, 5])
def test_strings_edge_entries_are_truncation_and_the_string_is_ground_only(theta, d, capsys):
    # below |theta| ~ 5e-8 both charts' ground denominators 4 theta^2 are
    # under the threshold: still the ground sector alone
    assert cli.main(["strings", f"--theta={theta!r}", f"--dim={d}"]) == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["ground_only"] and rec["pass"]
    edge = {(s["chart"], s["row"], s["level"]) for s in rec["sectors"] if s["status"] == "truncation"}
    assert edge == {("I", 1, d - 1), ("II", 1, d - 1)}
    assert {(s["row"], s["level"]) for s in rec["sectors"] if s["status"] == "singular"} == {(2, 0)}


def test_strings_expects_the_ground_sectors_of_the_charts_berry_rules_out(monkeypatch, capsys):
    # the expected set is read from berry's class of (w = 0, z = theta): a
    # berry that puts every point at the origin expects both ground
    # sectors, and theta = 1 has only chart II's
    origin = berry.POINT_CLASSES.index(berry.PointClass.ORIGIN)
    monkeypatch.setattr(berry, "classify", lambda pts: np.full(pts.z.shape, origin))
    assert cli.main(["strings", "--theta=1", "--dim=4"]) == 1
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert not rec["ground_only"] and not rec["pass"]


# |theta| from 5e-324 to 1.7e308, either sign
_THETAS = st.builds(
    lambda mag, sign: sign * mag,
    st.one_of(
        st.sampled_from([5e-324, 1e-310, 5e-8, 1.0, 1e300, 1.7e308]),
        st.floats(-323.3, 308.0).map(lambda e: 10.0**e),
    ),
    st.sampled_from([-1.0, 1.0]),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(thetas=st.lists(_THETAS, min_size=1, max_size=4), d=st.sampled_from([2, 3, 7, 64, 311]))
def test_the_strings_record_lists_the_non_regular_rows_of_the_sector_report(thetas, d, capsys):
    code = cli.main(["strings", "--theta=" + ",".join(map(repr, thetas)), f"--dim={d}"])
    records = json.loads(capsys.readouterr().out)["records"]
    for theta, rec in zip(thetas, records):
        full = jc.singular_sectors(jc.JCParams(theta=theta, dim=d))
        cols = full.take(np.arange(full.codes.size))
        rows = [dict(zip(cols, row)) for row in zip(*(col.tolist() for col in cols.values()))]
        assert rec["sectors"] == [row for row in rows if row["status"] != "regular"]
        # the tally of each status: the listed sectors against the status
        # codes, and the 4 d - len(sectors) entries left out are regular
        tally = np.bincount(full.codes.reshape(-1), minlength=len(jc.SECTOR_STATUSES))
        listed = [sum(s["status"] == status for s in rec["sectors"]) for status in jc.SECTOR_STATUSES[1:]]
        assert listed == tally[1:].tolist()
        assert 4 * d - len(rec["sectors"]) == tally[0] == sum(row["status"] == "regular" for row in rows)
        regular = [row["denominator"] for row in rows if row["status"] == "regular"]
        assert rec["min_regular_denominator"] == (min(regular) if regular else None)
        # the verdict as the full report gave it
        found = {(row["chart"], row["row"], row["level"]) for row in rows if row["status"] == "singular"}
        expected = {(c, 2, 0) for c, off in (("I", theta > 0), ("II", theta < 0)) if not off}
        assert rec["ground_only"] == (expected <= found <= {("I", 2, 0), ("II", 2, 0)}) == rec["pass"]
    assert code == (0 if all(rec["pass"] for rec in records) else 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["jc", "--theta=0.7", "--dim=9"],
        ["jc", "--theta=-1.3", "--dim=9"],
        ["evolve", "--theta=0.7", "--dim=9", "--t-steps=3"],
        ["evolve", "--theta=-1.3", "--g=0.6", "--dim=9", "--t-steps=3"],
        ["evolve", "--omega=1", "--delta=2.4", "--dim=9", "--t-steps=3"],
    ],
)
def test_the_oracle_gets_real_contiguous_hamiltonians(argv, monkeypatch, capsys):
    # the real Hamiltonians reach the dense oracle as float64 C-contiguous
    # matrices, so it neither scans imaginary parts nor copies real parts
    seen = []
    for name in ("eig_hermitian", "eigvals_hermitian"):
        solve = getattr(oracle, name)

        def spy(m, solve=solve):
            seen.append((m.dtype, m.flags.c_contiguous))
            return solve(m)

        monkeypatch.setattr(oracle, name, spy)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert seen == [(np.float64, True)]


def _refuse_the_oracle(monkeypatch):
    # both oracle entries: jc calls eigvals_hermitian, evolve eig_hermitian
    def refuse(m):
        raise AssertionError("the oracle ran on refused input")

    for name in ("eig_hermitian", "eigvals_hermitian"):
        monkeypatch.setattr(oracle, name, refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--dim", "8", "--n0", "8"],
        ["evolve", "--dim", "8", "--n0", "-1"],
        ["evolve", "--omega", "1", "--delta", "2", "--g", "0"],
        # theta with omega and delta, whether or not it equals (delta - omega)/2g
        ["evolve", "--theta", "0.3", "--omega", "1", "--delta", "2"],
        ["evolve", "--theta", "0.5", "--omega", "1", "--delta", "2"],
    ],
)
def test_bad_evolve_inputs_exit_before_the_oracle(argv, monkeypatch, capsys):
    _refuse_the_oracle(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert _EVOLVE_USAGE[" ".join(argv)] in capsys.readouterr().err


# the usage message of each evolve argv above
_EVOLVE_USAGE = {
    "evolve --dim 8 --n0 8": "initial level n0=8 outside 0..7",
    "evolve --dim 8 --n0 -1": "initial level n0=-1 outside 0..7",
    "evolve --omega 1 --delta 2 --g 0": "coupling g = 0 leaves the detuning ratio undefined",
    "evolve --theta 0.3 --omega 1 --delta 2": "give theta or omega and delta, not both",
    "evolve --theta 0.5 --omega 1 --delta 2": "give theta or omega and delta, not both",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["berry", "--grid", "z=0:1:2,w=0:inf:2", "--samples", "0"],
        ["berry", "--grid", "z=nan:1:2,w=0:1:2"],
        ["berry", "--grid", "z=-1e308:1e308:3,w=0:1:2"],  # the axis steps overflow
        ["berry", "--grid", "z=1.7e308:1.7e308:1,w=1.7e308:1.7e308:1"],  # r overflows
        ["berry", "--seed", "-1"],
        ["jc", "--theta", "nan", "--dim", "4"],
        ["strings", "--theta=nan,1", "--dim", "4"],
        ["grassmann", "--theta=0.5,-inf", "--dim", "4"],
        ["evolve", "--theta", "inf", "--dim", "4"],
        ["evolve", "--omega", "nan", "--delta", "1", "--dim", "4"],
        ["evolve", "--omega", "1", "--delta", "-inf", "--dim", "4"],
        ["evolve", "--t-max", "inf", "--dim", "4"],
        # the model Hamiltonian leaves the double range: theta = (delta - omega)/2g
        # overflows, g theta overflows, or omega (d - 1/2) overflows
        ["evolve", "--omega=1e308", "--delta=-1e308", "--g=1", "--dim=3"],
        ["evolve", "--omega=1", "--delta=1e308", "--g=1e-10"],
        ["evolve", "--theta=1e10", "--g=1e300", "--dim=3"],
        ["evolve", "--omega=1e307", "--delta=1e307", "--g=1", "--dim=40"],
    ],
)
def test_non_finite_or_malformed_input_is_a_usage_error(argv, monkeypatch, capsys):
    _refuse_the_oracle(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", ["algebraic", "reconstruction", "propagator"])
def test_non_finite_or_negative_tolerance_is_a_usage_error(name, monkeypatch, capsys):
    # a bad tolerance is refused before any check runs; zero is allowed
    argv = ["evolve", "--t-steps=3", "--format=json"] if name == "propagator" else ["jc"]
    _refuse_the_oracle(monkeypatch)
    for value in ("nan", "inf", "-inf", "-1", "-5e-324"):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--dim", "4", f"--tol-{name}={value}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"tol-{name} must be" in err
    monkeypatch.undo()
    assert cli.main([*argv, "--dim", "4", f"--tol-{name}=0"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["records"]


# each (command, tolerance) whose tolerance judges none of the command's records
_UNDECLARED_TOLS = [
    ("berry", "reconstruction"), ("berry", "propagator"),
    ("jc", "propagator"),
    ("strings", "algebraic"), ("strings", "reconstruction"), ("strings", "propagator"),
    ("evolve", "algebraic"), ("evolve", "reconstruction"),
    ("grassmann", "propagator"),
]


@pytest.mark.parametrize("command, name", _UNDECLARED_TOLS)
def test_a_tolerance_that_judges_none_of_the_records_is_no_option(command, name, capsys):
    argv = [command, f"--tol-{name}=1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and f"unrecognized arguments: --tol-{name}=1" in err
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "hjc", *argv], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr, proc.stderr


def test_tol_strict_is_gone():
    # it judged only identities that hold by construction, no longer reported
    proc = run_cli("jc", "--dim", "4", "--tol-strict", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --tol-strict" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["5", "inf"])
def test_jc_g_is_gone(value):
    # the scaled JC Hamiltonian depends on theta alone (g only rescales
    # time), so jc takes no coupling, finite or not
    assert [f.name for f in cli.PARAMS["jc"].fields] == ["theta", "dim"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hjc", "jc", "--g", value, "--dim", "4"], capture_output=True, text=True
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"unrecognized arguments: --g {value}" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["berry", "strings"])
def test_bad_env_seed_is_a_usage_error(command, monkeypatch, capsys):
    # no environment variable is read, so a malformed one changes nothing
    monkeypatch.setenv("HJC_SEED", "abc")
    assert cli.main([command, "--dim=4"] if command == "strings" else [command]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


def _report(capsys, command, fmt):
    argv = DEFAULT_RUNS[command] + ["--format", fmt]
    code = cli.main(argv)
    assert code == 0
    return capsys.readouterr().out


def _expected_rows(command, rec):
    """The README's CSV layout, read off one JSON record."""
    if command == "jc":
        return [{"chart": c, **rec["charts"][c]} for c in ("I", "II")]
    if command == "strings":
        return [{"theta": rec["theta"], **s} for s in rec["sectors"]]
    if command == "berry":
        point = rec["point"]
        row = {k: rec[k] for k in ("class", "cocycle", "pass")}
        row.update(z=point["z"], norm_w=float(np.linalg.norm(point["w"]["coeffs"])))
        parts = {"chart_I": rec["charts"]["I"], "chart_II": rec["charts"]["II"], "projector": rec["projector"]}
        for prefix, obj in parts.items():
            row.update({f"{prefix}_{k}": v for k, v in (obj or {}).items()})
        return [row]
    return [rec]


def _expected_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, list):
        return ";".join(_expected_cell(x) for x in v)
    return str(v)


@pytest.mark.parametrize("command", sorted(DEFAULT_RUNS))
def test_csv_cells_equal_json_values(command, capsys):
    payload = json.loads(_report(capsys, command, "json"))
    lines = [l for l in _report(capsys, command, "csv").splitlines() if not l.startswith("#")]
    assert lines[0].split(",") == cli.CSV_COLUMNS[command]
    expected = [row for rec in payload["records"] for row in _expected_rows(command, rec)]
    assert len(lines) - 1 == len(expected) > 0
    for line, row in zip(lines[1:], expected):
        cells = dict(zip(cli.CSV_COLUMNS[command], line.split(",")))
        if command == "berry":
            # the CSV-only norm against an independent reference: the
            # scaled norm and numpy's unscaled one sum in their own orders
            norm_w, ref = float(cells.pop("norm_w")), row.pop("norm_w")
            assert abs(norm_w - ref) <= 2 * np.spacing(ref)
        assert cells == {c: _expected_cell(row.get(c)) for c in cells}


@pytest.mark.parametrize("command", sorted(DEFAULT_RUNS))
def test_csv_params_line_writes_each_param_by_its_cell_rule(command, capsys):
    # the "# params:" line holds name=cell pairs in name order, each cell
    # by the rule of the param's declared kind
    params = json.loads(_report(capsys, command, "json"))["params"]
    line = next(l for l in _report(capsys, command, "csv").splitlines() if l.startswith("# params: "))
    assert line == "# params: " + " ".join(f"{k}={_expected_cell(v)}" for k, v in sorted(params.items()))
    if command == "evolve":
        assert line == "# params: delta= dim=40 g=1 n0=0 omega= t_max=10 t_steps=50 theta=0.25"


@pytest.mark.parametrize("command", ["jc", "strings", "grassmann"])
def test_records_do_not_repeat_the_dim_param(command, capsys):
    # dim is stated once, in the report's params, and in no record: not in
    # the JSON records, their schema or the CSV columns
    payload = json.loads(_report(capsys, command, "json"))
    assert "dim" in payload["params"]
    assert payload["records"] and all("dim" not in rec for rec in payload["records"])
    assert "dim" not in cli.SCHEMAS[command]["properties"]["records"]["items"]["properties"]
    lines = _report(capsys, command, "csv").splitlines()
    assert f"dim={payload['params']['dim']}" in next(l for l in lines if l.startswith("# params: ")).split()
    header = next(l for l in lines if not l.startswith("#"))
    assert "dim" not in header.split(",") and "dim" not in cli.CSV_COLUMNS[command]


def _mutate_jc_chart_pass(payload):
    del payload["records"][0]["charts"]["I"]["pass"]


def _mutate_berry_unitarity(payload):
    rec = next(r for r in payload["records"] if r["charts"]["I"] is not None)
    rec["charts"]["I"]["unitarity"] = "small"


def _mutate_evolve_sigma3(payload):
    payload["records"][0]["sigma3"] = None


def _mutate_grassmann_params_type(payload):
    payload["params"]["dim"] = "24"


def _mutate_strings_params_key(payload):
    del payload["params"]["thetas"]


@pytest.mark.parametrize(
    "command, mutate",
    [
        ("jc", _mutate_jc_chart_pass),
        ("berry", _mutate_berry_unitarity),
        ("evolve", _mutate_evolve_sigma3),
        ("grassmann", _mutate_grassmann_params_type),
        ("strings", _mutate_strings_params_key),
    ],
)
def test_mutated_reports_fail_the_derived_schema(command, mutate, capsys):
    payload = json.loads(_report(capsys, command, "json"))
    jsonschema.validate(payload, cli.SCHEMAS[command])
    mutate(payload)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, cli.SCHEMAS[command])


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _pass_path(path):
    """The column of the verdict of the record that holds ``path``."""
    return "".join(p + "." for p in path[:-1]) + "pass"


def _residual_paths(rec, obj, path=()):
    """Paths to every non-null declared residual of ``obj``, with its
    declaring field."""
    for f in rec.fields:
        v = obj.get(f.name)
        if f.tol is not None and v is not None:
            yield path + (f.name,), f
        if isinstance(f.kind, cli.Record) and v is not None:
            yield from _residual_paths(f.kind, v, path + (f.name,))


def _norms(command) -> list:
    """The ||H|| column of a command's default run, as the command yields
    it beside its records; empty for a record that names no norm."""
    args = cli.build_parser().parse_args(DEFAULT_RUNS[command])
    cli._validate(args)
    name = cli.RECORDS[command].norm
    return [v for cols in cli.COMMANDS[command](args) for v in np.asarray(cols[name]).tolist()] if name else []


@pytest.mark.parametrize("command", ["berry", "evolve", "grassmann", "jc"])
def test_any_residual_above_tolerance_fails_the_record(command, capsys, columns_of):
    # the column judge: the limit is the tolerance, times max(1, ||H||) of
    # the record for a residual of H itself; null passes only in a nullable
    # field, given as None in a list column or as NaN in a float array
    payload = json.loads(_report(capsys, command, "json"))
    decl = cli.RECORDS[command]
    norms = _norms(command)
    cases = {path: (i, f) for i, rec in enumerate(payload["records"]) for path, f in _residual_paths(decl, rec)}
    assert cases
    assert any(f.rel for _, f in cases.values()) == (command in ("berry", "jc"))
    assert len(norms) == (len(payload["records"]) if decl.norm else 0)
    for path, (i, f) in cases.items():
        norm = max(1.0, norms[i]) if f.rel else 1.0
        tol = getattr(cli.DEFAULT, f.tol) * norm
        for value, verdict in ((tol, True), (np.nextafter(tol, np.inf), False), (None, f.null)):
            mutated = json.loads(json.dumps(payload["records"][i]))
            _get(mutated, path[:-1])[path[-1]] = None if value is None else float(value)
            for as_array in (False, True):
                cols = columns_of(decl, [mutated])
                if decl.norm:
                    cols[decl.norm] = norms[i : i + 1]
                if as_array:
                    key = ".".join(path)
                    cols[key] = np.array([math.nan if v is None else v for v in cols[key]], dtype=float)
                assert cli.judge(decl, cols, cli.DEFAULT).tolist() == [verdict], (path, value, as_array)
                assert cols["pass"].tolist() == [verdict]
                if "pass" in _get(mutated, path[:-1]):  # a jc chart carries its own verdict
                    assert cols[_pass_path(path)].tolist() == [verdict]


@pytest.mark.parametrize("d", [2, 7, 300])
@pytest.mark.parametrize("theta", [0.0, 5e-324, -5e-324, 0.5, -0.5, 1e200, -1e200, 1.7e308, -1.7e308])
def test_jc_norm_is_the_last_row_radius_bit_for_bit(theta, d, radius):
    # the ||H|| column of hjc jc is R(d - 1), the last row 2 radius, bit
    # for bit as the tests' reference radius forms it; the judge floors it
    (cols,) = cli.cmd_jc(argparse.Namespace(theta=theta, dim=d, g=1.0))
    norm = cols[cli.RECORDS["jc"].norm]
    assert np.array_equal(np.array(norm).view(np.uint64), radius(d, theta)[-1:].view(np.uint64))


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("strings", ("ground_only",), False),
        ("grassmann", ("singular_levels",), [0, 1]),
        ("jc", ("charts", "II", "singular_levels"), [1]),  # theta = 0.5: chart II singular at level 0
    ],
)
def test_structural_verdicts_fail_the_record(command, path, value, capsys, columns_of):
    rec = json.loads(_report(capsys, command, "json"))["records"][0]
    assert rec["pass"]
    decl = cli.RECORDS[command]
    norm = {decl.norm: _norms(command)[:1]} if decl.norm else {}
    assert cli.judge(decl, columns_of(decl, [rec]) | norm, cli.DEFAULT).tolist() == [True]
    _get(rec, path[:-1])[path[-1]] = value
    cols = columns_of(decl, [rec]) | norm
    assert cli.judge(decl, cols, cli.DEFAULT).tolist() == [False]
    assert cols["pass"].tolist() == [False] and cols[_pass_path(path)].tolist() == [False]


# A declaration with every kind of check the judge knows: absolute and
# ||H||-relative residuals, nullable or not, a structural verdict, a nested
# record with its own pass, a nullable nested record and a nested record
# whose checks count for the record around it.
_JUDGED = report.Record(
    report.Field("h", report.NUM),
    report.Field("a", report.NUM, tol="algebraic"),
    report.Field("b", report.NUM, null=True, tol="propagator", rel=True),
    report.Field("levels", [report.INT], ok=lambda levels: levels in ([], [0])),
    report.Field(
        "inner",
        report.Record(
            report.Field("r", report.NUM, tol="algebraic"),
            report.Field("n", report.NUM, null=True, tol="reconstruction", rel=True),
            report.Field("pass", report.BOOL),
        ),
    ),
    report.Field(
        "opt",
        report.Record(report.Field("r", report.NUM, tol="algebraic", rel=True), report.Field("v", report.BOOL, ok=bool)),
        null=True,
    ),
    report.Field("merged", report.Record(report.Field("r", report.NUM, null=True, tol="propagator"))),
    report.Field("pass", report.BOOL),
    norm="norm",
)


def _walk(decl, obj, norm):
    """The plain per-record judge: every residual within its tolerance
    (times ``norm`` where ``rel``) or null where it may be, every verdict
    true, every present nested record passing; the verdicts of records
    with a ``pass`` are collected by path."""
    ok, verdicts = True, {}
    for f in decl.fields:
        v = obj.get(f.name)
        if isinstance(f.kind, report.Record):
            if v is not None:
                inner, nested = _walk(f.kind, v, norm)
                ok &= inner
                verdicts.update({f"{f.name}.{k}": w for k, w in nested.items()})
        elif f.tol is not None:
            # read as a float, None as NaN: null passes only where the field may be null
            v = math.nan if v is None else v
            ok &= (f.null and math.isnan(v)) or v <= getattr(DEFAULT, f.tol) * (norm if f.rel else 1.0)
        elif f.ok is not None:
            ok &= bool(f.ok(v))
    if decl.has_pass:
        verdicts["pass"] = ok
    return ok, verdicts


def _residual(draw, tol):
    # values on both sides of the limit, exact zeros, NaN and infinity
    factor = draw(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, 1e6, math.nan, math.inf]))
    return factor * getattr(DEFAULT, tol) * draw(st.sampled_from([1.0, 3.0, 1e3]))


@st.composite
def _judged_records(draw):
    records = []
    for _ in range(draw(st.integers(1, 6))):
        rec = {
            "h": draw(st.sampled_from([0.0, 0.5, -3.0, 1e3, -1e6])),
            "a": _residual(draw, "algebraic"),
            "b": draw(st.none() | st.just(_residual(draw, "propagator"))),
            "levels": draw(st.sampled_from([[], [0], [1], [0, 1]])),
            "inner": {"r": _residual(draw, "algebraic"), "n": draw(st.none() | st.just(_residual(draw, "reconstruction")))},
            "opt": draw(st.none() | st.just({"r": _residual(draw, "algebraic"), "v": draw(st.booleans())})),
            "merged": {"r": draw(st.none() | st.just(_residual(draw, "propagator")))},
        }
        records.append(rec)
    return records


# columns_of is a plain function, the same for every example
_NAN_OPT_R = {
    "h": 0.0,
    "a": 0.0,
    "b": None,
    "levels": [],
    "inner": {"r": 0.0, "n": None},
    "opt": {"r": math.nan, "v": True},
    "merged": {"r": None},
}
# None in a residual that may not be null: the record fails, in a list
# column as in a float array (NaN)
_NONE_A = dict(_NAN_OPT_R, a=None, opt=None)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_judged_records(), arrays=st.sets(st.sampled_from(["h", "a", "b", "inner.r", "inner.n", "opt", "opt.r", "merged.r"])))
# a NaN residual of a present nullable record is no null: it fails the record
@example(records=[_NAN_OPT_R, dict(_NAN_OPT_R, opt=None)], arrays={"h", "a", "opt.r"})
@example(records=[_NONE_A, _NAN_OPT_R], arrays=set())
@example(records=[_NONE_A, _NAN_OPT_R], arrays={"a"})
def test_judge_is_the_plain_per_record_walk(records, arrays, columns_of):
    # list columns (records built as dicts) and float or bool arrays (records
    # built as columns), in any mix, get one verdict: None and NaN are null,
    # which passes only where the field is declared null; opt.r is null
    # only where opt is.  ||H|| is the chunk's "norm" column, |h|, which the
    # judge floors at 1
    cols = columns_of(_JUDGED, records)
    cols["norm"] = [abs(rec["h"]) for rec in records]
    for path in arrays:
        if path == "opt":
            cols[path] = np.array(cols[path], dtype=bool)
        else:
            cols[path] = np.array([math.nan if v is None else v for v in cols[path]], dtype=float)
    expected = [_walk(_JUDGED, rec, max(1.0, abs(rec["h"])))[1] for rec in records]
    verdict = cli.judge(_JUDGED, cols, DEFAULT)
    assert verdict.dtype == bool and verdict.tolist() == [e["pass"] for e in expected]
    for path in ("pass", "inner.pass"):
        assert isinstance(cols[path], np.ndarray) and cols[path].tolist() == [e[path] for e in expected]


@pytest.mark.parametrize("norm", [0.25, 4.0])
def test_judge_holds_a_relative_residual_to_the_tolerance_times_max_1_norm(norm):
    # the judge floors ||H|| at 1: a residual of H is held to tol where the
    # norm column reads 0.25 and to 4 tol where it reads 4
    decl = report.Record(
        report.Field("r", report.NUM, tol="reconstruction", rel=True), report.Field("pass", report.BOOL), norm="norm"
    )
    limit = DEFAULT.reconstruction * max(1.0, norm)
    for value, verdict in ((limit, True), (np.nextafter(limit, np.inf), False)):
        for norms in ([norm], np.array([norm])):
            assert cli.judge(decl, {"r": np.array([value]), "norm": norms}, DEFAULT).tolist() == [verdict]


@pytest.mark.parametrize("argv", [["berry", "--tol-algebraic=1.7e308"], ["jc", "--tol-reconstruction=1e300", "--theta=1e10"]])
def test_a_relative_limit_beyond_the_double_range_bounds_nothing(argv):
    # tol x max(1, ||H||) overflows to an infinite limit, without a warning
    # even when warnings are errors
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hjc.cli", *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0 and proc.stderr == ""
    jsonschema.validate(json.loads(proc.stdout), cli.SCHEMAS[argv[0]])


# ---------------------------------------------------------------------------
# The column writers against the stdlib and the README's CSV cell rules


def _stdlib_json(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308, math.nan, math.inf, -math.inf]
# keys and strings with escapes, control characters, non-ASCII, astral and
# lone-surrogate characters, and the empty string
_TEXT = st.text() | st.sampled_from(["", '"', "\\", "\n\t\x00\x1f", "é", "\u2028", "\U0001f600", "\ud800"])
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
_INTS = (
    st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
)
_ENUM = ("grid", "sample", '"\\\n é')
# every declared kind: (kind, null, the values of an item)
_KINDS = [
    (report.NUM, False, _FLOATS),
    (report.NUM, True, _FLOATS),
    (report.INT, True, _INTS),
    (report.BOOL, True, st.booleans()),
    (_ENUM, True, st.sampled_from(_ENUM)),
    (report.STR, True, _TEXT),
    ([report.NUM], True, _FLOATS),
    ([report.INT], False, _INTS),
]


def _as_array(kind, values) -> np.ndarray:
    """The column of ``values`` as an ndarray: float for NUM (NaN where
    null), int64, bool or float where the values allow it, else object."""
    if kind == report.NUM:
        return np.array([math.nan if v is None else v for v in values], dtype=float)
    if None not in values:
        if kind in (report.BOOL, [report.NUM]):
            return np.array(values, dtype=bool if kind == report.BOOL else float)
        if kind == report.INT and all(-(2**63) <= v < 2**63 for v in values):
            return np.array(values, dtype=np.int64)
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


def _draw_columns(data):
    """Each declared kind with a drawn column of its values, as a list
    (None where null) and as an ndarray (NaN where null in a float array),
    and the values a reader gets back from each."""
    for kind, null, item in _KINDS:
        if isinstance(kind, list):
            size = data.draw(st.integers(0, 3))
            item = st.lists(item, min_size=size, max_size=size)
        values = data.draw(st.lists(st.none() | item if null else item, min_size=1, max_size=4))
        decl = report.Record(report.Field("v", kind, null=null))
        for col in (values, _as_array(kind, values)):
            nan_is_null = kind == report.NUM and null and isinstance(col, np.ndarray)
            expected = [None if nan_is_null and v is not None and math.isnan(v) else v for v in values]
            yield decl, values, col, expected


def _json_report(decl: report.Record, params: dict, col) -> str:
    """The JSON report of one chunk holding the column ``v``."""
    rep = report.Report("x", 7, params)
    text = report.json_chunk(decl, decl, rep, {"v": col})
    rep.records, rep.failures = len(col), 1
    return text + report.json_chunk(decl, decl, rep)


def _stdlib_report(params: dict, values: list) -> str:
    return _stdlib_json(
        {
            "command": "x",
            "params": params,
            "records": [{"v": v} for v in values],
            "schema": report.SCHEMA_VERSION,
            "seed": 7,
            "summary": {"failures": 1, "passed": False, "records": len(values)},
        }
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_render_json_writes_the_stdlib_bytes(data):
    # each declared kind as a list column and as an ndarray, in the records
    # and in the params: the JSON report is json.dumps' bytes
    for decl, values, col, expected in _draw_columns(data):
        assert _json_report(decl, {"v": values[0]}, col) == _stdlib_report({"v": values[0]}, expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_csv_chunk_writes_every_kind_by_the_cell_rules(data):
    # the same columns as CSV cells, by the README's rules, and the first
    # value as the param of the "# params:" line
    for decl, values, col, expected in _draw_columns(data):
        head = f"# schema: {report.SCHEMA_VERSION}\n# command: x\n# seed: 7\n# params: v={_expected_cell(values[0])}\nv\n"
        rows = "".join(_expected_cell(v) + "\n" for v in expected)
        assert report.csv_chunk(decl, decl, report.Report("x", 7, {"v": values[0]}), {"v": col}) == head + rows


_NUMPY_DTYPES = hnp.floating_dtypes() | hnp.integer_dtypes() | hnp.unsigned_integer_dtypes()


@settings(max_examples=150, deadline=None)
@given(_NUMPY_DTYPES.flatmap(lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3))))
def test_render_json_writes_numpy_values_as_their_python_values(a):
    # an ndarray of any float or integer dtype, 1-D as a number column and
    # 2-D as a column of number lists, is written as its Python values are
    kind = report.NUM if a.dtype.kind == "f" else report.INT
    decl = report.Record(report.Field("v", kind if a.ndim == 1 else [kind]))
    params = {"v": a.tolist()[0]}
    assert _json_report(decl, params, a) == _stdlib_report(params, a.tolist())


# Every splice of the JSON writer in one declaration: a nullable NUM
# column, a 2-D list column, a nested record that is never null (its own
# nested record too) and a nullable one, present or absent row by row.
_NESTED = report.Record(
    report.Field("x", report.NUM, null=True),
    report.Field("coeffs", [report.NUM]),
    report.Field(
        "inner",
        report.Record(
            report.Field("a", report.NUM),
            report.Field("tag", _ENUM),
            report.Field("deep", report.Record(report.Field("b", report.INT))),
        ),
    ),
    report.Field(
        "opt", report.Record(report.Field("r", report.NUM, null=True), report.Field("ok", report.BOOL)), null=True
    ),
    report.Field("pass", report.BOOL),
)
# NaN, both infinities, both zeros, subnormals and the edges of the normal range
_SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]
)


@st.composite
def _nested_rows(draw):
    floats = _SPECIAL_FLOATS | st.floats()
    n, k = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    return [
        {
            "x": draw(floats),
            "coeffs": draw(st.lists(floats, min_size=k, max_size=k)),
            "inner": {"a": draw(floats), "tag": draw(st.sampled_from(_ENUM)), "deep": {"b": draw(_INTS)}},
            "opt": draw(st.none() | st.fixed_dictionaries({"r": floats, "ok": st.booleans()})),
            "pass": draw(st.booleans()),
        }
        for _ in range(n)
    ]


@settings(max_examples=150, deadline=None)
@given(rows=_nested_rows(), arrays=st.booleans())
def test_render_json_splices_nested_records_as_the_stdlib_does(rows, arrays):
    # the columns as float, bool and 2-D arrays (NaN is null in a nullable
    # float array) or as lists (None is null, NaN a number); an absent opt
    # holds values in its columns that are not written
    cols = {
        "x": [row["x"] for row in rows],
        "coeffs": [row["coeffs"] for row in rows],
        "inner.a": [row["inner"]["a"] for row in rows],
        "inner.tag": [row["inner"]["tag"] for row in rows],
        "inner.deep.b": [row["inner"]["deep"]["b"] for row in rows],
        "opt": [row["opt"] is not None for row in rows],
        "opt.r": [math.nan if row["opt"] is None else row["opt"]["r"] for row in rows],
        "opt.ok": [row["opt"] is not None and row["opt"]["ok"] for row in rows],
        "pass": [row["pass"] for row in rows],
    }
    if arrays:
        for path in ("x", "inner.a", "opt.r"):
            cols[path] = np.array(cols[path], dtype=float)
        cols["coeffs"] = np.array(cols["coeffs"], dtype=float)  # (rows, k), k = 0 included
        cols["opt"], cols["opt.ok"], cols["pass"] = (np.array(cols[p], dtype=bool) for p in ("opt", "opt.ok", "pass"))

    def null(v):  # a nullable float read back: NaN is null in a float array
        return None if arrays and math.isnan(v) else v

    expected = [
        {**row, "x": null(row["x"]), "opt": row["opt"] and {**row["opt"], "r": null(row["opt"]["r"])}} for row in rows
    ]
    params = report.Record(report.Field("v", report.INT))
    rep = report.Report("x", 7, {"v": 3})
    text = report.json_chunk(_NESTED, params, rep, cols)
    rep.records, rep.failures = len(rows), 1
    text += report.json_chunk(_NESTED, params, rep)
    assert text == _stdlib_json(
        {
            "command": "x",
            "params": {"v": 3},
            "records": expected,
            "schema": report.SCHEMA_VERSION,
            "seed": 7,
            "summary": {"failures": 1, "passed": False, "records": len(rows)},
        }
    )


@pytest.mark.parametrize("writer", [report.json_chunk, report.csv_chunk])
@pytest.mark.parametrize("kind", [report.NUM, report.INT, [report.NUM], [report.INT]])
@pytest.mark.parametrize("value", [np.float64(0.5), "0.5", True, np.int64(3)])
def test_a_list_column_of_another_type_is_refused(writer, kind, value):
    # neither writer spells a numpy scalar, a string or a bool as a number,
    # in a record column or in a param
    decl = report.Record(report.Field("v", kind))
    params = report.Record(report.Field("k", kind))
    ok, bad = ([1], [value]) if isinstance(kind, list) else (1, value)
    with pytest.raises(TypeError, match="'v'"):
        writer(decl, params, report.Report("x", 7, {"k": ok}), {"v": [ok, bad]})
    with pytest.raises(TypeError, match="'k'"):
        writer(decl, params, report.Report("x", 7, {"k": bad}), {"v": [ok]})


_SMALL_RUNS = {
    "berry": ["berry", "--algebra", "O", "--samples", "20", "--seed", "11"],
    "jc": ["jc", "--dim", "8", "--seed", "11"],
    "strings": ["strings", "--theta=-1,0.5", "--dim", "6", "--seed", "11"],
    "evolve": ["evolve", "--dim", "6", "--t-steps", "3", "--format", "json", "--seed", "11"],
    "grassmann": ["grassmann", "--dim", "6", "--seed", "11"],
}


# berry at every algebra on the string and origin grid and on the top of
# the range, where the charts and the projector are null
_STDLIB_RUNS = _SMALL_RUNS | {
    f"berry-{tag}-{name}": ["berry", f"--algebra={tag}", f"--grid={grid}", "--samples=5", "--seed=11"]
    for tag in "RCHO"
    for name, grid in (("strings", "z=-1:1:5,w=0:1:3"), ("top", "z=-1e300:1e300:5,w=0:1e300:3"))
}


@pytest.mark.parametrize("command", sorted(_STDLIB_RUNS))
def test_reports_render_as_the_stdlib_does(command, capsys):
    assert cli.main(_STDLIB_RUNS[command]) == 0
    out = capsys.readouterr().out
    assert _stdlib_json(json.loads(out)) == out


def test_render_json_leaves_no_reference_cycles(monkeypatch, capsys):
    # cyclic garbage is freed only by the collector, so a writer that left
    # it behind would grow the peak memory of a long run of requests
    seen = []
    render = cli.render_json
    monkeypatch.setattr(cli, "render_json", lambda rep, cols=None: seen.append((rep.params, cols)) or render(rep, cols))
    cli.main(_SMALL_RUNS["berry"])
    capsys.readouterr()
    params, cols = seen[0]
    gc.collect()
    gc.disable()
    try:
        cli.render_json(cli.Report("berry", 11, params), cols)
        cli.render_json(cli.Report("berry", 11, params, records=len(cols["class"])))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_requests_in_one_process_share_no_parser_state(capsys):
    def report_of(argv):
        assert cli.main(argv) == 0
        return json.loads(capsys.readouterr().out)

    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["berry", "--samples", "many"])
    assert exc.value.code == 2
    capsys.readouterr()
    seen = [report_of(_SMALL_RUNS["jc"]), report_of(["strings", "--dim", "6"])]
    seen += [report_of(["berry", "--samples", "3"]), report_of(["berry"])]
    assert [p["command"] for p in seen] == ["jc", "strings", "berry", "berry"]
    assert [p["params"]["samples"] for p in seen[2:]] == [3, 100]
    assert seen[3]["summary"]["records"] == 27 + 100


def test_berry_parses_its_grid_once(monkeypatch, capsys):
    calls = []
    parse = cli.parse_grid
    monkeypatch.setattr(cli, "parse_grid", lambda spec: calls.append(spec) or parse(spec))
    assert cli.main(["berry", "--grid", "z=-1:1:3,w=0:1:2", "--samples", "0"]) == 0
    assert calls == ["z=-1:1:3,w=0:1:2"]
    assert json.loads(capsys.readouterr().out)["summary"]["records"] == 6
