import argparse
import dataclasses
import gc
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hjc import cli, jc, oracle, report
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


@pytest.mark.parametrize("command", sorted(DEFAULT_RUNS))
def test_default_suite_passes_and_validates(command):
    proc = run_cli(*DEFAULT_RUNS[command])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, cli.SCHEMAS[command])
    params = cli.SCHEMAS[command]["properties"]["params"]
    assert sorted(params["required"]) == sorted(params["properties"]) == sorted(payload["params"])
    assert payload["schema"] == 2
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


def test_numerical_failure_exit_code():
    # an impossible tolerance forces the failure path; report still written
    proc = run_cli("jc", "--theta", "0.5", "--dim", "16", "--tol-reconstruction", "1e-30")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["summary"]["passed"] is False


def test_command_flag_alias():
    proc = run_cli("--command", "strings", "--seed", "2", "--dim", "8")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "strings"


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
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 77


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
        argv = ["--omega=1", f"--delta={1 + 2 * theta!r}"]  # theta = (delta - omega) / 2g
        p = jc.JCParams.from_physical(1.0, 1 + 2 * theta, 1.0, d)
        h1, h2 = jc.full_hamiltonian(p)
        h, evolve = h1 + h2, jc.full_propagator
    code, records = _evolve_records(capsys, f"--dim={d}", *argv)
    assert code == 0
    w, v = oracle.eig_hermitian(h.full())
    # rounding slack: the dense reference V exp(-itW) V^T is itself only
    # as unitary as V, about 2d eps (measured gaps stay below 0.2 of it)
    slack = 2 * d * np.finfo(float).eps
    for rec in records:
        diff = evolve(p, rec["t"]).full() - oracle.expm_from_eig(w, v, rec["t"])
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
@pytest.mark.parametrize("chunk", ["default", 3 * 36])
def test_evolve_stacks_equal_the_per_step_propagators(d, steps, path, chunk, capsys, monkeypatch):
    # d = 3 fits all 50 steps in one default chunk; a chunk of three d = 3
    # steps leaves a short last chunk at 7 and 50 steps.  One d = 96 step
    # exceeds either chunk, so its rows are split (to single rows in the
    # small one).
    if chunk != "default":
        monkeypatch.setattr(jc, "RESIDUAL_CHUNK", chunk)
    assert 4 * 96 * 96 > jc.RESIDUAL_CHUNK >= 4 * 3 * 3 * (50 if chunk == "default" else 3)
    if path == "interaction":
        argv = ["--theta=0.3", "--g=0.7"]
        p = jc.JCParams(0.3, d, 0.7)
        h, evolve = 0.7 * jc.hamiltonian(p), jc.propagator
    else:
        argv = ["--omega=1", "--delta=1.6"]
        p = jc.JCParams.from_physical(1.0, 1.6, 1.0, d)
        h1, h2 = jc.full_hamiltonian(p)
        h, evolve = h1 + h2, jc.full_propagator
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
    berry_pass = cli._berry_pass

    def fail_second(pts):
        passes.append(len(pts.z))
        if len(passes) == 2:
            raise FloatingPointError("injected")
        return berry_pass(pts)

    monkeypatch.setattr(cli, "BERRY_CHUNK", 4)
    monkeypatch.setattr(cli, "_berry_pass", fail_second)
    with pytest.raises(FloatingPointError):
        cli.main(["berry", "--samples=10", f"--format={fmt}", "--out", str(target)])
    assert passes == [4, 4]
    assert target.read_text() == "the previous report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report"]
    monkeypatch.setattr(cli, "_berry_pass", berry_pass)
    assert cli.main(["berry", "--samples=10", f"--format={fmt}", "--out", str(target)]) == 0
    assert target.read_text().startswith("{" if fmt == "json" else "# schema: 2")
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
    assert proc.stdout.readline() == b"# schema: 2\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert "Traceback" not in err and "Error" not in err, err


def test_tolerances_options_and_declared_residuals_name_the_same_fields():
    # every Tolerances field is a --tol-* option of every command and
    # judges some declared residual, and nothing else does either
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    for name, sub in commands.items():
        assert {a.dest[len("tol_"):] for a in sub._actions if a.dest.startswith("tol_")} == fields, name

    def tols(kind):
        if isinstance(kind, list):
            yield from tols(kind[0])
        elif isinstance(kind, report.Record):
            for f in kind.fields:
                if f.tol is not None:
                    yield f.tol
                yield from tols(f.kind)

    assert {t for rec in cli.RECORDS.values() for t in tols(rec)} == fields


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
def test_jc_passes_at_large_theta(theta, capsys):
    # eigh is off by ~eps ||H|| ~ 1e-8 here, far above the absolute 1e-10
    code, rec = _jc_record(capsys, theta)
    assert code == 0 and rec["pass"]
    # the record reports the residual itself, not the scaled one
    p = jc.JCParams(theta=theta, dim=8)
    radii = jc.radius_diag(8, theta, 0)
    evals = oracle.eigvals_hermitian(jc.hamiltonian(p).full())
    assert rec["eigenvalue_max_dev"] == np.max(np.abs(np.sort(evals) - np.sort(np.concatenate([radii, -radii]))))


def _shift_chart_diagonal(mp, shift):
    orig = jc.chart_diagonal
    mp.setattr(jc, "chart_diagonal", lambda p, chart: orig(p, chart) + shift * jc.BlockOperator.identity(p.dim))


def _shift_spectral(mp, shift):
    orig = jc.spectral_decomposition

    def shifted(p):
        plus, minus = orig(p)
        return plus + shift * jc.BlockOperator.identity(p.dim), minus

    mp.setattr(jc, "spectral_decomposition", shifted)


def _shift_eigenvalues(mp, shift):
    # the oracle entry hjc jc calls
    orig = oracle.eigvals_hermitian
    mp.setattr(oracle, "eigvals_hermitian", lambda m: orig(m) + shift)


@pytest.mark.parametrize("theta", [0.5, 1e8, -1e8])
@pytest.mark.parametrize("perturb", [_shift_chart_diagonal, _shift_spectral, _shift_eigenvalues])
def test_jc_scaled_checks_still_catch_errors(theta, perturb, capsys, monkeypatch):
    # a closed form off by 1e-6 * max R(n) fails, however large theta is
    scale = max(1.0, float(np.max(jc.radius_diag(8, theta, 0))))
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


@pytest.mark.parametrize("theta", [-1e12, -1e15, -1e20, -1e200, -0.5, 0.0, 0.5, 1e200])
def test_grassmann_singular_set_is_the_strings_chart_i_row_2_set(theta, capsys):
    argv = [f"--theta={theta!r}", "--dim=6"]
    assert cli.main(["grassmann", *argv]) == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert cli.main(["strings", *argv]) == 0
    singular = json.loads(capsys.readouterr().out)["records"][0]["singular"]
    row_2 = [s["level"] for s in singular if (s["chart"], s["row"]) == ("I", 2)]
    assert rec["singular_levels"] == row_2 == ([0] if theta <= 0 else [])
    assert rec["pass"]


@pytest.mark.parametrize("theta", [0.0, 1e-200, 1e-8, -1e-8, 0.5, -3.0, 1e15, -1e200])
@pytest.mark.parametrize("d", [2, 5])
def test_strings_edge_entries_are_truncation_and_the_string_is_ground_only(theta, d, capsys):
    # below |theta| ~ 5e-8 both charts' ground denominators 4 theta^2 are
    # under the threshold: still the ground sector alone
    assert cli.main(["strings", f"--theta={theta!r}", f"--dim={d}"]) == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["ground_only"] and rec["pass"]
    edge = {(s["chart"], s["row"], s["level"]) for s in rec["sectors"] if s["status"] == "truncation"}
    assert edge == {("I", 1, d - 1), ("II", 1, d - 1)}
    assert {(s["row"], s["level"]) for s in rec["singular"]} == {(2, 0)}


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
        ["evolve", "--theta", "0.3", "--omega", "1", "--delta", "2"],  # theta != (delta - omega)/2g
    ],
)
def test_bad_evolve_inputs_exit_before_the_oracle(argv, monkeypatch, capsys):
    _refuse_the_oracle(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["berry", "--grid", "z=0:1:2,w=0:inf:2", "--samples", "0"],
        ["berry", "--grid", "z=nan:1:2,w=0:1:2"],
        ["berry", "--grid", "z=-1e308:1e308:3,w=0:1:2"],  # the axis steps overflow
        ["berry", "--grid", "z=1.7e308:1.7e308:1,w=1.7e308:1.7e308:1"],  # r overflows
        ["berry", "--seed", "-1"],
        ["jc", "--theta", "nan", "--dim", "4"],
        ["jc", "--g", "inf", "--dim", "4"],
        ["strings", "--theta=nan,1", "--dim", "4"],
        ["grassmann", "--theta=0.5,-inf", "--dim", "4"],
        ["evolve", "--theta", "inf", "--dim", "4"],
        ["evolve", "--omega", "nan", "--delta", "1", "--dim", "4"],
        ["evolve", "--omega", "1", "--delta", "-inf", "--dim", "4"],
        ["evolve", "--t-max", "inf", "--dim", "4"],
    ],
)
def test_non_finite_or_malformed_input_is_a_usage_error(argv, monkeypatch, capsys):
    _refuse_the_oracle(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", ["algebraic", "strict", "reconstruction", "propagator"])
def test_non_finite_or_negative_tolerance_is_a_usage_error(name, monkeypatch, capsys):
    # a bad tolerance is refused before any check runs; zero is allowed
    _refuse_the_oracle(monkeypatch)
    for value in ("nan", "inf", "-inf", "-1", "-5e-324"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["jc", "--dim", "4", f"--tol-{name}={value}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"tol-{name} must be" in err
    monkeypatch.undo()
    assert cli.main(["jc", "--dim", "4", f"--tol-{name}=0"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["records"]


@pytest.mark.parametrize("command", ["berry", "strings"])
def test_bad_env_seed_is_a_usage_error(command, monkeypatch, capsys):
    monkeypatch.setenv("HJC_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--dim=4"] if command == "strings" else [command])
    assert exc.value.code == 2
    assert "HJC_SEED" in capsys.readouterr().err


def _report(capsys, command, fmt):
    argv = DEFAULT_RUNS[command] + ["--format", fmt]
    code = cli.main(argv)
    assert code == 0
    return capsys.readouterr().out


def _expected_rows(command, rec):
    """The README's CSV layout, read off one JSON record."""
    if command == "jc":
        return [{"theta": rec["theta"], "dim": rec["dim"], "chart": c, **rec["charts"][c]} for c in ("I", "II")]
    if command == "strings":
        return [{"theta": rec["theta"], **s} for s in rec["sectors"]]
    if command == "berry":
        point = rec["point"]
        row = {k: rec[k] for k in ("index", "kind", "class", "cocycle", "pass")}
        row.update(tag=point["w"]["tag"], z=point["z"], norm_w=float(np.linalg.norm(point["w"]["coeffs"])))
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


@pytest.mark.parametrize("command", ["berry", "evolve", "grassmann", "jc"])
def test_any_residual_above_tolerance_fails_the_record(command, capsys, columns_of):
    # the column judge: the limit is the tolerance, times the record's
    # ||H|| for a residual of H itself
    payload = json.loads(_report(capsys, command, "json"))
    decl = cli.RECORDS[command]
    cases = {path: (rec, f) for rec in payload["records"] for path, f in _residual_paths(decl, rec)}
    assert cases
    assert any(f.rel for _, f in cases.values()) == (command in ("berry", "jc"))
    for path, (rec, f) in cases.items():
        norm = decl.norm(columns_of(decl, [rec]))[0] if f.rel else 1.0
        tol = getattr(cli.DEFAULT, f.tol) * norm
        for value, verdict in ((tol, True), (np.nextafter(tol, np.inf), False)):
            mutated = json.loads(json.dumps(rec))
            _get(mutated, path[:-1])[path[-1]] = float(value)
            cols = columns_of(decl, [mutated])
            assert cli.judge(decl, cols, cli.DEFAULT).tolist() == [verdict], path
            assert cols["pass"].tolist() == [verdict]
            if "pass" in _get(mutated, path[:-1]):  # a jc chart carries its own verdict
                assert cols[_pass_path(path)].tolist() == [verdict]


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
    assert cli.judge(decl, columns_of(decl, [rec]), cli.DEFAULT).tolist() == [True]
    _get(rec, path[:-1])[path[-1]] = value
    cols = columns_of(decl, [rec])
    assert cli.judge(decl, cols, cli.DEFAULT).tolist() == [False]
    assert cols["pass"].tolist() == [False] and cols[_pass_path(path)].tolist() == [False]


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


_SMALL_RUNS = {
    "berry": ["berry", "--algebra", "O", "--samples", "20", "--seed", "11"],
    "jc": ["jc", "--dim", "8", "--seed", "11"],
    "strings": ["strings", "--theta=-1,0.5", "--dim", "6", "--seed", "11"],
    "evolve": ["evolve", "--dim", "6", "--t-steps", "3", "--format", "json", "--seed", "11"],
    "grassmann": ["grassmann", "--dim", "6", "--seed", "11"],
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_reports_render_as_the_stdlib_does(command, capsys):
    assert cli.main(_SMALL_RUNS[command]) == 0
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
        cli.render_json(cli.Report("berry", 11, params, records=len(cols["index"])))
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
    seen = [report_of(_SMALL_RUNS["jc"]), report_of(["--command", "strings", "--dim", "6"])]
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
