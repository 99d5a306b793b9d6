"""Output checks run on every timed request.

``check(argv, rc, text, validators, columns)`` returns an ``Outcome`` with the
records the report holds, the failures the program reported itself, and
the list of problems the benchmark found.  Any problem makes the request
a failed operation.

The checks are independent of the closed forms: the evolve check compares
sigma3 with the Rabi law computed here, not with ``hjc.jc``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# The CLI's default propagator tolerance, which decides an evolve row's pass.
PROPAGATOR_TOL = 1e-8
RABI_TOL = 1e-8


@dataclass
class Outcome:
    records: int = 0
    failures: int = 0
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Request parameters


def options(argv: list) -> dict:
    """``--name=value`` tokens of a request, keyed by name."""
    out = {}
    for tok in argv[1:]:
        if tok.startswith("--") and "=" in tok:
            name, value = tok[2:].split("=", 1)
            out[name] = value
    return out


def expected_records(argv: list) -> int:
    command, opts = argv[0], options(argv)
    if command == "berry":
        counts = {}
        for axis in opts["grid"].split(","):
            name, span = axis.split("=")
            counts[name] = int(span.split(":")[2])
        return counts["w"] * counts["z"] + int(opts["samples"])
    if command == "jc":
        return 1
    if command in ("strings", "grassmann"):
        return len([t for t in opts["theta"].split(",") if t.strip()])
    if command == "evolve":
        return int(opts["t-steps"])
    raise ValueError(f"no record rule for {command!r}")


def rabi_sigma3(theta: float, n0: int, g: float, t: float) -> float:
    """<sigma3>(t) for an excited atom with n0 photons:
    1 - 2 (n0+1)/R^2 sin^2(g t R), R = sqrt(n0 + 1 + theta^2)."""
    r = math.sqrt(n0 + 1 + theta * theta)
    return 1.0 - 2.0 * (n0 + 1) / (r * r) * math.sin(g * t * r) ** 2


def _linspace(lo: float, hi: float, n: int) -> list:
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


# ---------------------------------------------------------------------------
# Per-request check


def _check_json(argv, rc, text, validate, out: Outcome) -> None:
    report = json.loads(text)
    out.problems += [e.message for e in validate.iter_errors(report)][:5]
    if out.problems:
        return
    records = report["records"]
    summary = report["summary"]
    out.records = len(records)
    out.failures = summary["failures"]
    if summary["records"] != len(records):
        out.problems.append(f"summary.records {summary['records']} != {len(records)} records")
    failed = sum(1 for r in records if r["pass"] is False)
    if summary["failures"] != failed:
        out.problems.append(f"summary.failures {summary['failures']} != {failed} failed records")
    if summary["passed"] != (failed == 0):
        out.problems.append("summary.passed disagrees with the records")


def _check_evolve_csv(argv, rc, text, columns, out: Outcome) -> None:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != ",".join(columns):
        out.problems.append(f"CSV header {lines[:1]} != {columns}")
        return
    rows = [dict(zip(columns, ln.split(","))) for ln in lines[1:]]
    out.records = len(rows)
    opts = options(argv)
    theta, n0, g = float(opts["theta"]), int(opts["n0"]), float(opts["g"])
    times = _linspace(0.0, float(opts["t-max"]), int(opts["t-steps"]))
    for row, t_expected in zip(rows, times):
        t = float(row["t"])
        if abs(t - t_expected) > 1e-12 * max(1.0, abs(t_expected)):
            out.problems.append(f"t {t} != {t_expected}")
        law = rabi_sigma3(theta, n0, g, t)
        if not abs(float(row["sigma3"]) - law) <= RABI_TOL:
            out.problems.append(f"sigma3 {row['sigma3']} at t={t} off the Rabi law {law!r}")
        res = float(row["closed_vs_oracle_residual"])
        unit = float(row["unitarity"])
        out.failures += not (res <= PROPAGATOR_TOL and unit <= PROPAGATOR_TOL)


def check(argv: list, rc, text: str, validators: dict, columns: dict) -> Outcome:
    """Check one request's exit code and report against the CLI's own
    declarations (``validators[command]``: a jsonschema validator of
    ``hjc.cli.SCHEMAS[command]``; ``columns``: ``hjc.cli.CSV_COLUMNS``)."""
    out = Outcome()
    command = argv[0]
    if rc not in (0, 1):
        out.problems.append(f"exit code {rc!r}")
        return out
    try:
        if options(argv).get("format", "json") == "csv":
            _check_evolve_csv(argv, rc, text, columns[command], out)
        else:
            _check_json(argv, rc, text, validators[command], out)
    except (ValueError, KeyError, TypeError) as exc:
        out.problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
        return out
    if out.problems:
        return out
    want = expected_records(argv)
    if out.records != want:
        out.problems.append(f"{out.records} records, request asks for {want}")
    if (rc == 0) != (out.failures == 0):
        out.problems.append(f"exit code {rc} with {out.failures} failed records")
    return out
