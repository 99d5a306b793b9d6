"""hjc benchmark: seeded CLI workloads in a closed loop from one client.

    python3 perfbench/run.py --workload classical_sweep --seed 1 --seconds 40 --trace 0
    python3 -m pytest perfbench/selftest.py -q      # the benchmark's own tests

Each workload is a seeded stream of ``hjc`` CLI requests (see
``workloads.py``) that a fresh worker process issues one after another
through ``hjc.cli.main(argv)``, checking every report (``checks.py``).
A request that raises, exits 2 or fails a check is a failed operation;
the run goes on after it.  The timed requests are chosen so that none
fails at this version; the program's known defects are measured on a
fixed defect probe that runs after them (``defect_op_success_ratio``,
``defect_record_pass_ratio``).  ``setup_s`` is the median, over seven fresh
processes, of the time from process start to the end of the untimed
warm-up request.  Request times are scaled by the speed of a reference
kernel (see ``worker.py``); the unscaled figures are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
pass and the scaling probe and prints the per-layer metrics
(``tracer.py``, ``probe.py``).  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
is imported from ``src/`` next to this directory; without it the run
exits 1.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROCESSES = 7  # set-up samples per run, the workload process included
READY_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 170.0

class BenchError(RuntimeError):
    pass


def _spawn(args: argparse.Namespace, mode: str):
    """Start a worker; return it and the seconds until it printed READY."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--mode", mode,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _stop(proc)
        raise BenchError(f"worker ({mode}) did not start: exit {proc.returncode}")
    return proc, setup


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker timed out") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed: exit {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _timings(result: dict) -> dict:
    lat = result["latencies"]
    if len(lat) < 2:
        raise BenchError("fewer than two completed requests")
    return {
        "records_per_s": result["records"] / result["time_all"],
        "request_p50_s": statistics.median(lat),
        "request_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
    }


def end_to_end(result: dict, setups: list) -> dict:
    defect = result["defect"]
    return {
        "setup_s": statistics.median(setups),
        **_timings(result),
        "defect_op_success_ratio": 1.0 - defect["failed"] / defect["attempted"],
        "defect_record_pass_ratio": 1.0 - defect["record_failures"] / max(defect["records"], 1),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        setups = []
        for _ in range(SETUP_PROCESSES - 1):
            proc, setup = _spawn(args, "setup")
            if proc.wait(timeout=READY_TIMEOUT_S) != 0:
                raise BenchError(f"set-up worker exited {proc.returncode}")
            setups.append(setup)
        proc, setup = _spawn(args, "run")
        setups.append(setup)
        result = _finish(proc)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    machine = result["machine"]
    print(f"workload {args.workload} seed {args.seed}: {why[args.workload]}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(
        f"requests {result['attempted']}, {len(result['latencies'])} completed (latency samples); "
        f"op_fail_ratio {result['failed']}/{result['attempted']}"
    )
    print(f"records {result['records']}; record_fail_ratio {result['record_failures']}/{result['records']}")
    if not args.trace:
        defect = result["defect"]
        print(
            f"defect probe: op_fail_ratio {defect['failed']}/{defect['attempted']}, "
            f"record_fail_ratio {defect['record_failures']}/{defect['records']}"
        )
        for error, n in sorted(defect["errors"].items()):
            print(f"  defect probe failed x{n}: {error}")
    print("set-up samples (s): " + " ".join(f"{t:.3f}" for t in setups))
    for error, n in sorted(result["errors"].items()):
        print(f"  failed x{n}: {error}")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        measured = result["metrics"]
        print(f"spans {result['spans']}, remainder {result['remainder_s']:.6f} s")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        measured = end_to_end(result, setups)
        raw = _timings(result["raw"])
        print(f"reference kernel median {result['reference_s'] * 1e3:.4f} ms")
        print("unscaled wall: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    metrics = {name: measured[name] for name in units}
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    line = {
        "correct": result["incorrect"] == 0 and result.get("defect", {}).get("incorrect", 0) == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
