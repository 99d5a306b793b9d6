"""One benchmark process: imports hjc from the checkout's ``src``, issues the
untimed warm-up request, prints ``READY``, then (unless ``--mode setup``)
runs the workload in a closed loop from one client and prints one JSON
result line.

Untraced (``--trace 0``): requests are issued block by block until
``--seconds`` have passed and at least ``MIN_REQUESTS`` were issued; then
the workload's fixed defect probe (``workloads.DEFECT_PROBE``) runs
untimed.

Traced (``--trace 1``): each request of the first ``TRACE_BLOCKS[workload]``
blocks runs untraced and then traced (``trace.overhead_ratio`` is the
ratio of the two summed walls), the spans are written to
``perfbench/out/``, and the scaling probe runs last.

Started by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_REQUESTS = 100  # so request_p90_s has at least ten samples beyond it
HARD_STOP_S = 140.0
# On a shared host a CPU's speed can switch between a fast and a slow
# state (about 1.7x apart for interpreter-bound code) every few seconds.
# A fixed reference kernel, which shares no code with hjc, runs before
# every timed request and after the last.  A request's time is scaled by
# (reference seconds) / (mean of the kernel times just before and just
# after it), i.e. to the speed at which the kernel takes the reference
# seconds.  Each workload has the kernel whose speed follows its
# requests: berry requests are interpreter-bound, jc requests mostly
# BLAS/LAPACK calls, which the "mixed" kernel does not track.
REFERENCE = {"classical_sweep": ("mixed", 0.0024), "jc_scaling": ("blas", 0.0020)}
REFERENCE_LOOP = 300
TRACE_BLOCKS = {"classical_sweep": 1, "jc_scaling": 4}


def import_program():
    """Import ``hjc.cli`` from the checkout; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from hjc import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hjc imported from {cli.__file__}, not from {src}")
    return cli


class Client:
    """Issues requests through ``main`` and checks their output."""

    def __init__(self, cli, main=None):
        import jsonschema

        self.main = main or cli.main
        self.validators = {c: jsonschema.Draft202012Validator(s) for c, s in cli.SCHEMAS.items()}
        self.columns = cli.CSV_COLUMNS

    def issue(self, argv: list) -> dict:
        """Run one request; ``ok`` is false when it raised, exited other
        than 0/1, or failed an output check."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = self.main(list(argv))
                error = None
            except SystemExit as exc:
                rc, error = exc.code, f"exit {exc.code}"
            except Exception as exc:  # a crashing request is a failed operation
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                rc, error = None, f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno}"
            wall = time.perf_counter() - t0
        result = {"wall": wall, "ok": False, "error": error, "records": 0, "failures": 0, "bytes": 0}
        if error is None:
            outcome = checks.check(argv, rc, out.getvalue(), self.validators, self.columns)
            result.update(records=outcome.records, failures=outcome.failures, bytes=len(out.getvalue()))
            if outcome.problems:
                result["error"] = "check: " + "; ".join(outcome.problems[:3])
                result["incorrect"] = True
            else:
                result["ok"] = True
        return result


def summarize(results: list) -> dict:
    ok = [r for r in results if r["ok"]]
    return {
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "incorrect": sum(1 for r in results if r.get("incorrect")),
        "latencies": [r["wall"] for r in ok],
        "time_all": sum(r["wall"] for r in results),
        "records": sum(r["records"] for r in ok),
        "record_failures": sum(r["failures"] for r in ok),
        "errors": dict(Counter(r["error"] for r in results if r["error"])),
    }


def reference_kernel(kind: str, small, big) -> float:
    """Seconds for one run of a fixed kernel.  "mixed": Python loops, small
    numpy calls and a 96 x 96 matrix product (``small``); "blas": Python
    loops and a 200 x 200 complex matrix product (``big``)."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    if kind == "mixed":
        row = small[0, :8]
        for i in range(REFERENCE_LOOP):
            v = np.concatenate((row[:4] * i, row[4:]))
            acc += float(np.dot(v, v)) + sum(j * j for j in range(20))
        small @ small
    else:
        items = []
        for i in range(REFERENCE_LOOP):
            items.append((i, i * 0.5))
            acc += sum(j * j for j in range(20)) + {"a": i, "b": acc}["a"] * 1e-9
        big @ big
    return time.perf_counter() - t0


def run_untraced(client: Client, workload: str, seed: int, seconds: float) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    kind, reference_s = REFERENCE[workload]
    arrays = (rng.random((96, 96)), rng.random((200, 200)) + 0j)
    results, kernel = [], []
    start = time.perf_counter()
    for block in workloads.blocks(workload, seed):
        for argv in block:
            kernel.append(reference_kernel(kind, *arrays))
            results.append(client.issue(argv))
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(results) >= MIN_REQUESTS) or elapsed >= HARD_STOP_S:
            break
    kernel.append(reference_kernel(kind, *arrays))
    wall = time.perf_counter() - start
    scales = [2.0 * reference_s / (a + b) for a, b in zip(kernel, kernel[1:])]
    out = summarize([{**r, "wall": r["wall"] * f} for r, f in zip(results, scales)])
    out["raw"] = summarize(results)
    out["reference_s"] = statistics.median(kernel)
    out["wall"] = wall
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["defect"] = summarize([client.issue(argv) for argv in workloads.DEFECT_PROBE[workload]])
    return out


def run_traced(cli, client: Client, workload: str, seed: int) -> dict:
    import probe
    import tracer as trace_mod

    stream = workloads.blocks(workload, seed)
    requests = [argv for _ in range(TRACE_BLOCKS[workload]) for argv in next(stream)]
    tracer = trace_mod.Tracer()
    traced_client = Client(cli, tracer.main)
    plain, traced = [], []
    # each request runs untraced and traced back to back, so slow drifts
    # of the machine cancel in trace.overhead_ratio
    for i, argv in enumerate(requests):
        plain.append(client.issue(argv))
        tracer.request = i
        tracer.install()
        try:
            traced.append(traced_client.issue(argv))
        finally:
            tracer.uninstall()
    stats = summarize(traced)
    metrics = trace_mod.layer_metrics(
        tracer.summary(), len(requests), stats["records"], sum(r["bytes"] for r in traced)
    )
    metrics["trace.overhead_ratio"] = stats["time_all"] / sum(r["wall"] for r in plain)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{workload}.npz")
    metrics.update(probe.scaling_probe(seed))
    both = summarize(plain + traced)
    both["metrics"] = metrics
    both["spans"] = len(tracer.spans)
    # request walls minus layer self times: the root wrapper's own cost
    both["remainder_s"] = stats["time_all"] - sum(metrics[f"{layer}.self_s"] for layer in trace_mod.LAYERS)
    return both


def blas_info() -> dict:
    """numpy's BLAS build and the thread count it runs with."""
    import ctypes
    import glob
    import os

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            info["blas_threads"] = get()
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args(argv)

    cli = import_program()
    client = Client(cli)
    warm = client.issue(workloads.WARMUP[args.workload])
    if not warm["ok"]:
        print(f"warm-up request failed: {warm['error']}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.trace:
        result = run_traced(cli, client, args.workload, args.seed)
    else:
        result = run_untraced(client, args.workload, args.seed, args.seconds)
    result["machine"] = blas_info()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
