"""Scaling probe: direct timings of single public functions at fixed sizes,
outside any workload.

``jc.propagator``, ``jc.chart_decompose`` and ``jc.projector`` and the dense
oracle ``oracle.eig_hermitian`` on the 2d x 2d Hamiltonian at
d in {40, 200, 800} (the workloads' dense oracle keeps them below d = 320),
and one ``AlgebraElement`` product per algebra.  Each time is a median over
repetitions.
"""

from __future__ import annotations

import random
import statistics
import time

DIMS = (40, 200, 800)
REPS = {40: 15, 200: 5, 800: 2}
ORACLE_REPS = {40: 15, 200: 3, 800: 1}
MUL_BATCH = 2000
MUL_REPEATS = 5


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaling_probe(seed: int) -> dict:
    """Probe metrics, named ``jc.<fn>.d<d>_s``, ``oracle.eig_hermitian.d<d>_s``
    and ``algebra.mul.<K>_us``."""
    import numpy as np
    from hjc import algebra, jc, oracle

    rng = random.Random(f"probe:{seed}")
    theta = rng.uniform(0.25, 1.0)  # chart I is admissible for theta > 0
    out = {}
    for d in DIMS:
        p = jc.JCParams(theta=theta, dim=d)
        t = rng.uniform(0.5, 5.0)
        out[f"jc.propagator.d{d}_s"] = _median_time(lambda: jc.propagator(p, t), REPS[d])
        out[f"jc.chart_decompose.d{d}_s"] = _median_time(lambda: jc.chart_decompose(p, jc.ChartTag.I), REPS[d])
        out[f"jc.projector.d{d}_s"] = _median_time(lambda: jc.projector(p), REPS[d])
        h = jc.hamiltonian(p).full()
        out[f"oracle.eig_hermitian.d{d}_s"] = _median_time(lambda: oracle.eig_hermitian(h), ORACLE_REPS[d])
    nrng = np.random.default_rng(rng.randrange(2**32))
    for tag in algebra.AlgebraTag:
        x, y = algebra.random_element(tag, nrng), algebra.random_element(tag, nrng)

        def batch():
            for _ in range(MUL_BATCH):
                x * y

        out[f"algebra.mul.{tag.name}_us"] = _median_time(batch, MUL_REPEATS) / MUL_BATCH * 1e6
    return out
