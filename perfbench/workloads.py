"""Seeded request lists for the benchmark workloads.

A workload is an endless stream of blocks.  Every block holds the same
fixed mix of subcommands.  Sizes follow a seeded Weyl sequence per
subcommand (u_k = frac(u_0 + k / golden ratio), mapped through the size
distribution), so any run prefix covers the size range evenly and a run
that stops at a block boundary has the same record mix and nearly the
same size spread for every seed.  The program only ever sees the argv
lists.

Detuning lists are passed as ``--theta=...``: the space-separated form
``--theta "-1,..."`` is read by argparse as an option and exits 2 (a
known CLI defect that this benchmark leaves in place).
"""

from __future__ import annotations

import math
import random

# Each workload's reason is recorded in BENCHMARK.json.
WORKLOADS = ("classical_sweep", "jc_scaling")

# Untimed first request of every process; fixed so set-up does not
# depend on the seed.
WARMUP = {
    "classical_sweep": ["berry", "--algebra=O", "--grid=z=-1:1:3,w=0:1:2", "--samples=2", "--seed=0"],
    "jc_scaling": [
        "evolve", "--theta=0.5", "--g=1", "--dim=16", "--t-max=10", "--t-steps=4",
        "--n0=2", "--format=csv", "--seed=0",
    ],
}

BERRY_GRID = "z=-2:2:5,w=0:1.5:3"
BERRY_SAMPLES = 10

# Fixed requests that reach the program's known numerical defects.  They
# run untimed after the timed loop and give the defect metrics, so a fix
# or a regression of a defect shows on every run, while no timed request
# fails.
#   classical_sweep: string bands, z = -1..1 with ||w|| on one decade
#   10^-k, k = 6..12, for each K.  From k = 8 down they raise
#   ZeroDivisionError (a failed operation); k = 6, 7 complete with
#   failed residual records.
#   jc_scaling: theta lists with |theta| from 1e-6 to 1e8, where the
#   singular-set check fails a record.
DEFECT_PROBE = {
    "classical_sweep": [
        ["berry", f"--algebra={tag}", f"--grid=z=-1:1:3,w=1e-{k}:1e-{k - 1}:3", f"--samples={BERRY_SAMPLES}",
         f"--seed={k}"]
        for k in range(6, 13)
        for tag in "RCHO"
    ],
    "jc_scaling": [
        [command, f"--theta={thetas}", f"--dim={d}", f"--seed={d}"]
        for command in ("strings", "grassmann")
        for thetas, d in (("-1e8,-0.5,0.5,1e-6", 16), ("1e8,-1e-6,3,-2", 48), ("-1e-6,1e6,-1e8,0.05", 96))
    ],
}


GOLDEN = (5 ** 0.5 - 1) / 2


def _strata(rng: random.Random, n: int) -> list:
    """n points in [0, 1), one per stratum [i/n, (i+1)/n), shuffled."""
    out = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


class _Weyl:
    """Low-discrepancy stream in [0, 1) with a seeded start."""

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def take(self, n: int) -> list:
        out = []
        for _ in range(n):
            self.u = (self.u + GOLDEN) % 1.0
            out.append(self.u)
        return out


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _theta_list(rng: random.Random, n: int, lo: float, hi: float) -> str:
    vals = [rng.choice((-1.0, 1.0)) * _log_uniform(u, lo, hi) for u in _strata(rng, n)]
    return ",".join(_fmt(v) for v in vals)


def _seed(rng: random.Random) -> str:
    return f"--seed={rng.randrange(2**31)}"


def _classical_block(rng: random.Random) -> list:
    # 36 requests with the K mix fixed at R 5 / C 9 / H 11 / O 11
    # (weights .15/.25/.3/.3).
    block = [_berry(rng, tag, BERRY_GRID) for tag in ["R"] * 5 + ["C"] * 9 + ["H"] * 11 + ["O"] * 11]
    rng.shuffle(block)
    return block


def _berry(rng: random.Random, tag: str, grid: str) -> list:
    return ["berry", f"--algebra={tag}", f"--grid={grid}", f"--samples={BERRY_SAMPLES}", _seed(rng)]


def _jc_block(rng: random.Random, sizes: dict) -> list:
    # 10 requests: 4 jc, 4 evolve, 2 grassmann; d log-uniform in [48, 320].
    block = []
    for u in sizes["jc"].take(4):
        d = round(_log_uniform(u, 48, 320))
        block.append(["jc", f"--theta={_theta_list(rng, 1, 0.05, 4.0)}", f"--dim={d}", _seed(rng)])
    for u in sizes["evolve"].take(4):
        d = round(_log_uniform(u, 48, 320))
        n0 = rng.randrange((d + 3) // 4)
        block.append([
            "evolve", f"--theta={_theta_list(rng, 1, 0.05, 4.0)}", "--g=1", f"--dim={d}",
            "--t-max=10", "--t-steps=10", f"--n0={n0}", "--format=csv", _seed(rng),
        ])
    for u in sizes["grassmann"].take(2):
        d = round(_log_uniform(u, 48, 320))
        block.append(["grassmann", f"--theta={_theta_list(rng, 3, 0.05, 4.0)}", f"--dim={d}", _seed(rng)])
    rng.shuffle(block)
    return block


def blocks(workload: str, seed: int):
    """Endless stream of request blocks (lists of argv lists) for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    sizes = {command: _Weyl(rng) for command in ("jc", "evolve", "grassmann")}
    while True:
        if workload == "classical_sweep":
            yield _classical_block(rng)
        else:
            yield _jc_block(rng, sizes)
