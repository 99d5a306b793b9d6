"""Chart conditioning on approach to the lower Dirac string.

Walks (w, z) = (eps * u, -1) for a fixed unit direction u in each algebra
and prints the chart-I normalization prefactor next to the largest
projector entry: the chart blows up like 1/eps, the projector does not.
"""

import argparse

import numpy as np

from hjc import berry
from hjc.algebra import AlgebraTag
from hjc.berry import ChartTag


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--decades", type=int, default=6)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    eps = np.array([10.0**-k for k in range(1, args.decades + 1)])
    print(f"{'K':>2} {'eps':>10} {'cond(I)':>12} {'max|P|':>10} {'unitary ok':>10}")
    for tag in AlgebraTag:
        u = rng.standard_normal(tag.dim)
        u = u / np.linalg.norm(u)
        pts = berry.Points.of(tag, u * eps[:, None], np.full(eps.shape, -1.0))
        cond = berry.conditionings(pts, ChartTag.I)
        proj = np.max(berry.norms(berry.projector_coeffs(pts)), axis=(-2, -1))
        uni = berry.chart_coeffs(pts, ChartTag.I)
        ident = np.zeros((2, 2, tag.dim))
        ident[0, 0, 0] = ident[1, 1, 0] = 1.0
        ok = berry.residual_coeffs(berry.matmul_coeffs(tag, berry.dagger_coeffs(uni), uni), ident) < 1e-9
        for row in zip(eps, cond, proj, ok):
            print(f"{tag.name:>2} {row[0]:10.1e} {row[1]:12.4e} {row[2]:10.6f} {str(row[3]):>10}")
        print()


if __name__ == "__main__":
    main()
