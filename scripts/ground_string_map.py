"""Where the quantum strings live: sector denominators over a theta sweep.

For each detuning the vanishing chart denominator 2 R(n) (R(n) +- theta)
is printed per level, followed by the level-pair map (# = a basis pair
touching the ground level, where strings can appear; . = string-free).
"""

import argparse
import sys

from hjc import jc
from hjc.cli import _attach_negative_values


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--thetas", default="-1,-0.25,0.25,1")
    ap.add_argument("--dim", type=int, default=8)
    args = ap.parse_args(_attach_negative_values(sys.argv[1:]))

    for theta in (float(t) for t in args.thetas.split(",")):
        p = jc.JCParams(theta=theta, dim=args.dim)
        report = jc.singular_sectors(p)
        print(f"theta = {theta:+.3f}")
        for chart in ("I", "II"):
            rows = [e for e in report.entries if e.chart.value == chart and e.row == 2]
            cells = " ".join(
                f"{e.denominator:8.3f}" + ("*" if e.singular else " ") for e in rows[:6]
            )
            print(f"  chart {chart:>2} row 2: {cells}")
        sing = [(s.chart.value, s.level) for s in report.singular()]
        print(f"  singular sectors: {sing}")
    print()
    print("level-pair map (rows/cols = field levels; # touches ground):")
    report = jc.singular_sectors(jc.JCParams(theta=0.5, dim=args.dim))
    grid = {tuple(c["level_pair"]): c["color"] for c in report.lattice()}
    for m in range(args.dim):
        print("  " + " ".join("#" if grid[(m, n)] == "black" else "." for n in range(args.dim)))


if __name__ == "__main__":
    main()
