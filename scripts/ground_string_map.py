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
        cols = report.columns
        print(f"theta = {theta:+.3f}")
        for chart in ("I", "II"):
            rows = (cols["chart"] == chart) & (cols["row"] == 2)
            den, status = cols["denominator"][rows][:6], cols["status"][rows][:6]
            cells = " ".join(f"{v:8.3f}" + ("*" if s == "singular" else " ") for v, s in zip(den, status))
            print(f"  chart {chart:>2} row 2: {cells}")
        sing = report.singular()
        print(f"  singular sectors: {list(zip(sing['chart'].tolist(), sing['level'].tolist()))}")
    print()
    print("level-pair map (rows/cols = field levels; # touches ground):")
    # a basis pair |m> (x) |n> touches a string iff m = 0 or n = 0
    for m in range(args.dim):
        print("  " + " ".join("#" if m == 0 or n == 0 else "." for n in range(args.dim)))


if __name__ == "__main__":
    main()
