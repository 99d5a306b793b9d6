"""Atomic inversion <sigma3>(t) from the closed-form propagator.

Starts the atom excited at field level n0 and sweeps a few detunings:
off resonance the oscillation amplitude shrinks by (n0+1)/R(n0+1)^2
exactly as the closed form predicts.  CSV on stdout.
"""

import argparse
import sys

import numpy as np

from hjc import jc
from hjc.cli import _attach_negative_values


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--thetas", default="0,0.5,1,2")
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--n0", type=int, default=0)
    ap.add_argument("--g", type=float, default=1.0)
    ap.add_argument("--t-max", type=float, default=12.0, dest="t_max")
    ap.add_argument("--t-steps", type=int, default=121, dest="t_steps")
    args = ap.parse_args(_attach_negative_values(sys.argv[1:]))

    thetas = [float(t) for t in args.thetas.split(",")]
    d = args.dim
    psi0 = np.zeros(2 * d, dtype=complex)
    psi0[args.n0] = 1.0

    w = sys.stdout.write
    w("t," + ",".join(f"sigma3_theta_{t:g}" for t in thetas) + "\n")
    for t in np.linspace(0.0, args.t_max, args.t_steps):
        row = [f"{t:.6f}"]
        for theta in thetas:
            u = jc.propagator(jc.JCParams(theta=theta, dim=d, g=args.g), float(t))
            psi = u.full() @ psi0
            inv = np.sum(np.abs(psi[:d]) ** 2) - np.sum(np.abs(psi[d:]) ** 2)
            row.append(f"{inv:.9f}")
        w(",".join(row) + "\n")


if __name__ == "__main__":
    main()
