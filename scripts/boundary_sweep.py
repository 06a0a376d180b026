"""Sweep the two-parameter covariance boundary over a grid of beta values.

Writes one CSV per beta (columns x,z,u,v) and prints the minimized trace
value for the Fisher-matrix weight next to its closed form
2 * m / (1 + sqrt(1 - beta^2)).
"""

import argparse
import csv
import math
import pathlib

import numpy as np

from qcrb import analysis
from qcrb.model import FisherData


def synthetic_fd(beta):
    jt = beta * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return FisherData(JS=np.eye(2), Jt=jt, gram=np.eye(2) + 1j * jt)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--betas", default="0.0,0.2,0.4,0.6,0.8,0.95,1.0")
    ap.add_argument("--count", type=int, default=201)
    ap.add_argument("--out-dir", default="boundary_csv")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    betas = [float(t) for t in args.betas.split(",")]

    print(f"{'beta':>6}  {'rows':>5}  {'tr bound':>12}  {'closed form':>12}")
    for beta in betas:
        samples = analysis.boundary_2param(beta, count=args.count)
        path = out / f"boundary_beta_{beta:.4f}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "z", "u", "v"])
            w.writerows(samples.tolist())

        rep = analysis.cr_bound_js_weight(synthetic_fd(beta))
        closed = 2 * 2.0 / (1.0 + math.sqrt(max(0.0, 1.0 - beta * beta)))
        print(f"{beta:6.3f}  {len(samples):5d}  "
              f"{rep.value:12.8f}  {closed:12.8f}")
    print(f"curves written to {out}/")


if __name__ == "__main__":
    main()
