"""Cross-validate the two-parameter closed-form bound against the Holevo SDP.

For each beta on a grid, draws a few positive definite weights, evaluates
the closed form, solves the oracle's SDP on the same problem, and prints
their difference, the SDP's duality gap and the stationarity-certificate
residual. Exits nonzero if any difference exceeds the tolerance that
`qcrb bound --oracle` applies, matkernel.TOL["oracle_agreement"], relative to
the closed form.
"""

import argparse
import sys

import numpy as np

from qcrb import analysis, oracle
from qcrb.matkernel import TOL
from qcrb.model import FisherData


BETAS = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
SEED = 2026


def synthetic_fd(beta):
    jt = beta * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return FisherData(JS=np.eye(2), Jt=jt, gram=np.eye(2) + 1j * jt)


def random_weights(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        b = rng.normal(size=(2, 2))
        out.append(b @ b.T + 0.1 * np.eye(2))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weights", type=int, default=4, help="weights drawn per beta")
    args = ap.parse_args()

    worst = 0.0
    print(f"{'beta':>5}  {'closed':>14}  {'oracle':>14}  {'|diff|':>9}  {'gap':>9}  {'cert':>9}")
    for k, beta in enumerate(BETAS):
        fd = synthetic_fd(beta)
        for g in random_weights(SEED + 97 * k, args.weights):
            closed = analysis.cr_bound_2param(fd, g).value
            res = analysis.oracle_bound(fd, fd.weight(g))[1]
            cert = oracle.stationarity_certificate(res, fd)
            diff = abs(res.value - closed)
            worst = max(worst, diff / closed)
            print(f"{beta:5.2f}  {closed:14.10f}  {res.value:14.10f}  "
                  f"{diff:9.2e}  {res.gap:9.2e}  {cert.residual:9.2e}")

    tol = TOL["oracle_agreement"]
    print(f"worst relative difference {worst:.3e} (tolerance {tol:g})")
    return 0 if worst <= tol else 1


if __name__ == "__main__":
    sys.exit(main())
