"""Build the bound-attaining measurement for a coherent catalog model and
check it by simulation.

The displaced number state at n = 0 has every beta equal to 1, so it is
coherent and its bound has a closed form; with two parameters that is the
two-parameter one, and the script prints the method of the one bound
report it reads. The script constructs the projective
measurement on the extended space, samples outcomes, and compares the
empirical covariance with the predicted optimum.
"""

import argparse

import numpy as np

from qcrb import analysis, measurement, model


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shots", type=int, default=200000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--theta", default="0.2,-0.4")
    args = ap.parse_args()
    theta = [float(t) for t in args.theta.split(",")]

    mdl = model.catalog_shifted_number(0, theta)
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    spec = analysis.beta_spectrum(fd)
    print(f"model: shifted number n=0 at theta={theta}")
    print(f"betas: {spec.betas}  classification: {spec.classification}")

    g = np.eye(2)
    rep = analysis.cr_bound(fd, g)
    print(f"bound (identity weight, {rep.method}): {rep.value:.12f}")

    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    ev = measurement.optimal_vectors_coherent(nf, fd, g)
    pvm = measurement.pvm_from_vectors(ev)
    v, unbiased = measurement.covariance_of_pvm(pvm, nf)
    print(f"pvm outcomes: {len(pvm.outcomes)}  locally unbiased: {unbiased}")
    print(f"tr(G V) = {np.sum(g * v):.12f}")

    res = measurement.sample_outcomes(pvm, nf, args.shots, args.seed)
    se = np.sqrt(np.diag(v) / args.shots)
    print(f"\n{args.shots} shots, seed {args.seed}")
    print(f"mean offset: {res.mean - mdl.theta0} (s.e. {se})")
    print("empirical covariance:")
    print(res.cov)
    print("predicted covariance:")
    print(v)
    print(f"max |diff|: {np.abs(res.cov - v).max():.3e}")


if __name__ == "__main__":
    main()
