"""The paper's marginal, independence and exclusiveness statements, as the tests check them.

No command needs these, so they live beside the tests and read the package's
working-point data through its public API:

- `sld_bound(fd, G)`: Tr(G JS^{-1}), a lower bound to CR(G), tight iff the
  model is quasi-classical or m = 1;
- `marginal_infimum(fd, i)`: the infimum of the i-th variance, CR(e_i e_i^T),
  and whether an estimator attains it;
- `independence_partition(fd, blocks)`: JS and Jt block diagonal over a
  partition of the parameters;
- `exclusiveness_test(fd, i, j)`: <l_i|l_j> purely imaginary with maximal
  magnitude;
- `marginal_vectors`, `marginal_covariance` and
  `exclusiveness_extraction_check`: the one-parameter PVM that attains
  (JS^{-1})_ii, its covariance and unbiasedness verdict, and how much it
  extracts about another parameter. Its vectors are in theta (w = I, 1 x 1)
  and it estimates 1 of the frame's m parameters, so the package's
  `outcome_statistics`, which reads a PVM of all m, does not apply: the
  verdict here reads the outcome table and `measurement._expectations`;
- `inflate_covariance`: a classical mixture of offsets adding V0 to a PVM's
  covariance, sampled by `qcrb.measurement.sample_outcomes` like a Pvm;
- `psd_geq`: the PSD order up to eigen dust.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from qcrb import analysis, matkernel, measurement
from qcrb.errors import DomainError, NotPSD, PreconditionNotMet
from qcrb.matkernel import TOL

# PVM variance against (JS^-1)_11 in the exclusiveness check; times (JS^-1)_11
MARGINAL_VARIANCE = 1e-6


def psd_geq(a, b):
    """a >= b in the PSD order, up to eigen dust of the pair's scale."""
    d = np.asarray(a) - np.asarray(b)
    scale = max(matkernel.mnorm(a), matkernel.mnorm(b))
    try:
        matkernel.psd_eig(0.5 * (d + d.conj().T), scale=scale)
    except NotPSD:
        return False
    return True


def sld_bound(fd, G):
    """Tr(G JS^{-1}): a lower bound to CR(G), tight iff quasi-classical or m=1.

    It is Tr(w G w), read from the weight's entry on fd and scaled back from
    unit scale, so the weight passes the checks of every route: the
    finiteness (NonFinite), shape and PSD decision (DomainError) of
    FisherData.weight.
    """
    wt = fd.weight(G)
    return wt.back(float(np.trace(wt.gn)))


def marginal_infimum(fd, i):
    """Infimum of the i-th diagonal covariance entry, and whether it is attained.

    It is CR(e_i e_i^T); its value is (JS^{-1})_ii on every model.
    """
    m = fd.JS.shape[0]
    try:
        i = operator.index(i)
    except TypeError as exc:
        raise DomainError(f"index {i!r} is not an integer") from exc
    if not (0 <= i < m):
        raise DomainError(f"index {i} out of range for m = {m}")
    report = analysis.cr_bound(fd, np.diag(np.eye(m)[i]))
    return report.value, report.attained


def independence_partition(fd, blocks):
    """True iff JS and Jt are block diagonal with respect to the partition."""
    m = fd.JS.shape[0]
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(m)):
        raise DomainError("blocks must partition the index set")
    tol = TOL["eigen_dust"] * matkernel.mnorm(fd.JS)
    for a in range(len(blocks)):
        for b in range(len(blocks)):
            if a == b:
                continue
            ia = np.ix_(blocks[a], blocks[b])
            if matkernel.mnorm(fd.JS[ia]) > tol or matkernel.mnorm(fd.Jt[ia]) > tol:
                return False
    return True


def exclusiveness_test(fd, i, j):
    """True iff <l_i|l_j> is purely imaginary with maximal magnitude."""
    if i == j:
        raise DomainError("exclusiveness is a property of distinct indices")
    tol = TOL["eigen_dust"] * matkernel.mnorm(fd.JS)
    g = fd.gram[i, j]
    cap = math.sqrt(fd.JS[i, i] * fd.JS[j, j])
    return bool(abs(g.real) <= tol and abs(g.imag) >= (1.0 - TOL["eigen_dust"]) * cap)


@dataclass
class InflatedPvm:
    base: measurement.Pvm
    shifts: np.ndarray       # shape (2^m, m)
    weight: float

    def outcome_table(self, frame):
        """(offsets, probs, analytic_cov) from the base's one probability pass.

        The outcomes are shift-major: row s K + k is base offset k plus shift
        s, with probability weight * p_k.
        """
        offsets, probs, cov = self.base.outcome_table(frame)
        cov = matkernel.symmetrize(cov + self.weight * (self.shifts.T @ self.shifts))
        offsets = (offsets[None, :, :] + self.shifts[:, None, :]).reshape(-1, self.base.m)
        return offsets, np.tile(probs * self.weight, len(self.shifts)), cov


def inflate_covariance(pvm, v0):
    """Classical offset mixture adding exactly V0 to the covariance.

    The 2^m offsets are sqrt(V0) alpha over sign vectors alpha, each with
    weight 2^{-m}; their mean is zero, so unbiasedness is preserved.
    """
    v0 = matkernel.symmetrize(np.atleast_2d(v0))
    if v0.shape != (pvm.m, pvm.m):
        raise DomainError(f"V0 must be {pvm.m} x {pvm.m}")
    try:
        root, = matkernel.psd_powers(v0, 0.5)
    except NotPSD as exc:
        raise DomainError("V0 must be PSD") from exc
    alphas = np.array(list(itertools.product([1.0, -1.0], repeat=pvm.m)))
    return InflatedPvm(base=pvm, shifts=alphas @ root, weight=1.0 / len(alphas))


def analytic_covariance(meas, frame):
    """Covariance of a Pvm or InflatedPvm from the finite outcome sums."""
    return meas.outcome_table(frame)[2]


def marginal_vectors(frame, fd, i):
    """Single-parameter estimation vector x = L JS^{-1} e_i, in theta itself.

    Its variance is exactly (JS^{-1})_ii and Im X*X vanishes trivially, so a
    projective measurement for the i-th parameter alone always exists.
    """
    x = frame.lifts @ fd.js_powers[0][:, [i]]
    return measurement.EstimationVectors(X=x, phi=frame.phi, w=np.eye(1))


def marginal_covariance(pvm, frame, i):
    """The 1 x 1 covariance of a marginal PVM about theta_i, and whether it is
    locally unbiased for theta_i.

    The verdict is `outcome_statistics`' rule for one offset against all m
    lifts: the mean within TOL "vectors" times the root |x| of the variance,
    and Re xhat* L - e_i within it times |x| ||L||.
    """
    offsets, probs, v = pvm.outcome_table(frame)
    lift_rows = measurement._expectations(pvm, frame.phi, frame.lifts)[1]
    deriv = (offsets.T @ lift_rows).real
    tol = TOL["vectors"] * math.sqrt(matkernel.mnorm(v))
    unbiased = bool(matkernel.mnorm(probs @ offsets) <= tol
                    and matkernel.mnorm(deriv - np.eye(1, frame.lifts.shape[1], i))
                    <= tol * matkernel.mnorm(frame.lifts))
    return v, unbiased


def exclusiveness_extraction_check(pvm, frame, fd, j):
    """Max |Re <phi|E_k|l_j>| over outcomes of a first-parameter-optimal PVM.

    fd is the Fisher data of frame. Precondition: the PVM variance equals
    (JS^{-1})_11 within MARGINAL_VARIANCE of it.
    """
    if pvm.m != 1:
        raise PreconditionNotMet("expected a single-parameter PVM")
    target = fd.js_powers[0][0, 0]
    v = pvm.outcome_table(frame)[2]
    if not abs(float(v[0, 0]) - target) <= MARGINAL_VARIANCE * target:
        raise PreconditionNotMet(f"PVM variance {float(v[0, 0])!r} misses (JS^-1)_11 = {target!r}")
    rows = measurement._expectations(pvm, frame.phi, frame.lifts[:, [j]])[1]
    return matkernel.mnorm(rows.real)
