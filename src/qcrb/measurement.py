"""Projective measurements attaining the bound of every pure-state model.

`pvm_space` picks where the PVM lives: the model's own frame for
quasi-classical models, the 2m+1 Naimark embedding otherwise. There
`optimal_vectors` builds the estimation vectors and reads the bound from
`analysis.closed_form`'s one report. Quasi-classical models take X = L JS^{-1}
on any frame. Coherent and other closed-form models take X = L A + B in the
embedding with A = JS^{-1} and the closed form's covariance V; generic models
take A and V from one oracle solve. B*B = V - A* gram A fills the
coordinates orthogonal to phi and the lifts.

Estimation vectors X with <x^i|phi> = 0, Re X*L = I and Im X*X = 0 are turned
into a projective measurement whose covariance is exactly Re X*X: orthonormal
rays are built from {phi, x^1..x^m} (their Gram is real, so the coefficients
stay real), mixed by an orthogonal matrix whose first column is uniform, and
each ray gets the outcome offset that reproduces the x-vectors. A remainder
projector with offset zero absorbs the rest of the space; its probability at
the base state is reported, never assumed to vanish.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import analysis, matkernel
from .errors import (
    BadProbability,
    ConsistencyError,
    DomainError,
    InfeasibleGram,
    NotCoherent,
    NotCommuting,
    NotQuasiClassical,
    PreconditionNotMet,
    SchemaError,
    SingularWeight,
)
from .matkernel import TOL, check


@dataclass
class EstimationVectors:
    X: np.ndarray            # shape (D, m), column i = |x^i>
    phi: np.ndarray          # unit vector, shape (D,)


@dataclass
class Pvm:
    m: int
    dim: int
    outcomes: List[Tuple[np.ndarray, np.ndarray]]   # (offset, projector)


@dataclass
class NaimarkFrame:
    dim: int
    phi: np.ndarray
    lifts: np.ndarray        # shape (2m+1, m)
    gram: np.ndarray
    theta: Optional[np.ndarray] = None


@dataclass
class InflatedPvm:
    base: Pvm
    shifts: np.ndarray       # shape (2^m, m)
    weight: float


@dataclass
class SampleResult:
    samples: np.ndarray      # shape (count, m), estimates theta + offset
    mean: Optional[np.ndarray]
    cov: Optional[np.ndarray]          # second moment about theta
    analytic_cov: np.ndarray
    count: int
    seed: int


def naimark_frame(fd, theta=None):
    """Embed the state and lifts of fd isometrically in a 2m+1 dimensional space.

    phi' is the first basis vector and the lift images occupy coordinates
    1..m, so <phi'|l'_i> = 0 holds exactly and the Gram of fd is reproduced.
    """
    gram = 0.5 * (fd.gram + fd.gram.conj().T)
    m = gram.shape[0]
    froot = analysis.spectrum(fd).gram_root
    dim = 2 * m + 1
    phi = np.zeros(dim, dtype=complex)
    phi[0] = 1.0
    lifts = np.zeros((dim, m), dtype=complex)
    lifts[1:m + 1, :] = froot
    check("naimark_gram", matkernel.mnorm(lifts.conj().T @ lifts - gram), matkernel.mnorm(gram),
          ConsistencyError)
    return NaimarkFrame(dim=dim, phi=phi, lifts=lifts, gram=gram,
                        theta=None if theta is None else np.asarray(theta, dtype=float))


def estimation_residuals(ev, lifts):
    """Constraint residuals of estimation vectors against the given lifts."""
    xl = ev.X.conj().T @ lifts
    xx = ev.X.conj().T @ ev.X
    return {
        "orthogonality": matkernel.mnorm(ev.X.conj().T @ ev.phi),
        "unbiasedness": matkernel.mnorm(xl.real - np.eye(ev.X.shape[1])),
        "im_xx": matkernel.mnorm(xx.imag),
    }


def optimal_vectors_quasi_classical(frame, fd):
    """X = L JS^{-1}: attains the inverse Fisher matrix for quasi-classical models."""
    if not analysis.quasi_classical_test(fd):
        raise NotQuasiClassical("Im X*X would not vanish: model is not quasi-classical")
    x = frame.lifts @ analysis.spectrum(fd).js_inv
    return EstimationVectors(X=x, phi=frame.phi)


def _complete(nf, a, v):
    """X = L A + B attaining the covariance V, with B*B = V - A* gram A.

    B fills coordinates m+1..2m of the Naimark frame, which are orthogonal to
    phi and to the lifts by construction, so X*X = V is real and
    Re X*L = Re A* gram.
    """
    m = a.shape[1]
    h = v - a.conj().T @ nf.gram @ a
    h = 0.5 * (h + h.conj().T)
    wh, uh = matkernel.hermitian_eig(h)
    check("completion_floor", -wh.min(), matkernel.mnorm(h), InfeasibleGram)
    x = nf.lifts @ a
    x[m + 1:, :] = (uh * np.sqrt(np.clip(wh, 0.0, None))) @ uh.conj().T
    ev = EstimationVectors(X=x, phi=nf.phi)
    check("vectors", max(estimation_residuals(ev, nf.lifts).values()), 0.0, InfeasibleGram)
    return ev


def optimal_vectors_coherent(nf, fd, G):
    """Estimation vectors in the Naimark frame nf attaining a coherent model's CR(G).

    They complete the closed form's covariance, so a bound already computed
    for fd and G is not solved again. Raises NotCoherent, and SingularWeight
    when no estimator attains the bound.
    """
    if not analysis.coherent_test(fd):
        raise NotCoherent("model is not coherent (some beta < 1)")
    report = analysis.closed_form(fd, G)
    if report is None or report.V_opt is None:
        raise SingularWeight("no estimator attains the bound for this singular weight")
    return _complete(nf, analysis.spectrum(fd).js_inv, report.V_opt)


def pvm_space(frame, fd):
    """Where the PVM of fd lives: the model frame if quasi-classical, else the embedding."""
    if analysis.quasi_classical_test(fd):
        return frame
    return naimark_frame(fd, theta=frame.theta)


def optimal_vectors(space, fd, G):
    """Estimation vectors in `space` attaining CR(G), and the report of CR(G).

    Quasi-classical models take X = L JS^{-1} on any frame. Other closed-form
    models take the SLD coefficients A = JS^{-1} with the closed form's V, and
    generic models A and V from one oracle solve; both need the Naimark frame
    (`pvm_space`). Raises SingularWeight when no estimator attains the bound.
    """
    cls = analysis.beta_spectrum(fd).classification
    report = None if cls == "generic" else analysis.closed_form(fd, G)
    if cls == "quasi_classical":
        return optimal_vectors_quasi_classical(space, fd), report
    if report is not None:
        a = analysis.spectrum(fd).js_inv
    else:
        report, res = analysis.oracle_bound(fd, G)
        a = None if res.X is None else np.linalg.lstsq(res.lifts, res.X, rcond=None)[0]
    if report.V_opt is None:
        raise SingularWeight("no estimator attains the bound for this singular weight")
    return _complete(space, a, report.V_opt), report


def _uniform_first_column_orthogonal(n):
    """Householder reflection sending e_0 to the uniform unit vector."""
    u = np.full(n, 1.0 / math.sqrt(n))
    w = -u
    w[0] += 1.0
    nw = np.linalg.norm(w)
    if nw < TOL["householder"]:
        return np.eye(n)
    w = w / nw
    return np.eye(n) - 2.0 * np.outer(w, w)


def pvm_from_vectors(ev, seed=0):
    """Projective measurement realizing covariance Re X*X.

    Requires Im X*X = 0 and <x^i|phi> = 0 (TOL "vectors", "phi_orthogonal").
    Rank-deficient vector families are handled by dropping directions whose
    orthogonalization residual falls below TOL "gram_schmidt"; the remainder
    projector absorbs them. The construction is deterministic: `seed` is
    accepted and has no effect.
    """
    x = np.asarray(ev.X, dtype=complex)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    phi = np.asarray(ev.phi, dtype=complex)
    dim, m = x.shape
    check("phi_orthogonal", matkernel.mnorm(x.conj().T @ phi), matkernel.mnorm(x), DomainError)
    check("vectors", matkernel.mnorm((x.conj().T @ x).imag), 0.0, NotCommuting)

    basis = [phi / np.linalg.norm(phi)]
    for i in range(m):
        v = x[:, i].copy()
        for _ in range(2):   # re-orthogonalize for stability
            for b in basis:
                v = v - b * np.vdot(b, v)
        nrm = np.linalg.norm(v)
        if nrm < TOL["gram_schmidt"]:
            continue
        basis.append(v / nrm)
    bmat = np.column_stack(basis)
    nb = bmat.shape[1]
    lam = (bmat.conj().T @ x).real   # (nb, m); row 0 is ~0 by orthogonality

    o = _uniform_first_column_orthogonal(nb)
    bprime = bmat @ o.T
    outcomes = []
    for kappa in range(nb):
        offset = (o[kappa, :] @ lam) / o[kappa, 0]
        ray = bprime[:, kappa]
        proj = np.outer(ray, ray.conj())
        outcomes.append((np.asarray(offset, dtype=float), proj))
    rem = np.eye(dim, dtype=complex) - bmat @ bmat.conj().T
    if rem.real.trace() > 0.5:
        outcomes.append((np.zeros(m), 0.5 * (rem + rem.conj().T)))
    pvm = Pvm(m=m, dim=dim, outcomes=outcomes)

    check("pvm_algebra", max(pvm_algebra_residuals(pvm).values()), 0.0, ConsistencyError)
    check("vectors", reconstruction_residual(pvm, ev), 0.0, ConsistencyError)
    return pvm


def pvm_algebra_residuals(pvm):
    """Idempotence, mutual orthogonality, completeness (max-entry residuals)."""
    projs = [e for _, e in pvm.outcomes]
    idem = max(matkernel.mnorm(e @ e - e) for e in projs)
    orth = 0.0
    for a in range(len(projs)):
        for b in range(a + 1, len(projs)):
            orth = max(orth, matkernel.mnorm(projs[a] @ projs[b]))
    comp = matkernel.mnorm(sum(projs) - np.eye(pvm.dim))
    return {"idempotent": idem, "orthogonal": orth, "complete": comp}


def reconstruction_residual(pvm, ev):
    """Max-entry residual of sum_k offset_k E_k phi against the x-vectors."""
    xhat = np.zeros((pvm.dim, pvm.m), dtype=complex)
    for offset, proj in pvm.outcomes:
        xhat += np.outer(proj @ ev.phi, offset)
    return matkernel.mnorm(xhat - ev.X)


def outcome_probabilities(pvm, phi):
    """<phi|E_k|phi> for each outcome, validated as a probability vector."""
    probs = np.array([float(np.real(np.vdot(phi, proj @ phi)))
                      for _, proj in pvm.outcomes])
    check("probability_floor", -probs.min(initial=0.0), 0.0, BadProbability)
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    check("pvm_algebra", abs(total - 1.0), 0.0, BadProbability)
    return probs / total


def _outcome_table(measurement, frame):
    """(offsets, probs, analytic_cov) of a Pvm or InflatedPvm from one probability pass.

    An InflatedPvm's outcomes are shift-major: row s K + k is base offset k
    plus shift s, with probability weight * p_k.
    """
    inflated = isinstance(measurement, InflatedPvm)
    pvm = measurement.base if inflated else measurement
    probs = outcome_probabilities(pvm, frame.phi)
    offsets = np.array([o for o, _ in pvm.outcomes])
    cov = matkernel.symmetrize(offsets.T @ (offsets * probs[:, None]))
    if inflated:
        shifts = measurement.shifts
        cov = matkernel.symmetrize(cov + measurement.weight * (shifts.T @ shifts))
        offsets = (offsets[None, :, :] + shifts[:, None, :]).reshape(-1, pvm.m)
        probs = np.tile(probs * measurement.weight, len(shifts))
    return offsets, probs, cov


def covariance_of_pvm(pvm, frame):
    """Finite-sum covariance about theta, plus the local unbiasedness verdict."""
    offsets, probs, v = _outcome_table(pvm, frame)
    mean = probs @ offsets
    xhat = np.zeros((pvm.dim, pvm.m), dtype=complex)
    for (offset, proj) in pvm.outcomes:
        xhat += np.outer(proj @ frame.phi, offset)
    deriv = (xhat.conj().T @ frame.lifts).real
    # delta^i_j over i < pvm.m components, j < frame parameters
    target = np.eye(pvm.m, frame.lifts.shape[1])
    unbiased = bool(matkernel.mnorm(mean) <= TOL["vectors"]
                    and matkernel.mnorm(deriv - target) <= TOL["vectors"])
    return v, unbiased


def inflate_covariance(pvm, v0):
    """Classical offset mixture adding exactly V0 to the covariance.

    The 2^m offsets are sqrt(V0) alpha over sign vectors alpha, each with
    weight 2^{-m}; their mean is zero, so unbiasedness is preserved.
    """
    v0 = matkernel.symmetrize(np.atleast_2d(v0))
    if v0.shape != (pvm.m, pvm.m):
        raise DomainError(f"V0 must be {pvm.m} x {pvm.m}")
    if not matkernel.is_psd(v0):
        raise DomainError("V0 must be PSD")
    root = matkernel.sqrt_psd(v0)
    alphas = np.array(list(itertools.product([1.0, -1.0], repeat=pvm.m)))
    shifts = alphas @ root
    return InflatedPvm(base=pvm, shifts=shifts, weight=1.0 / len(alphas))


def analytic_covariance(measurement, frame):
    """Covariance of a Pvm or InflatedPvm from the finite outcome sums."""
    return _outcome_table(measurement, frame)[2]


def _draw(rng, p, count):
    """Outcome indices of `count` shots, exactly those of rng.choice(len(p), count, p=p).

    Generator.choice draws u = rng.random(count) against the CDF divided by its
    last entry and returns the number of CDF entries <= u; one comparison per
    outcome gives the same count. The last entry is 1 and u < 1, so it is skipped.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    u = rng.random(count)
    idx = np.zeros(count, dtype=np.int64)
    for c in cdf[:-1]:
        idx += u >= c
    return idx


def sample_outcomes(measurement, frame, count, seed):
    """Deterministic seeded sampling of outcome estimates theta + offset.

    The samples are those of Generator.choice with the outcome probabilities;
    the mean and the second moment about theta come from the outcome counts.
    """
    offsets, probs, analytic = _outcome_table(measurement, frame)
    m = offsets.shape[1]
    theta = frame.theta if frame.theta is not None else np.zeros(m)
    count = int(count)
    if count <= 0:
        return SampleResult(samples=np.zeros((0, m)), mean=None, cov=None,
                            analytic_cov=analytic, count=0, seed=seed)
    idx = _draw(np.random.default_rng(seed), probs / probs.sum(), count)
    samples = np.take(offsets + theta, idx, axis=0)
    hits = np.bincount(idx, minlength=len(probs)) / count
    mean = theta + hits @ offsets
    cov = matkernel.symmetrize(offsets.T @ (offsets * hits[:, None]))
    return SampleResult(samples=samples, mean=mean, cov=cov,
                        analytic_cov=analytic, count=count, seed=seed)


def marginal_vectors(frame, fd, i):
    """Single-parameter estimation vector x = L JS^{-1} e_i.

    Its variance is exactly (JS^{-1})_ii and Im X*X vanishes trivially, so a
    projective measurement for the i-th parameter alone always exists.
    """
    x = frame.lifts @ analysis.spectrum(fd).js_inv[:, [i]]
    return EstimationVectors(X=x, phi=frame.phi)


def exclusiveness_extraction_check(pvm, frame, fd, j):
    """Max |Re <phi|E_k|l_j>| over outcomes of a first-parameter-optimal PVM.

    fd is the Fisher data of frame. Precondition: the PVM variance equals
    (JS^{-1})_11 within TOL "marginal_variance".
    """
    if pvm.m != 1:
        raise PreconditionNotMet("expected a single-parameter PVM")
    target = analysis.spectrum(fd).js_inv[0, 0]
    v, _ = covariance_of_pvm(pvm, frame)
    check("marginal_variance", abs(float(v[0, 0]) - target), 0.0, PreconditionNotMet)
    stat = 0.0
    for _, proj in pvm.outcomes:
        stat = max(stat, abs(float(np.real(np.vdot(frame.phi, proj @ frame.lifts[:, j])))))
    return stat


# --- serialization ---

def pvm_to_obj(pvm, theta=None):
    """JSON-ready list of outcomes: estimates plus row-major [re, im] projectors."""
    theta = np.zeros(pvm.m) if theta is None else np.asarray(theta, dtype=float)
    out = []
    for offset, proj in pvm.outcomes:
        flat = proj.reshape(-1)
        out.append({
            "outcome": [float(t) for t in (theta + offset)],
            "projector": [[float(c.real), float(c.imag)] for c in flat],
        })
    return out


def pvm_from_obj(obj, m, theta=None):
    """Rebuild a Pvm from its serialized form; offsets are outcome - theta."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError("PVM document must be a nonempty list of outcomes")
    theta = np.zeros(m) if theta is None else np.asarray(theta, dtype=float)
    outcomes = []
    dim = None
    for entry in obj:
        if not isinstance(entry, dict) or "outcome" not in entry or "projector" not in entry:
            raise SchemaError("each PVM entry needs 'outcome' and 'projector'")
        est = np.asarray(entry["outcome"], dtype=float)
        if est.shape != (m,):
            raise SchemaError(f"outcome length {est.shape} does not match m = {m}")
        pairs = entry["projector"]
        n2 = len(pairs)
        d = int(round(math.sqrt(n2)))
        if d * d != n2:
            raise SchemaError("projector entry count is not a perfect square")
        if dim is None:
            dim = d
        elif d != dim:
            raise SchemaError("inconsistent projector dimensions")
        try:
            flat = np.array([complex(p[0], p[1]) for p in pairs])
        except (TypeError, ValueError, IndexError) as exc:
            raise SchemaError("projector entries must be [re, im] pairs") from exc
        outcomes.append((est - theta, flat.reshape(d, d)))
    return Pvm(m=m, dim=dim, outcomes=outcomes)
