"""Projective measurements attaining the closed-form bounds.

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
    DegenerateVectors,
    DomainError,
    GramNotPSD,
    InfeasibleGram,
    NotCommuting,
    NotPSD,
    NotQuasiClassical,
    PreconditionNotMet,
    SchemaError,
    SingularWeight,
)


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
    try:
        froot = matkernel.sqrt_psd(gram)
    except NotPSD as exc:
        raise GramNotPSD(str(exc)) from exc
    dim = 2 * m + 1
    phi = np.zeros(dim, dtype=complex)
    phi[0] = 1.0
    lifts = np.zeros((dim, m), dtype=complex)
    lifts[1:m + 1, :] = froot
    resid = matkernel.mnorm(lifts.conj().T @ lifts - gram)
    if resid > 1e-10 * max(1.0, matkernel.mnorm(gram)):
        raise ConsistencyError(f"Gram reproduction residual {resid:.3e}")
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


def optimal_vectors_coherent(nf, fd, G):
    """Estimation vectors attaining the coherent-model bound for PD weight G."""
    report = analysis.cr_bound_coherent(fd, G)   # raises NotCoherent/SingularWeight
    a = analysis.spectrum(fd).js_inv
    m = fd.JS.shape[0]
    x0 = nf.lifts @ a
    h = report.V_opt - a @ nf.gram @ a
    h = 0.5 * (h + h.conj().T)
    wh, uh = matkernel.hermitian_eig(h)
    floor = -1e-8 * max(1.0, matkernel.mnorm(h))
    if wh.min() < floor:
        raise InfeasibleGram(f"completion has negative eigenvalue {wh.min():.3e}")
    b = (uh * np.sqrt(np.clip(wh, 0.0, None))) @ uh.conj().T
    span = np.column_stack([nf.phi.reshape(-1, 1), nf.lifts])
    u, s, _ = np.linalg.svd(span, full_matrices=True)
    rank = int(np.sum(s > matkernel.EIGEN_DUST * max(1.0, s[0])))
    z = u[:, rank:]
    if z.shape[1] < m:
        raise InfeasibleGram(
            f"complement dimension {z.shape[1]} cannot host {m} completion rows")
    x = x0 + z[:, :m] @ b
    ev = EstimationVectors(X=x, phi=nf.phi)
    res = estimation_residuals(ev, nf.lifts)
    if max(res.values()) > 1e-8:
        raise InfeasibleGram(f"completion residuals {res} exceed 1e-8")
    return ev


def _uniform_first_column_orthogonal(n, seed, attempt):
    """Orthogonal n x n matrix; first column uniform, optionally re-randomized."""
    u = np.full(n, 1.0 / math.sqrt(n))
    v = np.zeros(n)
    v[0] = 1.0
    w = v - u
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        o = np.eye(n)
    else:
        w = w / nw
        o = np.eye(n) - 2.0 * np.outer(w, w)
    if attempt > 0:
        rng = np.random.default_rng([seed, attempt])
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        o = q @ o
    return o


def pvm_from_vectors(ev, seed=0):
    """Projective measurement realizing covariance Re X*X.

    Requires Im X*X = 0 within 1e-8 and <x^i|phi> = 0. Rank-deficient vector
    families are handled by dropping directions whose orthogonalization
    residual falls below 1e-10; the remainder projector absorbs them.
    """
    x = np.asarray(ev.X, dtype=complex)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    phi = np.asarray(ev.phi, dtype=complex)
    dim, m = x.shape
    if matkernel.mnorm(x.conj().T @ phi) > 1e-9 * max(1.0, matkernel.mnorm(x)):
        raise DomainError("estimation vectors must be orthogonal to phi")
    imxx = matkernel.mnorm((x.conj().T @ x).imag)
    if imxx > 1e-8:
        raise NotCommuting(f"Im X*X = {imxx:.3e} exceeds 1e-8")

    basis = [phi / np.linalg.norm(phi)]
    for i in range(m):
        v = x[:, i].copy()
        for _ in range(2):   # re-orthogonalize for stability
            for b in basis:
                v = v - b * np.vdot(b, v)
        nrm = np.linalg.norm(v)
        if nrm < 1e-10:
            continue
        basis.append(v / nrm)
    bmat = np.column_stack(basis)
    nb = bmat.shape[1]
    lam = (bmat.conj().T @ x).real   # (nb, m); row 0 is ~0 by orthogonality

    o = None
    for attempt in range(9):
        cand = _uniform_first_column_orthogonal(nb, seed, attempt)
        if np.min(np.abs(cand[:, 0])) >= 1e-6:
            o = cand
            break
    if o is None:
        raise DegenerateVectors("no rotation kept all rays off the phi-orthoplane")

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

    resid = pvm_algebra_residuals(pvm)
    if max(resid.values()) > 1e-9:
        raise ConsistencyError(f"PVM algebra residuals {resid}")
    recon = reconstruction_residual(pvm, ev)
    if recon > 1e-8:
        raise ConsistencyError(f"estimation-vector reconstruction residual {recon:.3e}")
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
    if probs.min(initial=0.0) < -1e-10:
        raise BadProbability(f"negative outcome probability {probs.min():.3e}")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise BadProbability(f"probabilities sum to {total!r}")
    return probs / total


def covariance_of_pvm(pvm, frame):
    """Finite-sum covariance about theta, plus the local unbiasedness verdict."""
    probs = outcome_probabilities(pvm, frame.phi)
    offsets = np.array([o for o, _ in pvm.outcomes])
    v = matkernel.symmetrize(offsets.T @ (offsets * probs[:, None]))
    mean = probs @ offsets
    xhat = np.zeros((pvm.dim, pvm.m), dtype=complex)
    for (offset, proj) in pvm.outcomes:
        xhat += np.outer(proj @ frame.phi, offset)
    deriv = (xhat.conj().T @ frame.lifts).real
    # delta^i_j over i < pvm.m components, j < frame parameters
    target = np.eye(pvm.m, frame.lifts.shape[1])
    unbiased = bool(matkernel.mnorm(mean) <= 1e-8
                    and matkernel.mnorm(deriv - target) <= 1e-8)
    return v, unbiased


def inflate_covariance(pvm, v0, frame=None):
    """Classical offset mixture adding exactly V0 to the covariance.

    The 2^m offsets are sqrt(V0) alpha over sign vectors alpha, each with
    weight 2^{-m}; their mean is zero, so unbiasedness is preserved. The
    frame is not needed for the construction and is accepted for symmetry
    with the other measurement ops.
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
    if isinstance(measurement, InflatedPvm):
        v, _ = covariance_of_pvm(measurement.base, frame)
        extra = measurement.weight * (measurement.shifts.T @ measurement.shifts)
        return matkernel.symmetrize(v + extra)
    v, _ = covariance_of_pvm(measurement, frame)
    return v


def _outcome_table(measurement, frame):
    if isinstance(measurement, InflatedPvm):
        base_probs = outcome_probabilities(measurement.base, frame.phi)
        base_offsets = np.array([o for o, _ in measurement.base.outcomes])
        rows = []
        probs = []
        for shift in measurement.shifts:
            rows.append(base_offsets + shift)
            probs.append(base_probs * measurement.weight)
        return np.vstack(rows), np.concatenate(probs)
    probs = outcome_probabilities(measurement, frame.phi)
    offsets = np.array([o for o, _ in measurement.outcomes])
    return offsets, probs


def sample_outcomes(measurement, frame, count, seed):
    """Deterministic seeded sampling of outcome estimates theta + offset."""
    offsets, probs = _outcome_table(measurement, frame)
    m = offsets.shape[1]
    theta = frame.theta if frame.theta is not None else np.zeros(m)
    analytic = analytic_covariance(measurement, frame)
    count = int(count)
    if count <= 0:
        return SampleResult(samples=np.zeros((0, m)), mean=None, cov=None,
                            analytic_cov=analytic, count=0, seed=seed)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(probs), size=count, p=probs / probs.sum())
    drawn = offsets[idx]
    samples = drawn + theta
    mean = samples.mean(axis=0)
    cov = matkernel.symmetrize((drawn.T @ drawn) / count)
    return SampleResult(samples=samples, mean=mean, cov=cov,
                        analytic_cov=analytic, count=count, seed=seed)


def marginal_vectors(frame, fd, i):
    """Single-parameter estimation vector x = L JS^{-1} e_i.

    Its variance is exactly (JS^{-1})_ii and Im X*X vanishes trivially, so a
    projective measurement for the i-th parameter alone always exists.
    """
    x = frame.lifts @ analysis.spectrum(fd).js_inv[:, [i]]
    return EstimationVectors(X=x, phi=frame.phi)


def exclusiveness_extraction_check(pvm, frame, j):
    """Max |Re <phi|E_k|l_j>| over outcomes of a first-parameter-optimal PVM.

    Precondition: the PVM variance equals (JS^{-1})_11 within 1e-6.
    """
    if pvm.m != 1:
        raise PreconditionNotMet("expected a single-parameter PVM")
    gram = frame.lifts.conj().T @ frame.lifts
    js = matkernel.symmetrize(gram.real)
    target = matkernel.inv_psd(js)[0, 0]
    v, _ = covariance_of_pvm(pvm, frame)
    if abs(float(v[0, 0]) - target) > 1e-6:
        raise PreconditionNotMet(
            f"variance {float(v[0, 0])!r} off the marginal bound {target!r}")
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
