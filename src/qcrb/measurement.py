"""Projective measurements attaining the bound of every pure-state model.

`pvm_space` picks where the PVM lives: the model's own frame for
quasi-classical models, the 2m+1 Naimark embedding otherwise. There
`optimal_vectors` builds the estimation vectors and reads the bound from
`analysis.closed_form`'s one report. The vectors are built and checked in the
parameters theta' = JS^{1/2} theta, where JS = I and the lifts are L' = L w
(w = JS^{-1/2}); theta returns only with the outcome offsets. Quasi-classical
models take X' = L w on any frame. Coherent and other closed-form models take
X' = L' + B' in the embedding, where L' is the lift factor kh (kh* kh = I + iK)
and B'*B' = V' - kh* kh, with V' = JS^{1/2} V JS^{1/2} the closed form's
covariance as it built it there, fills the coordinates orthogonal to phi and
the lifts. Generic models take the X' of one oracle solve as it stands: the
embedding's lifts are the working point's lift factor, and so are the oracle's.

Estimation vectors X with <x^i|phi> = 0, Re X*L = I and Im X*X = 0 are turned
into a projective measurement whose covariance is exactly Re X*X. A `Pvm` is
its rays and its offsets: the columns of B are the m+1 orthonormal rays of one
QR of [phi, X] (their Gram is real, so the coefficients stay real), mixed by
an orthogonal matrix whose first column is uniform, and each ray gets the
outcome offset that reproduces the x-vectors. For X' the QR is of [phi, X'],
whose span is that of [phi, X] (its Gram-Schmidt basis is not), and the
offsets of X' map to theta by w. The complement I - BB*, with offset zero,
closes the PVM when the rays do not span the space; its probability at the
base state is reported, never assumed to vanish. Every check and moment reads
the amplitudes B*phi and B*L and the Gram B*B; no projector is formed except
in the file format, which lists them densely.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, matkernel
from .errors import (
    BadProbability,
    ConsistencyError,
    DomainError,
    InfeasibleGram,
    NotCoherent,
    NotCommuting,
    NotPSD,
    NotQuasiClassical,
    PreconditionNotMet,
    SchemaError,
    SingularWeight,
)
from .matkernel import TOL, check

BLOCK = 1 << 16          # shots drawn per Generator.random call in `sample_outcomes`


@dataclass
class EstimationVectors:
    X: np.ndarray            # shape (D, m), column i = |x^i> in the parameters theta'
    phi: np.ndarray          # unit vector, shape (D,)
    w: Optional[np.ndarray] = None   # theta = w theta', m x m; None when theta' = theta


@dataclass
class Pvm:
    rays: np.ndarray         # shape (dim, n), orthonormal columns B, one rank-1 outcome each
    outcomes: np.ndarray     # shape (K, m), offsets; K = n, or n + 1 with the complement last
    # (offsets in theta', w) of vectors built there, outcomes = offsets' w
    normalized: Optional[tuple] = None

    @property
    def m(self):
        return self.outcomes.shape[1]

    @property
    def dim(self):
        return self.rays.shape[0]

    @property
    def complement(self):
        """Whether I - BB*, with offset zero, is the last outcome."""
        return len(self.outcomes) > self.rays.shape[1]


@dataclass
class NaimarkFrame:
    dim: int
    phi: np.ndarray
    lifts: np.ndarray        # shape (2m+1, m)
    theta: Optional[np.ndarray] = None


@dataclass
class InflatedPvm:
    base: Pvm
    shifts: np.ndarray       # shape (2^m, m)
    weight: float


@dataclass
class SampleResult:
    estimates: np.ndarray    # shape (K, m), theta + offset, one row per outcome
    drawn: np.ndarray        # shape (count,), outcome indices, smallest unsigned dtype for K - 1
    counts: np.ndarray       # shape (K,), shots per outcome
    mean: Optional[np.ndarray]
    cov: Optional[np.ndarray]          # second moment about theta
    analytic_cov: np.ndarray
    seed: int

    @property
    def count(self):
        return len(self.drawn)

    @property
    def samples(self):
        """Shape (count, m): the estimate of every shot, gathered on each read."""
        return self.estimates[self.drawn]


def naimark_frame(fd, theta=None):
    """Embed the state and lifts of fd isometrically in a 2m+1 dimensional space.

    phi' is the first basis vector and the lift images are the r rows of the
    lift factor R (r <= m) in coordinates 1..r, so <phi'|l'_i> = 0 holds
    exactly. R* R is the Gram of fd with the beta snap applied: it must
    reproduce the Gram to TOL "naimark_gram" beyond the snap's own shift. The
    oracle's lifts are the same R, bit for bit.
    """
    gram = 0.5 * (fd.gram + fd.gram.conj().T)
    spec = analysis.spectrum(fd)
    phi, lifts, _ = spec.embedding
    miss = matkernel.mnorm(lifts.conj().T @ lifts - gram) - spec.canonical[3]
    check("naimark_gram", miss, matkernel.mnorm(gram), ConsistencyError)
    return NaimarkFrame(dim=len(phi), phi=phi, lifts=lifts,
                        theta=None if theta is None else np.asarray(theta, dtype=float))


def optimal_vectors_quasi_classical(frame, fd):
    """X' = L w: attains the inverse Fisher matrix for quasi-classical models."""
    if not analysis.quasi_classical_test(fd):
        raise NotQuasiClassical("Im X*X would not vanish: model is not quasi-classical")
    w = analysis.spectrum(fd).js_powers[1]
    return EstimationVectors(X=frame.lifts @ w, phi=frame.phi, w=w)


def _complete(spec, vn):
    """X' = L' + B' attaining the covariance V' in theta' = JS^{1/2} theta.

    V' = JS^{1/2} V JS^{1/2} is the closed form's covariance there (its `Vn`),
    and the Naimark frame's lifts L' are the lift factor kh in coordinates
    1..r, with kh* kh = I + iK. B'*B' = V' - kh* kh fills coordinates m+1..2m,
    which are orthogonal to phi and to the lifts by construction, so
    X'*X' = V' is real and Re X'*L' = I. Eigenvalues of B'*B' within
    TOL "eigen_dust" are exact zeros: the roots of roundoff would put about
    1e-8 into B'.
    """
    kh = spec.lift_factor[0]
    m = kh.shape[1]
    phi, _, lifts = spec.embedding
    h = vn - kh.conj().T @ kh
    wh, uh = matkernel.hermitian_eig(h)   # of the Hermitian part of h
    # h's roundoff follows V', the larger input: V' >= kh* kh, whose diagonal is 1
    scale = matkernel.mnorm(vn)
    check("completion_floor", -wh.min(), scale, InfeasibleGram)
    wh = np.where(wh <= TOL["eigen_dust"] * scale, 0.0, wh)
    x = lifts.copy()
    x[m + 1:, :] = (uh * np.sqrt(wh)) @ uh.conj().T
    analysis.estimation_residuals(x, phi, lifts, InfeasibleGram)
    return EstimationVectors(X=x, phi=phi, w=spec.js_powers[1])


def optimal_vectors_coherent(nf, fd, G):
    """Estimation vectors in the Naimark frame nf attaining a coherent model's CR(G).

    They are the vectors of `optimal_vectors` on a coherent model, so a bound
    already computed for fd and G is not solved again. Raises NotCoherent, and
    SingularWeight when no estimator attains the bound.
    """
    if not analysis.coherent_test(fd):
        raise NotCoherent("model is not coherent (some beta < 1)")
    return optimal_vectors(nf, fd, G)[0]


def pvm_space(frame, fd):
    """Where the PVM of fd lives: the model frame if quasi-classical, else the embedding."""
    if analysis.quasi_classical_test(fd):
        return frame
    return naimark_frame(fd, theta=frame.theta)


def optimal_vectors(space, fd, G):
    """Estimation vectors in `space` attaining CR(G), and the report of CR(G).

    The vectors are X' in theta' = JS^{1/2} theta, with w = JS^{-1/2}.
    Quasi-classical models take X' = L w on any frame. Other closed-form
    models complete the lifts kh to the closed form's V' = JS^{1/2} V JS^{1/2}.
    Generic models take the X' of one oracle solve as it stands: its lifts are
    the Naimark frame's, so X' already lives there. Both need the Naimark frame
    (`pvm_space`). Raises SingularWeight when no estimator attains the bound.
    """
    cls = analysis.beta_spectrum(fd).classification
    report = None if cls == "generic" else analysis.closed_form(fd, G)
    if cls == "quasi_classical":
        return optimal_vectors_quasi_classical(space, fd), report
    res = None
    if report is None:
        report, res = analysis.oracle_bound(fd, G)
    if report.V_opt is None:
        raise SingularWeight("no estimator attains the bound for this singular weight")
    spec = analysis.spectrum(fd)
    if res is None:
        return _complete(spec, report.Vn), report
    # the oracle checked X' against these lifts by the same rule
    return EstimationVectors(X=res.Xn, phi=space.phi, w=spec.js_powers[1]), report


def _uniform_first_column_orthogonal(n):
    """Householder reflection sending e_0 to the uniform unit vector."""
    u = np.full(n, 1.0 / math.sqrt(n))
    w = -u
    w[0] += 1.0
    w /= np.linalg.norm(w)   # nonzero for n >= 2
    return np.eye(n) - 2.0 * np.outer(w, w)


def pvm_from_vectors(ev, seed=0):
    """Projective measurement realizing covariance Re X*X, in theta.

    Requires <x^i|phi> = 0 (DomainError) and Im X*X = 0 (NotCommuting), by
    `analysis.estimation_residuals` on X = ev.X in its parameters theta'.
    The rays are the QR basis of [phi, X] with a positive diagonal of R (the
    Gram-Schmidt basis), mixed by the Householder reflection; some |R_kk| below
    TOL "gram_schmidt" means the vectors are linearly dependent, and an X with
    no columns estimates nothing: both are DomainErrors. The offsets are found
    and checked in theta', then mapped to theta by ev.w. The construction is
    deterministic: `seed` is accepted and has no effect.
    """
    x = np.asarray(ev.X, dtype=complex)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    phi = np.asarray(ev.phi, dtype=complex)
    dim, m = x.shape
    if m == 0:
        raise DomainError("no estimation vectors: X has no columns")
    analysis.estimation_residuals(x, phi, None,
                                  {"orthogonality": DomainError, "im_xx": NotCommuting})

    q, r = np.linalg.qr(np.column_stack([phi, x]))
    diag = np.diagonal(r)
    if len(diag) <= m or np.abs(diag).min() < TOL["gram_schmidt"]:
        raise DomainError("estimation vectors are linearly dependent on each other or on phi")
    phase = diag / np.abs(diag)
    lam = (phase.conj()[:, None] * r[:, 1:]).real   # B*X; row 0 is ~0 by orthogonality
    o = _uniform_first_column_orthogonal(m + 1)
    offsets = (o @ lam) / o[:, :1]
    if dim > m + 1:
        offsets = np.vstack([offsets, np.zeros((1, m))])
    pvm = Pvm(rays=(q * phase) @ o.T, outcomes=offsets)

    check("pvm_algebra", max(pvm_algebra_residuals(pvm).values()), 1.0, ConsistencyError)
    check("vectors", reconstruction_residual(pvm, ev),
          math.sqrt(matkernel.mnorm(x.conj().T @ x)), ConsistencyError)
    if ev.w is not None:
        pvm.normalized, pvm.outcomes = (offsets, ev.w), offsets @ ev.w
    return pvm


def pvm_algebra_residuals(pvm):
    """Idempotence, mutual orthogonality, completeness, read from the ray Gram B*B.

    A ray's projector is idempotent when the ray has norm 1, two rays'
    projectors are orthogonal when the rays are, and the complement's
    defects are those of B*B - I. The complement completes the PVM by
    construction; without it the rays must span the space.
    """
    err = pvm.rays.conj().T @ pvm.rays - np.eye(pvm.rays.shape[1])
    diag = np.diagonal(err)
    return {
        "idempotent": matkernel.mnorm(diag),
        "orthogonal": matkernel.mnorm(err - np.diag(diag)),
        "complete": 0.0 if pvm.complement else float(pvm.dim - len(err)),
    }


def _normalized(pvm):
    """(offsets, w) in the parameters theta' its vectors were built in; w None if theta."""
    return pvm.normalized if pvm.normalized is not None else (pvm.outcomes, None)


def reconstruction_residual(pvm, ev):
    """Max-entry residual of sum_k offset_k E_k phi = B diag(B*phi) offsets against X.

    The offsets are those of the parameters theta' of ev.X.
    """
    amp = pvm.rays.conj().T @ ev.phi
    return matkernel.mnorm(pvm.rays @ (amp[:, None] * _normalized(pvm)[0][:len(amp)]) - ev.X)


def _expectations(pvm, u, v):
    """<u|E_k|v> for every outcome k (rows) and every column of the matrix v.

    The rays' rows are conj(B*u) B*v; the complement's row is <u|v> minus
    their sum.
    """
    bh = pvm.rays.conj().T
    rows = (bh @ u).conj()[:, None] * (bh @ v)
    if pvm.complement:
        rows = np.vstack([rows, u.conj() @ v - rows.sum(axis=0)])
    return rows


def outcome_probabilities(pvm, phi):
    """<phi|E_k|phi> for each outcome, validated as a probability vector."""
    probs = _expectations(pvm, phi, phi[:, None])[:, 0].real
    check("probability_floor", -probs.min(initial=0.0), 1.0, BadProbability)
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    check("pvm_algebra", abs(total - 1.0), 1.0, BadProbability)
    return probs / total


def _outcome_table(measurement, frame):
    """(offsets, probs, analytic_cov) of a Pvm or InflatedPvm from one probability pass.

    An InflatedPvm's outcomes are shift-major: row s K + k is base offset k
    plus shift s, with probability weight * p_k.
    """
    inflated = isinstance(measurement, InflatedPvm)
    pvm = measurement.base if inflated else measurement
    probs = outcome_probabilities(pvm, frame.phi)
    offsets = pvm.outcomes
    cov = matkernel.symmetrize(offsets.T @ (offsets * probs[:, None]))
    if inflated:
        shifts = measurement.shifts
        cov = matkernel.symmetrize(cov + measurement.weight * (shifts.T @ shifts))
        offsets = (offsets[None, :, :] + shifts[:, None, :]).reshape(-1, pvm.m)
        probs = np.tile(probs * measurement.weight, len(shifts))
    return offsets, probs, cov


def outcome_statistics(pvm, frame):
    """(probabilities, covariance about theta, unbiased) from one probability pass.

    The verdict reads the offsets in the parameters theta' of the vectors the
    PVM was built from, against the lifts L' = L w there: their mean within
    TOL "vectors" times the root |X| of the covariance in theta', and
    Re xhat'* L' - I within it times |X| ||L'||, as estimation_residuals.
    """
    _, probs, v = _outcome_table(pvm, frame)
    offsets, w = _normalized(pvm)
    lifts = frame.lifts if w is None else frame.lifts @ w
    mean = probs @ offsets
    deriv = (offsets.T @ _expectations(pvm, frame.phi, lifts)).real   # Re xhat'* L'
    # delta^i_j over i < pvm.m components, j < frame parameters
    target = np.eye(pvm.m, lifts.shape[1])
    tol = TOL["vectors"] * math.sqrt(matkernel.mnorm(offsets.T @ (offsets * probs[:, None])))
    unbiased = bool(matkernel.mnorm(mean) <= tol
                    and matkernel.mnorm(deriv - target) <= tol * matkernel.mnorm(lifts))
    return probs, v, unbiased


def covariance_of_pvm(pvm, frame):
    """Finite-sum covariance about theta, plus the local unbiasedness verdict."""
    return outcome_statistics(pvm, frame)[1:]


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
    shifts = alphas @ root
    return InflatedPvm(base=pvm, shifts=shifts, weight=1.0 / len(alphas))


def analytic_covariance(measurement, frame):
    """Covariance of a Pvm or InflatedPvm from the finite outcome sums."""
    return _outcome_table(measurement, frame)[2]


def _draw(rng, p, count):
    """Outcome indices of `count` shots, and the shots per outcome.

    The indices are exactly those of rng.choice(len(p), count, p=p), in the
    smallest unsigned dtype that holds len(p) - 1. Generator.choice draws
    u = rng.random(count) against the CDF divided by its last entry and returns
    the number of CDF entries <= u; one comparison per outcome gives the same
    count. The last entry is 1 and u < 1, so it is skipped. The CDF is
    nondecreasing, so the shots that pass comparison k are those with index
    >= k, and the shots per outcome are differences of those tallies. The
    uniforms come in blocks of BLOCK: successive rng.random calls continue one
    stream, so no more than one block of them is held at a time.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    drawn = np.zeros(count, dtype=np.min_scalar_type(len(p) - 1))
    beyond = np.zeros(len(p) + 1, dtype=np.int64)   # beyond[k]: shots with index >= k
    beyond[0] = count
    for start in range(0, count, BLOCK):
        block = drawn[start:start + BLOCK]
        u = rng.random(len(block))
        for k, c in enumerate(cdf[:-1], 1):
            hit = u >= c
            block += hit
            beyond[k] += np.count_nonzero(hit)
    return drawn, beyond[:-1] - beyond[1:]


def sample_outcomes(measurement, frame, count, seed):
    """Deterministic seeded sampling of outcome estimates theta + offset.

    The outcome indices are those of Generator.choice with the outcome
    probabilities; the mean and the second moment about theta come from the
    outcome counts. A shot costs one byte of `drawn` (two past 256 outcomes);
    `samples` gathers the per-shot estimates only when read. A negative count,
    or a seed that numpy's default_rng rejects, raises DomainError.
    """
    count = int(count)
    if count < 0:
        raise DomainError(f"sample count must be nonnegative, got {count}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"seed {seed!r} is not a nonnegative integer: {exc}") from exc
    offsets, probs, analytic = _outcome_table(measurement, frame)
    m = offsets.shape[1]
    theta = frame.theta if frame.theta is not None else np.zeros(m)
    drawn, counts = _draw(rng, probs / probs.sum(), count)
    mean = cov = None
    if count:
        hits = counts / count
        mean = theta + hits @ offsets
        cov = matkernel.symmetrize(offsets.T @ (offsets * hits[:, None]))
    return SampleResult(estimates=offsets + theta, drawn=drawn, counts=counts, mean=mean,
                        cov=cov, analytic_cov=analytic, seed=seed)


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
    (JS^{-1})_11 within TOL "marginal_variance" of it.
    """
    if pvm.m != 1:
        raise PreconditionNotMet("expected a single-parameter PVM")
    target = analysis.spectrum(fd).js_inv[0, 0]
    v, _ = covariance_of_pvm(pvm, frame)
    check("marginal_variance", abs(float(v[0, 0]) - target), target, PreconditionNotMet)
    return matkernel.mnorm(_expectations(pvm, frame.phi, frame.lifts[:, [j]]).real)


# --- serialization ---

def _projectors(pvm):
    """The dense projectors of the outcomes, shape (K, dim, dim): bb* per ray, then I - BB*."""
    projs = np.einsum("ik,jk->kij", pvm.rays, pvm.rays.conj())
    if pvm.complement:
        rem = np.eye(pvm.dim) - projs.sum(axis=0)
        projs = np.concatenate([projs, [0.5 * (rem + rem.conj().T)]])
    return projs


def pvm_to_obj(pvm, theta=None):
    """JSON-ready list of outcomes: estimates plus row-major [re, im] projectors."""
    theta = np.zeros(pvm.m) if theta is None else np.asarray(theta, dtype=float)
    return [{
        "outcome": [float(t) for t in (theta + offset)],
        "projector": [[float(c.real), float(c.imag)] for c in proj.reshape(-1)],
    } for offset, proj in zip(pvm.outcomes, _projectors(pvm))]


def pvm_from_obj(obj, m, theta=None):
    """Rebuild the Pvm that `pvm_to_obj` wrote; offsets are outcome - theta.

    A last entry with offset zero and trace above 1.5 is the complement
    I - BB*; every other entry is a ray's bb*, and b is read from its
    largest-diagonal column. The rays' Gram (`pvm_algebra_residuals`) and
    every entry must then match at TOL "pvm_algebra"; otherwise the document
    is not a PVM file and raises SchemaError.
    """
    if not isinstance(obj, list) or not obj:
        raise SchemaError("PVM document must be a nonempty list of outcomes")
    theta = np.zeros(m) if theta is None else np.asarray(theta, dtype=float)
    ests, projs = [], []
    for entry in obj:
        if not isinstance(entry, dict) or "outcome" not in entry or "projector" not in entry:
            raise SchemaError("each PVM entry needs 'outcome' and 'projector'")
        try:
            est = np.asarray(entry["outcome"], dtype=float)
            pairs = np.asarray(entry["projector"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError("'outcome' and 'projector' must hold numbers") from exc
        if est.shape != (m,):
            raise SchemaError(f"outcome length {est.shape} does not match m = {m}")
        if pairs.ndim != 2 or pairs.shape[1] != 2 or math.isqrt(len(pairs)) ** 2 != len(pairs):
            raise SchemaError("a projector must be d*d [re, im] pairs")
        d = math.isqrt(len(pairs))
        if projs and d != projs[0].shape[0]:
            raise SchemaError("inconsistent projector dimensions")
        ests.append(est)
        projs.append((pairs[:, 0] + 1j * pairs[:, 1]).reshape(d, d))
    offsets = np.array(ests) - theta
    projs = np.array(projs)
    n = len(projs) - int(not offsets[-1].any() and projs[-1].trace().real > 1.5)
    k = np.arange(n)
    top = np.diagonal(projs[:n], axis1=1, axis2=2).real.argmax(axis=1)
    peak = np.clip(projs[k, top, top].real, np.finfo(float).tiny, None)
    pvm = Pvm(rays=(projs[k, :, top] / np.sqrt(peak)[:, None]).T, outcomes=offsets)
    check("pvm_algebra", max(pvm_algebra_residuals(pvm).values()), 1.0, SchemaError)
    check("pvm_algebra", matkernel.mnorm(projs - _projectors(pvm)), 1.0, SchemaError)
    return pvm
