"""Projective measurements attaining the bound of every pure-state model.

A PVM lives in one `model.TangentFrame`: the model's own frame for
quasi-classical models, the frame of the 2m+1 Naimark embedding
(`naimark_frame`, over the `embedding` of the working point's
`analysis.FisherData`) otherwise; `pvm_space` picks it. There `optimal_vectors`
builds the estimation vectors and reads the bound from
`analysis.closed_form`'s one report. The vectors are built and checked in the
parameters theta' = JS^{1/2} theta, where JS = I and the lifts are L' = L w
(w = JS^{-1/2}); theta returns only with the outcome offsets. Quasi-classical
models take X' = L w on the frame they are given, with its phi. Every other
route works in the embedding and takes its phi there, whatever frame it is
given: coherent and other closed-form models take X' = L' + B', where L' is
the lift factor kh (kh* kh = I + iK) and B'*B' = V' - kh* kh, with
V' = JS^{1/2} V JS^{1/2} the closed form's covariance as it built it there,
fills the coordinates orthogonal to phi and the lifts. Generic models take the
X' of one oracle solve as it stands: the embedding's lifts are the working
point's lift factor, and so are the oracle's.

Estimation vectors X with <x^i|phi> = 0, Re X*L = I and Im X*X = 0 are turned
into a projective measurement whose covariance is exactly Re X*X. A `Pvm` is
its rays, its offsets and w: the columns of B are the m+1 orthonormal rays of
one QR of [phi, X'] (their Gram is real, so the coefficients stay real), mixed
by an orthogonal matrix whose first column is uniform, and each ray gets the
offset in theta' that reproduces the x-vectors there; the span of [phi, X'] is
that of [phi, X] (its Gram-Schmidt basis is not), and the outcomes in theta
are the offsets times w. The complement I - BB*, with offset zero,
closes the PVM when the rays do not span the space; its probability at the
base state is reported, never assumed to vanish. Every check and moment reads
the amplitudes B*phi and B*L and the Gram B*B; no projector is formed except
in the file format, which lists them densely.
"""

import functools
import math
from dataclasses import dataclass, field
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
    NotQuasiClassical,
    SchemaError,
    SingularWeight,
)
from .matkernel import TOL, check
from .model import TangentFrame

BLOCK = 1 << 16          # shots drawn per Generator.random call in `sample_outcomes`


@dataclass
class EstimationVectors:
    """Vectors |x^i> with <x^i|phi> = 0 in the parameters theta' of theta = w theta'.

    Every route builds them where JS = I, with w = JS^{-1/2}; vectors built in
    theta itself take w = I.
    """
    X: np.ndarray            # shape (D, m'), column i = |x^i> in the parameters theta'
    phi: np.ndarray          # unit vector, shape (D,)
    w: np.ndarray            # shape (m', m): theta = w theta'


@dataclass
class Pvm:
    """One rank-1 outcome per ray, and the complement when the rays do not span.

    The offsets are in the parameters theta' of the vectors the PVM was built
    from; `outcomes` maps them to theta by w, afresh on each read. A stored PVM
    is read in theta, with w = I. The rays and offsets are read-only, and
    `probs` caches, by the bytes of the state phi, the validated probabilities
    at phi (read-only too): `outcome_statistics` fills it, and `outcome_table`
    reads it, so a covariance and a sample at one state take one probability
    pass. Nothing cached refers to the PVM.
    """
    rays: np.ndarray         # shape (dim, n), orthonormal columns B, one rank-1 outcome each
    offsets: np.ndarray      # shape (K, m'), in theta'; K = n, or n + 1 with the complement last
    w: np.ndarray            # shape (m', m): theta = w theta'
    probs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rays.setflags(write=False)
        self.offsets.setflags(write=False)

    @property
    def outcomes(self):
        """The offsets in theta, shape (K, m)."""
        return self.offsets @ self.w

    @property
    def m(self):
        return self.w.shape[1]

    @property
    def dim(self):
        return self.rays.shape[0]

    @property
    def complement(self):
        """Whether I - BB*, with offset zero, is the last outcome."""
        return len(self.offsets) > self.rays.shape[1]

    def outcome_table(self, frame):
        """(offsets in theta, probs, analytic_cov) at frame.phi, from the cached
        probability pass, or one that fills the cache; the covariance is the
        finite sum about theta."""
        probs = self._probabilities(frame.phi)
        offsets = self.outcomes
        return offsets, probs, matkernel.symmetrize(offsets.T @ (offsets * probs[:, None]))

    def _probabilities(self, phi, rows=None):
        """outcome_probabilities at phi, from `rows` when given, cached by the bytes of phi."""
        key = np.asarray(phi, dtype=complex).tobytes()
        if key not in self.probs:
            probs = (outcome_probabilities(self, phi) if rows is None
                     else outcome_probabilities(self, phi, rows))
            probs.setflags(write=False)
            self.probs[key] = probs
        return self.probs[key]


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


def naimark_frame(fd, theta):
    """The TangentFrame at theta of fd's state and lifts embedded isometrically in
    2m+1 dimensions.

    phi' is the first basis vector and the lift images are the r rows of the
    lift factor R (r <= m) in coordinates 1..r, so <phi'|l'_i> = 0 holds
    exactly. R* R is the Gram of fd with the beta snap applied, as
    `FisherData.embedding` checks it. phi' and the lifts are that embedding's
    read-only arrays, so the oracle's lifts are the same R, bit for bit.
    """
    phi, lifts, _ = fd.embedding
    return TangentFrame(theta=np.asarray(theta, dtype=float), phi=phi, lifts=lifts)


def optimal_vectors_quasi_classical(frame, fd):
    """X' = L w: attains the inverse Fisher matrix for quasi-classical models."""
    if not analysis.quasi_classical_test(fd):
        raise NotQuasiClassical("Im X*X would not vanish: model is not quasi-classical")
    w = fd.js_powers[1]
    return EstimationVectors(X=frame.lifts @ w, phi=frame.phi, w=w)


def _complete(fd, vn):
    """X' = L' + B' attaining the covariance V' in theta' = JS^{1/2} theta.

    V' = JS^{1/2} V JS^{1/2} is the closed form's covariance there (its `Vn`),
    and the Naimark frame's lifts L' are the lift factor kh in coordinates
    1..r, with kh* kh = I + iK. B'*B' = V' - kh* kh fills coordinates m+1..2m,
    which are orthogonal to phi and to the lifts by construction, so
    X'*X' = V' is real and Re X'*L' = I. B'*B' is decided PSD by
    matkernel.psd_eig at the dust of ||V'|| (InfeasibleGram), and its dust
    eigenvalues are exact zeros: the roots of roundoff would put about 1e-8
    into B'.
    """
    kh = fd.lift_factor[0]
    m = kh.shape[1]
    phi, _, lifts = fd.embedding
    h = vn - kh.conj().T @ kh
    # h's roundoff follows V', the larger input: V' >= kh* kh, whose diagonal is 1
    wh, uh, _ = matkernel.psd_eig(h, InfeasibleGram, scale=matkernel.mnorm(vn))
    x = lifts.copy()
    x[m + 1:, :] = (uh * np.sqrt(wh)) @ uh.conj().T
    analysis.estimation_residuals(x, phi, lifts, InfeasibleGram)
    return EstimationVectors(X=x, phi=phi, w=fd.js_powers[1])


def optimal_vectors_coherent(nf, fd, G):
    """Estimation vectors in the Naimark frame of fd attaining a coherent model's CR(G).

    They are the vectors of `optimal_vectors(nf, fd, G)` on a coherent model,
    so a bound already computed for fd and G is not solved again; like every
    route but the quasi-classical one, they do not read the frame nf. Raises
    NotCoherent, and SingularWeight when no estimator attains the bound.
    """
    if not analysis.coherent_test(fd):
        raise NotCoherent("model is not coherent (some beta < 1)")
    return optimal_vectors(nf, fd, G)[0]


def pvm_space(frame, fd):
    """The frame the PVM of fd lives in: `frame` itself if quasi-classical, else
    `naimark_frame` at frame.theta, the embedding that `optimal_vectors` builds in."""
    if analysis.quasi_classical_test(fd):
        return frame
    return naimark_frame(fd, frame.theta)


def optimal_vectors(space, fd, G):
    """Estimation vectors attaining CR(G), and the report of CR(G).

    The vectors are X' in theta' = JS^{1/2} theta, with w = JS^{-1/2}.
    Quasi-classical models take X' = L w and phi on the frame `space`, the one
    route that reads it. Every other route takes phi from the Naimark
    embedding it builds X' in, `fd.embedding`, so its
    vectors are the same whatever frame is passed, and the PVM built from them
    lives in `naimark_frame(fd)`. Other closed-form models complete the lifts
    kh to the closed form's V' = JS^{1/2} V JS^{1/2}. Generic models take the
    X' of one oracle solve as it stands: its lifts are the embedding's. Raises
    SingularWeight when no estimator attains the bound.
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
    if res is None:
        return _complete(fd, report.Vn), report
    # the oracle checked X' against the embedding's lifts by the same rule
    return EstimationVectors(X=res.Xn, phi=fd.embedding[0], w=fd.js_powers[1]), report


@functools.lru_cache(maxsize=None)
def _uniform_first_column_orthogonal(n):
    """Householder reflection sending e_0 to the uniform unit vector, built once
    per n and read-only."""
    u = np.full(n, 1.0 / math.sqrt(n))
    w = -u
    w[0] += 1.0
    w /= np.linalg.norm(w)   # nonzero for n >= 2
    o = np.eye(n) - 2.0 * np.outer(w, w)
    o.setflags(write=False)
    return o


def pvm_from_vectors(ev, seed=0):
    """Projective measurement realizing covariance Re X*X, in theta.

    Requires |phi| = 1 within TOL "norm" (DomainError), <x^i|phi> = 0
    (DomainError) and Im X*X = 0 (NotCommuting), by
    `analysis.estimation_residuals` on X = ev.X in its parameters theta'.
    The rays are the QR basis of [phi, X] with a positive diagonal of R (the
    Gram-Schmidt basis), mixed by the Householder reflection; some |R_kk| of a
    vector (k >= 1) within TOL "eigen_dust" of |X| = sqrt(||X*X||) means the
    vectors are linearly dependent, and an X with no columns estimates
    nothing: both are DomainErrors. The offsets are found and checked in
    theta', and the PVM keeps ev.w, which maps them to theta. The construction
    is deterministic: `seed` is accepted and has no effect.
    """
    x = np.asarray(ev.X, dtype=complex)
    phi = np.asarray(ev.phi, dtype=complex)
    dim, m = x.shape
    if m == 0:
        raise DomainError("no estimation vectors: X has no columns")
    check("norm", abs(np.linalg.norm(phi) - 1.0), 1.0, DomainError)
    xh = x.conj().T
    xx = xh @ x
    size = math.sqrt(matkernel.mnorm(xx))
    analysis.estimation_residuals(x, phi, None,
                                  {"orthogonality": DomainError, "im_xx": NotCommuting},
                                  (xh, xx, size))

    q, r = np.linalg.qr(np.column_stack([phi, x]))
    diag = np.diagonal(r)
    if len(diag) <= m or np.abs(diag[1:]).min() <= TOL["eigen_dust"] * size:
        raise DomainError("estimation vectors are linearly dependent on each other or on phi")
    phase = diag / np.abs(diag)
    lam = (phase.conj()[:, None] * r[:, 1:]).real   # B*X; row 0 is ~0 by orthogonality
    o = _uniform_first_column_orthogonal(m + 1)
    offsets = (o @ lam) / o[:, :1]
    if dim > m + 1:
        offsets = np.vstack([offsets, np.zeros((1, m))])
    pvm = Pvm(rays=(q * phase) @ o.T, offsets=offsets, w=ev.w)

    check("pvm_algebra", max(pvm_algebra_residuals(pvm).values()), 1.0, ConsistencyError)
    check("vectors", reconstruction_residual(pvm, ev), size, ConsistencyError)
    return pvm


def pvm_algebra_residuals(pvm):
    """Idempotence, mutual orthogonality, completeness, read from the ray Gram B*B.

    A ray's projector is idempotent when the ray has norm 1, two rays'
    projectors are orthogonal when the rays are, and the complement's
    defects are those of B*B - I. The complement completes the PVM by
    construction; without it the rays must span the space.
    """
    err = np.abs(pvm.rays.conj().T @ pvm.rays - np.eye(pvm.rays.shape[1]))
    idempotent = float(np.diagonal(err).max(initial=0.0))
    np.fill_diagonal(err, 0.0)
    return {
        "idempotent": idempotent,
        "orthogonal": float(err.max(initial=0.0)),
        "complete": 0.0 if pvm.complement else float(pvm.dim - len(err)),
    }


def reconstruction_residual(pvm, ev):
    """Max-entry residual of sum_k offset_k E_k phi = B diag(B*phi) offsets against X.

    The offsets are those of the parameters theta' of ev.X.
    """
    amp = pvm.rays.conj().T @ ev.phi
    return matkernel.mnorm(pvm.rays @ (amp[:, None] * pvm.offsets[:len(amp)]) - ev.X)


def _expectations(pvm, phi, v=None):
    """<phi|E_k|phi> and <phi|E_k|v> for every outcome k (rows), from one B*phi.

    The rays' rows are conj(B*phi) B*phi and conj(B*phi) B*v; the complement's
    row is <phi|phi>, or <phi|v>, minus their sum. Without v the second is None.
    """
    bh = pvm.rays.conj().T
    amp = bh @ phi

    def rows(u, bu):
        r = amp.conj()[:, None] * bu
        if pvm.complement:
            r = np.vstack([r, phi.conj() @ u - r.sum(axis=0)])
        return r

    return rows(phi[:, None], amp[:, None]), None if v is None else rows(v, bh @ v)


def outcome_probabilities(pvm, phi, rows=None):
    """<phi|E_k|phi> for each outcome, validated as a probability vector.

    They are the first rows of `_expectations(pvm, phi, ...)`, formed here
    unless the caller passes them.
    """
    probs = (_expectations(pvm, phi)[0] if rows is None else rows)[:, 0].real
    check("eigen_dust", -probs.min(initial=0.0), 1.0, BadProbability)
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    check("pvm_algebra", abs(total - 1.0), 1.0, BadProbability)
    return probs / total


def outcome_statistics(pvm, frame):
    """(probabilities, covariance about theta, unbiased) from one probability pass.

    The PVM estimates every parameter of the frame: its w is m' x m for the
    frame's m lifts. The verdict reads the offsets in the parameters theta' of
    the vectors the PVM was built from, against the lifts L' = L w there:
    their mean within TOL "vectors" times the root |X| of the covariance in
    theta', and Re xhat'* L' - I within it times |X| ||L'||, as
    estimation_residuals. The probabilities and <phi|E_k|L'> share one
    product B*phi, and the outcomes in theta are formed once. The
    probabilities are those the PVM caches at frame.phi, validated here if
    none are.
    """
    offsets, outcomes = pvm.offsets, pvm.outcomes
    lifts = frame.lifts @ pvm.w
    prob_rows, lift_rows = _expectations(pvm, frame.phi, lifts)
    probs = pvm._probabilities(frame.phi, prob_rows)
    v = matkernel.symmetrize(outcomes.T @ (outcomes * probs[:, None]))
    mean = probs @ offsets
    deriv = (offsets.T @ lift_rows).real   # Re xhat'* L'
    tol = TOL["vectors"] * math.sqrt(matkernel.mnorm(offsets.T @ (offsets * probs[:, None])))
    unbiased = bool(matkernel.mnorm(mean) <= tol and matkernel.mnorm(deriv - np.eye(pvm.m))
                    <= tol * matkernel.mnorm(lifts))
    return probs, v, unbiased


def covariance_of_pvm(pvm, frame):
    """Finite-sum covariance about theta, plus the local unbiasedness verdict."""
    return outcome_statistics(pvm, frame)[1:]


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
    drawn = matkernel.zeros(count, np.min_scalar_type(len(p) - 1))
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

    The outcome indices are those of Generator.choice with the probabilities
    of the measurement's `outcome_table`; the mean and the second moment
    about theta come from the outcome counts. A shot costs one byte of
    `drawn` (two past 256 outcomes); `samples` gathers the per-shot estimates
    only when read. A negative count, a count of shots that cannot be
    allocated, or a seed that numpy's default_rng rejects, raises DomainError.
    """
    count = int(count)
    if count < 0:
        raise DomainError(f"sample count must be nonnegative, got {count}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"seed {seed!r} is not a nonnegative integer: {exc}") from exc
    offsets, probs, analytic = measurement.outcome_table(frame)
    drawn, counts = _draw(rng, probs / probs.sum(), count)
    mean = cov = None
    if count:
        hits = counts / count
        mean = frame.theta + hits @ offsets
        cov = matkernel.symmetrize(offsets.T @ (offsets * hits[:, None]))
    return SampleResult(estimates=offsets + frame.theta, drawn=drawn, counts=counts, mean=mean,
                        cov=cov, analytic_cov=analytic, seed=seed)


# --- serialization ---

def _projectors(pvm):
    """The dense projectors of the outcomes, shape (K, dim, dim): bb* per ray, then I - BB*."""
    projs = np.einsum("ik,jk->kij", pvm.rays, pvm.rays.conj())
    if pvm.complement:
        rem = np.eye(pvm.dim) - projs.sum(axis=0)
        projs = np.concatenate([projs, [0.5 * (rem + rem.conj().T)]])
    return projs


def pvm_to_obj(pvm, theta):
    """JSON-ready list of outcomes: estimates theta + offset, in theta, plus
    row-major [re, im] projectors."""
    theta = np.asarray(theta, dtype=float)
    return [{
        "outcome": [float(t) for t in (theta + offset)],
        "projector": [[float(c.real), float(c.imag)] for c in proj.reshape(-1)],
    } for offset, proj in zip(pvm.outcomes, _projectors(pvm))]


def pvm_from_obj(obj, m, theta):
    """Rebuild the Pvm that `pvm_to_obj` wrote at theta, in theta itself (w = I):
    its offsets are outcome - theta.

    A last entry with offset zero and trace above 1.5 is the complement
    I - BB*; every other entry is a ray's bb*, and b is read from its
    largest-diagonal column. The rays' Gram (`pvm_algebra_residuals`) and
    every entry must then match at TOL "pvm_algebra"; otherwise the document
    is not a PVM file and raises SchemaError, as does a non-finite outcome.
    An offset past (float max / 4)^(1/4) is a DomainError: the z-scores of a
    sample add two squares of covariance entries, which reach max|offset|^2,
    and that sum must stay finite with a factor 2 to spare for roundoff. Both
    are checked here, once, so sampling pays nothing for them.
    """
    if not isinstance(obj, list) or not obj:
        raise SchemaError("PVM document must be a nonempty list of outcomes")
    theta = np.asarray(theta, dtype=float)
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
        if not np.isfinite(est).all():
            raise SchemaError("PVM outcomes must be finite")
        if pairs.ndim != 2 or pairs.shape[1] != 2 or math.isqrt(len(pairs)) ** 2 != len(pairs):
            raise SchemaError("a projector must be d*d [re, im] pairs")
        d = math.isqrt(len(pairs))
        if projs and d != projs[0].shape[0]:
            raise SchemaError("inconsistent projector dimensions")
        ests.append(est)
        projs.append((pairs[:, 0] + 1j * pairs[:, 1]).reshape(d, d))
    with np.errstate(over="ignore"):
        offsets = np.array(ests) - theta
    limit = (np.finfo(float).max / 4.0) ** 0.25
    if not np.abs(offsets).max() <= limit:
        raise DomainError(f"a PVM outcome lies more than {limit:.3g} from theta: "
                          f"its covariance would overflow")
    projs = np.array(projs)
    n = len(projs) - int(not offsets[-1].any() and projs[-1].trace().real > 1.5)
    k = np.arange(n)
    top = np.diagonal(projs[:n], axis1=1, axis2=2).real.argmax(axis=1)
    peak = np.clip(projs[k, top, top].real, np.finfo(float).tiny, None)
    pvm = Pvm(rays=(projs[k, :, top] / np.sqrt(peak)[:, None]).T, offsets=offsets, w=np.eye(m))
    check("pvm_algebra", max(pvm_algebra_residuals(pvm).values()), 1.0, SchemaError)
    check("pvm_algebra", matkernel.mnorm(projs - _projectors(pvm)), 1.0, SchemaError)
    return pvm
