"""Model classification and closed-form attainable Cramer-Rao-type bounds.

The attainable bound CR(G) is the infimum of Tr(G V) over covariance matrices
of locally unbiased measurements. Closed forms exist for quasi-classical
models (the inverse Fisher matrix), two-parameter models (a one-dimensional
stationary curve), the G = JS weight (a function of the beta spectrum), and
coherent models (all beta equal to 1). Everything else goes to the oracle's
Holevo SDP, which reads the same Spectrum of the working point.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import matkernel
from .errors import (
    ConsistencyError,
    DomainError,
    NotCoherent,
    NotPSD,
    SingularFisher,
    SingularWeight,
)
from .matkernel import TOL, check


@dataclass
class BetaSpectrum:
    betas: np.ndarray        # |beta_j| in [0,1], descending, length m
    classification: str      # quasi_classical | coherent | generic


@dataclass
class BoundReport:
    G: np.ndarray
    value: float
    attained: bool
    V_opt: Optional[np.ndarray]
    method: str
    notes: dict = field(default_factory=dict)
    # V' = JS^{1/2} V_opt JS^{1/2} as the two-parameter and coherent closed forms
    # build it, where JS = I; the completion of their vectors reads it
    Vn: Optional[np.ndarray] = None


@dataclass
class BoundaryCurve:
    beta: float
    samples: np.ndarray      # rows (x, z, u, v)


class Spectrum:
    """The decompositions of one working point, each computed on first use.

    `svd` is the one factorization of the point: the thin SVD
    [Re L; Im L] = U S V^T of the stacked lifts, U = [A; B] with A the first d
    rows. It is the tangent frame's; Fisher data without lifts (a bare Gram)
    take the Gram's PSD root L0 (L0* L0 = gram; matkernel.sqrt_psd decides PSD
    at TOL "eigen_dust", else DomainError) through the same SVD, where a
    singular JS raises SingularFisher. `js_powers` is (JS^{-1},
    JS^{-1/2}, JS^{1/2}) = V S^{2p} V^T; w = JS^{-1/2} takes theta' = JS^{1/2}
    theta, the parameters where JS = I, back to theta. There the lifts are
    L' = L w = (A + iB) V^T, orthonormal in Re, and L'* L' = I + iK with
    K = V (A^T B - B^T A) V^T. `canonical` is (K, (mu, U), beta, moved) from one
    eigendecomposition iK = U diag(mu) U*: mu is made exactly +- symmetric, and
    each mu within TOL "beta" * cond(L) of -1, 0 or 1 is set to it, the
    one snap that the class, the betas (|mu| descending, the classified
    BetaSpectrum) and the lift factor read; `moved` is ||JS|| max |mu - raw
    mu|, the most the snap moves the Gram. `lift_factor` is (kh, R) from that
    (mu, U): kh = sqrt(1 + mu) U* on the r directions where mu > -1, so
    kh* kh = I + iK with the snapped mu; and R = kh JS^{1/2}. `embedding` is
    (phi, R, kh) in the 2m+1 dimensional Naimark space: phi = e_0, and each
    factor in coordinates 1..r. The Naimark frame's lifts and the oracle's are
    that R, and their lifts in theta' that kh: the SDP of `oracle_bound` reads
    `js_powers` and `embedding` of this Spectrum. `reports` caches closed_form
    by the bytes of the symmetrized weight: the one BoundReport (or None) that
    every bound and measurement at this point reads. Beside it, under
    ("oracle", those bytes), it caches oracle_bound's (BoundReport,
    OracleResult), and under ("weight", those bytes) the weight's one
    decomposition (`weight`). Their arrays are read-only. `spectrum(fd)`
    caches the Spectrum on fd.
    """

    def __init__(self, fd):
        self.fd = fd
        self.reports = {}

    @functools.cached_property
    def svd(self):
        if self.fd.svd is not None:
            return self.fd.svd
        try:
            root = matkernel.sqrt_psd(self.fd.gram)
        except NotPSD as exc:
            raise DomainError(f"the lift Gram is not PSD: {exc}") from exc
        return matkernel.lift_svd(root, SingularFisher)

    @functools.cached_property
    def js_powers(self):
        _, s, vt = self.svd
        return tuple(matkernel.symmetrize((vt.T * s ** p) @ vt) for p in (-2.0, -1.0, 1.0))

    @functools.cached_property
    def canonical(self):
        u, s, vt = self.svd
        c = u[:len(u) // 2].T @ u[len(u) // 2:]
        k = matkernel.antisymmetrize(vt.T @ (c - c.T) @ vt)
        # iK is Hermitian, and finite from orthonormal U and V, by construction
        mu, vecs = np.linalg.eigh(1j * k)
        # mu is ascending, so the spectrum of a real antisymmetric K reads the
        # same reversed and negated
        check("canonical_form", matkernel.mnorm(mu + mu[::-1]), matkernel.mnorm(k),
              ConsistencyError)
        raw = 0.5 * (mu - mu[::-1])
        # 2/(1+sqrt(1-b^2)) has infinite slope at b=1, so a coherent direction
        # contaminated by roundoff would smear downstream values by its square
        # root; the snap keeps a margin over that roundoff that grows with cond(L)
        near = np.round(raw)
        mu = np.where(np.abs(raw - near) <= TOL["beta"] * s[0] / s[-1], near, raw)
        betas = np.sort(np.abs(mu))[::-1]
        cls = ("quasi_classical" if betas[0] == 0.0 else
               "coherent" if betas[-1] == 1.0 else "generic")
        moved = s[0] ** 2 * matkernel.mnorm(mu - raw)
        return k, (mu, vecs), BetaSpectrum(betas=betas, classification=cls), moved

    @functools.cached_property
    def lift_factor(self):
        mu, u = self.canonical[1]
        keep = mu > -1.0
        kh = np.sqrt(1.0 + mu[keep])[:, None] * u[:, keep].conj().T
        return kh, kh @ self.js_powers[2]

    @functools.cached_property
    def embedding(self):
        kh, root = self.lift_factor
        r, m = kh.shape
        phi = np.zeros(2 * m + 1, dtype=complex)
        phi[0] = 1.0
        lifts = np.zeros((2, 2 * m + 1, m), dtype=complex)
        lifts[:, 1:r + 1] = root, kh
        _read_only(phi, lifts)
        return phi, lifts[0], lifts[1]

    def weight(self, G):
        """(gn, (g, r, keep)) of a symmetrized weight G, as check_weight returns it.

        gn = w G w (w = JS^{-1/2}) is the weight in the parameters where JS = I,
        and (g, r, keep) is its one matkernel.psd_eig: the PSD decision at
        gn's dust (DomainError) and the rank cut that every route reads.
        """
        key = ("weight", G.tobytes())
        if key not in self.reports:
            w = self.js_powers[1]
            gn = matkernel.symmetrize(w @ G @ w)
            self.reports[key] = gn, matkernel.psd_eig(gn, DomainError)
            _read_only(gn, *self.reports[key][1])
        return self.reports[key]

    js_inv = property(lambda self: self.js_powers[0])
    beta = property(lambda self: self.canonical[2])


def spectrum(fd):
    """The Spectrum of fd, built on first use and cached on fd."""
    if fd._spectrum is None:
        fd._spectrum = Spectrum(fd)
    return fd._spectrum


def beta_spectrum(fd):
    """|imaginary parts| of the eigenvalues of JS^{-1} Jt, with classification."""
    return spectrum(fd).beta


def quasi_classical_test(fd):
    """True iff every beta is 0 at the dust level: the one quasi-classical rule.

    It reads the spectrum of JS^-1 Jt, so it does not change under a
    rescaling theta -> D theta; every one-parameter model passes.
    """
    return spectrum(fd).beta.classification == "quasi_classical"


def coherent_test(fd):
    """True iff all beta equal 1; cross-checks |det JS| = |det Jt|."""
    ok = spectrum(fd).beta.classification == "coherent"
    if ok:
        djs, djt = abs(np.linalg.det(fd.JS)), abs(np.linalg.det(fd.Jt))
        check("coherent_det", abs(djs - djt) / max(djs, djt), 1.0, ConsistencyError)
    return ok


def sld_bound(fd, G):
    """Tr(G JS^{-1}): a lower bound to CR(G), tight iff quasi-classical or m=1."""
    G = matkernel.symmetrize(G)
    return float(np.trace(G @ spectrum(fd).js_inv))


def _curve_q(p, beta, c):
    """Upper-branch stationary curve through (u,v) = (1+p^2, 1+q^2)."""
    return (beta - c * p) / (beta * p + c)


def boundary_2param(beta, count=101, x_window=(-1.0, 1.0)):
    """Sample the two-parameter stationary boundary in normalized coordinates.

    Rows are (x, z, u, v) with u = z + x, v = z - x, satisfying
    sqrt(u-1) + sqrt(v-1) = beta * sqrt(u v). For beta = 1 the curve is the
    hyperbola (z-1)^2 - x^2 = 1, sampled over x_window.
    """
    beta = float(beta)
    if not (0.0 <= beta <= 1.0):
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    count = int(count)
    if count < 1:
        raise DomainError(f"count must be at least 1, got {count}")
    if beta <= TOL["boundary_beta"]:
        samples = np.array([[0.0, 1.0, 1.0, 1.0]])
    elif beta >= 1.0 - TOL["boundary_beta"]:
        x = np.linspace(x_window[0], x_window[1], count)
        z = 1.0 + np.sqrt(1.0 + x * x)
        samples = np.column_stack([x, z, z + x, z - x])
    else:
        c = math.sqrt(1.0 - beta * beta)
        pmax = beta / c
        pmid = (1.0 - c) / beta  # fixed point q(pmid) = pmid, i.e. x = 0
        # mirror the x > 0 half through p <-> q so odd counts hit x = 0
        # exactly and the sample set is symmetric in x
        half = count // 2
        right = np.linspace(pmid, pmax, half + 1)
        left = _curve_q(right[1:][::-1], beta, c)
        p = np.concatenate([left, right]) if count % 2 else \
            np.concatenate([left, right[1:]])
        q = _curve_q(p, beta, c)
        u = 1.0 + p * p
        v = 1.0 + q * q
        samples = np.column_stack([(u - v) / 2.0, (u + v) / 2.0, u, v])
    return BoundaryCurve(beta=beta, samples=samples)


def _minimize_on_curve(g0, g1, beta):
    """Minimize g0*(1+p^2) + g1*(1+q(p)^2) over the stationary curve.

    Since q'(p) = -1/(beta p + c)^2, stationary points are the real roots in
    [0, beta/c] of the quartic g0 p (beta p + c)^3 - g1 (beta - c p). It
    increases from -g1 beta to a positive value there, so exactly one root
    lies inside; the minimum is taken over the clipped real parts of all four
    roots and both endpoints, every one of them a point of the curve.
    """
    c = math.sqrt(max(0.0, 1.0 - beta * beta))
    pmax = beta / c
    coeffs = [g0 * beta ** 3, 3.0 * g0 * beta * beta * c, 3.0 * g0 * beta * c * c,
              g0 * c ** 3 + g1 * c, -g1 * beta]
    p = np.concatenate([np.clip(np.roots(coeffs).real, 0.0, pmax), [0.0, pmax]])
    q = _curve_q(p, beta, c)
    pstar = float(p[np.argmin(g0 * (1.0 + p * p) + g1 * (1.0 + q * q))])
    return pstar, _curve_q(pstar, beta, c)


def cr_bound_2param(fd, G):
    """Attainable bound for two-parameter models via the stationary curve.

    At beta = 0 the curve is the single point V = JS^{-1}, so the value is
    Tr(G JS^{-1}) there too. A weight that is not PSD raises DomainError.
    """
    m = fd.JS.shape[0]
    if m != 2:
        raise DomainError(f"two-parameter bound requires m = 2, got {m}")
    G = check_weight(fd, G)
    jsinv, w, _ = spectrum(fd).js_powers
    g, r, keep = spectrum(fd).weight(G)[1]   # raises DomainError unless PSD
    beta = float(spectrum(fd).beta.betas[0])
    c = math.sqrt(max(0.0, 1.0 - beta * beta))
    notes = {"beta": beta}

    def back(vrot):
        """V' = r diag(vrot) r^T and V = w V' w, as BoundReport fields."""
        vn = r @ np.diag(vrot) @ r.T
        return {"V_opt": matkernel.symmetrize(w @ vn @ w), "Vn": matkernel.symmetrize(vn)}

    if not keep[-1]:
        # zero weight: every feasible covariance gives zero; the G = JS
        # optimum 2/(1+c) JS^{-1} is feasible at every beta
        return BoundReport(G=G, value=0.0, attained=True, V_opt=2.0 / (1.0 + c) * jsinv,
                           method="closed_form_2param", notes={**notes, "rank": 0},
                           Vn=2.0 / (1.0 + c) * np.eye(2))
    if not keep[0]:
        # rank-1 weight: marginal semantics, attained iff beta < 1
        value = float(np.trace(G @ jsinv))
        attained = beta < 1.0
        covs = {"V_opt": None}
        if attained:
            infl = 1.0 / (1.0 - beta * beta) if beta > 0 else 1.0
            covs = back(np.array([infl, 1.0]))
        return BoundReport(G=G, value=value, attained=attained, method="closed_form_2param",
                           notes={**notes, "rank": 1}, **covs)

    if beta == 1.0:
        p2 = math.sqrt(g[1] / g[0])
        pstar, qstar = math.sqrt(p2), 1.0 / math.sqrt(p2)
        value = float(g[0] + g[1] + 2.0 * math.sqrt(g[0] * g[1]))
        covs = back(np.array([1.0 + p2, 1.0 + 1.0 / p2]))
    else:
        pstar, qstar = _minimize_on_curve(g[0], g[1], beta)
        value = float(g[0] * (1.0 + pstar ** 2) + g[1] * (1.0 + qstar ** 2))
        covs = back(np.array([1.0 + pstar ** 2, 1.0 + qstar ** 2]))
    notes["stationary_residual"] = abs(
        beta * pstar * qstar + c * (pstar + qstar) - beta)
    return BoundReport(G=G, value=value, attained=True, method="closed_form_2param",
                       notes=notes, **covs)


def cr_bound_js_weight(fd):
    """Bound for the weight G = JS: sum of 2/(1 + sqrt(1 - beta_j^2)).

    Cross-checked against the matrix form Tr {Re sqrt(I + i K)}^{-2} with
    K = JS^{-1/2} Jt JS^{-1/2}; both forms, and V_opt, come from the one
    eigendecomposition iK = U diag(mu) U*, with mu snapped.
    """
    spec = spectrum(fd)
    mu, u = spec.canonical[1]
    betas = spec.beta.betas
    value = float(sum(2.0 / (1.0 + math.sqrt(max(0.0, 1.0 - b * b))) for b in betas))
    # the snapped mu lies in [-1, 1]
    inflation = 2.0 / (1.0 + np.sqrt(1.0 - mu * mu))
    r0 = matkernel.symmetrize(((u * np.sqrt(1.0 + mu)) @ u.conj().T).real)
    r0inv = matkernel.inv_psd(r0)
    value_matrix = float(np.trace(r0inv @ r0inv))
    check("js_weight_forms", abs(value - value_matrix), 1.0, ConsistencyError)
    w = spec.js_powers[1]
    v_opt = matkernel.symmetrize(w @ ((u * inflation) @ u.conj().T).real @ w)
    return BoundReport(G=fd.JS.copy(), value=value, attained=True, V_opt=v_opt,
                       method="closed_form_JS_weight",
                       notes={"betas": betas.tolist(),
                              "matrix_form": value_matrix})


def cr_bound_coherent(fd, G):
    """Bound for coherent models with strictly positive weight.

    In the parameters where JS = I the weight is G' = w G w (w = JS^{-1/2}) and
    the lift Gram is I + iK, so the optimum is V' = I + G'^{-1/2} |M| G'^{-1/2}
    with M = G'^{1/2} K G'^{1/2}, and V = w V' w. G'^{+-1/2} come from the
    weight's one decomposition on the Spectrum; a rank below m raises
    SingularWeight. The value Tr G' + Tr |M| and the check of Tr(G' V')
    against it are taken there too: Tr(G V) in theta cancels entries of the
    size of ||JS^{-1}||, and Tr(G JS^{-1}) those of ||G|| ||JS^{-1}||.
    """
    if not coherent_test(fd):
        raise NotCoherent("model is not coherent (some beta < 1)")
    G = check_weight(fd, G)
    spec = spectrum(fd)
    gn, (g, r, keep) = spec.weight(G)
    if not keep.all():
        raise SingularWeight("weight matrix must be strictly positive definite")
    sq, isq = ((r * g ** p) @ r.T for p in (0.5, -0.5))
    absm = matkernel.abs_sym(matkernel.antisymmetrize(sq @ spec.canonical[0] @ sq))
    a, w, _ = spec.js_powers
    sld_part, abs_part = float(np.trace(gn)), float(np.trace(absm))
    value = sld_part + abs_part
    v_opt = matkernel.symmetrize(a + w @ isq @ absm @ isq @ w)
    vn = matkernel.symmetrize(np.eye(len(g)) + isq @ absm @ isq)
    check("coherent_trace", abs(float(np.sum(gn * vn)) - value), abs(value), ConsistencyError)
    return BoundReport(
        G=G, value=value, attained=True, V_opt=v_opt, method="closed_form_coherent",
        notes={"sld_part": sld_part, "abs_part": abs_part}, Vn=vn)


def marginal_infimum(fd, i):
    """Infimum of the i-th diagonal covariance entry, and whether it is attained.

    It is CR(e_i e_i^T); its value is (JS^{-1})_ii on every model.
    """
    m = fd.JS.shape[0]
    if not (0 <= i < m):
        raise DomainError(f"index {i} out of range for m = {m}")
    report = cr_bound(fd, np.diag(np.eye(m)[i]))
    return report.value, report.attained


def independence_partition(fd, blocks):
    """True iff JS and Jt are block diagonal with respect to the partition."""
    m = fd.JS.shape[0]
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(m)):
        raise DomainError("blocks must partition the index set")
    tol = TOL["fisher_dust"] * matkernel.mnorm(fd.JS)
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
    tol = TOL["fisher_dust"] * matkernel.mnorm(fd.JS)
    g = fd.gram[i, j]
    cap = math.sqrt(fd.JS[i, i] * fd.JS[j, j])
    return bool(abs(g.real) <= tol and abs(g.imag) >= (1.0 - TOL["exclusive"]) * cap)


def check_weight(fd, G):
    """G as a symmetrized float array; DomainError unless it is m x m."""
    G = np.asarray(G, dtype=float)
    m = fd.JS.shape[0]
    if G.shape != (m, m):
        raise DomainError(f"weight shape {G.shape} does not match m = {m}")
    return matkernel.symmetrize(G)


def estimation_residuals(x, phi, lifts, error):
    """The residuals of estimation vectors X (columns) in the parameters where JS = I.

    <x^i|phi> (given phi), Im X*X and Re X*L - I (given the lifts L of those
    parameters) are checked by the one TOL "vectors" rule, each times the size
    of the products it is made of, with |X| = sqrt(||X*X||) the covariance's
    root: |X| (phi has unit norm), |X|^2 and |X| ||L||. The rule then reads the
    same in any units of theta, where the vectors are given in theta.
    `error` is the error type raised, or a dict of them by residual name.
    Returns the residuals by name.
    """
    xh = x.conj().T
    xx = xh @ x
    size = math.sqrt(matkernel.mnorm(xx))
    res = {} if phi is None else {"orthogonality": (matkernel.mnorm(xh @ phi), size)}
    res["im_xx"] = matkernel.mnorm(xx.imag), size ** 2
    if lifts is not None:
        res["unbiasedness"] = (matkernel.mnorm((xh @ lifts).real - np.eye(x.shape[1])),
                               size * matkernel.mnorm(lifts))
    errors = error if isinstance(error, dict) else dict.fromkeys(res, error)
    for name, (r, scale) in res.items():
        check("vectors", r, scale, errors[name])
    return {name: r for name, (r, _) in res.items()}


def _read_only(*arrays):
    for a in arrays:
        if a is not None:
            a.setflags(write=False)


def _closed_form(fd, G):
    if quasi_classical_test(fd):
        spectrum(fd).weight(G)   # raises DomainError unless PSD, NonFinite on NaN
        jsinv = spectrum(fd).js_inv.copy()
        return BoundReport(G=G, value=float(np.trace(G @ jsinv)), attained=True,
                           V_opt=jsinv, method="quasi_classical", notes={})
    if fd.JS.shape[0] == 2:
        return cr_bound_2param(fd, G)
    if spectrum(fd).beta.classification == "coherent":
        try:
            return cr_bound_coherent(fd, G)
        except SingularWeight:
            pass   # a singular G has no coherent closed form
    if matkernel.mnorm(G - fd.JS) <= TOL["fisher_dust"] * matkernel.mnorm(fd.JS):
        return cr_bound_js_weight(fd)
    return None


def closed_form(fd, G):
    """The applicable closed-form BoundReport, or None if only the oracle applies.

    The one route decision from model class to closed form: quasi-classical,
    two-parameter, coherent, then the G = JS weight. The answer is cached on
    the Spectrum of fd per weight, with G and V_opt read-only, so a bound and
    the vectors that attain it share one solve.
    """
    G = check_weight(fd, G)
    cache, key = spectrum(fd).reports, G.tobytes()
    if key not in cache:
        cache[key] = report = _closed_form(fd, G)
        if report is not None:
            _read_only(report.G, report.V_opt, report.Vn)
    return cache[key]


def oracle_bound(fd, G):
    """The Holevo SDP's BoundReport, with the OracleResult that carries its vectors.

    The SDP reads the Spectrum of fd. The pair is cached on that Spectrum
    beside the closed forms, with G, V_opt, X and X' read-only, so a bound and
    the vectors that attain it share one solve.
    """
    G = check_weight(fd, G)
    cache, key = spectrum(fd).reports, ("oracle", G.tobytes())
    if key not in cache:
        from . import oracle   # the oracle reads this module's spectrum
        result = oracle.minimize(oracle.OracleProblem(gram=fd.gram, G=G, fd=fd))
        x = result.X
        v = None if x is None else matkernel.symmetrize((x.conj().T @ x).real)
        report = BoundReport(G=G, value=result.value, attained=result.attained, V_opt=v,
                             method="oracle",
                             notes={"residuals": result.residuals, "gap": result.gap})
        _read_only(G, v, x, result.Xn)
        cache[key] = report, result
    return cache[key]


def cr_bound(fd, G):
    """The applicable closed form, else the Holevo SDP of the oracle."""
    report = closed_form(fd, G)
    return report if report is not None else oracle_bound(fd, G)[0]
