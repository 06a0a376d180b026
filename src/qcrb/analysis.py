"""Model classification and closed-form attainable Cramer-Rao-type bounds.

The attainable bound CR(G) is the infimum of Tr(G V) over covariance matrices
of locally unbiased measurements. Closed forms exist for quasi-classical
models (the inverse Fisher matrix), two-parameter models (a one-dimensional
stationary curve), the G = JS weight (a function of the beta spectrum), and
coherent models (all beta equal to 1). Everything else goes to the oracle's
Holevo SDP.
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
    GramNotPSD,
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


@dataclass
class BoundaryCurve:
    beta: float
    samples: np.ndarray      # rows (x, z, u, v)


class Spectrum:
    """The decompositions of one working point, each computed on first use.

    `gram_root` is the PSD square root of the lift Gram, or raises
    GramNotPSD; only the Naimark frame reads it. `js_inverses` is
    (JS^{-1}, JS^{-1/2}) from one eigendecomposition of JS, or raises
    SingularFisher. `canonical` is (K, (mu, U), pairs, zero_count, beta) from
    one eigendecomposition iK = U diag(mu) U* of the complex structure
    K = JS^{-1/2} Jt JS^{-1/2}: each beta_j > 0 is a +-beta_j pair of mu,
    `pairs` holds them descending, and beta is the classified BetaSpectrum.
    `reports` caches closed_form by the bytes of the symmetrized weight: the
    one BoundReport (or None) that every bound and measurement at this point
    reads, with its arrays read-only. `spectrum(fd)` caches the Spectrum on fd.
    """

    def __init__(self, fd):
        self.fd = fd
        self.reports = {}

    @functools.cached_property
    def gram_root(self):
        try:
            return matkernel.sqrt_psd(self.fd.gram)
        except NotPSD as exc:
            raise GramNotPSD(str(exc)) from exc

    @functools.cached_property
    def js_inverses(self):
        try:
            return matkernel.psd_powers(self.fd.JS, -1, -0.5)
        except NotPSD as exc:
            raise SingularFisher(str(exc)) from exc

    @functools.cached_property
    def canonical(self):
        w = self.js_inverses[1]
        k = matkernel.antisymmetrize(w @ self.fd.Jt @ w)
        # iK is Hermitian by construction, so check_hermitian has nothing to check
        mu, u = np.linalg.eigh(1j * matkernel.check_finite(k))
        scale = matkernel.mnorm(k)
        # mu is ascending, so the spectrum of a real antisymmetric K reads the
        # same reversed and negated
        check("canonical_form", matkernel.mnorm(mu + mu[::-1]), scale, ConsistencyError)
        dust = TOL["eigen_dust"] * max(1.0, scale)
        pairs = mu[mu > dust][::-1]
        zero_count = int(np.count_nonzero(np.abs(mu) <= dust))
        if 2 * pairs.size + zero_count != mu.size:
            raise ConsistencyError(
                f"eigenvalues of iK are not symmetric at dust level {dust:.3e}")
        betas = np.concatenate([np.repeat(pairs, 2), np.zeros(zero_count)])
        check("beta", betas.max(initial=1.0) - 1.0, 0.0, DomainError)
        betas = np.clip(betas, 0.0, 1.0)
        # 2/(1+sqrt(1-b^2)) has infinite slope at b=1, so a coherent direction
        # contaminated at machine precision would smear downstream values by
        # sqrt(eps); snap within the classification dust
        betas[betas >= 1.0 - TOL["beta"]] = 1.0
        if np.all(betas <= TOL["beta"]):
            cls = "quasi_classical"
        elif np.all(betas >= 1.0 - TOL["beta"]):
            cls = "coherent"
        else:
            cls = "generic"
        assert betas.shape == self.fd.JS.shape[:1]
        return k, (mu, u), pairs, zero_count, BetaSpectrum(betas=betas, classification=cls)

    js_inv = property(lambda self: self.js_inverses[0])
    beta = property(lambda self: self.canonical[4])


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
        check("coherent_det", abs(djs - djt) / max(djs, djt), 0.0, ConsistencyError)
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
    G = matkernel.symmetrize(G)
    jsinv, w = spectrum(fd).js_inverses
    gp = matkernel.symmetrize(w @ G @ w)
    g, r, keep = matkernel.weight_eig(gp)   # raises DomainError unless PSD
    beta = float(spectrum(fd).beta.betas[0])
    c = math.sqrt(max(0.0, 1.0 - beta * beta))
    notes = {"beta": beta}

    def back(vrot):
        return matkernel.symmetrize(w @ (r @ np.diag(vrot) @ r.T) @ w)

    if not keep[-1]:
        # zero weight: every feasible covariance gives zero; the G = JS
        # optimum 2/(1+c) JS^{-1} is feasible at every beta
        return BoundReport(G=G, value=0.0, attained=True, V_opt=2.0 / (1.0 + c) * jsinv,
                           method="closed_form_2param",
                           notes={**notes, "rank": 0})
    if not keep[0]:
        # rank-1 weight: marginal semantics, attained iff beta < 1
        value = float(np.trace(G @ jsinv))
        attained = beta < 1.0 - TOL["beta"]
        v_opt = None
        if attained:
            infl = 1.0 / (1.0 - beta * beta) if beta > 0 else 1.0
            v_opt = back(np.array([infl, 1.0]))
        return BoundReport(G=G, value=value, attained=attained, V_opt=v_opt,
                           method="closed_form_2param",
                           notes={**notes, "rank": 1})

    if beta >= 1.0 - TOL["beta"]:
        p2 = math.sqrt(g[1] / g[0])
        pstar, qstar = math.sqrt(p2), 1.0 / math.sqrt(p2)
        value = float(g[0] + g[1] + 2.0 * math.sqrt(g[0] * g[1]))
        v_opt = back(np.array([1.0 + p2, 1.0 + 1.0 / p2]))
    else:
        pstar, qstar = _minimize_on_curve(g[0], g[1], beta)
        value = float(g[0] * (1.0 + pstar ** 2) + g[1] * (1.0 + qstar ** 2))
        v_opt = back(np.array([1.0 + pstar ** 2, 1.0 + qstar ** 2]))
    notes["stationary_residual"] = abs(
        beta * pstar * qstar + c * (pstar + qstar) - beta)
    return BoundReport(G=G, value=value, attained=True, V_opt=v_opt,
                       method="closed_form_2param", notes=notes)


def cr_bound_js_weight(fd):
    """Bound for the weight G = JS: sum of 2/(1 + sqrt(1 - beta_j^2)).

    Cross-checked against the matrix form Tr {Re sqrt(I + i K)}^{-2} with
    K = JS^{-1/2} Jt JS^{-1/2}; both forms, and V_opt, come from the one
    eigendecomposition iK = U diag(mu) U*.
    """
    spec = spectrum(fd)
    mu, u = spec.canonical[1]
    pairs, zero_count, beta = spec.canonical[2:]
    betas = beta.betas
    value = float(sum(2.0 / (1.0 + math.sqrt(max(0.0, 1.0 - b * b))) for b in betas))
    # the snapped beta of each eigenvalue of iK: mu ascending is -pairs,
    # the kernel, then +pairs ascending
    snapped = betas[:2 * pairs.size:2]
    per_mu = np.concatenate([snapped, np.zeros(zero_count), snapped[::-1]])
    inflation = 2.0 / (1.0 + np.sqrt(np.clip(1.0 - per_mu * per_mu, 0.0, None)))
    ws = np.clip(1.0 + mu, 0.0, None)
    ws[ws <= TOL["beta"]] = 0.0  # same snap as beta_spectrum at beta = 1
    r0 = matkernel.symmetrize(((u * np.sqrt(ws)) @ u.conj().T).real)
    r0inv = matkernel.inv_psd(r0)
    value_matrix = float(np.trace(r0inv @ r0inv))
    check("js_weight_forms", abs(value - value_matrix), 0.0, ConsistencyError)
    w = spec.js_inverses[1]
    v_opt = matkernel.symmetrize(w @ ((u * inflation) @ u.conj().T).real @ w)
    return BoundReport(G=fd.JS.copy(), value=value, attained=True, V_opt=v_opt,
                       method="closed_form_JS_weight",
                       notes={"betas": betas.tolist(),
                              "matrix_form": value_matrix})


def cr_bound_coherent(fd, G):
    """Bound for coherent models with strictly positive weight."""
    if not coherent_test(fd):
        raise NotCoherent("model is not coherent (some beta < 1)")
    G = matkernel.symmetrize(G)
    try:
        sq, isq = matkernel.psd_powers(G, 0.5, -0.5)
    except NotPSD as exc:
        raise SingularWeight(
            "weight matrix must be strictly positive definite") from exc
    a = spectrum(fd).js_inv
    c = matkernel.antisymmetrize(a @ fd.Jt @ a)
    mmat = matkernel.antisymmetrize(sq @ c @ sq)
    absm = matkernel.abs_sym(mmat)
    value = float(np.trace(G @ a) + np.trace(absm))
    v_opt = matkernel.symmetrize(a + isq @ absm @ isq)
    check("coherent_trace", abs(float(np.trace(G @ v_opt)) - value), abs(value), ConsistencyError)
    return BoundReport(
        G=G, value=value, attained=True, V_opt=v_opt, method="closed_form_coherent",
        notes={"sld_part": float(np.trace(G @ a)), "abs_part": float(np.trace(absm))})


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
    tol = TOL["fisher_dust"] * max(1.0, matkernel.mnorm(fd.JS))
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
    tol = TOL["fisher_dust"] * max(1.0, matkernel.mnorm(fd.JS))
    g = fd.gram[i, j]
    cap = math.sqrt(fd.JS[i, i] * fd.JS[j, j])
    return bool(abs(g.real) <= tol and abs(g.imag) >= (1.0 - TOL["exclusive"]) * cap)


def _closed_form(fd, G):
    if quasi_classical_test(fd):
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
    if matkernel.mnorm(G - fd.JS) <= TOL["fisher_dust"] * max(1.0, matkernel.mnorm(fd.JS)):
        return cr_bound_js_weight(fd)
    return None


def closed_form(fd, G):
    """The applicable closed-form BoundReport, or None if only the oracle applies.

    The one route decision from model class to closed form: quasi-classical,
    two-parameter, coherent, then the G = JS weight. The answer is cached on
    the Spectrum of fd per weight, with G and V_opt read-only, so a bound and
    the vectors that attain it share one solve.
    """
    G = matkernel.symmetrize(G)
    cache, key = spectrum(fd).reports, G.tobytes()
    if key not in cache:
        cache[key] = report = _closed_form(fd, G)
        if report is not None:
            report.G.setflags(write=False)
            if report.V_opt is not None:
                report.V_opt.setflags(write=False)
    return cache[key]


def oracle_bound(fd, G):
    """The Holevo SDP's BoundReport, with the OracleResult that carries its vectors."""
    G = matkernel.symmetrize(G)
    from . import oracle   # the oracle reads this module's spectrum
    result = oracle.minimize(oracle.OracleProblem(gram=fd.gram, G=G))
    v = None if result.X is None else matkernel.symmetrize((result.X.conj().T @ result.X).real)
    report = BoundReport(G=G, value=result.value, attained=result.attained, V_opt=v,
                         method="oracle",
                         notes={"residuals": result.residuals, "gap": result.gap})
    return report, result


def cr_bound(fd, G):
    """The applicable closed form, else the Holevo SDP of the oracle."""
    report = closed_form(fd, G)
    return report if report is not None else oracle_bound(fd, G)[0]
