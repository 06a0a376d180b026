"""Model classification and closed-form attainable Cramer-Rao-type bounds.

The attainable bound CR(G) is the infimum of Tr(G V) over covariance matrices
of locally unbiased measurements. Closed forms exist for quasi-classical
models (the inverse Fisher matrix), two-parameter models (a one-dimensional
stationary curve), the G = JS weight (a function of the beta spectrum), and
coherent models (all beta equal to 1). Everything else goes to the oracle.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.optimize

from . import matkernel
from .errors import (
    ConsistencyError,
    DomainError,
    NotCoherent,
    NotPSD,
    SingularFisher,
    SingularWeight,
)

CLASSIFY_DUST = 1e-9


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

    `js_inverses` is (JS^{-1}, JS^{-1/2}) from one eigendecomposition of JS,
    or raises SingularFisher. `canonical` is (K, Q, pairs, zero_count, beta)
    from one canonical form of the complex structure K = JS^{-1/2} Jt JS^{-1/2},
    with beta its classified BetaSpectrum. `spectrum(fd)` caches it on fd.
    """

    def __init__(self, fd):
        self.fd = fd

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
        q, pairs, zero_count = matkernel.antisym_canonical(k)
        # pairs come sorted descending, so this is |beta| in descending order
        betas = np.concatenate([np.repeat(pairs, 2), np.zeros(zero_count)])
        if betas.size and betas[0] > 1.0 + CLASSIFY_DUST:
            raise DomainError(f"beta {betas[0]} exceeds 1 beyond tolerance")
        betas = np.clip(betas, 0.0, 1.0)
        # 2/(1+sqrt(1-b^2)) has infinite slope at b=1, so a coherent direction
        # contaminated at machine precision would smear downstream values by
        # sqrt(eps); snap within the classification dust
        betas[betas >= 1.0 - CLASSIFY_DUST] = 1.0
        if np.all(betas <= CLASSIFY_DUST):
            cls = "quasi_classical"
        elif np.all(betas >= 1.0 - CLASSIFY_DUST):
            cls = "coherent"
        else:
            cls = "generic"
        assert betas.shape == self.fd.JS.shape[:1]
        return k, q, pairs, zero_count, BetaSpectrum(betas=betas, classification=cls)

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
    """True iff Jt vanishes at the dust level; needs no decomposition."""
    return matkernel.mnorm(fd.Jt) <= CLASSIFY_DUST * max(1.0, matkernel.mnorm(fd.JS))


def coherent_test(fd):
    """True iff all beta equal 1; cross-checks |det JS| = |det Jt|."""
    ok = spectrum(fd).beta.classification == "coherent"
    if ok:
        djs = abs(np.linalg.det(fd.JS))
        djt = abs(np.linalg.det(fd.Jt))
        if abs(djs - djt) > 1e-6 * max(djs, djt):
            raise ConsistencyError(
                f"coherent model with |det JS| = {djs!r} != |det Jt| = {djt!r}")
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
    if beta <= 1e-12:
        samples = np.array([[0.0, 1.0, 1.0, 1.0]])
    elif beta >= 1.0 - 1e-12:
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
    """Minimize g0*(1+p^2) + g1*(1+q(p)^2) over the stationary curve."""
    c = math.sqrt(max(0.0, 1.0 - beta * beta))
    pmax = beta / c

    def f(p):
        q = _curve_q(p, beta, c)
        return g0 * (1.0 + p * p) + g1 * (1.0 + q * q)

    grid = np.linspace(0.0, pmax, 513)
    vals = np.array([f(p) for p in grid])
    k = int(np.argmin(vals))
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    if hi > lo:
        res = scipy.optimize.minimize_scalar(
            f, bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12, "maxiter": 500})
        pstar = float(res.x)
        if f(pstar) > vals[k]:
            pstar = float(grid[k])
    else:
        pstar = float(grid[k])
    return pstar, _curve_q(pstar, beta, c)


def cr_bound_2param(fd, G):
    """Attainable bound for two-parameter models via the stationary curve."""
    m = fd.JS.shape[0]
    if m != 2:
        raise DomainError(f"two-parameter bound requires m = 2, got {m}")
    G = matkernel.symmetrize(G)
    if not matkernel.is_psd(G):
        raise DomainError("weight matrix must be PSD")
    jsinv, w = spectrum(fd).js_inverses
    jsinv = jsinv.copy()
    gp = matkernel.symmetrize(w @ G @ w)
    g, r = np.linalg.eigh(gp)
    beta = float(spectrum(fd).beta.betas[0])
    dust = CLASSIFY_DUST * max(1.0, g[-1])
    notes = {"beta": beta}

    def back(vrot):
        return matkernel.symmetrize(w @ (r @ np.diag(vrot) @ r.T) @ w)

    if g[-1] <= dust:
        # zero weight: every feasible covariance gives zero
        return BoundReport(G=G, value=0.0, attained=True, V_opt=jsinv,
                           method="closed_form_2param",
                           notes={**notes, "rank": 0})
    if g[0] <= dust:
        # rank-1 weight: marginal semantics, attained iff beta < 1
        value = float(np.trace(G @ jsinv))
        attained = beta < 1.0 - CLASSIFY_DUST
        v_opt = None
        if attained:
            infl = 1.0 / (1.0 - beta * beta) if beta > 0 else 1.0
            v_opt = back(np.array([infl, 1.0]))
        return BoundReport(G=G, value=value, attained=attained, V_opt=v_opt,
                           method="closed_form_2param",
                           notes={**notes, "rank": 1})

    if beta <= CLASSIFY_DUST:
        v_opt = jsinv
        value = float(np.trace(G @ jsinv))
        pstar = qstar = 0.0
    elif beta >= 1.0 - CLASSIFY_DUST:
        p2 = math.sqrt(g[1] / g[0])
        pstar, qstar = math.sqrt(p2), 1.0 / math.sqrt(p2)
        value = float(g[0] + g[1] + 2.0 * math.sqrt(g[0] * g[1]))
        v_opt = back(np.array([1.0 + p2, 1.0 + 1.0 / p2]))
    else:
        pstar, qstar = _minimize_on_curve(g[0], g[1], beta)
        value = float(g[0] * (1.0 + pstar ** 2) + g[1] * (1.0 + qstar ** 2))
        v_opt = back(np.array([1.0 + pstar ** 2, 1.0 + qstar ** 2]))

    c = math.sqrt(max(0.0, 1.0 - beta * beta))
    notes["stationary_residual"] = abs(
        beta * pstar * qstar + c * (pstar + qstar) - beta)
    return BoundReport(G=G, value=value, attained=True, V_opt=v_opt,
                       method="closed_form_2param", notes=notes)


def cr_bound_js_weight(fd):
    """Bound for the weight G = JS: sum of 2/(1 + sqrt(1 - beta_j^2)).

    Cross-checked against the matrix form Tr {Re sqrt(I + i K)}^{-2} with
    K = JS^{-1/2} Jt JS^{-1/2}.
    """
    spec = spectrum(fd)
    betas = spec.beta.betas
    # per-direction inflation 2/(1+sqrt(1-beta^2)), in the column order of Q
    diag = [2.0 / (1.0 + math.sqrt(max(0.0, 1.0 - b * b))) for b in betas]
    value = float(sum(diag))
    k, q = spec.canonical[:2]
    s = np.eye(len(k)) + 1j * k
    ws, us = matkernel.hermitian_eig(s)
    ws = np.clip(ws, 0.0, None)
    ws[ws <= CLASSIFY_DUST] = 0.0  # same snap as beta_spectrum at beta = 1
    sq = (us * np.sqrt(ws)) @ us.conj().T
    r0 = matkernel.symmetrize(sq.real)
    r0inv = matkernel.inv_psd(r0)
    value_matrix = float(np.trace(r0inv @ r0inv))
    if abs(value - value_matrix) > 1e-9:
        raise ConsistencyError(
            f"spectrum form {value!r} vs matrix form {value_matrix!r}")
    w = spec.js_inverses[1]
    v_opt = matkernel.symmetrize(w @ (q @ np.diag(diag) @ q.T) @ w)
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
    check = float(np.trace(G @ v_opt))
    if abs(check - value) > 1e-9 * max(1.0, abs(value)):
        raise ConsistencyError(f"Tr(G V_opt) = {check!r} vs value {value!r}")
    return BoundReport(G=G, value=value, attained=True, V_opt=v_opt,
                       method="closed_form_coherent",
                       notes={"sld_part": float(np.trace(G @ a)),
                              "abs_part": float(np.trace(absm))})


def marginal_infimum(fd, i):
    """Infimum of the i-th diagonal covariance entry: (JS^{-1})_ii."""
    m = fd.JS.shape[0]
    if not (0 <= i < m):
        raise DomainError(f"index {i} out of range for m = {m}")
    value = float(spectrum(fd).js_inv[i, i])
    if m == 1 or quasi_classical_test(fd):
        hint = True
    elif m == 2:
        hint = bool(spectrum(fd).beta.betas[0] < 1.0 - CLASSIFY_DUST)
    else:
        hint = False
    return value, hint


def independence_partition(fd, blocks):
    """True iff JS and Jt are block diagonal with respect to the partition."""
    m = fd.JS.shape[0]
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(m)):
        raise DomainError("blocks must partition the index set")
    tol = CLASSIFY_DUST * max(1.0, matkernel.mnorm(fd.JS))
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
    tol = CLASSIFY_DUST * max(1.0, matkernel.mnorm(fd.JS))
    g = fd.gram[i, j]
    cap = math.sqrt(fd.JS[i, i] * fd.JS[j, j])
    return bool(abs(g.real) <= tol and abs(g.imag) >= (1.0 - CLASSIFY_DUST) * cap)


def closed_form(fd, G):
    """The applicable closed-form BoundReport, or None if only the oracle applies."""
    G = matkernel.symmetrize(G)
    m = fd.JS.shape[0]
    if m == 1 or quasi_classical_test(fd):
        jsinv = spectrum(fd).js_inv.copy()
        return BoundReport(G=G, value=float(np.trace(G @ jsinv)), attained=True,
                           V_opt=jsinv, method="quasi_classical", notes={})
    if m == 2:
        return cr_bound_2param(fd, G)
    wg, _ = matkernel.hermitian_eig(G)
    g_pd = wg.min() > matkernel.EIGEN_DUST * max(1.0, matkernel.mnorm(G))
    if spectrum(fd).beta.classification == "coherent" and g_pd:
        return cr_bound_coherent(fd, G)
    if matkernel.mnorm(G - fd.JS) <= CLASSIFY_DUST * max(1.0, matkernel.mnorm(fd.JS)):
        return cr_bound_js_weight(fd)
    return None


def cr_bound(fd, G, oracle_options=None):
    """The applicable closed form, else the oracle."""
    report = closed_form(fd, G)
    if report is not None:
        return report
    G = matkernel.symmetrize(G)
    from . import oracle as oracle_mod
    opts = dict(oracle_options or {})
    problem = oracle_mod.OracleProblem(gram=fd.gram, G=G, **opts)
    result = oracle_mod.minimize(problem)
    v = matkernel.symmetrize((result.X.conj().T @ result.X).real)
    return BoundReport(G=G, value=result.value, attained=True, V_opt=v,
                       method="oracle",
                       notes={"residuals": result.residuals,
                              "restarts": len(result.restarts)})
