"""Model classification and closed-form attainable Cramer-Rao-type bounds.

The attainable bound CR(G) is the infimum of Tr(G V) over covariance matrices
of locally unbiased measurements. Closed forms exist for quasi-classical
models (the inverse Fisher matrix), two-parameter models (a one-dimensional
stationary curve), coherent models (all beta equal to 1) under a positive
definite weight, and the G = JS weight (a function of the beta spectrum).
The route table `_ROUTES` lists them in that order, and is the one route
decision: the first entry that applies answers, and where none does the
oracle's Holevo SDP does. Every route reads one FisherData per working point,
which owns the lifts' SVD and every decomposition taken from it, and one
`Weight` of G from it. `closed_form(fd, wt)` and `oracle_bound(fd, wt)` take
that Weight, so a caller that reads both looks its weight up once;
`cr_bound(fd, G)` looks it up for them.
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
    NotPSD,
    SingularFisher,
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
    notes: dict
    # V' = JS^{1/2} V_opt JS^{1/2} as the two-parameter and coherent closed forms
    # build it, where JS = I; the completion of their vectors reads it
    Vn: Optional[np.ndarray] = None


@dataclass
class FisherData:
    """One working point: its Fisher matrices and every decomposition of them.

    JS (real symmetric, positive definite) and Jt (real antisymmetric) are the
    real and imaginary parts of the lift Gram `gram` = L*L. `svd` is the one
    factorization of the point: the thin SVD [Re L; Im L] = U S V^T of the
    stacked lifts, U = [A; B] with A the first d rows, which
    `model.fisher_data` takes and hands to `from_gram`. A bare Gram is
    factored on first use through its PSD root L0 (L0* L0 = gram;
    matkernel.sqrt_psd decides PSD at TOL "eigen_dust", else DomainError) and
    the same SVD, where a singular JS raises SingularFisher. `js_powers` is
    (JS^{-1}, JS^{-1/2}, JS^{1/2}) = V S^{2p} V^T; w = JS^{-1/2} takes
    theta' = JS^{1/2} theta, the parameters where JS = I, back to theta. There
    the lifts are L' = L w = (A + iB) V^T, orthonormal in Re, and
    L'* L' = I + iK with K = V (A^T B - B^T A) V^T. `canonical` is
    (K, (mu, U), beta, moved) from one eigendecomposition iK = U diag(mu) U*:
    mu is made exactly +- symmetric, and each mu within TOL "beta" * cond(L)
    of -1, 0 or 1 is set to it, the one snap that the class, the betas (|mu|
    descending, the classified BetaSpectrum) and the lift factor read; `moved`
    is ||JS|| max |mu - raw mu|, the most the snap moves the Gram.
    `lift_factor` is (kh, R) from that (mu, U): kh = sqrt(1 + mu) U* on the r
    directions where mu > -1, so kh* kh = I + iK with the snapped mu; and
    R = kh JS^{1/2}. `embedding` is (phi, R, kh) in the 2m+1 dimensional
    Naimark space: phi = e_0, and each factor in coordinates 1..r; R* R must
    reproduce the Gram to TOL "naimark_gram" beyond `moved`
    (ConsistencyError), checked once here for every reader. The Naimark
    frame's lifts and the oracle's are that R, and their lifts in theta' that
    kh: the SDP of `oracle_bound` reads `js_powers` and `embedding` of this
    point. `coherent` is the class's determinant cross-check, taken once.
    `reports` holds one `Weight` per weight, keyed by the bytes of the
    symmetrized weight: its decomposition at unit scale, and the closed form
    and the oracle's solve that every bound and measurement at this point
    reads. Their arrays are read-only.
    Each decomposition is computed on first use and cached here, so JS, Jt
    and gram must not change once the point is built. Nothing cached refers
    to the point, so it is acyclic: reference counting frees it, its
    decompositions and its reports when the last reader drops it.
    """
    JS: np.ndarray
    Jt: np.ndarray
    gram: np.ndarray
    reports: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_gram(cls, gram, svd=None):
        """The Hermitian part of a lift Gram, its real/imaginary split, and the
        lifts' SVD when it is given."""
        gram = np.asarray(gram, dtype=complex)
        # halved before the sum, which cannot then overflow; its real and
        # imaginary parts are exactly symmetric and antisymmetric
        gram = 0.5 * gram + 0.5 * gram.conj().T
        fd = cls(JS=gram.real, Jt=gram.imag, gram=gram)
        if svd is not None:
            fd.svd = svd   # the lifts' own; a bare Gram is factored on first use
        return fd

    @functools.cached_property
    def svd(self):
        try:
            root = matkernel.sqrt_psd(self.gram)
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
        gram = 0.5 * self.gram + 0.5 * self.gram.conj().T
        miss = matkernel.mnorm(root.conj().T @ root - gram) - self.canonical[3]
        check("naimark_gram", miss, matkernel.mnorm(gram), ConsistencyError)
        r, m = kh.shape
        phi = np.zeros(2 * m + 1, dtype=complex)
        phi[0] = 1.0
        lifts = np.zeros((2, 2 * m + 1, m), dtype=complex)
        lifts[:, 1:r + 1] = root, kh
        _read_only(phi, lifts)
        return phi, lifts[0], lifts[1]

    @functools.cached_property
    def coherent(self):
        """True iff all beta equal 1; then |det JS| = |det Jt| is cross-checked.

        A passed check is cached; a failed one raises ConsistencyError on every
        read.
        """
        ok = self.canonical[2].classification == "coherent"
        if ok:
            # at the scale of JS, where neither determinant leaves the float range
            n = matkernel.mnorm(self.JS)
            djs, djt = abs(np.linalg.det(self.JS / n)), abs(np.linalg.det(self.Jt / n))
            check("coherent_det", abs(djs - djt) / max(djs, djt), 1.0, ConsistencyError)
        return ok

    def weight(self, G):
        """The `Weight` of G at this point: the one place where a weight enters.

        G must be finite (NonFinite) and m x m (DomainError). It is held as
        every Weight holds it (`_symmetric_copy`), so the Weight's G is
        symmetric, and `fd.weight(wt.G)` is wt. G is scaled to
        unit = 2^-(e+f) G, exactly, where w G w (w = JS^{-1/2}) is formed as
        gn = w unit w: neither overflows at either end of the float range,
        and gn is of size near 1 whatever the units of G and theta. Its one
        matkernel.psd_eig makes the PSD decision at its dust (DomainError) and the rank cut that
        every route reads. e + f is the even power at or below ||w G w||, so
        2^k G, for even k, has the same unit and gn as G, and every route's
        result for it is 2^k times that for G, bit for bit; square roots at
        unit scale are those at G's scale times a power of two. The Weight is
        cached by the bytes of that symmetric G. The route entries
        `closed_form`, `oracle_bound` and `measurement.optimal_vectors` take
        the Weight, so a caller looks its weight up once.
        """
        G = np.asarray(G, dtype=float)
        if G.shape != self.JS.shape:
            raise DomainError(f"weight shape {G.shape} does not match m = {len(self.JS)}")
        G = _symmetric_copy(G)
        key = G.tobytes()
        if key not in self.reports:
            self.reports[key] = Weight(matkernel.check_finite(G), self.js_powers[1])
        return self.reports[key]


def _symmetric_copy(G):
    """A copy of G, kept if symmetric bit for bit, else symmetrized, halved
    before the sum, once: the G that every Weight holds."""
    G = np.array(G, dtype=float)
    # symmetrize rounds an odd multiple of 2^-1074 again on each pass
    return G if G.tobytes() == G.T.tobytes() else matkernel.symmetrize(G)


class Weight:
    """A weight G at one working point, at unit scale: G = 2^(e+f) unit.

    G is held as `_symmetric_copy` makes it, whoever builds the Weight. 2^e
    is the even power of two at or below ||G||, the weight's scale, and 2^f
    the one at or below ||w 2^-e G w|| (w = JS^{-1/2}), the point's, but
    no less than 2^-1022, so that unit has entries below 2^1023. JS is its
    own unit, since w JS w = I, unless ||JS|| >= 2^1023, where that floor
    makes its unit JS/4 (`_js_scale`). gn = w unit w is the weight in the
    parameters where JS = I, of size near 1, and (g, r, keep) its eigenvalues
    ascending, eigenvectors and rank mask from one matkernel.psd_eig. Every
    route computes at unit scale and returns its result through `back`; V_opt,
    V' and the estimation vectors do not depend on the weight's scale. A
    working point's Weight is built by `FisherData.weight` and handed down to
    the routes as it is: `closed` caches `closed_form`'s report, as (report,)
    once it is taken, and `oracle` oracle_bound's (BoundReport, OracleResult).
    The arrays are read-only, and nothing here refers to the working point.
    """

    def __init__(self, G, w):
        G = _symmetric_copy(G)
        self.G, self.e = G, math.frexp(matkernel.mnorm(G))[1] & -2
        f = math.frexp(matkernel.mnorm(w @ np.ldexp(G, -self.e) @ w))[1] & -2
        self.f = max(f, -1022)
        self.unit = np.ldexp(G, -self.e - self.f)
        self.gn = matkernel.symmetrize(w @ self.unit @ w)
        self.g, self.r, self.keep = matkernel.psd_eig(self.gn, DomainError)
        _read_only(G, self.unit, self.gn, self.g, self.r, self.keep)
        self.closed, self.oracle = (), None

    def back(self, value, *fields):
        """value, then each of `fields`, from unit scale to G's units: times 2^(e+f), exactly.

        value is a bound, a float or an array of them (None passes as None).
        One that is nonzero and a normal float at the point's scale, times 2^f,
        but not times 2^(e+f), has left the float range by the weight's scale:
        DomainError. The fields are quantities in G's units beside it, such as
        parts of a bound, a duality gap or a multiplier. Returns the scaled
        value alone, or with the scaled fields as a tuple.
        """
        # a normal float's frexp exponent lies in -1021..1024
        for x in [] if value is None else np.ravel(value).tolist():
            exp = math.frexp(x)[1] + self.f
            if x and -1021 <= exp <= 1024 and not -1021 <= exp + self.e <= 1024:
                raise DomainError(f"the bound at this weight, 2^{self.e} times "
                                  f"{math.ldexp(x, self.f)!r}, is not a normal float")
        out = [x if x is None else np.ldexp(x, self.e + self.f) for x in (value, *fields)]
        return out[0] if not fields else tuple(out)


def beta_spectrum(fd):
    """|imaginary parts| of the eigenvalues of JS^{-1} Jt, with classification."""
    return fd.canonical[2]


def _curve_q(p, beta, c):
    """Upper-branch stationary curve through (u,v) = (1+p^2, 1+q^2)."""
    return (beta - c * p) / (beta * p + c)


def boundary_2param(beta, count, x_window=(-1.0, 1.0)):
    """Samples of the two-parameter stationary boundary in normalized coordinates.

    Returns the samples, an array of rows (x, z, u, v) with u = z + x,
    v = z - x, satisfying sqrt(u-1) + sqrt(v-1) = beta * sqrt(u v): one row
    at beta = 0, else `count` rows. For beta = 1 the curve is the hyperbola
    (u-1)(v-1) = 1, sampled over x_window, which must be finite: with
    s = hypot(1, x), z = 1 + s, and the side of u, v that z +- x would cancel
    is 1 + 1/(s + |x|). A window whose rows overflow, or a count of samples
    that cannot be allocated, is a DomainError.
    """
    beta = float(beta)
    if not (0.0 <= beta <= 1.0):
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    x0, x1 = (float(x) for x in x_window)
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise DomainError(f"x_window must be finite, got ({x0}, {x1})")
    count = int(count)
    if count < 1:
        raise DomainError(f"count must be at least 1, got {count}")
    if beta <= TOL["boundary_beta"]:
        return np.array([[0.0, 1.0, 1.0, 1.0]])
    samples = matkernel.zeros((count, 4))
    if beta >= 1.0 - TOL["boundary_beta"]:
        x = np.linspace(x0, x1, count)
        s = np.hypot(1.0, x)
        z = 1.0 + s
        with np.errstate(over="ignore"):
            far = z + np.abs(x)
        if not np.isfinite(far).all():
            raise DomainError(f"x_window ({x0}, {x1}) puts the curve beyond the float range")
        near = 1.0 + 1.0 / (s + np.abs(x))
        pos = x >= 0.0
        np.stack([x, z, np.where(pos, far, near), np.where(pos, near, far)], axis=1,
                 out=samples)
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
        np.stack([(u - v) / 2.0, (u + v) / 2.0, u, v], axis=1, out=samples)
    return samples


def _minimize_on_curve(g0, g1, beta):
    """The point (p, q) of the stationary curve minimizing g0*(1+p^2) + g1*(1+q(p)^2).

    Since q'(p) = -1/(beta p + c)^2, stationary points are the roots in
    [0, beta/c] of f(p) = g0 p (beta p + c)^3 - g1 (beta - c p). For p >= 0, f
    is increasing and convex, f(0) = -g1 beta <= 0, and f >= 0 at
    p0 = min(beta/c, (g1/(g0 beta^2))^(1/4)). So Newton from p0 falls
    monotonically onto the one root, and stops when a step no longer
    decreases p. At beta = 1 (c = 0) p0 is the root and q = 1/p; at beta = 0
    the curve is the single point p = 0. The root reads g0/g1 alone; the
    weights come at unit scale (`FisherData.weight`). A zero weight costs 0
    everywhere and takes the midpoint p = q = beta/(1 + c); g0 = 0 takes the
    end p = beta/c, q = 0, which is at infinity when beta = 1.
    """
    c = math.sqrt(max(0.0, 1.0 - beta * beta))
    if not (g0 or g1):
        return (beta / (1.0 + c),) * 2
    end = beta / c if c else math.inf
    if not g0:
        return end, 0.0
    p = min(end, (g1 / (g0 * beta * beta)) ** 0.25) if beta else 0.0
    while True:
        s = beta * p + c
        nxt = p - (g0 * p * s ** 3 - g1 * (beta - c * p)) / (
            g0 * s * s * (s + 3.0 * beta * p) + g1 * c)
        if not nxt < p:
            break
        p = nxt
    return p, _curve_q(p, beta, c)


def estimation_residuals(x, phi, lifts, error, products=None):
    """The residuals of estimation vectors X (columns) in the parameters where JS = I.

    <x^i|phi> (given phi), Im X*X and Re X*L - I (given the lifts L of those
    parameters) are checked by the one TOL "vectors" rule, each times the size
    of the products it is made of, with |X| = sqrt(||X*X||) the covariance's
    root: |X| (phi has unit norm), |X|^2 and |X| ||L||. The rule then reads the
    same in any units of theta, where the vectors are given in theta.
    `error` is the error type raised, or a dict of them by residual name.
    `products` is (X*, X*X, |X|) when the caller has formed them. Returns the
    residuals by name.
    """
    if products is None:
        xh = x.conj().T
        xx = xh @ x
        products = xh, xx, math.sqrt(matkernel.mnorm(xx))
    xh, xx, size = products
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


def _quasi_classical(fd, wt):
    """Bound for quasi-classical models: Tr(G JS^{-1}), attained by V = JS^{-1}."""
    jsinv = fd.js_powers[0].copy()
    return BoundReport(G=wt.G, value=wt.back(float(np.trace(wt.unit @ jsinv))),
                       attained=True, V_opt=jsinv, method="quasi_classical", notes={})


def _two_param(fd, wt):
    """Bound for two-parameter models: one point of the stationary curve.

    In the parameters where JS = I the weight at unit scale is
    G' = w G w = r diag(g) r^T (w = JS^{-1/2}, g ascending), and the optimum
    is V' = r diag(1 + p^2, 1 + q^2) r^T at the curve point (p, q) of
    `_minimize_on_curve`, with V = w V' w. At beta = 0 that is V = JS^{-1}. A
    rank-1 weight at beta = 1 puts the point at infinity: the infimum,
    Tr(G JS^{-1}), is not attained and V_opt is None.
    """
    g0, g1 = wt.g.tolist()
    beta = float(fd.canonical[2].betas[0])
    p, q = _minimize_on_curve(g0, g1, beta)
    u, v = 1.0 + p ** 2, 1.0 + q ** 2
    # a direction of zero weight adds nothing, however large its variance
    value = wt.back((g0 * u if g0 else 0.0) + g1 * v)
    notes = {"beta": beta}
    if wt.keep[0]:
        c = math.sqrt(max(0.0, 1.0 - beta * beta))
        notes["stationary_residual"] = abs(beta * p * q + c * (p + q) - beta)
    else:
        notes["rank"] = int(wt.keep.sum())
    attained = p < math.inf
    vopt = vn = None
    if attained:
        vn = wt.r @ np.diag([u, v]) @ wt.r.T
        w = fd.js_powers[1]
        vopt, vn = matkernel.symmetrize(w @ vn @ w), matkernel.symmetrize(vn)
    return BoundReport(G=wt.G, value=value, attained=attained, V_opt=vopt,
                       method="closed_form_2param", notes=notes, Vn=vn)


def _coherent(fd, wt):
    """Bound for coherent models with a positive definite weight.

    In the parameters where JS = I the weight at unit scale is G' = w G w
    (w = JS^{-1/2}) and the lift Gram is I + iK, so the optimum is
    V' = I + G'^{-1/2} |M| G'^{-1/2} with M = G'^{1/2} K G'^{1/2}, and
    V = w V' w. G'^{+-1/2} come from the weight's one decomposition. The value
    Tr G' + Tr |M| and the check of Tr(G' V') against it are taken there too:
    Tr(G V) in theta cancels entries of the size of ||JS^{-1}||, and
    Tr(G JS^{-1}) those of ||G|| ||JS^{-1}||. The value and its two parts are
    then scaled back.
    """
    sq, isq = ((wt.r * wt.g ** p) @ wt.r.T for p in (0.5, -0.5))
    absm = matkernel.abs_sym(matkernel.antisymmetrize(sq @ fd.canonical[0] @ sq))
    a, w, _ = fd.js_powers
    sld_part, abs_part = float(np.trace(wt.gn)), float(np.trace(absm))
    value = sld_part + abs_part
    v_opt = matkernel.symmetrize(a + w @ isq @ absm @ isq @ w)
    vn = matkernel.symmetrize(np.eye(len(wt.g)) + isq @ absm @ isq)
    check("coherent_trace", abs(float(np.sum(wt.gn * vn)) - value), abs(value), ConsistencyError)
    value, sld_part, abs_part = wt.back(value, sld_part, abs_part)
    return BoundReport(
        G=wt.G, value=value, attained=True, V_opt=v_opt, method="closed_form_coherent",
        notes={"sld_part": sld_part, "abs_part": abs_part}, Vn=vn)


def _js_scale(fd):
    """s with JS = 2^s times its unit (`Weight`): 0, since w JS w = I, unless
    ||JS|| >= 2^1023, where the floor on 2^f makes it 2."""
    return 0 if matkernel.mnorm(fd.JS) < 2.0 ** 1023 else 2


def _is_js_weight(fd, wt):
    """Whether G is JS at unit scale, to its dust: G = 4^k JS for an integer k."""
    js = np.ldexp(fd.JS, -_js_scale(fd))
    return matkernel.mnorm(wt.unit - js) <= TOL["eigen_dust"] * matkernel.mnorm(js)


def _js_weight(fd, wt):
    """Bound for the weights that are JS at unit scale: sum of 2/(1 + sqrt(1 - beta_j^2)).

    That sum is the bound of G = JS, which is 2^s times its unit
    (`_js_scale`), so it is scaled by 2^-s to unit scale and then back to G's
    units. It is cross-checked against the matrix form
    Tr {Re sqrt(I + i K)}^{-2} with K = JS^{-1/2} Jt JS^{-1/2}; both forms,
    and V_opt, come from the one eigendecomposition iK = U diag(mu) U*, with
    mu snapped.
    """
    mu, u = fd.canonical[1]
    betas = fd.canonical[2].betas
    value = float(sum(2.0 / (1.0 + math.sqrt(max(0.0, 1.0 - b * b))) for b in betas))
    # the snapped mu lies in [-1, 1]
    inflation = 2.0 / (1.0 + np.sqrt(1.0 - mu * mu))
    r0 = matkernel.symmetrize(((u * np.sqrt(1.0 + mu)) @ u.conj().T).real)
    r0inv = matkernel.inv_psd(r0)
    value_matrix = float(np.trace(r0inv @ r0inv))
    check("js_weight_forms", abs(value - value_matrix), 1.0, ConsistencyError)
    w = fd.js_powers[1]
    v_opt = matkernel.symmetrize(w @ ((u * inflation) @ u.conj().T).real @ w)
    s = _js_scale(fd)
    value, form = wt.back(math.ldexp(value, -s), math.ldexp(value_matrix, -s))
    return BoundReport(G=wt.G, value=value, attained=True, V_opt=v_opt,
                       method="closed_form_JS_weight",
                       notes={"betas": betas.tolist(), "matrix_form": form})


# The one route decision: the first entry whose applies(fd, wt) holds gives
# the closed form, solve(fd, wt), at the weight's unit scale; where none
# applies, the oracle's SDP answers. Each applies reads properties of the
# point and the weight that are cached, and no solve repeats its check.
_ROUTES = (
    (lambda fd, wt: fd.canonical[2].classification == "quasi_classical", _quasi_classical),
    (lambda fd, wt: len(fd.JS) == 2, _two_param),
    # a singular weight has no coherent closed form
    (lambda fd, wt: fd.coherent and wt.keep.all(), _coherent),
    (_is_js_weight, _js_weight),
)


def cr_bound_2param(fd, G):
    """The two-parameter entry's report at G, solved afresh; m != 2 is a DomainError,
    and so is a weight that is not PSD."""
    if len(fd.JS) != 2:
        raise DomainError(f"two-parameter bound requires m = 2, got {len(fd.JS)}")
    return _two_param(fd, fd.weight(G))


def cr_bound_js_weight(fd):
    """The G = JS entry's report at G = JS, solved afresh."""
    return _js_weight(fd, fd.weight(fd.JS))


def closed_form(fd, wt):
    """The applicable closed-form BoundReport at the Weight wt of fd, or None if
    only the oracle applies.

    It walks the route table `_ROUTES` once per weight: quasi-classical,
    two-parameter, coherent with a positive definite weight, then the G = JS
    weight at unit scale. The answer is cached on wt, with G and V_opt
    read-only, so a bound and the vectors that attain it share one solve.
    """
    if not wt.closed:
        report = next((solve(fd, wt) for applies, solve in _ROUTES if applies(fd, wt)), None)
        if report is not None:
            _read_only(report.V_opt, report.Vn)
        wt.closed = (report,)
    return wt.closed[0]


def oracle_bound(fd, wt):
    """The Holevo SDP's BoundReport at the Weight wt of fd, with the OracleResult
    that carries its vectors.

    The SDP reads the decompositions of fd and of wt. The pair is cached on wt
    beside the closed form, with G, V_opt, X and X' read-only, so a bound and
    the vectors that attain it share one solve. The OracleResult refers to no
    FisherData, so the cache makes no cycle through fd.
    """
    if wt.oracle is None:
        from . import oracle   # the oracle reads this module's FisherData
        result = oracle._minimize(fd, wt)
        x = result.X
        v = None if x is None else matkernel.symmetrize((x.conj().T @ x).real)
        report = BoundReport(G=wt.G, value=result.value, attained=result.attained, V_opt=v,
                             method="oracle",
                             notes={"residuals": result.residuals, "gap": result.gap})
        _read_only(v, x, result.Xn)
        wt.oracle = report, result
    return wt.oracle


def cr_bound(fd, G):
    """The route table's closed form, else the Holevo SDP of the oracle, at
    G's one Weight `fd.weight(G)`."""
    wt = fd.weight(G)
    return closed_form(fd, wt) or oracle_bound(fd, wt)[0]
