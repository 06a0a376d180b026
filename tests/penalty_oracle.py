"""Penalty minimizer of Tr(G Re X*X): the independent reference for the Holevo SDP.

The search space is the orthogonal complement of phi' in the 2m+1
dimensional embedding (2m complex dimensions suffice); the affine constraint
Re X*L = I is eliminated exactly by a null-space parametrization, and
Im X*X = 0 is driven to zero by an increasing quadratic penalty with
multi-start quasi-Newton inner solves. It shares no solver code with
`qcrb.oracle`, so tests cross-check the engine and the closed forms against
it. It needs scipy, which the `test` extra installs.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from qcrb import matkernel
from qcrb.errors import (
    DomainError,
    NonConvergence,
    NotPSD,
    QcrbError,
    SingularFisher,
)

DEFAULT_PENALTIES = (1e2, 1e4, 1e6, 1e8)
RESIDUAL_TOL = 1e-7
GRAD_TOL = 1e-9


class Infeasible(QcrbError):
    """No restart reached a point that meets the constraints within residual_tol."""


@dataclass
class OracleProblem:
    gram: np.ndarray                      # Hermitian PSD, m x m
    G: np.ndarray                         # real PSD weight, m x m
    restarts: int = 16
    seed: int = 0
    penalties: tuple = DEFAULT_PENALTIES
    residual_tol: float = RESIDUAL_TOL
    grad_tol: float = GRAD_TOL
    maxiter: int = 4000


@dataclass
class RestartStat:
    restart: int
    value: float
    residual: float
    feasible: bool
    converged: bool


@dataclass
class OracleResult:
    value: float
    X: np.ndarray                         # (2m+1, m), column i = |x^i>
    phi: np.ndarray
    lifts: np.ndarray                     # embedded lifts, (2m+1, m)
    residuals: dict
    restarts: List[RestartStat]
    problem: OracleProblem

    @property
    def gram(self):
        return self.problem.gram

    @property
    def G(self):
        return self.problem.G


def _setup(problem):
    import scipy.linalg
    gram = 0.5 * (np.asarray(problem.gram, dtype=complex)
                  + np.asarray(problem.gram, dtype=complex).conj().T)
    m = gram.shape[0]
    g = matkernel.symmetrize(np.asarray(problem.G, dtype=float))
    if g.shape != (m, m):
        raise DomainError(f"weight shape {g.shape} does not match m = {m}")
    matkernel.psd_eig(g, DomainError)
    js = matkernel.symmetrize(gram.real)
    try:
        jsinv = matkernel.inv_psd(js)
    except NotPSD as exc:
        raise SingularFisher("Re(gram) must be positive definite") from exc
    try:
        froot = matkernel.sqrt_psd(gram)
    except NotPSD as exc:
        raise DomainError(f"gram must be PSD: {exc}") from exc
    # lifts embedded in the phi-complement (2m complex dims)
    lc = np.zeros((2 * m, m), dtype=complex)
    lc[:m, :] = froot
    xp = lc @ jsinv
    # real representation of the affine constraint Re<x^i|l_j> = delta_ij
    mreal = np.concatenate([lc.real, lc.imag], axis=0).T   # (m, 4m)
    nbasis = scipy.linalg.null_space(mreal)                # (4m, 3m)
    return gram, g, js, jsinv, lc, xp, mreal, nbasis


def _to_x(xp, nbasis, y):
    """Map free parameters (3m, m) to the complex vector family X."""
    twom = xp.shape[0]
    cols = nbasis @ y                      # (4m, m) real
    return xp + cols[:twom, :] + 1j * cols[twom:, :]


def _grad_to_y(nbasis, gc):
    twom = gc.shape[0]
    stacked = np.concatenate([gc.real, gc.imag], axis=0)
    return nbasis.T @ stacked


def _penalty_objective(y_flat, shape, xp, nbasis, g, mu, lam=None):
    y = y_flat.reshape(shape)
    x = _to_x(xp, nbasis, y)
    p = x.conj().T @ x
    s = p.imag
    f = float(np.sum(g * p.real)) + mu * float(np.sum(s * s))
    gc = 2.0 * (x @ g) + 4.0 * mu * (1j * (x @ s))
    if lam is not None:
        f += float(np.sum(lam * s))
        gc += 2.0 * (1j * (x @ lam))
    return f, _grad_to_y(nbasis, gc).reshape(-1)


def minimize(problem):
    """Best feasible value of Tr(G Re X*X) over seeded multi-start runs."""
    import scipy.optimize
    gram, g, js, jsinv, lc, xp, mreal, nbasis = _setup(problem)
    m = g.shape[0]
    shape = (nbasis.shape[1], m)
    stats = []
    best = None
    any_converged = False
    for r in range(int(problem.restarts)):
        if r == 0:
            y0 = np.zeros(shape)
        else:
            rng = np.random.default_rng([int(problem.seed), r])
            y0 = 0.3 * rng.standard_normal(shape)
        y = y0
        converged = True
        try:
            for mu in problem.penalties:
                res = scipy.optimize.minimize(
                    _penalty_objective, y.reshape(-1),
                    args=(shape, xp, nbasis, g, mu),
                    method="L-BFGS-B", jac=True,
                    options={"gtol": problem.grad_tol,
                             "ftol": 1e-17,
                             "maxiter": problem.maxiter,
                             "maxcor": 30})
                y = res.x.reshape(shape)
                if not np.all(np.isfinite(y)):
                    raise FloatingPointError("non-finite iterate")
            if problem.penalties:
                # multiplier refinement: quasi-Newton stalls with a projected
                # gradient ~1e-6 at the stiff end of the ladder, so polish at
                # a moderate mu where the landscape is well conditioned and
                # absorb the constraint force 2*mu*Im(X*X) into a fixed
                # antisymmetric multiplier
                x = _to_x(xp, nbasis, y)
                s = (x.conj().T @ x).imag
                viol = matkernel.mnorm(s)
                if viol > 1e-13:
                    mu_al = problem.penalties[min(1, len(problem.penalties) - 1)]
                    lam = 2.0 * problem.penalties[-1] * s
                    lam = 0.5 * (lam - lam.T)
                    best_y, best_viol = y, viol
                    for _ in range(5):
                        res = scipy.optimize.minimize(
                            _penalty_objective, y.reshape(-1),
                            args=(shape, xp, nbasis, g, mu_al, lam),
                            method="L-BFGS-B", jac=True,
                            options={"gtol": min(problem.grad_tol, 1e-11),
                                     "ftol": 1e-17,
                                     "maxiter": problem.maxiter,
                                     "maxcor": 30})
                        y = res.x.reshape(shape)
                        if not np.all(np.isfinite(y)):
                            raise FloatingPointError("non-finite iterate")
                        x = _to_x(xp, nbasis, y)
                        s = (x.conj().T @ x).imag
                        viol = matkernel.mnorm(s)
                        if viol < best_viol:
                            best_y, best_viol = y, viol
                        if viol <= 1e-12:
                            break
                        lam = lam + 2.0 * mu_al * s
                        lam = 0.5 * (lam - lam.T)
                    y = best_y
        except FloatingPointError:
            stats.append(RestartStat(restart=r, value=math.nan,
                                     residual=math.inf, feasible=False,
                                     converged=False))
            continue
        x = _to_x(xp, nbasis, y)
        p = x.conj().T @ x
        res_im = matkernel.mnorm(p.imag)
        res_lin = matkernel.mnorm((x.conj().T @ lc).real - np.eye(m))
        residual = max(res_im, res_lin)
        value = float(np.sum(g * p.real))
        feasible = residual <= problem.residual_tol
        any_converged = True
        stats.append(RestartStat(restart=r, value=value, residual=residual,
                                 feasible=feasible, converged=converged))
        if feasible and (best is None or (value, r) < (best[0], best[1])):
            best = (value, r, x, {"im_xx": res_im, "unbiasedness": res_lin})
    if best is None:
        if not any_converged:
            raise NonConvergence(f"all {problem.restarts} restarts failed numerically")
        raise Infeasible(
            f"no restart reached residual {problem.residual_tol:g}; "
            f"best residual {min(s.residual for s in stats):.3e}")
    value, _, x, residuals = best
    dim = 2 * m + 1
    xfull = np.zeros((dim, m), dtype=complex)
    xfull[1:, :] = x
    phi = np.zeros(dim, dtype=complex)
    phi[0] = 1.0
    lfull = np.zeros((dim, m), dtype=complex)
    lfull[1:, :] = lc
    sld = float(np.trace(g @ jsinv))
    if value < sld - 1e-6:
        raise NonConvergence(
            f"accepted value {value!r} undercuts the SLD bound {sld!r}")
    return OracleResult(value=value, X=xfull, phi=phi, lifts=lfull,
                        residuals=residuals, restarts=stats, problem=problem)


@dataclass
class StationarityReport:
    Lambda: np.ndarray
    residual: float
    extras: dict


def _antisym_basis(m):
    mats = []
    for a in range(m):
        for b in range(a + 1, m):
            t = np.zeros((m, m))
            t[a, b] = 1.0
            t[b, a] = -1.0
            mats.append(t)
    return mats


def stationarity_certificate(result, problem=None):
    """Recover the antisymmetric multiplier and report the stationarity residual.

    The first-order condition at an optimum is X(G - i Lambda) = L V G for
    some real antisymmetric Lambda; Lambda is fit by linear least squares.
    For two-parameter problems the quadratic multiplier identities are also
    reported, and for coherent problems the spectrum of the scaled multiplier.
    """
    problem = result.problem if problem is None else problem
    x = result.X
    lifts = result.lifts
    g = matkernel.symmetrize(np.asarray(problem.G, dtype=float))
    m = g.shape[0]
    v = matkernel.symmetrize((x.conj().T @ x).real)
    c = x @ g - lifts @ (v @ g)
    basis = _antisym_basis(m)
    if basis:
        cols = []
        for t in basis:
            a = 1j * (x @ t)
            cols.append(np.concatenate([a.real.reshape(-1), a.imag.reshape(-1)]))
        design = np.column_stack(cols)
        target = np.concatenate([c.real.reshape(-1), c.imag.reshape(-1)])
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        lam = sum(k * t for k, t in zip(coef, basis))
    else:
        lam = np.zeros((m, m))
    residual = matkernel.mnorm(x @ (g - 1j * lam) - lifts @ (v @ g))
    extras = {}
    gram = 0.5 * (np.asarray(problem.gram, dtype=complex)
                  + np.asarray(problem.gram, dtype=complex).conj().T)
    js = matkernel.symmetrize(gram.real)
    jt = matkernel.antisymmetrize(gram.imag)
    if m == 2:
        e1 = g @ v @ g - lam @ v @ lam - g @ v @ js @ v @ g
        e2 = g @ v @ lam + lam @ v @ g + g @ v @ jt @ v @ g
        extras["quadratic_sym"] = matkernel.mnorm(e1)
        extras["quadratic_antisym"] = matkernel.mnorm(e2)
    from qcrb import analysis
    from qcrb.model import FisherData
    fd = FisherData(JS=js, Jt=jt, gram=gram)
    try:
        coherent = analysis.beta_spectrum(fd).classification == "coherent"
    except QcrbError:
        coherent = False
    if coherent and matkernel.psd_eig(g)[2].all():
        isq = matkernel.psd_powers(g, -0.5)[0]
        ev = np.linalg.eigvals(isq @ lam @ isq)
        extras["multiplier_spectrum"] = np.sort(np.abs(ev.imag))
    return StationarityReport(Lambda=lam, residual=residual, extras=extras)


def feasible_scan(problem, v_target):
    """Can some X meet the constraints with Re X*X = V_target?

    Runs the same penalty machinery on the squared residuals and reports
    whether they drop below 1e-5 max-entry.
    """
    import scipy.optimize
    gram, g, js, jsinv, lc, xp, mreal, nbasis = _setup(problem)
    m = g.shape[0]
    vt = matkernel.symmetrize(np.asarray(v_target, dtype=float))
    shape = (nbasis.shape[1], m)

    def objective(y_flat):
        y = y_flat.reshape(shape)
        x = _to_x(xp, nbasis, y)
        p = x.conj().T @ x
        rr = p.real - vt
        s = p.imag
        f = float(np.sum(rr * rr)) + float(np.sum(s * s))
        gc = 4.0 * (x @ rr) + 4.0 * (1j * (x @ s))
        return f, _grad_to_y(nbasis, gc).reshape(-1)

    best = math.inf
    for r in range(max(4, int(problem.restarts))):
        if r == 0:
            y0 = np.zeros(shape)
        else:
            rng = np.random.default_rng([int(problem.seed), 7919, r])
            y0 = 0.3 * rng.standard_normal(shape)
        res = scipy.optimize.minimize(
            objective, y0.reshape(-1), method="L-BFGS-B", jac=True,
            options={"gtol": 1e-12, "ftol": 1e-17, "maxiter": problem.maxiter})
        x = _to_x(xp, nbasis, res.x.reshape(shape))
        p = x.conj().T @ x
        resid = max(matkernel.mnorm(p.real - vt), matkernel.mnorm(p.imag))
        best = min(best, resid)
        if best <= 1e-6:
            break
    return bool(best <= 1e-5)
