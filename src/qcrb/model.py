"""Pure-state models: catalog families, derivatives, tangent frames, Fisher data.

A model is a parametric family theta -> |phi(theta)> of unit vectors in C^d.
The tangent frame at a point carries the horizontal lifts
l_i = 2 (I - |phi><phi|) d_i phi, which satisfy <phi|l_i> = 0 and reconstruct
d_i rho = (|l_i><phi| + |phi><l_i|)/2. The Gram matrix L*L splits into the
real symmetric Fisher matrix JS and the real antisymmetric Jt.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from . import analysis, matkernel
from .errors import (
    DegenerateModel,
    DomainError,
    GramNotPSD,
    NormDrift,
    SchemaError,
    SingularFisher,
    TruncationError,
)

FD_STEP = 1e-6
TAIL_TOL = 1e-10
TRUNC_CAP = 4096


@dataclass
class PureStateModel:
    label: str
    dim: int
    m: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    derivative_mode: str = "analytic"   # or "finite_difference"
    fd_step: float = FD_STEP
    theta0: Optional[np.ndarray] = None
    # tangent frame at theta0 that truncation growth verified; see tangent_frame
    _frame: Optional["TangentFrame"] = field(
        default=None, init=False, repr=False, compare=False)


@dataclass
class TangentFrame:
    theta: np.ndarray
    phi: np.ndarray          # unit vector, shape (d,)
    lifts: np.ndarray        # shape (d, m), column i = |l_i>


@dataclass
class FisherData:
    JS: np.ndarray           # real symmetric, positive definite
    Jt: np.ndarray           # real antisymmetric
    gram: np.ndarray         # L*L, Hermitian PSD
    # analysis.Spectrum cache: the fields above must not change once it is set
    _spectrum: object = field(default=None, init=False, repr=False, compare=False)


def _phase_align(ref, v):
    """Multiply v by the unit phase maximizing Re<ref|v>."""
    z = np.vdot(ref, v)
    if abs(z) < 1e-300:
        return v
    return v * (z.conjugate() / abs(z))


def _evaluate_state(model, theta):
    phi = np.asarray(model.evaluator(np.asarray(theta, dtype=float)), dtype=complex)
    nrm = np.linalg.norm(phi)
    if abs(nrm - 1.0) > 1e-8:
        raise NormDrift(f"state norm {nrm!r} deviates from 1 beyond 1e-8")
    return phi / nrm


def _fd_derivatives(model, theta, phi):
    theta = np.asarray(theta, dtype=float)
    cols = []
    for i in range(model.m):
        h = model.fd_step * max(1.0, abs(theta[i]))
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        pp = _phase_align(phi, _evaluate_state(model, tp))
        pm = _phase_align(phi, _evaluate_state(model, tm))
        cols.append((pp - pm) / (2.0 * h))
    return np.column_stack(cols)


def tangent_frame(model, theta):
    """Evaluate the state and its horizontal lifts at theta."""
    theta = np.array(theta, dtype=float)   # a copy, so the stored frame keeps its point
    if theta.shape != (model.m,):
        raise DomainError(f"theta must have length {model.m}")
    # the frame truncation growth verified is reused at its exact point
    if model._frame is not None and np.array_equal(theta, model._frame.theta):
        return model._frame
    phi = _evaluate_state(model, theta)
    if model.derivative_mode == "analytic" and model.derivative is not None:
        dphi = np.asarray(model.derivative(theta), dtype=complex)
        if dphi.shape != (model.dim, model.m):
            dphi = dphi.reshape(model.dim, model.m)
    else:
        dphi = _fd_derivatives(model, theta, phi)
    lifts = 2.0 * (dphi - np.outer(phi, phi.conj() @ dphi))
    # common-phase convention: largest component of phi made real positive
    k = int(np.argmax(np.abs(phi)))
    ph = phi[k] / abs(phi[k])
    phi = phi * ph.conjugate()
    lifts = lifts * ph.conjugate()
    norms = np.linalg.norm(lifts, axis=0)
    if np.any(norms < 1e-8):
        raise DegenerateModel(f"lift norms {norms} contain a vanishing direction")
    stacked = np.vstack([lifts.real, lifts.imag])
    s = np.linalg.svd(stacked, compute_uv=False)
    if s[-1] ** 2 < matkernel.EIGEN_DUST * max(1.0, s[0] ** 2):
        raise DegenerateModel("lifts are R-linearly dependent at the dust level")
    return TangentFrame(theta=theta, phi=phi, lifts=lifts)


def fisher_data(frame):
    """Gram matrix of the lifts and its real/imaginary split."""
    gram = frame.lifts.conj().T @ frame.lifts
    gram = 0.5 * (gram + gram.conj().T)
    if not matkernel.is_psd(gram):
        raise GramNotPSD("lift Gram has a negative eigenvalue beyond dust")
    fd = FisherData(JS=matkernel.symmetrize(gram.real),
                    Jt=matkernel.antisymmetrize(gram.imag), gram=gram)
    analysis.spectrum(fd).js_inverses   # raises SingularFisher; cached for later use
    return fd


# --- spin rotation family ---

def spin_operators(s):
    """S_z, S_x, S_y on the (2s+1)-dim space, basis |s,m> with m = s..-s."""
    d = int(round(2 * s + 1))
    mvals = s - np.arange(d)
    sz = np.diag(mvals).astype(complex)
    sp = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        m = mvals[k]
        sp[k - 1, k] = math.sqrt(s * (s + 1) - m * (m + 1))
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sz, sx, sy


def _check_half_integer(x, name):
    if abs(2 * x - round(2 * x)) > 1e-12:
        raise DomainError(f"{name} must be a half-integer, got {x}")
    return round(2 * x) / 2.0


def catalog_spin_rotation(s, m_z, theta=None):
    """Rotated spin eigenstate exp(i theta1 (sin theta2 Sx - cos theta2 Sy)) |s, m_z>."""
    s = _check_half_integer(s, "s")
    m_z = _check_half_integer(m_z, "m_z")
    if s < 0.5:
        raise DomainError(f"s must be at least 1/2, got {s}")
    if abs(m_z) > s + 1e-12:
        raise DomainError(f"|m_z| = {abs(m_z)} exceeds s = {s}")
    if abs((s - m_z) - round(s - m_z)) > 1e-12:
        raise DomainError(f"s - m_z must be an integer, got s={s}, m_z={m_z}")
    d = int(round(2 * s + 1))
    _, sx, sy = spin_operators(s)
    k0 = int(round(s - m_z))
    psi0 = np.zeros(d, dtype=complex)
    psi0[k0] = 1.0

    def generator(th2):
        return math.sin(th2) * sx - math.cos(th2) * sy

    def evaluator(theta):
        u = matkernel.expm_skew_hermitian(generator(theta[1]), theta[0])
        return u @ psi0

    def derivative(theta):
        a = generator(theta[1])
        da = math.cos(theta[1]) * sx + math.sin(theta[1]) * sy
        u = matkernel.expm_skew_hermitian(a, theta[0])
        phi = u @ psi0
        d1 = 1j * (a @ phi)
        f = scipy.linalg.expm_frechet(1j * theta[0] * a, 1j * theta[0] * da,
                                      compute_expm=False)
        d2 = f @ psi0
        return np.column_stack([d1, d2])

    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (2,):
            raise DomainError("spin rotation model takes a 2-vector theta")
        if not (0.0 < theta[0] < math.pi):
            raise DomainError(f"theta1 = {theta[0]} outside (0, pi)")
        if not (0.0 <= theta[1] < 2 * math.pi):
            raise DomainError(f"theta2 = {theta[1]} outside [0, 2*pi)")

    return PureStateModel(
        label=f"spin_rotation(s={s}, m_z={m_z})",
        dim=d, m=2, evaluator=evaluator, derivative=derivative,
        derivative_mode="analytic", theta0=theta,
    )


# --- Fock-space families ---

def ladder(d):
    """Annihilation operator on the d-dim truncated Fock space."""
    a = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        a[k - 1, k] = math.sqrt(k)
    return a


def _tail_mass(v, d):
    k = max(4, d // 16)
    nrm2 = float(np.sum(np.abs(v) ** 2))
    if nrm2 == 0.0:
        return 0.0
    return float(np.sum(np.abs(v[d - k:]) ** 2)) / nrm2


def _frame_tails_ok(model, theta):
    """True iff the frame at theta has no tail mass; the model keeps that frame."""
    frame = tangent_frame(model, theta)
    vecs = [frame.phi] + [frame.lifts[:, i] for i in range(model.m)]
    if not all(_tail_mass(v, model.dim) < TAIL_TOL for v in vecs):
        return False
    model._frame = frame
    return True


def catalog_shifted_number(n, theta=None, trunc=None):
    """Displaced number state D(theta)|n> with D = exp(i(-theta1 X + theta2 P))."""
    if n != int(n) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    th0 = np.zeros(2) if theta is None else np.asarray(theta, dtype=float)
    if th0.shape != (2,):
        raise DomainError("shifted number model takes a 2-vector theta")
    z2 = 0.5 * float(th0[0] ** 2 + th0[1] ** 2)
    start = n + math.ceil(12 + 8 * (z2 + 1.0))

    def build(d):
        a = ladder(d)
        x = (a + a.conj().T) / math.sqrt(2)
        p = 1j * (a.conj().T - a) / math.sqrt(2)
        psi0 = np.zeros(d, dtype=complex)
        psi0[n] = 1.0

        def evaluator(theta):
            h = -theta[0] * x + theta[1] * p
            return matkernel.expm_skew_hermitian(h, 1.0) @ psi0

        def derivative(theta):
            h = -theta[0] * x + theta[1] * p
            d1 = scipy.linalg.expm_frechet(1j * h, -1j * x, compute_expm=False) @ psi0
            d2 = scipy.linalg.expm_frechet(1j * h, 1j * p, compute_expm=False) @ psi0
            return np.column_stack([d1, d2])

        return PureStateModel(
            label=f"shifted_number(n={n})",
            dim=d, m=2, evaluator=evaluator, derivative=derivative,
            derivative_mode="analytic", theta0=th0,
        )

    return _grow_truncation(build, start, trunc, th0)


def _grow_truncation(build, start, trunc, theta0):
    if trunc is not None:
        model = build(int(trunc))
        if not _frame_tails_ok(model, theta0):
            raise TruncationError(f"tail mass above {TAIL_TOL} at trunc={trunc}")
        return model
    d = int(start)
    while True:
        if d > TRUNC_CAP:
            raise TruncationError(f"tail mass above {TAIL_TOL} at the cap {TRUNC_CAP}")
        model = build(d)
        if _frame_tails_ok(model, theta0):
            return model
        d *= 2


def catalog_squeezed(theta, trunc=None):
    """Displaced squeezed vacuum D(z)S(xi)|0>, z=(t1+i t2)/sqrt2, xi=t3 e^{-2i t4}."""
    th0 = np.asarray(theta, dtype=float)
    if th0.shape != (4,):
        raise DomainError("squeezed model takes a 4-vector theta")
    if th0[2] < 0:
        raise DomainError(f"theta3 must be nonnegative, got {th0[2]}")
    if th0[2] == 0.0:
        # the theta4 direction degenerates: the JS eigenvalue sinh^2(2 t3)
        # collapses, so the Fisher matrix cannot be inverted
        raise SingularFisher("squeezed model is singular at theta3 = 0")
    z2 = 0.5 * float(th0[0] ** 2 + th0[1] ** 2)
    start = math.ceil(12 + 8 * (z2 + math.exp(2 * th0[2])))

    def build(d):
        a = ladder(d)
        ad = a.conj().T
        a2 = a @ a
        ad2 = ad @ ad
        psi0 = np.zeros(d, dtype=complex)
        psi0[0] = 1.0

        def pieces(theta):
            z = (theta[0] + 1j * theta[1]) / math.sqrt(2)
            xi = theta[2] * np.exp(-2j * theta[3])
            k = z * ad - np.conj(z) * a
            w = 0.5 * (xi * ad2 - np.conj(xi) * a2)
            return z, xi, k, w

        def evaluator(theta):
            _, _, k, w = pieces(theta)
            dmat = matkernel.expm_skew_hermitian(-1j * k, 1.0)
            smat = matkernel.expm_skew_hermitian(-1j * w, 1.0)
            return dmat @ (smat @ psi0)

        def derivative(theta):
            _, xi, k, w = pieces(theta)
            dmat = matkernel.expm_skew_hermitian(-1j * k, 1.0)
            smat = matkernel.expm_skew_hermitian(-1j * w, 1.0)
            spsi = smat @ psi0
            dks = [(ad - a) / math.sqrt(2), 1j * (ad + a) / math.sqrt(2)]
            e4 = np.exp(-2j * theta[3])
            dws = [0.5 * (e4 * ad2 - np.conj(e4) * a2),
                   -1j * (xi * ad2 + np.conj(xi) * a2)]
            cols = []
            for dk in dks:
                cols.append(scipy.linalg.expm_frechet(k, dk, compute_expm=False) @ spsi)
            for dw in dws:
                cols.append(dmat @ (scipy.linalg.expm_frechet(w, dw, compute_expm=False) @ psi0))
            return np.column_stack(cols)

        return PureStateModel(
            label="squeezed",
            dim=d, m=4, evaluator=evaluator, derivative=derivative,
            derivative_mode="analytic", theta0=th0,
        )

    return _grow_truncation(build, start, trunc, th0)


def squeezed_closed_forms(theta):
    """Closed-form JS and Jt of the squeezed model at theta."""
    th = np.asarray(theta, dtype=float)
    c = math.cosh(2 * th[2])
    s = math.sinh(2 * th[2])
    c4 = math.cos(2 * th[3])
    s4 = math.sin(2 * th[3])
    JS = 2.0 * np.array([
        [c - s * c4, s * s4, 0.0, 0.0],
        [s * s4, c + s * c4, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, s * s],
    ])
    Jt = 2.0 * np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -s],
        [0.0, 0.0, s, 0.0],
    ])
    return JS, Jt


# --- custom models and config parsing ---

def _parse_complex_vector(rows, what):
    try:
        arr = np.asarray([[float(p[0]), float(p[1])] for p in rows], dtype=float)
    except (TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"{what} must be an array of [re, im] pairs") from exc
    return arr[:, 0] + 1j * arr[:, 1]


def custom_model(dim, m, phi, dphi, theta):
    """Model defined by a state and derivative table at one point."""
    phi = np.asarray(phi, dtype=complex).reshape(dim)
    dphi = np.asarray(dphi, dtype=complex).reshape(m, dim).T
    theta0 = np.asarray(theta, dtype=float).reshape(m)
    nrm = np.linalg.norm(phi)
    if abs(nrm - 1.0) > 1e-8:
        raise NormDrift(f"custom phi has norm {nrm!r}")

    def evaluator(th):
        v = phi + dphi @ (np.asarray(th, dtype=float) - theta0)
        return v / np.linalg.norm(v)

    def derivative(th):
        return dphi

    return PureStateModel(
        label="custom", dim=dim, m=m,
        evaluator=evaluator, derivative=derivative,
        derivative_mode="analytic", theta0=theta0,
    )


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_KINDS = {   # config value kind: (test, description)
    "number": (_is_number, "a number"),
    "integer": (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    "count": (lambda v: _is_number(v) and isinstance(v, int) and v >= 1, "an integer >= 1"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "numbers": (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"),
}


def _require(doc, key, kind, what):
    if key not in doc:
        raise SchemaError(f"{what}: missing key '{key}'")
    v = doc[key]
    test, description = _KINDS[kind]
    if not test(v):
        raise SchemaError(f"{what}: key '{key}' must be {description}")
    if kind == "number":
        return float(v)
    return [float(t) for t in v] if kind == "numbers" else v


def _trunc(doc, what):
    return None if doc.get("trunc") is None else _require(doc, "trunc", "count", what)


def model_from_config(doc):
    """Build a PureStateModel from a parsed config document."""
    if not isinstance(doc, dict):
        raise SchemaError("config document must be a JSON object")
    name = doc.get("model")
    if name == "spin_rotation":
        s = _require(doc, "s", "number", name)
        m_z = _require(doc, "m_z", "number", name)
        return catalog_spin_rotation(s, m_z, theta=_require(doc, "theta", "numbers", name))
    if name == "shifted_number":
        n = _require(doc, "n", "integer", name)
        return catalog_shifted_number(n, theta=_require(doc, "theta", "numbers", name),
                                      trunc=_trunc(doc, name))
    if name == "squeezed":
        return catalog_squeezed(_require(doc, "theta", "numbers", name),
                                trunc=_trunc(doc, name))
    if name == "custom":
        dim = _require(doc, "dim", "count", name)
        m = _require(doc, "m", "count", name)
        phi = _parse_complex_vector(_require(doc, "phi", "list", name), "phi")
        dphi_rows = _require(doc, "dphi", "list", name)
        if len(dphi_rows) != m:
            raise SchemaError(f"custom: dphi must have m = {m} rows")
        dphi = [_parse_complex_vector(r, "dphi") for r in dphi_rows]
        theta = _require(doc, "theta", "numbers", name)
        if len(theta) != m:
            raise SchemaError(f"custom: theta must have length m = {m}")
        if phi.shape != (dim,) or any(dv.shape != (dim,) for dv in dphi):
            raise SchemaError("custom: phi/dphi lengths must equal dim")
        return custom_model(dim, m, phi, np.array(dphi), theta)
    raise SchemaError(f"unknown model '{name}'")
