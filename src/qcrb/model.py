"""Pure-state models: catalog families, tangent frames, Fisher data.

A model is a parametric family theta -> |phi(theta)> of unit vectors in C^d,
given by one callable `state: theta -> (phi, dphi)` that returns the state and
the d x m matrix of its derivative columns d_i phi. The tangent frame at a
point calls it once and carries the horizontal lifts
l_i = 2 (I - |phi><phi|) d_i phi, which satisfy <phi|l_i> = 0 and reconstruct
d_i rho = (|l_i><phi| + |phi><l_i|)/2. The Gram matrix L*L splits into the
real symmetric Fisher matrix JS and the real antisymmetric Jt.

A `state` may return the frame up to a unitary fixed at theta and a phase
gauge (dphi may differ by an imaginary multiple of phi): the lifts change by
that unitary and the Gram matrix not at all. Only quasi-classical and
one-parameter models are measured on the model's own space, and they need
only one consistent frame; every other PVM lives in the Naimark embedding,
which is built from the Fisher data alone.

The spin `state` eigendecomposes its generator once and takes phi and dphi
from that decomposition (matkernel.expm_frechet_hermitian). The Fock families
return their frame transported by D(theta)^dagger, since D^dagger d_i D is the
displacement generator plus a c-number: length-d vectors only, with a Fock
truncation that depends on the squeezing and not on the displacement.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from . import analysis, matkernel
from .errors import (
    DegenerateModel,
    DomainError,
    NormDrift,
    SchemaError,
    SingularFisher,
    TruncationError,
)
from .matkernel import TOL, check

TRUNC_CAP = 4096


@dataclass
class PureStateModel:
    label: str
    dim: int
    m: int
    # theta -> (phi, dphi): the state, shape (d,), with |phi| = 1 up to TOL "norm",
    # and its derivative columns d_i phi, shape (d, m), both up to a unitary
    # fixed at theta and a phase gauge; see the module docstring
    state: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
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


def tangent_frame(model, theta):
    """Evaluate the state and its horizontal lifts at theta."""
    theta = np.array(theta, dtype=float)   # a copy, so the stored frame keeps its point
    if theta.shape != (model.m,):
        raise DomainError(f"theta must have length {model.m}")
    # the frame truncation growth verified is reused at its exact point
    if model._frame is not None and np.array_equal(theta, model._frame.theta):
        return model._frame
    phi, dphi = model.state(theta)
    phi = np.asarray(phi, dtype=complex)
    dphi = np.asarray(dphi, dtype=complex)
    nrm = np.linalg.norm(phi)
    check("norm", abs(nrm - 1.0), 0.0, NormDrift)
    phi = phi / nrm
    lifts = 2.0 * (dphi - np.outer(phi, phi.conj() @ dphi))
    # common-phase convention: largest component of phi made real positive
    k = int(np.argmax(np.abs(phi)))
    ph = phi[k] / abs(phi[k])
    phi = phi * ph.conjugate()
    lifts = lifts * ph.conjugate()
    norms = np.linalg.norm(lifts, axis=0)
    if np.any(norms < TOL["lift_norm"]):
        raise DegenerateModel(f"lift norms {norms} contain a vanishing direction")
    stacked = np.vstack([lifts.real, lifts.imag])
    s = np.linalg.svd(stacked, compute_uv=False)
    if s[-1] ** 2 < TOL["eigen_dust"] * max(1.0, s[0] ** 2):
        raise DegenerateModel("lifts are R-linearly dependent at the dust level")
    return TangentFrame(theta=theta, phi=phi, lifts=lifts)


def fisher_data(frame):
    """Gram matrix of the lifts and its real/imaginary split."""
    gram = frame.lifts.conj().T @ frame.lifts
    gram = 0.5 * (gram + gram.conj().T)
    fd = FisherData(JS=matkernel.symmetrize(gram.real),
                    Jt=matkernel.antisymmetrize(gram.imag), gram=gram)
    spec = analysis.spectrum(fd)   # both decompositions are cached for later use
    spec.gram_root                 # raises GramNotPSD
    spec.js_inverses               # raises SingularFisher
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
    if abs(2 * x - round(2 * x)) > TOL["half_integer"]:
        raise DomainError(f"{name} must be a half-integer, got {x}")
    return round(2 * x) / 2.0


def catalog_spin_rotation(s, m_z, theta=None):
    """Rotated spin eigenstate exp(i theta1 (sin theta2 Sx - cos theta2 Sy)) |s, m_z>."""
    s = _check_half_integer(s, "s")
    m_z = _check_half_integer(m_z, "m_z")
    if s < 0.5:
        raise DomainError(f"s must be at least 1/2, got {s}")
    if abs(m_z) > s + TOL["half_integer"]:
        raise DomainError(f"|m_z| = {abs(m_z)} exceeds s = {s}")
    if abs((s - m_z) - round(s - m_z)) > TOL["half_integer"]:
        raise DomainError(f"s - m_z must be an integer, got s={s}, m_z={m_z}")
    d = int(round(2 * s + 1))
    _, sx, sy = spin_operators(s)
    k0 = int(round(s - m_z))
    psi0 = np.zeros(d, dtype=complex)
    psi0[k0] = 1.0

    def generator(th2):
        return math.sin(th2) * sx - math.cos(th2) * sy

    def state(theta):
        a = generator(theta[1])
        da = math.cos(theta[1]) * sx + math.sin(theta[1]) * sy
        phi, (d2,) = matkernel.expm_frechet_hermitian(a, theta[0], psi0, [da])
        return phi, np.column_stack([1j * (a @ phi), d2])

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
        dim=d, m=2, state=state, theta0=theta,
    )


# --- Fock-space families ---

def _quadratures(v):
    """X v and P v on the truncated Fock space, X = (a + a^dagger)/sqrt2 and
    P = i(a^dagger - a)/sqrt2; the top level of a^dagger v falls off."""
    root = np.sqrt(np.arange(1, v.size))
    up = np.zeros_like(v)
    up[1:] = root * v[:-1]
    down = np.zeros_like(v)
    down[:-1] = root * v[1:]
    return (up + down) / math.sqrt(2), 1j * (up - down) / math.sqrt(2)


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
    if not all(_tail_mass(v, model.dim) < TOL["tail"] for v in vecs):
        return False
    model._frame = frame
    return True


def catalog_shifted_number(n, theta=None, trunc=None):
    """Displaced number state D(theta)|n> with D = exp(i(-theta1 X + theta2 P)).

    Its frame transported by D(theta)^dagger is phi = |n>, dphi = (-iX|n>, iP|n>),
    supported on n - 1..n + 1: exact in n + 2 Fock levels at every theta.
    """
    if n != int(n) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    th0 = np.zeros(2) if theta is None else np.asarray(theta, dtype=float)
    if th0.shape != (2,):
        raise DomainError("shifted number model takes a 2-vector theta")
    d = n + 2 if trunc is None else int(trunc)
    if d < n + 2:
        raise TruncationError(f"trunc={trunc} is below n + 2 = {n + 2}, "
                              f"which holds |n> and its lifts")
    phi = np.zeros(d, dtype=complex)
    phi[n] = 1.0
    x, p = _quadratures(phi)
    dphi = np.column_stack([-1j * x, 1j * p])

    def state(theta):
        return phi, dphi

    return PureStateModel(
        label=f"shifted_number(n={n})",
        dim=d, m=2, state=state, theta0=th0,
    )


def _grow_truncation(build, start, trunc, theta0):
    if trunc is not None:
        model = build(int(trunc))
        if not _frame_tails_ok(model, theta0):
            raise TruncationError(f"tail mass above {TOL['tail']} at trunc={trunc}")
        return model
    d = int(start)
    while True:
        if d > TRUNC_CAP:
            raise TruncationError(f"tail mass above {TOL['tail']} at the cap {TRUNC_CAP}")
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
    # |c_2k|^2 ~ tanh^{2k}(t3), so the state's mass falls per level at the rate
    # -ln tanh t3 = 2 atanh(e^{-2 t3}). The tail check on the state and its
    # level-weighted lifts passes once rate * levels reaches about 32; 8 levels
    # more cover weak squeezing. For large t3 this is about 16 e^{2 t3}. The
    # floor on the rate sends huge t3 past the cap instead of dividing by zero.
    start = math.ceil(8 + 16 / max(math.atanh(math.exp(-2 * th0[2])), 8 / TRUNC_CAP))

    def build(d):
        def state(theta):
            # frame transported by D(z)^dagger: phi = S(xi)|0> and its t3, t4
            # derivatives, and D^dagger d_i D = (-iP, iX) + c-number for t1, t2
            phi, dxi = _squeezed_vacuum(theta[2], theta[3], d)
            x, p = _quadratures(phi)
            return phi, np.column_stack([-1j * p, 1j * x, dxi])

        return PureStateModel(
            label="squeezed",
            dim=d, m=4, state=state, theta0=th0,
        )

    return _grow_truncation(build, start, trunc, th0)


def _squeezed_vacuum(t3, t4, d):
    """S(xi)|0> on d Fock levels, xi = t3 e^{-2i t4}, and its t3, t4 columns.

    The even amplitudes are c_2k = e^{-2ik t4} tanh^k(t3) a_k / sqrt(cosh t3)
    with a_0 = 1, a_{k+1} = a_k sqrt((2k+1)/(2k+2)). Their t3 derivative is
    written with tanh^(k-1), so it holds no quotient of small numbers as t3 -> 0.
    """
    k = np.arange((d + 1) // 2)
    a = np.ones(k.size)
    a[1:] = np.cumprod(np.sqrt((2 * k[:-1] + 1) / (2 * k[:-1] + 2)))
    t, ch = math.tanh(t3), math.cosh(t3)
    amp = a * np.exp(-2j * t4 * k) / math.sqrt(ch)
    tk = np.power(t, k)
    tk1 = np.power(t, np.maximum(k - 1, 0))
    phi = np.zeros(d, dtype=complex)
    phi[::2] = amp * tk
    dxi = np.zeros((d, 2), dtype=complex)
    dxi[::2, 0] = amp * (k * tk1 / (ch * ch) - 0.5 * t * tk)
    dxi[::2, 1] = -2j * k * phi[::2]
    # the levels cut off carry norm; the tail check decides whether they matter
    nrm = np.linalg.norm(phi)
    return phi / nrm, dxi / nrm


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
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SchemaError(f"{what} must be an array of [re, im] pairs") from exc
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what} entries must be finite")
    return arr[:, 0] + 1j * arr[:, 1]


def custom_model(dim, m, phi, dphi, theta):
    """Model defined by a state and derivative table at one point."""
    phi = np.asarray(phi, dtype=complex).reshape(dim)
    dphi = np.asarray(dphi, dtype=complex).reshape(m, dim).T
    theta0 = np.asarray(theta, dtype=float).reshape(m)
    check("norm", abs(np.linalg.norm(phi) - 1.0), 0.0, NormDrift)

    def state(th):
        v = phi + dphi @ (np.asarray(th, dtype=float) - theta0)
        return v / np.linalg.norm(v), dphi

    return PureStateModel(label="custom", dim=dim, m=m, state=state, theta0=theta0)


def _is_number(v):
    """A finite number; json also reads NaN and +-Infinity, which are not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:   # an int beyond the float range
        return False


_KINDS = {   # config value kind: (test, description)
    "number": (_is_number, "a finite number"),
    "integer": (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    "count": (lambda v: _is_number(v) and isinstance(v, int) and v >= 1, "an integer >= 1"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "numbers": (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of finite numbers"),
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
