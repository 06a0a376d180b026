"""Pure-state models: catalog families, tangent frames, Fisher data.

A model is a parametric family theta -> |phi(theta)> of unit vectors in C^d,
given by one callable `state: theta -> (phi, dphi)` that returns the state and
the d x m matrix of its derivative columns d_i phi. The tangent frame at a
point calls it once and carries the horizontal lifts
l_i = 2 (I - |phi><phi|) d_i phi, which satisfy <phi|l_i> = 0 and reconstruct
d_i rho = (|l_i><phi| + |phi><l_i|)/2. The Gram matrix L*L splits into the
real symmetric Fisher matrix JS and the real antisymmetric Jt. The frame's one
SVD of the stacked lifts [Re L; Im L], which checks them for degeneracy, is
carried into the Fisher data: `analysis.Spectrum` reads JS^{+-1/2} and the
complex structure K from it, never from the Gram.

A `state` may return the frame up to a unitary fixed at theta and a phase
gauge (dphi may differ by an imaginary multiple of phi): the lifts change by
that unitary and the Gram matrix not at all. Only quasi-classical and
one-parameter models are measured on the model's own space, and they need
only one consistent frame; every other PVM lives in the Naimark embedding,
which is built from the Fisher data alone.

The catalog families take their frames in closed form, with no decomposition
at a working point. The spin `state` takes phi and dphi from one
eigendecomposition of S_y per s, shared by every model of that s, and is
exact in the |s,m> basis. The Fock families return their frame transported by
a unitary fixed at theta that undoes the displacement (and the squeezing): the
displaced number state |n> is exact in n + 2 Fock levels and the displaced
squeezed vacuum in 3, at every theta.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from . import matkernel
from .errors import (
    DegenerateModel,
    DomainError,
    NonFinite,
    NormDrift,
    SchemaError,
    SingularFisher,
    TruncationError,
)
from .matkernel import TOL, check


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


@dataclass
class TangentFrame:
    theta: np.ndarray
    phi: np.ndarray          # unit vector, shape (d,)
    lifts: np.ndarray        # shape (d, m), column i = |l_i>
    svd: Optional[tuple] = None   # matkernel.lift_svd of the lifts


@dataclass
class FisherData:
    JS: np.ndarray           # real symmetric, positive definite
    Jt: np.ndarray           # real antisymmetric
    gram: np.ndarray         # L*L, Hermitian PSD
    # (U, s, Vt) of the lifts [Re L; Im L], or None for a bare Gram, which
    # analysis.Spectrum then factors once through its PSD root
    svd: Optional[tuple] = field(default=None, repr=False, compare=False)
    # analysis.Spectrum cache: the fields above must not change once it is set
    _spectrum: object = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_gram(cls, gram, svd=None):
        """The Hermitian part of a lift Gram and its real/imaginary split."""
        gram = np.asarray(gram, dtype=complex)
        gram = 0.5 * (gram + gram.conj().T)
        return cls(JS=matkernel.symmetrize(gram.real), Jt=matkernel.antisymmetrize(gram.imag),
                   gram=gram, svd=svd)


def tangent_frame(model, theta):
    """Evaluate the state and its horizontal lifts at theta."""
    theta = np.array(theta, dtype=float)   # a copy, so the frame keeps its point
    if theta.shape != (model.m,):
        raise DomainError(f"theta must have length {model.m}")
    phi, dphi = model.state(theta)
    phi = np.asarray(phi, dtype=complex)
    dphi = np.asarray(dphi, dtype=complex)
    nrm = np.linalg.norm(phi)
    check("norm", abs(nrm - 1.0), 1.0, NormDrift)
    phi = phi / nrm
    lifts = 2.0 * (dphi - np.outer(phi, phi.conj() @ dphi))
    # common-phase convention: the largest component of phi made real positive,
    # the lowest index among those tied with it, so roundoff cannot pick
    mag = np.abs(phi)
    k = int(np.argmax(mag >= (1.0 - TOL["phase_tie"]) * mag.max()))
    ph = phi[k] / abs(phi[k])
    phi = phi * ph.conjugate()
    lifts = lifts * ph.conjugate()
    return TangentFrame(theta=theta, phi=phi, lifts=lifts,
                        svd=matkernel.lift_svd(lifts, DegenerateModel))


def fisher_data(frame):
    """Gram matrix of the lifts, its real/imaginary split and the frame's SVD."""
    return FisherData.from_gram(frame.lifts.conj().T @ frame.lifts, svd=frame.svd)


# --- spin rotation family ---

@functools.lru_cache(maxsize=16)
def _spin_tables(s):
    """m values, S_+ coefficients and S_y = V diag(mu) V^dagger for spin s.

    Basis |s,m> with m = s..-s, and plus[k] = <m_k|S_+|m_(k+1)>. S_y does not
    depend on theta, so it is decomposed once per s; the arrays are shared by
    every model of that s and read-only.
    """
    d = int(round(2 * s + 1))
    mvals = s - np.arange(d)
    plus = np.sqrt(s * (s + 1) - mvals[1:] * (mvals[1:] + 1))
    mu, v = matkernel.hermitian_eig(np.diag(-0.5j * plus, 1) + np.diag(0.5j * plus, -1))
    for a in (mvals, plus, mu, v):
        a.setflags(write=False)
    return mvals, plus, mu, v


def _check_half_integer(x, name):
    if abs(2 * x - round(2 * x)) > TOL["half_integer"]:
        raise DomainError(f"{name} must be a half-integer, got {x}")
    return round(2 * x) / 2.0


def catalog_spin_rotation(s, m_z, theta=None):
    """Rotated spin eigenstate exp(i theta1 A) |s, m_z>, A = sin theta2 Sx - cos theta2 Sy.

    A = Z (-S_y) Z^dagger with Z = exp(-i theta2 S_z) diagonal, so up to the phase
    e^{i theta2 m_z} the state is phi = Z V e^{-i theta1 mu} V^dagger |m_z>, and
    its columns are i A phi (tridiagonal) and -i S_z phi: one matrix-vector
    product per frame, in the |s,m> basis.
    """
    s = _check_half_integer(s, "s")
    m_z = _check_half_integer(m_z, "m_z")
    if s < 0.5:
        raise DomainError(f"s must be at least 1/2, got {s}")
    if abs(m_z) > s + TOL["half_integer"]:
        raise DomainError(f"|m_z| = {abs(m_z)} exceeds s = {s}")
    if abs((s - m_z) - round(s - m_z)) > TOL["half_integer"]:
        raise DomainError(f"s - m_z must be an integer, got s={s}, m_z={m_z}")
    mvals, plus, mu, v = _spin_tables(s)
    row = v[int(round(s - m_z))].conj()   # V^dagger |m_z>

    def state(theta):
        phi = np.exp(-1j * theta[1] * mvals) * (v @ (np.exp(-1j * theta[0] * mu) * row))
        # A = (i/2) e^{-i theta2} S_+ - (i/2) e^{i theta2} S_-
        e = complex(math.cos(theta[1]), math.sin(theta[1]))
        aphi = np.zeros_like(phi)
        aphi[:-1] = (0.5j * e.conjugate()) * plus * phi[1:]
        aphi[1:] -= (0.5j * e) * plus * phi[:-1]
        return phi, np.column_stack([1j * aphi, -1j * mvals * phi])

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
        dim=mvals.size, m=2, state=state, theta0=theta,
    )


# --- Fock-space families ---

def catalog_shifted_number(n, theta=None, trunc=None):
    """Displaced number state D(theta)|n> with D = exp(i(-theta1 X + theta2 P)).

    Its frame transported by D(theta)^dagger is phi = |n>, dphi = (-iX|n>, iP|n>),
    supported on n - 1..n + 1: exact in n + 2 Fock levels at every theta. An
    explicit `trunc` pads these vectors with zeros.
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
    # X|n> = (up|n+1> + down|n-1>), P|n> = i(up|n+1> - down|n-1>)
    up, down = math.sqrt(n + 1) / math.sqrt(2), math.sqrt(n) / math.sqrt(2)
    dphi = np.zeros((d, 2), dtype=complex)
    dphi[n + 1] = [-1j * up, -up]
    if n:
        dphi[n - 1] = [-1j * down, down]

    def state(theta):
        return phi, dphi

    return PureStateModel(
        label=f"shifted_number(n={n})",
        dim=d, m=2, state=state, theta0=th0,
    )


def catalog_squeezed(theta):
    """Displaced squeezed vacuum D(z)S(xi)|0>, z=(t1+i t2)/sqrt2, xi=t3 e^{-2i t4}.

    Its frame transported by e^{i t4 N} S(xi)^dagger D(z)^dagger (N the number
    operator) is exact in three Fock levels at every theta. D^dagger d_i D is
    (-iP, iX) plus a c-number for t1, t2, and the Bogoliubov relation
    S^dagger a S = a cosh t3 + a^dagger e^{-2i t4} sinh t3 maps both onto |1>;
    the t3 and t4 generators of S map |0> onto |2> plus a phase gauge term.
    Written in e^{+-t3}, cos t4 and sin t4, the |1> coefficients hold no
    cancellation. Past the float range of e^{t3} and sinh 2 t3 it raises NonFinite.
    """
    th0 = np.asarray(theta, dtype=float)
    if th0.shape != (4,):
        raise DomainError("squeezed model takes a 4-vector theta")
    if th0[2] < 0:
        raise DomainError(f"theta3 must be nonnegative, got {th0[2]}")
    if th0[2] == 0.0:
        # the theta4 direction degenerates: the JS eigenvalue sinh^2(2 t3)
        # collapses, so the Fisher matrix cannot be inverted
        raise SingularFisher("squeezed model is singular at theta3 = 0")
    phi = np.array([1.0, 0.0, 0.0], dtype=complex)

    def state(theta):
        t3, t4 = theta[2], theta[3]
        try:
            grow, shrink, sh2 = math.exp(t3), math.exp(-t3), math.sinh(2 * t3)
        except OverflowError:
            raise NonFinite(f"squeezed frame overflows at theta3 = {t3}") from None
        c, s = math.cos(t4) / math.sqrt(2), math.sin(t4) / math.sqrt(2)
        dphi = np.zeros((3, 4), dtype=complex)
        dphi[1, :2] = [complex(shrink * c, grow * s), complex(-shrink * s, grow * c)]
        dphi[2, 2:] = [1.0 / math.sqrt(2), -1j * sh2 / math.sqrt(2)]
        return phi, dphi

    return PureStateModel(
        label="squeezed",
        dim=3, m=4, state=state, theta0=th0,
    )


def squeezed_closed_forms(theta):
    """Closed-form JS and Jt of the squeezed model at theta.

    Past the float range of cosh 2 t3 and sinh^2 2 t3 it raises NonFinite.
    """
    th = np.asarray(theta, dtype=float)
    try:
        c = math.cosh(2 * th[2])
        s = math.sinh(2 * th[2])
    except OverflowError:
        raise NonFinite(f"squeezed closed forms overflow at theta3 = {th[2]}") from None
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
    return matkernel.check_finite(JS), Jt


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
    check("norm", abs(np.linalg.norm(phi) - 1.0), 1.0, NormDrift)

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


_CONFIG_KEYS = {   # model name: the keys its config may hold besides "model"
    "spin_rotation": {"s", "m_z", "theta"},
    "shifted_number": {"n", "theta", "trunc"},
    "squeezed": {"theta"},
    "custom": {"dim", "m", "phi", "dphi", "theta"},
}


def model_from_config(doc):
    """Build a PureStateModel from a parsed config document.

    A key the model does not read is a SchemaError that names it; only
    shifted_number takes a truncation.
    """
    if not isinstance(doc, dict):
        raise SchemaError("config document must be a JSON object")
    name = doc.get("model")
    if not isinstance(name, str) or name not in _CONFIG_KEYS:
        raise SchemaError(f"unknown model '{name}'")
    extra = sorted(str(k) for k in set(doc) - _CONFIG_KEYS[name] - {"model"})
    if "trunc" in extra:
        raise SchemaError(f"{name}: the model is exact as built and takes no 'trunc' key")
    if extra:
        raise SchemaError(f"{name}: unknown key " + ", ".join(f"'{k}'" for k in extra))
    if name == "spin_rotation":
        s = _require(doc, "s", "number", name)
        m_z = _require(doc, "m_z", "number", name)
        return catalog_spin_rotation(s, m_z, theta=_require(doc, "theta", "numbers", name))
    if name == "shifted_number":
        n = _require(doc, "n", "integer", name)
        trunc = None if doc.get("trunc") is None else _require(doc, "trunc", "count", name)
        return catalog_shifted_number(n, theta=_require(doc, "theta", "numbers", name),
                                      trunc=trunc)
    if name == "squeezed":
        return catalog_squeezed(_require(doc, "theta", "numbers", name))
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
