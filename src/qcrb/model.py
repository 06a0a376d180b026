"""Pure-state models: catalog families, tangent frames, Fisher data.

A model is a parametric family theta -> |phi(theta)> of unit vectors in C^d,
given by one callable `state: theta -> (phi, dphi)` that returns the state and
the d x m matrix of its derivative columns d_i phi. The tangent frame at a
point calls it once and carries the horizontal lifts
l_i = 2 (I - |phi><phi|) d_i phi, which satisfy <phi|l_i> = 0 and reconstruct
d_i rho = (|l_i><phi| + |phi><l_i|)/2. `fisher_data` takes the one SVD of the
stacked lifts [Re L; Im L], which checks them for degeneracy and overflow, and
builds the working point, an `analysis.FisherData`: the Gram matrix L*L,
split into the real symmetric Fisher matrix JS and the real antisymmetric Jt,
with that SVD, from which JS^{+-1/2} and the complex structure K are read,
never from the Gram.

A `state` may return the frame up to a unitary fixed at theta and a phase
gauge (dphi may differ by an imaginary multiple of phi): the lifts change by
that unitary and the Gram matrix not at all. Only quasi-classical and
one-parameter models are measured on the model's own space, and they need
only one consistent frame; every other PVM lives in the Naimark embedding,
which is built from the Fisher data alone.

The catalog families take their frames in closed form, with no decomposition
at a working point. Every catalog frame is transported by a unitary fixed at
theta that undoes the rotation, the displacement or the squeezing: the spin
state |m_z> is exact in 3 levels, |m_z +- 1> and itself, at every s, the
displaced number state |n> in n + 2 Fock levels and the displaced squeezed
vacuum in 3, at every theta. So every model is exact as built, and its config
names the model and the fields its builder takes, no other key
(`model_from_config`).
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import matkernel
from .analysis import FisherData
from .errors import (
    DegenerateModel,
    DomainError,
    NonFinite,
    NormDrift,
    SchemaError,
    SingularFisher,
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
    theta0: np.ndarray       # the working point the model was built at


@dataclass
class TangentFrame:
    """A state and its lifts at theta: the model's own (`tangent_frame`), or their
    2m+1 dimensional Naimark embedding (`measurement.naimark_frame`). Either
    carries its theta, which sampling adds to the outcome offsets. It takes
    no decomposition: `fisher_data` factors the lifts."""
    theta: np.ndarray        # the working point, shape (m,)
    phi: np.ndarray          # unit vector, shape (d,)
    lifts: np.ndarray        # shape (d, m), column i = |l_i>


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
    return TangentFrame(theta=theta, phi=phi, lifts=lifts)


def fisher_data(frame):
    """The working point of a frame: the lifts' SVD, their Gram and its split.

    The SVD is taken first, so lifts whose Gram would overflow raise NonFinite
    and degenerate ones DegenerateModel before the Gram is formed.
    """
    svd = matkernel.lift_svd(frame.lifts, DegenerateModel)
    return FisherData.from_gram(frame.lifts.conj().T @ frame.lifts, svd=svd)


# --- spin rotation family ---

def _check_half_integer(x, name):
    if abs(2 * x - round(2 * x)) > TOL["half_integer"]:
        raise DomainError(f"{name} must be a half-integer, got {x}")
    return round(2 * x) / 2.0


def catalog_spin_rotation(s, m_z, theta):
    """Rotated spin eigenstate exp(i theta1 A) |s, m_z>, A = sin theta2 Sx - cos theta2 Sy.

    Its frame transported by exp(i theta1 A)^dagger is phi = |m_z> and
    dphi = (iA|m_z>, i sin theta1 B|m_z>), B = dA/dtheta2 = cos theta2 Sx +
    sin theta2 Sy, less the phase gauge term i m_z (1 - cos theta1)|m_z>: exact
    in the three levels (|m_z+1>, |m_z>, |m_z-1>) at every s. With
    e = e^{i theta2}, A = (i/2)(conj(e) S_+ - e S_-) and B = (conj(e) S_+ + e S_-)/2;
    the ladder coefficients are written as products, with no cancellation. An s
    above 9.48e153, where the lift Gram entry 2 s(s+1) leaves the float range, is
    a DomainError.
    """
    s = _check_half_integer(s, "s")
    m_z = _check_half_integer(m_z, "m_z")
    if s < 0.5:
        raise DomainError(f"s must be at least 1/2, got {s}")
    if abs(m_z) > s + TOL["half_integer"]:
        raise DomainError(f"|m_z| = {abs(m_z)} exceeds s = {s}")
    if abs((s - m_z) - round(s - m_z)) > TOL["half_integer"]:
        raise DomainError(f"s - m_z must be an integer, got s={s}, m_z={m_z}")
    # 2 s(s+1) overflows from 9.4807519081091765e153, and the lifts' largest
    # singular value sqrt(2 s(s+1)), as the SVD rounds it, reaches lift_svd's
    # sqrt(float max) a few floats below that (measured: 9.480751908109173e153
    # passes at theta1 = pi/2, the next float does not)
    if not s <= 9.48e153:
        raise DomainError(f"s = {s} is too large: its lift Gram 2 s(s+1) leaves the float range")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2,):
        raise DomainError("spin rotation model takes a 2-vector theta")
    if not (0.0 < theta[0] < math.pi):
        raise DomainError(f"theta1 = {theta[0]} outside (0, pi)")
    if not (0.0 <= theta[1] < 2 * math.pi):
        raise DomainError(f"theta2 = {theta[1]} outside [0, 2*pi)")
    # <m_z +- 1|S_+-|m_z> / 2
    up = math.sqrt((s - m_z) * (s + m_z + 1)) / 2
    down = math.sqrt((s + m_z) * (s - m_z + 1)) / 2
    phi = np.array([0.0, 1.0, 0.0], dtype=complex)

    def state(theta):
        e = complex(math.cos(theta[1]), math.sin(theta[1]))
        b = np.array([up * e.conjugate(), 0.0, down * e])   # B|m_z>
        a = np.array([-b[0], 0.0, b[2]])                     # iA|m_z>
        return phi, np.column_stack([a, (1j * math.sin(theta[0])) * b])

    return PureStateModel(
        label=f"spin_rotation(s={s}, m_z={m_z})",
        dim=3, m=2, state=state, theta0=theta,
    )


# --- Fock-space families ---

def catalog_shifted_number(n, theta):
    """Displaced number state D(theta)|n> with D = exp(i(-theta1 X + theta2 P)).

    Its frame transported by D(theta)^dagger is phi = |n>, dphi = (-iX|n>, iP|n>),
    supported on n - 1..n + 1: exact in d = n + 2 Fock levels at every theta.
    """
    if n != int(n) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    th0 = np.asarray(theta, dtype=float)
    if th0.shape != (2,):
        raise DomainError("shifted number model takes a 2-vector theta")
    d = n + 2
    phi = matkernel.zeros(d, complex)
    phi[n] = 1.0
    # X|n> = (up|n+1> + down|n-1>), P|n> = i(up|n+1> - down|n-1>)
    up, down = math.sqrt(n + 1) / math.sqrt(2), math.sqrt(n) / math.sqrt(2)
    dphi = matkernel.zeros((d, 2), complex)
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


def _custom_from_config(dim, m, phi, dphi, theta):
    """custom_model on config fields: phi and the m rows of dphi as [re, im]
    pairs, each of length dim, and theta of length m (SchemaError)."""
    phi = _parse_complex_vector(phi, "phi")
    if len(dphi) != m:
        raise SchemaError(f"custom: dphi must have m = {m} rows")
    dphi = [_parse_complex_vector(r, "dphi") for r in dphi]
    if len(theta) != m:
        raise SchemaError(f"custom: theta must have length m = {m}")
    if phi.shape != (dim,) or any(dv.shape != (dim,) for dv in dphi):
        raise SchemaError("custom: phi/dphi lengths must equal dim")
    return custom_model(dim, m, phi, np.array(dphi), theta)


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


_CONFIGS = {   # model name: its builder and the (key, kind) fields it takes, in order
    "spin_rotation": (catalog_spin_rotation,
                      (("s", "number"), ("m_z", "number"), ("theta", "numbers"))),
    "shifted_number": (catalog_shifted_number, (("n", "integer"), ("theta", "numbers"))),
    "squeezed": (catalog_squeezed, (("theta", "numbers"),)),
    "custom": (_custom_from_config, (("dim", "count"), ("m", "count"), ("phi", "list"),
                                     ("dphi", "list"), ("theta", "numbers"))),
}


def model_from_config(doc):
    """Build a PureStateModel from a parsed config document.

    `_CONFIGS` holds each model's fields: a key the model does not read is a
    SchemaError that names it, and so is a missing or ill-typed field. The
    builder is called on the fields in their order.
    """
    if not isinstance(doc, dict):
        raise SchemaError("config document must be a JSON object")
    name = doc.get("model")
    if not isinstance(name, str) or name not in _CONFIGS:
        raise SchemaError(f"unknown model '{name}'")
    build, fields = _CONFIGS[name]
    extra = sorted(str(k) for k in set(doc) - {key for key, _ in fields} - {"model"})
    if extra:
        raise SchemaError(f"{name}: unknown key " + ", ".join(f"'{k}'" for k in extra))
    return build(*[_require(doc, key, kind, name) for key, kind in fields])
