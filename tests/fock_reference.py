"""Fock-space reference for the squeezed model: the independent check of its three-level frame.

`squeezed_frame(theta, d)` builds S(xi)|0> on d Fock levels from its
amplitudes, with the t1, t2 columns (-iP, iX) of the frame transported by
D(z)^dagger and the t3, t4 columns from differentiating the amplitudes. It
shares no code with `qcrb.model.catalog_squeezed`, which writes its frame in
three levels through the Bogoliubov relation; the lift Grams of the two agree
wherever the truncation holds the state. `start_truncation` sizes the
truncation so that `tail_mass` stays below TAIL, up to theta3 of about 2.7.
"""

import math

import numpy as np

TAIL = 1e-10   # Fock tail mass of the state and its lifts at the start truncation


def quadratures(v):
    """X v and P v on the truncated Fock space, X = (a + a^dagger)/sqrt2 and
    P = i(a^dagger - a)/sqrt2; the top level of a^dagger v falls off."""
    root = np.sqrt(np.arange(1, v.size))
    up = np.zeros_like(v)
    up[1:] = root * v[:-1]
    down = np.zeros_like(v)
    down[:-1] = root * v[1:]
    return (up + down) / math.sqrt(2), 1j * (up - down) / math.sqrt(2)


def squeezed_vacuum(t3, t4, d):
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
    # the levels cut off carry norm; tail_mass says whether they matter
    nrm = np.linalg.norm(phi)
    return phi / nrm, dxi / nrm


def start_truncation(t3):
    """Levels at which the state and its lifts have tail mass below TAIL.

    |c_2k|^2 ~ tanh^{2k}(t3) falls per level at the rate 2 atanh(e^{-2 t3});
    the tail passes once rate * levels reaches about 32, and 8 levels more
    cover weak squeezing. For large t3 this is about 16 e^{2 t3}.
    """
    return math.ceil(8 + 16 / math.atanh(math.exp(-2 * t3)))


def squeezed_frame(theta, d=None):
    """(phi, dphi) of D(z)S(xi)|0> on d Fock levels (default: the start
    truncation), transported by D(z)^dagger."""
    d = start_truncation(theta[2]) if d is None else d
    phi, dxi = squeezed_vacuum(theta[2], theta[3], d)
    x, p = quadratures(phi)
    return phi, np.column_stack([-1j * p, 1j * x, dxi])


def lift_gram(phi, dphi):
    """L*L of the horizontal lifts l_i = 2 (I - |phi><phi|) d_i phi."""
    lifts = 2.0 * (dphi - np.outer(phi, phi.conj() @ dphi))
    return lifts.conj().T @ lifts, lifts


def tail_mass(v):
    """Share of |v|^2 in the top max(4, d/16) levels."""
    k = max(4, v.size // 16)
    nrm2 = float(np.sum(np.abs(v) ** 2))
    return 0.0 if nrm2 == 0.0 else float(np.sum(np.abs(v[-k:]) ** 2)) / nrm2
