"""Catalog models checked against an independent finite-difference oracle.

The oracle below builds states with scipy.linalg.expm directly and
differentiates them by central differences, bypassing the package's
tangent-frame machinery entirely.
"""

import numpy as np
import pytest
import scipy.linalg

from qcrb import errors, model


def spin_matrices(s):
    d = int(round(2 * s + 1))
    mvals = s - np.arange(d)
    sz = np.diag(mvals)
    sp = np.zeros((d, d))
    for k in range(1, d):
        m = mvals[k]
        sp[k - 1, k] = np.sqrt(s * (s + 1) - m * (m + 1))
    sx = 0.5 * (sp + sp.T)
    sy = -0.5j * (sp - sp.T)
    return sx, sy, sz


def spin_state(s, m_z, theta):
    sx, sy, _ = spin_matrices(s)
    d = sx.shape[0]
    psi0 = np.zeros(d, dtype=complex)
    psi0[int(round(s - m_z))] = 1.0
    gen = np.sin(theta[1]) * sx - np.cos(theta[1]) * sy
    return scipy.linalg.expm(1j * theta[0] * gen) @ psi0


def fd_gram(state_fn, theta, h=1e-6):
    """Lift Gram matrix by phase-aligned central differences."""
    theta = np.asarray(theta, dtype=float)
    phi = state_fn(theta)
    m = theta.size
    dphi = np.zeros((phi.size, m), dtype=complex)
    for i in range(m):
        step = np.zeros(m)
        step[i] = h
        up = state_fn(theta + step)
        dn = state_fn(theta - step)
        up = up * np.exp(-1j * np.angle(np.vdot(phi, up)))
        dn = dn * np.exp(-1j * np.angle(np.vdot(phi, dn)))
        dphi[:, i] = (up - dn) / (2 * h)
    proj = np.eye(phi.size) - np.outer(phi, phi.conj())
    lifts = 2.0 * (proj @ dphi)
    return lifts.conj().T @ lifts


def test_spin_fisher_matches_fd_oracle():
    theta = [0.7, 1.1]
    mdl = model.catalog_spin_rotation(1.0, 0.0, theta)
    fd = model.fisher_data(model.tangent_frame(mdl, theta))
    gram = fd_gram(lambda t: spin_state(1.0, 0.0, t), theta)
    assert np.abs(fd.JS - gram.real).max() <= 1e-6
    assert np.abs(fd.Jt - gram.imag).max() <= 1e-6
    # variance of the rotation generator in |1,0> is 1, so JS_11 = 4
    assert abs(fd.JS[0, 0] - 4.0) <= 1e-10


def test_spin_fd_derivative_mode_agrees():
    theta = [0.4, 2.2]
    a = model.catalog_spin_rotation(2.0, 1.0, theta)
    b = model.catalog_spin_rotation(2.0, 1.0, theta)
    b.derivative_mode = "fd"
    fa = model.fisher_data(model.tangent_frame(a, theta))
    fb = model.fisher_data(model.tangent_frame(b, theta))
    assert np.abs(fa.JS - fb.JS).max() <= 1e-5
    assert np.abs(fa.Jt - fb.Jt).max() <= 1e-5


def test_spin_validation():
    with pytest.raises(errors.DomainError):
        model.catalog_spin_rotation(0.7, 0.7, [0.5, 0.5])  # s not half-integer
    with pytest.raises(errors.DomainError):
        model.catalog_spin_rotation(1.0, 0.5, [0.5, 0.5])  # s - m_z not integer
    with pytest.raises(errors.DomainError):
        model.catalog_spin_rotation(1.0, 2.0, [0.5, 0.5])  # |m_z| > s
    with pytest.raises(errors.DomainError):
        model.catalog_spin_rotation(1.0, 0.0, [0.0, 0.5])  # theta1 not in (0, pi)


def test_phase_convention():
    mdl = model.catalog_spin_rotation(1.0, 1.0, [0.6, 0.9])
    fr = model.tangent_frame(mdl, mdl.theta0)
    k = int(np.argmax(np.abs(fr.phi)))
    assert abs(fr.phi[k].imag) <= 1e-12
    assert fr.phi[k].real > 0
    assert abs(np.linalg.norm(fr.phi) - 1.0) <= 1e-12


def test_lifts_orthogonal_to_state():
    mdl = model.catalog_shifted_number(1, [0.3, 0.8])
    fr = model.tangent_frame(mdl, mdl.theta0)
    overlap = fr.lifts.conj().T @ fr.phi
    assert np.abs(overlap).max() <= 1e-10


def number_state_oracle(n, theta, d):
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    x = (a.T + a) / np.sqrt(2)
    p = 1j * (a.T - a) / np.sqrt(2)
    psi0 = np.zeros(d, dtype=complex)
    psi0[n] = 1.0
    h = -theta[0] * x + theta[1] * p
    return scipy.linalg.expm(1j * h) @ psi0


def test_shifted_number_fisher_matches_fd_oracle():
    theta = [0.5, 0.1]
    mdl = model.catalog_shifted_number(2, theta)
    fr = model.tangent_frame(mdl, theta)
    fd = model.fisher_data(fr)
    gram = fd_gram(lambda t: number_state_oracle(2, t, mdl.dim), np.array(theta))
    assert np.abs(fd.gram - gram).max() <= 1e-5
    # displaced number states have JS = (4n+2) I
    assert np.abs(fd.JS - 10.0 * np.eye(2)).max() <= 1e-8


def test_shifted_number_gram_n0():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    expect = 2.0 * np.eye(2) + 2j * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.abs(fd.gram - expect).max() <= 1e-8


def test_truncation_grows_with_displacement():
    small = model.catalog_shifted_number(0, [0.1, 0.1])
    large = model.catalog_shifted_number(0, [6.0, -5.0])
    assert large.dim > small.dim
    fd = model.fisher_data(model.tangent_frame(large, large.theta0))
    assert np.abs(fd.JS - 2.0 * np.eye(2)).max() <= 1e-7


def test_explicit_truncation_too_small():
    with pytest.raises(errors.TruncationError):
        mdl = model.catalog_shifted_number(0, [4.0, 4.0], trunc=8)
        model.tangent_frame(mdl, mdl.theta0)


def test_squeezed_closed_forms_at_origin():
    theta = [0.0, 0.0, 0.3, 0.2]
    js, jt = model.squeezed_closed_forms(theta)
    c, s = np.cosh(2 * 0.3), np.sinh(2 * 0.3)
    assert abs(js[0, 0] - 2 * (c - s * np.cos(0.4))) <= 1e-12
    assert abs(js[0, 1] - 2 * s * np.sin(0.4)) <= 1e-12
    assert abs(js[2, 2] - 2.0) <= 1e-12
    assert abs(js[3, 3] - 2 * s * s) <= 1e-12
    assert abs(jt[0, 1] - 2.0) <= 1e-12
    assert abs(jt[2, 3] + 2 * s) <= 1e-12


def test_squeezed_rejects_nonpositive_squeeze():
    with pytest.raises(errors.DomainError):
        model.catalog_squeezed([0.0, 0.0, -0.2, 0.1])
    with pytest.raises(errors.SingularFisher):
        model.catalog_squeezed([0.0, 0.0, 0.0, 0.1])


def test_custom_model_real_amplitudes():
    phi = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
    dphi = np.array([[-np.sin(0.3), np.cos(0.3)]], dtype=complex)
    mdl = model.custom_model(2, 1, phi, dphi, [0.3])
    fd = model.fisher_data(model.tangent_frame(mdl, [0.3]))
    assert abs(fd.JS[0, 0] - 4.0) <= 1e-10
    assert np.abs(fd.Jt).max() <= 1e-10


def test_degenerate_model_detected():
    phi = np.array([1.0, 0.0], dtype=complex)
    dphi = np.zeros((1, 2), dtype=complex)
    mdl = model.custom_model(2, 1, phi, dphi, [0.0])
    with pytest.raises(errors.DegenerateModel):
        model.tangent_frame(mdl, [0.0])


def test_model_from_config_errors():
    with pytest.raises(errors.SchemaError):
        model.model_from_config({"model": "nope"})
    with pytest.raises(errors.SchemaError):
        model.model_from_config({"model": "spin_rotation", "s": 1.0})
    with pytest.raises(errors.SchemaError):
        model.model_from_config({"model": "shifted_number", "n": 0.5,
                                 "theta": [0.0, 0.0]})


@pytest.mark.parametrize("doc", [
    {"model": "squeezed", "theta": [0.0, 0.0, 0.4, 0.1], "trunc": "abc"},
    {"model": "squeezed", "theta": [0.0, 0.0, 0.4, 0.1], "trunc": -4},
    {"model": "shifted_number", "n": 0, "theta": [0.2, 0.1], "trunc": 0},
    {"model": "shifted_number", "n": 0, "theta": [0.2, 0.1], "trunc": 40.0},
    {"model": "spin_rotation", "s": 1.0, "m_z": 0.0, "theta": ["x", 0.1]},
    {"model": "custom", "dim": 2, "m": 1, "phi": [[1, 0], [0, 0]],
     "dphi": [[[0, 0], [1, 0]]], "theta": [None]},
])
def test_model_from_config_rejects_bad_fields(doc):
    with pytest.raises(errors.SchemaError):
        model.model_from_config(doc)


def test_model_from_config_roundtrip():
    cfg = {"model": "spin_rotation", "s": 1.5, "m_z": 0.5, "theta": [0.9, 0.3]}
    mdl = model.model_from_config(cfg)
    direct = model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3])
    fa = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    fb = model.fisher_data(model.tangent_frame(direct, direct.theta0))
    assert np.abs(fa.gram - fb.gram).max() == 0.0
