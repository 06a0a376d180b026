"""Catalog models checked against independent references.

The spin and number-state oracles below build states with scipy.linalg.expm
directly and differentiate them by central differences or by
scipy.linalg.expm_frechet, bypassing the package's tangent-frame machinery
entirely. The squeezed model is checked against the Fock-space builder in
`fock_reference` and against `squeezed_closed_forms`.
"""

import fractions
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import fock_reference
from qcrb import analysis, errors, matkernel, model


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


def test_generic_spin_point_matches_fd_oracle():
    theta = [0.4, 2.2]
    mdl = model.catalog_spin_rotation(2.0, 1.0, theta)
    fd = model.fisher_data(model.tangent_frame(mdl, theta))
    gram = fd_gram(lambda t: spin_state(2.0, 1.0, t), theta)
    assert np.abs(fd.JS - gram.real).max() <= 1e-5
    assert np.abs(fd.Jt - gram.imag).max() <= 1e-5


def spin_frame_reference(s, m_z, theta):
    """phi = expm(i theta1 A) psi0 and its columns i A phi and, by
    expm_frechet, d/d theta2; no package code."""
    sx, sy, _ = spin_matrices(s)
    psi0 = np.zeros(sx.shape[0], dtype=complex)
    psi0[int(round(s - m_z))] = 1.0
    gen = np.sin(theta[1]) * sx - np.cos(theta[1]) * sy
    dgen = np.cos(theta[1]) * sx + np.sin(theta[1]) * sy
    expm, frechet = scipy.linalg.expm_frechet(1j * theta[0] * gen, 1j * theta[0] * dgen)
    phi = expm @ psi0
    return phi, np.column_stack([1j * gen @ phi, frechet @ psi0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10 ** 6), st.floats(1e-3, math.pi - 1e-3),
       st.floats(0.0, 2 * math.pi, exclude_max=True))
@example(40, 20, math.pi - 1e-3, 6.0)
def test_spin_frame_matches_expm_reference(two_s, k, t1, t2):
    # s from 1/2 to 20 and every m_z = s - k mod (2s + 1)
    s = two_s / 2
    m_z = s - k % (two_s + 1)
    theta = [t1, t2]
    fr = model.tangent_frame(model.catalog_spin_rotation(s, m_z, theta), theta)
    fd = model.fisher_data(fr)
    phi, dphi = spin_frame_reference(s, m_z, theta)
    lifts = 2.0 * (dphi - np.outer(phi, phi.conj() @ dphi))
    gram = lifts.conj().T @ lifts
    scale = max(1.0, np.linalg.norm(fd.JS, 2))
    assert np.abs(fd.gram - gram).max() <= 1e-12 * scale
    # the model's frame is the reference's up to the unitary exp(i theta1 A) fixed
    # at theta: placed on |m_z + 1>, |m_z>, |m_z - 1> and rotated, it is the
    # reference's phi and lifts, up to one common phase
    sx, sy, _ = spin_matrices(s)
    gen = np.sin(t2) * sx - np.cos(t2) * sy
    rows = int(round(s - m_z)) + np.arange(-1, 2)
    inside = (rows >= 0) & (rows < sx.shape[0])
    assert np.abs(fr.phi[~inside]).max(initial=0.0) == 0.0
    assert np.abs(fr.lifts[~inside]).max(initial=0.0) == 0.0
    place = np.zeros((sx.shape[0], 3))
    place[rows[inside], np.flatnonzero(inside)] = 1.0
    rotate = scipy.linalg.expm(1j * t1 * gen) @ place
    overlap = np.vdot(rotate @ fr.phi, phi)
    unit = overlap / abs(overlap)
    assert np.abs(unit * (rotate @ fr.phi) - phi).max() <= 1e-12
    assert np.abs(unit * (rotate @ fr.lifts) - lifts).max() <= 1e-12 * math.sqrt(scale)


def spin_exact_fisher(s, m_z, t1):
    """JS and Jt of the spin model from s(s+1) - m_z^2 in exact rationals:
    JS = 2 (s(s+1) - m_z^2) diag(1, sin^2 t1), Jt_12 = 2 m_z sin t1."""
    s, m_z, sin = fractions.Fraction(s), fractions.Fraction(m_z), fractions.Fraction(math.sin(t1))
    c = 2 * (s * (s + 1) - m_z * m_z)
    js = np.array([[float(c), 0.0], [0.0, float(c * sin * sin)]])
    jt = float(2 * m_z * sin)
    return js, np.array([[0.0, jt], [-jt, 0.0]])


# s(s+1) at s = 1e12 carries an absolute rounding error near 1e8, so ladder
# coefficients written as s(s+1) - m_z(m_z +- 1) would miss this by about 1e-4
# at m_z = +-s; as products they are exact to roundoff. Jt_12 is a difference
# of the two squared coefficients, so it is held to the scale of JS.
@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2 * 10 ** 12), st.integers(0, 4), st.floats(1e-3, math.pi - 1e-3),
       st.floats(0.0, 2 * math.pi, exclude_max=True))
@example(2 * 10 ** 12, 0, 0.9, 0.3)
@example(2 * 10 ** 12, 1, 0.9, 0.3)
@example(2 * 10 ** 12, 2, 0.9, 0.3)
@example(2 * 10 ** 12, 3, 0.9, 0.3)
@example(2 * 10 ** 12, 4, 0.9, 0.3)
@example(2 * 10 ** 12 - 1, 4, 0.9, 0.3)
def test_spin_fisher_matches_exact_values(two_s, which, t1, t2):
    s = two_s / 2
    m_z = [s, -s, s - 1, 1 - s, (two_s % 2) / 2][which]
    fd = model.fisher_data(model.tangent_frame(model.catalog_spin_rotation(s, m_z, [t1, t2]),
                                               [t1, t2]))
    js, jt = spin_exact_fisher(s, m_z, t1)
    assert np.all(np.abs(np.diagonal(fd.JS) - np.diagonal(js)) <= 1e-13 * np.diagonal(js))
    assert abs(fd.JS[0, 1]) <= 1e-13 * js[0, 0]
    assert np.abs(fd.Jt - jt).max() <= 1e-13 * js[0, 0]


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
    # the oracle displaces |2> in its own truncation; the model needs only n + 2
    gram = fd_gram(lambda t: number_state_oracle(2, t, 40), np.array(theta))
    assert np.abs(fd.gram - gram).max() <= 1e-5
    # displaced number states have JS = (4n+2) I
    assert np.abs(fd.JS - 10.0 * np.eye(2)).max() <= 1e-8


def test_shifted_number_gram_n0():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    expect = 2.0 * np.eye(2) + 2j * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.abs(fd.gram - expect).max() <= 1e-8


def test_truncation_does_not_depend_on_displacement():
    small = model.catalog_shifted_number(0, [0.1, 0.1])
    large = model.catalog_shifted_number(0, [6.0, -5.0])
    assert large.dim == small.dim
    fd = model.fisher_data(model.tangent_frame(large, large.theta0))
    assert np.abs(fd.JS - 2.0 * np.eye(2)).max() <= 1e-7


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


@pytest.mark.parametrize("theta", [[0.3, -0.2, 1.2, 0.4], [1.5, 0.5, 0.9, 2.0]])
def test_squeezed_fisher_at_large_truncation(theta):
    # the three-level frame against the Fock reference at its start truncation
    # (hundreds of levels here) and at twice that, and against the closed forms
    mdl = model.catalog_squeezed(theta)
    assert mdl.dim == 3
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    js, jt = model.squeezed_closed_forms(theta)
    assert np.abs(fd.JS - js).max() <= 1e-12 * np.abs(js).max()
    assert np.abs(fd.Jt - jt).max() <= 1e-12 * np.abs(js).max()
    d = fock_reference.start_truncation(theta[2])
    assert d > 100
    for levels in (d, 2 * d):
        gram, _ = fock_reference.lift_gram(*fock_reference.squeezed_frame(theta, levels))
        assert np.abs(fd.gram - gram).max() <= 1e-10


def test_shifted_number_fisher_at_large_truncation():
    # far from the origin the frame keeps its n + 2 levels
    mdl = model.catalog_shifted_number(3, [6.0, -5.0])
    assert mdl.dim == 5
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    assert np.abs(fd.JS - 14.0 * np.eye(2)).max() <= 1e-10


def test_fock_frames_far_out():
    # a displacement costs nothing: the frame is transported back to the origin
    mdl = model.catalog_shifted_number(0, [31.0, 0.0])
    assert mdl.dim == 2
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    expect = 2.0 * np.eye(2) + 2j * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.abs(fd.gram - expect).max() <= 1e-12
    # nor does squeezing: t3 = 3 and 4 are past any Fock truncation of 4096 levels
    for theta in ([20.0, -3.0, 2.6, 0.4], [0.0, 0.0, 3.0, 0.4], [-7.0, 2.0, 4.0, 1.1]):
        mdl = model.catalog_squeezed(theta)
        fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
        js, jt = model.squeezed_closed_forms(theta)
        scale = max(1.0, np.abs(js).max())
        assert np.abs(fd.JS - js).max() <= 1e-12 * scale
        assert np.abs(fd.Jt - jt).max() <= 1e-12 * scale
    # from t3 of about 4.07 on, JS's smallest eigenvalue 2 e^{-2 t3} is dust
    # beside its largest, 2 sinh^2(2 t3); that leaves the float range from about
    # 178 on, without an overflow warning, and sinh(2 t3) itself from about 355
    for t3, error in ((4.5, errors.DegenerateModel), (200.0, errors.NonFinite),
                      (300.0, errors.NonFinite), (400.0, errors.NonFinite),
                      (1e6, errors.NonFinite)):
        mdl = model.catalog_squeezed([0.0, 0.0, t3, 0.4])
        with pytest.raises(error):
            model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    # the closed forms overflow the same way: sinh^2(2 t3) from about 178 on,
    # cosh(2 t3) itself from about 355 on
    for t3 in (200.0, 400.0, 1e6):
        with pytest.raises(errors.NonFinite):
            model.squeezed_closed_forms([0.0, 0.0, t3, 0.4])


@pytest.mark.parametrize("t4", [0.0, 0.4, np.pi / 2])
def test_squeezed_start_truncation_passes_the_tail_check(count_calls, t4):
    # the Fock reference holds its state and lifts at its start truncation up
    # to t3 = 2.7, and there agrees with the three-level model, whose build
    # takes no frame
    frames = count_calls(model, "tangent_frame")
    assert fock_reference.start_truncation(0.6) == 60
    for k in range(1, 136):
        theta = [0.3, -0.7, 0.02 * k, t4]
        mdl = model.catalog_squeezed(theta)
        assert mdl.dim == 3 and frames == []
        phi, dphi = fock_reference.squeezed_frame(theta)
        gram, lifts = fock_reference.lift_gram(phi, dphi)
        assert fock_reference.tail_mass(phi) < fock_reference.TAIL, theta
        assert all(fock_reference.tail_mass(v) < fock_reference.TAIL for v in lifts.T), theta
        phi3, dphi3 = mdl.state(np.array(theta))
        gram3, _ = fock_reference.lift_gram(phi3, dphi3)
        assert np.abs(gram - gram3).max() <= 1e-10 * max(1.0, np.abs(gram3).max()), theta


@pytest.mark.parametrize("build", [
    lambda: model.catalog_spin_rotation(2.0, 1.0, [0.7, 1.1]),
    lambda: model.catalog_shifted_number(1, [0.4, -0.3]),
    lambda: model.catalog_squeezed([0.1, 0.2, 0.4, 0.7]),
], ids=["spin", "shifted", "squeezed"])
def test_catalog_derivatives_take_one_decomposition_per_generator(count_calls, build):
    # every catalog frame is in closed form: a build and a frame at another
    # point decompose nothing
    frechet = count_calls(scipy.linalg, "expm_frechet")
    eig = count_calls(matkernel, "hermitian_eig")
    mdl = build()
    model.tangent_frame(mdl, mdl.theta0 + 0.05)
    assert eig == [] and frechet == []


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
        model.fisher_data(model.tangent_frame(mdl, [0.0]))


def test_one_working_point_object(count_calls):
    # the frame takes no decomposition; fisher_data takes the lifts' one SVD,
    # and the point caches every decomposition of it on itself
    svds = count_calls(matkernel, "lift_svd")
    for mdl in (model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]),
                model.catalog_shifted_number(0, [0.2, -0.4]),
                model.catalog_squeezed([0.1, -0.2, 0.4, 0.3])):
        frame = model.tangent_frame(mdl, mdl.theta0)
        assert svds == [] and not hasattr(frame, "svd")
        fd = model.fisher_data(frame)
        assert len(svds) == 1
        assert fd.js_powers is fd.js_powers and fd.canonical is fd.canonical
        analysis.cr_bound(fd, np.eye(mdl.m))
        assert len(svds) == 1
        svds.clear()
    assert model.FisherData is analysis.FisherData


def test_model_from_config_errors():
    with pytest.raises(errors.SchemaError):
        model.model_from_config({"model": "nope"})
    with pytest.raises(errors.SchemaError):
        model.model_from_config({"model": "spin_rotation", "s": 1.0})
    with pytest.raises(errors.SchemaError):
        model.model_from_config({"model": "shifted_number", "n": 0.5,
                                 "theta": [0.0, 0.0]})


@pytest.mark.parametrize("doc", [
    {"model": "squeezed", "theta": "abc"},
    {"model": "squeezed", "theta": [0.0, 0.0, "0.4", 0.1]},
    {"model": "shifted_number", "n": "0", "theta": [0.2, 0.1]},
    {"model": "shifted_number", "n": True, "theta": [0.2, 0.1]},
    {"model": "spin_rotation", "s": 1.0, "m_z": 0.0, "theta": ["x", 0.1]},
    {"model": "custom", "dim": 2, "m": 1, "phi": [[1, 0], [0, 0]],
     "dphi": [[[0, 0], [1, 0]]], "theta": [None]},
    # non-finite numbers, which json reads as NaN / Infinity, and an int
    # beyond the float range
    {"model": "spin_rotation", "s": float("nan"), "m_z": 0.0, "theta": [0.7, 0.1]},
    {"model": "shifted_number", "n": 0, "theta": [10 ** 400, 0.1]},
    {"model": "custom", "dim": 2, "m": 1, "phi": [[1, 0], [0, 0]],
     "dphi": [[[0, 0], [float("-inf"), 0]]], "theta": [0.0]},
    {"model": "custom", "dim": 2, "m": 1, "phi": [[10 ** 400, 0], [0, 0]],
     "dphi": [[[0, 0], [1, 0]]], "theta": [0.0]},
])
def test_model_from_config_rejects_bad_fields(doc):
    with pytest.raises(errors.SchemaError):
        model.model_from_config(doc)


@pytest.mark.parametrize("doc, key", [
    ({"model": "shifted_number", "n": 0, "theta": [0.1, 0.2], "trunk": 40}, "trunk"),
    ({"model": "spin_rotation", "s": 1.0, "m_z": 0.0, "theta": [0.7, 0.1], "trunc": 64},
     "trunc"),
    ({"model": "custom", "dim": 2, "m": 1, "phi": [[1, 0], [0, 0]],
      "dphi": [[[0, 0], [1, 0]]], "theta": [0.0], "trunc": 8}, "trunc"),
    ({"model": "squeezed", "theta": [0.1, 0.2, 0.4, 0.3], "weight": "sld"}, "weight"),
    # every model is exact as built: none takes a Fock truncation
    *[({"model": "squeezed", "theta": [0.2, 0.1, 1.5, 0.3], "trunc": trunc}, "trunc")
      for trunc in (2, 16, 4096, None)],
    *[({"model": "shifted_number", "n": 3, "theta": [4.0, 4.0], "trunc": trunc}, "trunc")
      for trunc in (4, 5, 300)],
])
def test_model_from_config_names_the_key_it_does_not_read(doc, key):
    with pytest.raises(errors.SchemaError, match=f"'{key}'"):
        model.model_from_config(doc)


@pytest.mark.parametrize("theta", [[0.9, 0.4], [1.6, 0.4], [1.9, 3.0]])
def test_phase_reference_is_deterministic_at_ties(theta):
    # at m_z = 0, |<m|phi>| = |<-m|phi>|: the largest components tie exactly,
    # and a global phase on the state must not move the frame's phi
    base = model.catalog_spin_rotation(20.0, 0.0, theta)
    ref = model.tangent_frame(base, base.theta0).phi
    for alpha in (0.3, 1.1, 2.5, -0.7, math.pi):
        def state(theta, unit=complex(math.cos(alpha), math.sin(alpha))):
            phi, dphi = base.state(theta)
            return unit * phi, unit * dphi

        turned = model.PureStateModel(label="turned", dim=base.dim, m=2, state=state,
                                      theta0=base.theta0)
        phi = model.tangent_frame(turned, base.theta0).phi
        assert np.abs(phi - ref).max() <= 1e-12


def test_model_from_config_roundtrip():
    cfg = {"model": "spin_rotation", "s": 1.5, "m_z": 0.5, "theta": [0.9, 0.3]}
    mdl = model.model_from_config(cfg)
    direct = model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3])
    fa = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    fb = model.fisher_data(model.tangent_frame(direct, direct.theta0))
    assert np.abs(fa.gram - fb.gram).max() == 0.0


CUSTOM_1D = {"model": "custom", "dim": 2, "m": 1, "phi": [[1, 0], [0, 0]],
             "dphi": [[[0, 0], [1, 0]]], "theta": [0.0]}
SPIN_CONFIG = {"model": "spin_rotation", "s": 1.5, "m_z": 0.5, "theta": [0.9, 0.3]}


# Checks of the model layer that no other test reaches: through `qcrb analyze`
# where a config reaches them (exit 2), else by a direct call.
@pytest.mark.parametrize("case, error, match", [
    ({**SPIN_CONFIG, "s": 0.0, "m_z": 0.0}, errors.DomainError, "at least 1/2"),
    ({**SPIN_CONFIG, "theta": [0.9]}, errors.DomainError, "2-vector theta"),
    ({**SPIN_CONFIG, "theta": [0.9, 7.0]}, errors.DomainError, "theta2"),
    ({"model": "shifted_number", "n": -1, "theta": [0.3, 0.1]}, errors.DomainError,
     "nonnegative integer"),
    ({"model": "shifted_number", "n": 3, "theta": [0.3]}, errors.DomainError, "2-vector theta"),
    ({"model": "squeezed", "theta": [0.1, -0.2, 0.4]}, errors.DomainError, "4-vector theta"),
    ([1, 2], errors.SchemaError, "JSON object"),
    ({**CUSTOM_1D, "dphi": [[[0, 0], [1, 0]]] * 2}, errors.SchemaError, "dphi must have"),
    ({**CUSTOM_1D, "theta": [0.0, 0.0]}, errors.SchemaError, "theta must have length"),
    ({**CUSTOM_1D, "phi": [[1, 0], [0, 0], [0, 0]]}, errors.SchemaError, "lengths must equal"),
    (lambda: model.tangent_frame(model.catalog_shifted_number(0, [0.1, 0.2]), [0.1]),
     errors.DomainError,
     "theta must have length 2"),
    (lambda: model.catalog_shifted_number(1.5, [0.1, 0.2]), errors.DomainError,
     "nonnegative integer"),
], ids=["spin_s_below_half", "spin_theta_shape", "spin_theta2_range", "shifted_n_negative",
        "shifted_theta_shape", "squeezed_theta_shape", "config_not_object", "custom_dphi_rows",
        "custom_theta_length", "custom_phi_length", "frame_theta_length",
        "shifted_n_fractional"])
def test_model_checks_reject_their_inputs(cli_error, case, error, match):
    if callable(case):
        with pytest.raises(error, match=match):
            case()
        return
    code, out, err = cli_error(["analyze"], case)
    assert (code, out, err["error"], err["exit_code"]) == (2, "", error.__name__, 2)
    assert match in err["message"]
