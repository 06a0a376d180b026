"""Bound formulas, curve geometry, classification."""

import math

import numpy as np
import pytest
import scipy.linalg

from qcrb import analysis, errors, matkernel, measurement, model
from qcrb.model import FisherData


def synthetic_fd(beta, js=None):
    """Two-parameter data with JS = I (or given) and canonical Jt."""
    js = np.eye(2) if js is None else np.asarray(js, dtype=float)
    w = matkernel.sqrt_psd(js)
    jt = w @ (beta * np.array([[0.0, 1.0], [-1.0, 0.0]])) @ w
    return FisherData(JS=js, Jt=jt, gram=js + 1j * jt)


def test_beta_spectrum_synthetic():
    fd = synthetic_fd(0.37)
    spec = analysis.beta_spectrum(fd)
    assert np.abs(spec.betas - 0.37).max() <= 1e-12
    assert spec.classification == "generic"
    assert analysis.beta_spectrum(synthetic_fd(0.0)).classification == "quasi_classical"
    assert analysis.beta_spectrum(synthetic_fd(1.0)).classification == "coherent"


def test_beta_spectrum_rejects_beta_above_one():
    with pytest.raises(errors.DomainError):
        analysis.beta_spectrum(synthetic_fd(1.001))


def test_classification_tests():
    assert analysis.quasi_classical_test(synthetic_fd(0.0))
    assert not analysis.quasi_classical_test(synthetic_fd(0.2))
    assert analysis.coherent_test(synthetic_fd(1.0))
    assert not analysis.coherent_test(synthetic_fd(0.9))


def test_sld_bound_is_trace_form():
    fd = synthetic_fd(0.5, js=np.diag([2.0, 4.0]))
    g = np.diag([1.0, 3.0])
    assert abs(analysis.sld_bound(fd, g) - (0.5 + 0.75)) <= 1e-12


def test_boundary_degenerate_and_hyperbola():
    c0 = analysis.boundary_2param(0.0, count=7)
    assert c0.samples.shape == (1, 4)
    assert np.abs(c0.samples[0] - [0.0, 1.0, 1.0, 1.0]).max() <= 1e-12
    c1 = analysis.boundary_2param(1.0, count=9, x_window=(-2.0, 2.0))
    x, z = c1.samples[:, 0], c1.samples[:, 1]
    assert np.abs((z - 1.0) ** 2 - x * x - 1.0).max() <= 1e-12
    assert abs(z[4] - 2.0) <= 1e-12  # x = 0 gives z = 2


def test_boundary_x0_anchor():
    # at x = 0 the curve passes through z = 1 + ((1 - sqrt(1-b^2))/b)^2
    beta = 0.6
    c = analysis.boundary_2param(beta, count=11)
    mid = c.samples[5]
    w = (1.0 - math.sqrt(1.0 - beta ** 2)) / beta
    assert abs(mid[0]) <= 1e-12
    assert abs(mid[1] - (1.0 + w * w)) <= 1e-12
    u, v = c.samples[:, 2], c.samples[:, 3]
    resid = np.abs(np.sqrt(u - 1) + np.sqrt(v - 1) - beta * np.sqrt(u * v))
    assert resid.max() <= 1e-12


def test_boundary_endpoints_and_domain():
    beta = 0.8
    c = analysis.boundary_2param(beta, count=21)
    xmax = beta ** 2 / (2 * (1 - beta ** 2))
    assert abs(c.samples[0, 0] + xmax) <= 1e-10
    assert abs(c.samples[-1, 0] - xmax) <= 1e-10
    assert c.samples[:, 2].min() >= 1.0 - 1e-12
    assert c.samples[:, 3].min() >= 1.0 - 1e-12
    with pytest.raises(errors.DomainError):
        analysis.boundary_2param(-0.1)
    with pytest.raises(errors.DomainError):
        analysis.boundary_2param(1.2)


def test_cr_bound_2param_vertex_and_coherent_formulas():
    g = np.diag([1.0, 4.0])
    # beta = 0: the vertex, value Tr(G JS^{-1})
    assert abs(analysis.cr_bound_2param(synthetic_fd(0.0), g).value - 5.0) <= 1e-12
    # beta = 1: g0 + g1 + 2 sqrt(g0 g1) in normalized coordinates
    rep = analysis.cr_bound_2param(synthetic_fd(1.0), g)
    assert abs(rep.value - (1.0 + 4.0 + 2.0 * 2.0)) <= 1e-12
    assert abs(np.sum(g * rep.V_opt) - rep.value) <= 1e-10


def test_cr_bound_2param_rank1_weight():
    fd = synthetic_fd(0.6)
    g = np.outer([1.0, 0.0], [1.0, 0.0])
    rep = analysis.cr_bound_2param(fd, g)
    assert abs(rep.value - 1.0) <= 1e-12  # (JS^{-1})_11 with JS = I
    assert rep.attained
    rep1 = analysis.cr_bound_2param(synthetic_fd(1.0), g)
    assert abs(rep1.value - 1.0) <= 1e-12
    assert not rep1.attained


def test_cr_bound_2param_vopt_on_curve():
    # Tr(G V_opt) = value and the normalized V_opt solves the curve equation
    rng = np.random.default_rng(8)
    for beta in (0.3, 0.6, 0.9):
        fd = synthetic_fd(beta, js=np.array([[2.0, 0.3], [0.3, 1.0]]))
        b = rng.normal(size=(2, 2))
        g = b @ b.T + 0.2 * np.eye(2)
        rep = analysis.cr_bound_2param(fd, g)
        assert abs(np.sum(g * rep.V_opt) - rep.value) <= 1e-9
        w = matkernel.sqrt_psd(fd.JS)
        vn = w @ rep.V_opt @ w
        lhs = np.trace(matkernel.sqrt_psd(vn - np.eye(2)))
        rhs = beta * math.sqrt(max(0.0, np.linalg.det(vn)))
        assert abs(lhs - rhs) <= 1e-8
        assert rep.value >= analysis.sld_bound(fd, g) - 1e-10


def test_cr_bound_2param_exceeds_sld_iff_noncommuting():
    g = np.eye(2)
    v0 = analysis.cr_bound_2param(synthetic_fd(0.0), g).value
    v6 = analysis.cr_bound_2param(synthetic_fd(0.6), g).value
    assert v6 > v0 + 1e-3


def test_cr_bound_js_weight_quasi_classical():
    fd = synthetic_fd(0.0, js=np.diag([3.0, 5.0]))
    rep = analysis.cr_bound_js_weight(fd)
    assert abs(rep.value - 2.0) <= 1e-12  # m terms of 1


def test_cr_bound_js_weight_matches_2param():
    for beta in (0.2, 0.5, 0.8):
        fd = synthetic_fd(beta)
        expect = 4.0 / (1.0 + math.sqrt(1.0 - beta * beta))
        assert abs(analysis.cr_bound_js_weight(fd).value - expect) <= 1e-12
        assert abs(analysis.cr_bound_2param(fd, fd.JS).value - expect) <= 1e-9


def test_cr_bound_coherent_n0_value():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    rep = analysis.cr_bound_coherent(fd, np.eye(2))
    assert abs(rep.value - 2.0) <= 1e-9
    assert abs(np.trace(rep.V_opt) - rep.value) <= 1e-9
    assert rep.notes["sld_part"] == pytest.approx(1.0, abs=1e-9)
    assert rep.notes["abs_part"] == pytest.approx(1.0, abs=1e-9)


def test_cr_bound_coherent_rejections():
    with pytest.raises(errors.NotCoherent):
        analysis.cr_bound_coherent(synthetic_fd(0.5), np.eye(2))
    with pytest.raises(errors.SingularWeight):
        analysis.cr_bound_coherent(synthetic_fd(1.0), np.diag([1.0, 0.0]))


def test_marginal_infimum():
    fd = synthetic_fd(0.0, js=np.diag([2.0, 2.0]))
    value, hint = analysis.marginal_infimum(fd, 0)
    assert abs(value - 0.5) <= 1e-12
    assert hint
    value, hint = analysis.marginal_infimum(synthetic_fd(1.0), 0)
    assert abs(value - 1.0) <= 1e-12
    assert not hint
    _, hint = analysis.marginal_infimum(synthetic_fd(0.6), 1)
    assert hint


def test_independence_partition():
    gram = np.zeros((4, 4), dtype=complex)
    gram[:2, :2] = 2.0 * np.eye(2) + 2j * np.array([[0.0, -1.0], [1.0, 0.0]])
    gram[2:, 2:] = 3.0 * np.eye(2)
    fd = FisherData(JS=gram.real, Jt=gram.imag, gram=gram)
    assert analysis.independence_partition(fd, [[0, 1], [2, 3]])
    assert not analysis.independence_partition(fd, [[0, 2], [1, 3]])
    with pytest.raises(errors.DomainError):
        analysis.independence_partition(fd, [[0, 1], [2]])


def test_independence_squeezed_blocks():
    mdl = model.catalog_squeezed([0.0, 0.0, 0.4, 0.7])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    assert analysis.independence_partition(fd, [[0, 1], [2, 3]])


def test_exclusiveness_test():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    assert analysis.exclusiveness_test(fd, 0, 1)
    assert not analysis.exclusiveness_test(synthetic_fd(0.0), 0, 1)
    assert not analysis.exclusiveness_test(synthetic_fd(0.6), 0, 1)
    with pytest.raises(errors.DomainError):
        analysis.exclusiveness_test(fd, 1, 1)


def test_cr_bound_dispatch_methods():
    g = np.array([[1.5, 0.2], [0.2, 0.8]])
    assert analysis.cr_bound(synthetic_fd(0.0), g).method == "quasi_classical"
    assert analysis.cr_bound(synthetic_fd(0.5), g).method == "closed_form_2param"
    mdl = model.catalog_squeezed([0.1, 0.2, 0.4, 0.7])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    assert analysis.cr_bound(fd, np.eye(4)).method == "closed_form_coherent"


def test_cr_bound_singular_fisher():
    fd = FisherData(JS=np.diag([1.0, 0.0]), Jt=np.zeros((2, 2)),
                    gram=np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(errors.SingularFisher):
        analysis.beta_spectrum(fd)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_working_point_is_decomposed_once(monkeypatch):
    mdl = model.catalog_squeezed([0.1, 0.2, 0.4, 0.7])
    expm_frechet = _count_calls(monkeypatch, scipy.linalg, "expm_frechet")
    frame = model.tangent_frame(mdl, mdl.theta0)
    assert expm_frechet == []   # truncation growth already built this frame
    fd = model.fisher_data(frame)
    canonical = _count_calls(monkeypatch, matkernel, "antisym_canonical")
    assert analysis.beta_spectrum(fd).classification == "coherent"
    assert analysis.coherent_test(fd)
    g = np.eye(4)
    assert analysis.cr_bound(fd, g).method == "closed_form_coherent"
    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    measurement.optimal_vectors_coherent(nf, fd, g)
    assert len(canonical) == 1
