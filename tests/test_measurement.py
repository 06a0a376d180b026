"""Projective measurement synthesis: algebra, attainment, sampling."""

import functools
import math
import tracemalloc
import types

import numpy as np
import pytest

from qcrb import analysis, errors, matkernel, measurement, model, oracle
from qcrb.model import FisherData, TangentFrame


def qubit_frame():
    # phi(t) = (cos t/2, sin t/2) at t = 0: lift (0,1), JS = 1
    phi = np.array([1.0, 0.0], dtype=complex)
    lifts = np.array([[0.0], [1.0]], dtype=complex)
    return TangentFrame(theta=np.array([0.0]), phi=phi, lifts=lifts)


def projectors(pvm):
    """The dense projectors of a Pvm: bb* for each ray, then the complement I - BB*."""
    projs = [np.outer(b, b.conj()) for b in pvm.rays.T]
    if pvm.complement:
        projs.append(np.eye(pvm.dim) - pvm.rays @ pvm.rays.conj().T)
    return projs


def test_qubit_hand_construction():
    # x = (0,1): projectors onto (1,+-1)/sqrt2, outcomes +-1, variance 1
    frame = qubit_frame()
    x = np.array([[0.0], [1.0]], dtype=complex)
    ev = measurement.EstimationVectors(X=x, phi=frame.phi)
    pvm = measurement.pvm_from_vectors(ev)
    assert pvm.m == 1 and pvm.dim == 2 and len(pvm.outcomes) == 2
    offsets = sorted(float(o[0]) for o in pvm.outcomes)
    assert abs(offsets[0] + 1.0) <= 1e-12 and abs(offsets[1] - 1.0) <= 1e-12
    for offset, proj in zip(pvm.outcomes, projectors(pvm)):
        sign = 1.0 if offset[0] > 0 else -1.0
        vec = np.array([1.0, sign]) / np.sqrt(2.0)
        assert np.abs(proj - np.outer(vec, vec)).max() <= 1e-12
    v, unbiased = measurement.covariance_of_pvm(pvm, frame)
    assert unbiased
    assert abs(v[0, 0] - 1.0) <= 1e-12


def test_outcome_scaling():
    frame = qubit_frame()
    c = 1.7
    x = np.array([[0.0], [c]], dtype=complex)
    pvm = measurement.pvm_from_vectors(measurement.EstimationVectors(X=x, phi=frame.phi))
    v, _ = measurement.covariance_of_pvm(pvm, frame)
    assert abs(v[0, 0] - c * c) <= 1e-12
    offs = sorted(abs(float(o[0])) for o in pvm.outcomes)
    assert abs(offs[-1] - c) <= 1e-12


def test_pvm_rejects_nonorthogonal_x():
    phi = np.array([1.0, 0.0], dtype=complex)
    x = np.array([[0.5], [1.0]], dtype=complex)  # <phi|x> != 0
    with pytest.raises(errors.DomainError):
        measurement.pvm_from_vectors(measurement.EstimationVectors(X=x, phi=phi))


@pytest.mark.parametrize("x", [
    [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-11]],
    [[0.0, 0.0], [1.0, 0.5]],
], ids=["parallel", "nearly_zero", "more_vectors_than_dim"])
def test_pvm_rejects_dependent_x(x):
    x = np.array(x, dtype=complex)
    phi = np.zeros(x.shape[0], dtype=complex)
    phi[0] = 1.0
    with pytest.raises(errors.DomainError, match="linearly dependent"):
        measurement.pvm_from_vectors(measurement.EstimationVectors(X=x, phi=phi))


def test_pvm_rejects_x_without_columns():
    # no estimation vectors: nothing to measure, rather than one ray and an
    # empty offset table
    phi = np.array([1.0, 0.0, 0.0], dtype=complex)
    ev = measurement.EstimationVectors(X=np.zeros((3, 0), dtype=complex), phi=phi)
    with pytest.raises(errors.DomainError, match="no columns"):
        measurement.pvm_from_vectors(ev)


def _spin2_vectors():
    # dim 5 and m = 2: three rays and a rank-2 complement
    mdl = model.catalog_spin_rotation(2.0, 0.0, [0.8, 0.5])
    fr = model.tangent_frame(mdl, mdl.theta0)
    return measurement.optimal_vectors_quasi_classical(fr, model.fisher_data(fr))


def _scale_first(q):
    return q * np.r_[1.0 + 1e-6, np.ones(q.shape[1] - 1)]


def _rotate_first_into_second(q, eps=1e-6):
    q = q.copy()
    q[:, 0] = math.cos(eps) * q[:, 0] + math.sin(eps) * q[:, 1]
    return q


@pytest.mark.parametrize("corrupt, key", [(_scale_first, "idempotent"),
                                          (_rotate_first_into_second, "orthogonal")],
                         ids=["scaled", "rotated"])
def test_corrupted_rays_fail_the_algebra_check(monkeypatch, corrupt, key):
    ev = _spin2_vectors()
    pvm = measurement.pvm_from_vectors(ev)
    assert pvm.complement and pvm.rays.shape == (5, 3)
    bad = measurement.Pvm(rays=corrupt(pvm.rays), outcomes=pvm.outcomes)
    assert measurement.pvm_algebra_residuals(bad)[key] >= 9e-7
    qr = np.linalg.qr

    def corrupted(a):
        q, r = qr(a)
        return corrupt(q), r

    monkeypatch.setattr(np.linalg, "qr", corrupted)
    with pytest.raises(errors.ConsistencyError, match="pvm_algebra"):
        measurement.pvm_from_vectors(ev)


def test_pvm_from_vectors_takes_one_qr_and_no_eigh(count_calls):
    evs = [_spin2_vectors(),
           measurement.EstimationVectors(X=np.array([[0.0], [1.0]], dtype=complex),
                                         phi=np.array([1.0, 0.0], dtype=complex))]
    mdl = model.catalog_squeezed([0.3, -0.2, 0.4, 0.7])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    evs.append(measurement.optimal_vectors_coherent(measurement.naimark_frame(fd), fd,
                                                    np.eye(4)))
    qrs = count_calls(np.linalg, "qr")
    eighs = count_calls(np.linalg, "eigh")
    for k, ev in enumerate(evs, start=1):
        measurement.pvm_from_vectors(ev)
        assert (len(qrs), len(eighs)) == (k, 0)


def test_coherent_completion_takes_no_roots_of_dust():
    # V - A* gram A has eigenvalues of about 1e-16 here; their square roots put
    # about 1e-8 into X and a stationarity residual of 5e-8
    mdl = model.catalog_squeezed([0.1, -0.2, 0.4, 0.3])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd)
    g = np.diag([1.0, 2.0, 3.0, 4.0])
    ev, rep = measurement.optimal_vectors(nf, fd, g)
    assert rep.method == "closed_form_coherent"
    x = ev.X @ ev.w   # the vectors in theta
    cert = oracle.stationarity_certificate(types.SimpleNamespace(X=x, lifts=nf.lifts),
                                           oracle.OracleProblem(gram=fd.gram, G=g))
    assert cert.residual <= 1e-12
    assert abs(np.sum(g * (x.conj().T @ x).real) - rep.value) <= 1e-12 * rep.value


def test_pvm_rejects_noncommuting_x():
    mdl = model.catalog_shifted_number(0, [0.0, 0.0])
    fr = model.tangent_frame(mdl, mdl.theta0)
    # the raw lifts have Im X*X = Jt != 0
    ev = measurement.EstimationVectors(X=fr.lifts, phi=fr.phi)
    with pytest.raises(errors.NotCommuting):
        measurement.pvm_from_vectors(ev)


def test_quasi_classical_pvm_attains_inverse_fisher():
    mdl = model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    ev = measurement.optimal_vectors_quasi_classical(fr, fd)
    pvm = measurement.pvm_from_vectors(ev)
    res = measurement.pvm_algebra_residuals(pvm)
    assert max(res.values()) <= 1e-9
    v, unbiased = measurement.covariance_of_pvm(pvm, fr)
    assert unbiased
    assert np.abs(v - matkernel.inv_psd(fd.JS)).max() <= 1e-8
    # reconstruction identity: sum_k offset_k E_k phi = x^i
    recon = measurement.reconstruction_residual(pvm, ev)
    assert recon <= 1e-8


def test_quasi_classical_requires_vanishing_jt():
    mdl = model.catalog_shifted_number(0, [0.0, 0.0])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    with pytest.raises(errors.NotQuasiClassical):
        measurement.optimal_vectors_quasi_classical(fr, fd)


def test_naimark_frame_reproduces_gram():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd)
    assert nf.dim == 5
    assert abs(nf.phi[0] - 1.0) <= 1e-12
    assert np.abs(nf.lifts.conj().T @ nf.lifts - fd.gram).max() <= 1e-10
    assert np.abs(nf.lifts.conj().T @ nf.phi).max() <= 1e-12


def test_naimark_frame_reuses_the_gram_root(monkeypatch, count_calls):
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    built = []
    original = analysis.Spectrum.lift_factor

    def counted(spec):
        built.append(spec)
        return original.func(spec)

    factor = functools.cached_property(counted)
    factor.__set_name__(analysis.Spectrum, "lift_factor")
    monkeypatch.setattr(analysis.Spectrum, "lift_factor", factor)
    eighs = count_calls(np.linalg, "eigh")
    measurement.naimark_frame(fd)
    assert len(built) == 1   # the Fisher data do not take the factor
    assert len(eighs) == 1   # iK; the factor itself decomposes nothing
    measurement.naimark_frame(fd)
    assert len(built) == 1 and len(eighs) == 1


def test_coherent_pvm_attains_bound():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    for g in (np.eye(2), np.array([[2.0, 0.4], [0.4, 1.0]])):
        rep = analysis.cr_bound_coherent(fd, g)
        nf = measurement.naimark_frame(fd, theta=mdl.theta0)
        ev = measurement.optimal_vectors_coherent(nf, fd, g)
        pvm = measurement.pvm_from_vectors(ev)
        assert max(measurement.pvm_algebra_residuals(pvm).values()) <= 1e-9
        v, unbiased = measurement.covariance_of_pvm(pvm, nf)
        assert unbiased
        assert abs(np.sum(g * v) - rep.value) <= 1e-8
        assert np.abs(v - rep.V_opt).max() <= 1e-8


def test_coherent_pvm_squeezed_model():
    mdl = model.catalog_squeezed([0.3, -0.2, 0.4, 0.7])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    g = np.diag([1.0, 2.0, 1.0, 3.0])
    rep = analysis.cr_bound_coherent(fd, g)
    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    ev = measurement.optimal_vectors_coherent(nf, fd, g)
    pvm = measurement.pvm_from_vectors(ev)
    assert max(measurement.pvm_algebra_residuals(pvm).values()) <= 1e-9
    v, unbiased = measurement.covariance_of_pvm(pvm, nf)
    assert unbiased
    assert abs(np.sum(g * v) - rep.value) <= 1e-7


def custom_generic(seed, dim, m):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    dphi = 0.5 * (rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim)))
    return model.custom_model(dim, m, phi / np.linalg.norm(phi), dphi, np.zeros(m))


@pytest.mark.parametrize("build, g, method, oracle_calls", [
    (lambda: model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1]), np.eye(2),
     "quasi_classical", 0),
    (lambda: model.catalog_shifted_number(0, [0.2, -0.4]),
     np.array([[2.0, 0.4], [0.4, 1.0]]), "closed_form_2param", 0),
    (lambda: model.catalog_squeezed([0.3, -0.2, 0.4, 0.7]), np.diag([1.0, 2.0, 3.0, 0.5]),
     "closed_form_coherent", 0),
    (lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]), np.eye(2), "oracle", 1),
    (lambda: custom_generic(4, 5, 3), np.diag([1.0, 2.0, 0.5]), "oracle", 1),
    (lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]), np.diag([1.0, 0.0]),
     "oracle", 1),
], ids=["quasi_classical", "coherent_m2", "coherent_m4", "generic_m2", "custom_m3",
        "rank1_weight"])
def test_optimal_vectors_every_class(count_calls, build, g, method, oracle_calls):
    mdl = build()
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    calls = count_calls(oracle, "minimize")
    ev, rep = measurement.optimal_vectors(nf, fd, g)
    assert rep.method == method
    assert len(calls) == oracle_calls
    assert max(analysis.estimation_residuals(ev.X, ev.phi, nf.lifts @ ev.w,
                                             errors.InfeasibleGram).values()) <= 1e-8
    pvm = measurement.pvm_from_vectors(ev)
    assert max(measurement.pvm_algebra_residuals(pvm).values()) <= 1e-9
    v, unbiased = measurement.covariance_of_pvm(pvm, nf)
    assert unbiased
    tol = 1e-8 * max(1.0, abs(rep.value))
    assert abs(np.sum(g * v) - rep.value) <= tol
    # the closed forms are an independent route to the same value
    closed = analysis.closed_form(fd, g)
    if closed is not None:
        assert abs(closed.value - rep.value) <= tol


@pytest.mark.parametrize("build", [
    lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]),
    lambda: custom_generic(4, 5, 3),
    lambda: model.catalog_shifted_number(0, [0.2, -0.4]),
    lambda: model.catalog_squeezed([0.3, -0.2, 0.4, 0.7]),
], ids=["generic_m2", "custom_m3", "coherent_m2", "coherent_m4"])
def test_oracle_lifts_are_the_naimark_frame_lifts(build):
    # one lift factor per working point: the SDP's R is the frame's, bit for
    # bit, with fewer than m rows where a beta is snapped to 1
    mdl = build()
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    res = oracle.minimize(oracle.OracleProblem(gram=fd.gram, G=np.eye(mdl.m), fd=fd))
    nf = measurement.naimark_frame(fd)
    assert np.array_equal(res.lifts, nf.lifts)
    assert np.array_equal(res.phi, nf.phi)


@pytest.mark.parametrize("build, g", [
    (lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]), np.eye(2)),
    (lambda: custom_generic(4, 5, 3), np.diag([1.0, 2.0, 0.5])),
    (lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]), np.diag([1.0, 0.0])),
], ids=["generic_m2", "custom_m3", "rank1_weight"])
def test_generic_vectors_are_the_oracle_vectors(monkeypatch, build, g):
    mdl = build()
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    solved = []
    original = analysis.oracle_bound

    def recording(*args):
        solved.append(original(*args))
        return solved[-1]

    monkeypatch.setattr(analysis, "oracle_bound", recording)
    ev, rep = measurement.optimal_vectors(nf, fd, g)
    (report, res), = solved
    assert rep is report and ev.X is res.Xn and ev.phi is nf.phi
    assert np.array_equal(res.X, res.Xn @ ev.w)
    assert max(analysis.estimation_residuals(ev.X, ev.phi, nf.lifts @ ev.w,
                                             errors.InfeasibleGram).values()) <= 1e-8


@pytest.mark.parametrize("build, method", [
    (lambda: model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1]), "quasi_classical"),
    (lambda: model.catalog_spin_rotation(2.0, 0.0, [0.4, 0.9]), "quasi_classical"),
    (lambda: model.catalog_shifted_number(0, [0.2, -0.4]), "closed_form_2param"),
    (lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]), "oracle"),
], ids=["qc_spin1", "qc_spin2", "coherent", "generic"])
def test_pvm_space_and_vectors(build, method):
    # quasi-classical PVMs live on the model's own space, every other one in
    # the 2m+1 embedding
    mdl = build()
    frame = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(frame)
    space = measurement.pvm_space(frame, fd)
    embedded = method != "quasi_classical"
    assert (space is not frame) is embedded
    assert space.phi.shape == ((2 * mdl.m + 1,) if embedded else (mdl.dim,))
    assert np.array_equal(space.theta, mdl.theta0)
    g = np.diag([1.0, 2.0])
    ev, rep = measurement.optimal_vectors(space, fd, g)
    assert rep.method == method
    pvm = measurement.pvm_from_vectors(ev)
    v, unbiased = measurement.covariance_of_pvm(pvm, space)
    assert unbiased
    assert abs(np.sum(g * v) - rep.value) <= 1e-8 * max(1.0, rep.value)


def test_zero_weight_on_a_coherent_model_is_attained():
    # any estimator attains CR(0) = 0; the report's covariance must be feasible
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd)
    ev, rep = measurement.optimal_vectors(nf, fd, np.zeros((2, 2)))
    assert rep.value == 0.0 and rep.attained
    assert np.abs(rep.V_opt - 2.0 * analysis.spectrum(fd).js_inv).max() <= 1e-12
    for x in (ev, measurement.optimal_vectors_coherent(nf, fd, np.zeros((2, 2)))):
        v, unbiased = measurement.covariance_of_pvm(measurement.pvm_from_vectors(x), nf)
        assert unbiased and np.abs(v - rep.V_opt).max() <= 1e-8


@pytest.mark.parametrize("build, g", [
    (lambda: model.catalog_shifted_number(0, [0.2, -0.4]), np.diag([1.0, 0.0])),
    (lambda: model.catalog_squeezed([0.3, -0.2, 0.4, 0.7]), np.diag([1.0, 1.0, 1.0, 0.0])),
], ids=["coherent_m2", "coherent_m4"])
def test_optimal_vectors_singular_weight_on_coherent_model(build, g):
    mdl = build()
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd)
    with pytest.raises(errors.SingularWeight):
        measurement.optimal_vectors(nf, fd, g)
    with pytest.raises(errors.SingularWeight):
        measurement.optimal_vectors_coherent(nf, fd, g)


@pytest.mark.parametrize("build", [
    lambda: model.catalog_shifted_number(0, [0.2, -0.4]),
    lambda: model.catalog_squeezed([0.3, -0.2, 0.4, 0.7]),
], ids=["shifted_n0", "squeezed"])
def test_naimark_lifts_vanish_on_the_gram_null_space(build):
    # a roundoff eigenvalue of the Gram (5.6e-16 on shifted n = 0) used to
    # leave its square root, 2.4e-8, along the null space
    mdl = build()
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd)
    w, u = np.linalg.eigh(fd.gram)
    null = u[:, w <= matkernel.TOL["eigen_dust"] * max(1.0, np.abs(fd.gram).max())]
    assert null.shape[1] > 0
    assert np.abs(nf.lifts @ null).max() <= 1e-15


def test_lemma_ordering_on_constructed_pvm():
    # V >= Re X*X >= JS^{-1} up to eigen dust
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd)
    ev = measurement.optimal_vectors_coherent(nf, fd, np.eye(2))
    pvm = measurement.pvm_from_vectors(ev)
    v, _ = measurement.covariance_of_pvm(pvm, nf)
    x = ev.X @ ev.w   # the vectors in theta
    rexx = (x.conj().T @ x).real
    jsinv = matkernel.inv_psd(fd.JS)
    assert matkernel.psd_geq(v + 1e-9 * np.eye(2), rexx)
    assert matkernel.psd_geq(rexx + 1e-9 * np.eye(2), jsinv)


def test_remainder_projector_completes():
    mdl = model.catalog_spin_rotation(2.0, 0.0, [0.8, 0.5])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    ev = measurement.optimal_vectors_quasi_classical(fr, fd)
    pvm = measurement.pvm_from_vectors(ev)
    # dim 5 state space, 3-dimensional measurement span, so a remainder shows up
    assert pvm.dim == 5
    projs = projectors(pvm)
    assert pvm.complement and len(projs) == 4
    total = sum(projs)
    assert np.abs(total - np.eye(5)).max() <= 1e-9
    assert max(np.abs(e @ e - e).max() for e in projs) <= 1e-9
    assert max(measurement.pvm_algebra_residuals(pvm).values()) <= 1e-9
    v, unbiased = measurement.covariance_of_pvm(pvm, fr)
    assert unbiased
    assert np.abs(v - matkernel.inv_psd(fd.JS)).max() <= 1e-8


def test_inflate_covariance():
    frame = qubit_frame()
    x = np.array([[0.0], [1.0]], dtype=complex)
    pvm = measurement.pvm_from_vectors(measurement.EstimationVectors(X=x, phi=frame.phi))
    v, _ = measurement.covariance_of_pvm(pvm, frame)
    infl = measurement.inflate_covariance(pvm, np.array([[0.5]]))
    vi = measurement.analytic_covariance(infl, frame)
    assert abs(vi[0, 0] - 1.5) <= 1e-12
    same = measurement.inflate_covariance(pvm, np.zeros((1, 1)))
    assert np.abs(measurement.analytic_covariance(same, frame) - v).max() <= 1e-12
    with pytest.raises(errors.DomainError):
        measurement.inflate_covariance(pvm, np.array([[-0.1]]))


def test_inflate_covariance_decomposes_v0_once(count_calls):
    # the PSD decision and the square root come from one eigendecomposition
    pvm = measurement.pvm_from_vectors(_spin2_vectors())
    eighs = count_calls(np.linalg, "eigh")
    infl = measurement.inflate_covariance(pvm, np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert len(eighs) == 1
    assert np.abs(infl.shifts.T @ infl.shifts * infl.weight
                  - np.array([[2.0, 0.5], [0.5, 1.0]])).max() <= 1e-12
    with pytest.raises(errors.DomainError, match="V0 must be PSD"):
        measurement.inflate_covariance(pvm, np.array([[1.0, 0.0], [0.0, -0.1]]))
    assert len(eighs) == 2


def test_inflation_preserves_mean():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    ev = measurement.optimal_vectors_coherent(nf, fd, np.eye(2))
    pvm = measurement.pvm_from_vectors(ev)
    v0 = np.array([[1.0, 0.0], [0.0, 2.0]])
    infl = measurement.inflate_covariance(pvm, v0)
    assert abs(infl.shifts.mean(axis=0)).max() <= 1e-12
    v, _ = measurement.covariance_of_pvm(pvm, nf)
    vi = measurement.analytic_covariance(infl, nf)
    assert np.abs(vi - (v + v0)).max() <= 1e-12


def test_sampling_deterministic_and_consistent():
    mdl = model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    ev = measurement.optimal_vectors_quasi_classical(fr, fd)
    pvm = measurement.pvm_from_vectors(ev)
    a = measurement.sample_outcomes(pvm, fr, 5000, 42)
    b = measurement.sample_outcomes(pvm, fr, 5000, 42)
    assert np.array_equal(a.samples, b.samples)
    c = measurement.sample_outcomes(pvm, fr, 5000, 43)
    assert not np.array_equal(a.samples, c.samples)
    se = np.sqrt(np.diag(a.analytic_cov) / a.count)
    assert np.abs(a.mean - fr.theta).max() <= 4.0 * se.max()


def test_sampling_single_outcome_identity():
    phi = np.array([1.0, 0.0], dtype=complex)
    # no rays: the one outcome is the complement, the identity
    pvm = measurement.Pvm(rays=np.zeros((2, 0), dtype=complex), outcomes=np.zeros((1, 1)))
    frame = qubit_frame()
    r = measurement.sample_outcomes(pvm, frame, 100, 0)
    assert np.abs(r.samples - frame.theta[0]).max() == 0.0
    assert abs(r.cov[0, 0]) <= 1e-15
    assert np.array_equal(r.mean, frame.theta)


def _sampling_cases():
    """(name, measurement, frame, offsets, probs): a quasi-classical PVM on the
    model space, a Naimark-frame PVM and an InflatedPvm, with the outcome
    table each is sampled from (an InflatedPvm's rows are shift-major)."""
    mdl = model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    qc = measurement.pvm_from_vectors(measurement.optimal_vectors_quasi_classical(fr, fd))
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    coh = measurement.pvm_from_vectors(measurement.optimal_vectors_coherent(nf, fd, np.eye(2)))
    infl = measurement.inflate_covariance(coh, np.array([[1.0, 0.3], [0.3, 2.0]]))
    cases = []
    for name, pvm, frame in (("quasi_classical", qc, fr), ("naimark", coh, nf)):
        offsets = pvm.outcomes
        cases.append((name, pvm, frame, offsets,
                      measurement.outcome_probabilities(pvm, frame.phi)))
    _, _, _, offsets, probs = cases[1]
    rows = np.vstack([offsets + s for s in infl.shifts])
    cases.append(("inflated", infl, nf, rows, np.concatenate([probs * infl.weight] * len(infl.shifts))))
    return cases


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("count, seed", [(1, 5), (10_000, 1), (10_000, 2)])
def test_sampling_is_generator_choice_with_count_moments(case, count, seed):
    name, meas, frame, offsets, probs = _sampling_cases()[case]
    r = measurement.sample_outcomes(meas, frame, count, seed)
    idx = np.random.default_rng(seed).choice(len(probs), size=count, p=probs / probs.sum())
    assert np.array_equal(r.samples, offsets[idx] + frame.theta), name
    # per-shot sums, each column summed exactly
    ref_mean = np.array([math.fsum(col) / count for col in r.samples.T])
    drawn = offsets[idx]
    ref_cov = np.array([[math.fsum(drawn[:, i] * drawn[:, j]) / count
                         for j in range(drawn.shape[1])] for i in range(drawn.shape[1])])
    assert np.abs(r.mean - ref_mean).max() <= 1e-13 * np.abs(ref_mean).max()
    assert np.abs(r.cov - ref_cov).max() <= 1e-13 * np.abs(ref_cov).max()
    assert np.array_equal(r.analytic_cov, measurement.analytic_covariance(meas, frame))


def test_sampling_zero_count():
    _, pvm, frame, offsets, _ = _sampling_cases()[1]
    r = measurement.sample_outcomes(pvm, frame, 0, 3)
    assert r.count == 0 and r.samples.shape == (0, offsets.shape[1])
    assert not r.counts.any() and np.array_equal(r.estimates, offsets + frame.theta)
    assert r.mean is None and r.cov is None
    assert np.array_equal(r.analytic_cov, measurement.analytic_covariance(pvm, frame))


# a negative count, and a seed that default_rng rejects, are DomainErrors; the
# seed is checked even when no shot is drawn
@pytest.mark.parametrize("count, seed", [(-4, 3), (10, -1), (0, -1), (10, 1.5)])
def test_sampling_rejects_a_negative_count_or_a_bad_seed(count, seed):
    _, pvm, frame, _, _ = _sampling_cases()[1]
    with pytest.raises(errors.DomainError):
        measurement.sample_outcomes(pvm, frame, count, seed)


def test_sampling_reads_the_probabilities_once(count_calls):
    _, pvm, frame, _, _ = _sampling_cases()[1]
    probs = count_calls(measurement, "outcome_probabilities")
    cov = count_calls(measurement, "covariance_of_pvm")
    measurement.sample_outcomes(pvm, frame, 1000, 4)
    assert len(probs) == 1 and not cov


BLOCK = measurement.BLOCK


# A block that re-draws or skips a uniform shifts every later index.
@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
@pytest.mark.parametrize("case", [1, 2], ids=["naimark", "inflated"])
def test_sampling_blocks_continue_one_stream(case, count):
    name, meas, frame, offsets, probs = _sampling_cases()[case]
    p = probs / probs.sum()
    ref = np.random.default_rng(9).choice(len(p), size=count, p=p)
    drawn, counts = measurement._draw(np.random.default_rng(9), p, count)
    assert np.array_equal(drawn, ref) and drawn.dtype == np.uint8, name
    assert np.array_equal(counts, np.bincount(ref, minlength=len(p))), name
    r = measurement.sample_outcomes(meas, frame, count, 9)
    assert r.count == count and np.array_equal(r.drawn, ref), name
    assert np.array_equal(r.samples, offsets[ref] + frame.theta), name


def test_sampling_past_255_outcomes_uses_two_bytes():
    # 300 rays spanning C^300, one outcome each, with unequal probabilities
    rng = np.random.default_rng(2)
    rays = np.linalg.qr(rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300)))[0]
    pvm = measurement.Pvm(rays=rays, outcomes=rng.normal(size=(300, 2)))
    phi = rng.normal(size=300) + 1j * rng.normal(size=300)
    frame = TangentFrame(theta=np.array([0.3, -0.1]), phi=phi / np.linalg.norm(phi),
                         lifts=np.zeros((300, 2), dtype=complex))
    probs = measurement.outcome_probabilities(pvm, frame.phi)
    r = measurement.sample_outcomes(pvm, frame, 20_000, 6)
    ref = np.random.default_rng(6).choice(300, size=20_000, p=probs / probs.sum())
    assert r.drawn.dtype == np.uint16 and r.drawn.max() > 255
    assert np.array_equal(r.drawn, ref)
    assert np.array_equal(r.samples, pvm.outcomes[ref] + frame.theta)


def test_sampling_memory_is_one_byte_per_shot():
    _, pvm, frame, _, _ = _sampling_cases()[1]   # shifted n = 0, coherent
    measurement.sample_outcomes(pvm, frame, 10, 0)
    tracemalloc.start()
    try:
        r = measurement.sample_outcomes(pvm, frame, 1_000_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.drawn.nbytes == 1_000_000
    assert peak < 4 * 2 ** 20, peak


def test_bad_probability():
    # ray corrupted so the complement's <phi|E|phi> goes negative: 1.2 and -0.2
    phi = np.array([1.0, 0.0], dtype=complex)
    bad = np.array([[math.sqrt(1.2)], [0.0]], dtype=complex)
    pvm = measurement.Pvm(rays=bad, outcomes=np.zeros((2, 1)))
    with pytest.raises(errors.BadProbability):
        measurement.outcome_probabilities(pvm, phi)


def test_marginal_vectors_variance():
    mdl = model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    jsinv = matkernel.inv_psd(fd.JS)
    for i in (0, 1):
        ev = measurement.marginal_vectors(fr, fd, i)
        pvm = measurement.pvm_from_vectors(ev)
        v, unbiased = measurement.covariance_of_pvm(pvm, fr)
        assert abs(v[0, 0] - jsinv[i, i]) <= (1e-10 if i == 0 else 1.0)
        if i == 0:
            assert unbiased


def _scaled_shifted_n0(c):
    """Frame and Fisher data of shifted n = 0 at (0.2, -0.4) with its lifts times c."""
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    base = model.tangent_frame(mdl, mdl.theta0)
    scaled = model.custom_model(base.phi.size, 2, base.phi, 0.5 * c * base.lifts.T, np.zeros(2))
    fr = model.tangent_frame(scaled, scaled.theta0)
    return fr, model.fisher_data(fr)


# A marginal PVM's vectors and offsets are in theta. Each vector residual is
# checked against its own size (|X|, |X|^2 or |X| ||L||), so the PVM builds and
# reads unbiased, and a detuned one biased, in any units of theta. Against
# ||X*X|| alone the optimal PVM read biased at lifts times 1e5 and failed its
# reconstruction at 1e8; against max(1, ||X*X||) the detuned one read unbiased
# at 1e-4.
@pytest.mark.parametrize("c", [1e-10, 1e-6, 1e-4, 1.0, 1e5, 1e6, 1e8])
def test_marginal_pvm_is_unbiased_in_any_units(c):
    fr, fd = _scaled_shifted_n0(c)
    ev = measurement.marginal_vectors(fr, fd, 0)
    v, unbiased = measurement.covariance_of_pvm(measurement.pvm_from_vectors(ev), fr)
    assert unbiased
    assert abs(v[0, 0] - 0.5 / c ** 2) <= 1e-12 * v[0, 0]
    bad = measurement.EstimationVectors(X=1.1 * ev.X, phi=ev.phi)
    assert not measurement.covariance_of_pvm(measurement.pvm_from_vectors(bad), fr)[1]


def test_exclusiveness_extraction_check():
    # the lifts times c: the precondition is relative to (JS^-1)_11, so it holds
    # in every unit of theta, and a detuned measurement fails it in every one
    for c in (1e-6, 1.0, 1e4):
        fr, fd = _scaled_shifted_n0(c)
        ev = measurement.marginal_vectors(fr, fd, 0)
        pvm = measurement.pvm_from_vectors(ev)
        stat = measurement.exclusiveness_extraction_check(pvm, fr, fd, 1)
        assert stat <= 1e-8, c
        # a detuned measurement misses the marginal bound
        bad = measurement.pvm_from_vectors(
            measurement.EstimationVectors(X=1.1 * ev.X, phi=ev.phi))
        with pytest.raises(errors.PreconditionNotMet):
            measurement.exclusiveness_extraction_check(bad, fr, fd, 1)


def test_pvm_json_roundtrip():
    mdl = model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    ev = measurement.optimal_vectors_quasi_classical(fr, fd)
    pvm = measurement.pvm_from_vectors(ev)
    obj = measurement.pvm_to_obj(pvm, theta=fr.theta)
    back = measurement.pvm_from_obj(obj, pvm.m, theta=fr.theta)
    assert back.dim == pvm.dim and len(back.outcomes) == len(pvm.outcomes)
    for oa, ob, pa, pb in zip(pvm.outcomes, back.outcomes, projectors(pvm), projectors(back)):
        assert np.abs(oa - ob).max() <= 1e-15
        assert np.abs(pa - pb).max() <= 1e-15
    with pytest.raises(errors.SchemaError):
        measurement.pvm_from_obj([{"outcome": [0.0]}], 1)


@pytest.mark.parametrize("entry", [
    {"outcome": [0.0], "projector": 5},
    {"outcome": "a", "projector": [[1.0, 0.0]]},
    {"outcome": [0.0], "projector": [[1.0, 0.0, 0.0]]},
    {"outcome": [0.0], "projector": [[1.0, "x"]]},
    {"outcome": [0.0], "projector": [[1.0, 0.0], [0.0, 0.0]]},
    {"outcome": [0.0, 1.0], "projector": [[1.0, 0.0]]},
], ids=["scalar", "text_outcome", "triples", "text_entry", "not_square", "wrong_m"])
def test_pvm_from_obj_rejects_malformed_entries(entry):
    with pytest.raises(errors.SchemaError):
        measurement.pvm_from_obj([entry], 1)
