"""Projective measurement synthesis: algebra, attainment, sampling."""

import functools
import json
import math
import tracemalloc
import types

import numpy as np
import pytest

import paper_statements
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
    ev = measurement.EstimationVectors(X=x, phi=frame.phi, w=np.eye(1))
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
    pvm = measurement.pvm_from_vectors(measurement.EstimationVectors(X=x, phi=frame.phi,
                                                                     w=np.eye(1)))
    v, _ = measurement.covariance_of_pvm(pvm, frame)
    assert abs(v[0, 0] - c * c) <= 1e-12
    offs = sorted(abs(float(o[0])) for o in pvm.outcomes)
    assert abs(offs[-1] - c) <= 1e-12


def test_pvm_rejects_nonorthogonal_x():
    phi = np.array([1.0, 0.0], dtype=complex)
    x = np.array([[0.5], [1.0]], dtype=complex)  # <phi|x> != 0
    with pytest.raises(errors.DomainError):
        measurement.pvm_from_vectors(measurement.EstimationVectors(X=x, phi=phi, w=np.eye(1)))


# dependence is |R_kk| within TOL "eigen_dust" of |X| = sqrt(||X*X||): a 1e-11
# column beside a unit one is dependent, and vectors that are all 1e-11 but
# independent are not (absolute, the cut refused them)
@pytest.mark.parametrize("x, dependent", [
    ([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]], True),
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-11]], True),
    ([[0.0, 0.0], [1.0, 0.5]], True),
    ([[0.0, 0.0], [1e-11, 0.0], [0.0, 1e-11]], False),
], ids=["parallel", "nearly_zero", "more_vectors_than_dim", "small_independent"])
def test_pvm_rejects_dependent_x(x, dependent):
    x = np.array(x, dtype=complex)
    phi = np.zeros(x.shape[0], dtype=complex)
    phi[0] = 1.0
    ev = measurement.EstimationVectors(X=x, phi=phi, w=np.eye(2))
    if dependent:
        with pytest.raises(errors.DomainError, match="linearly dependent"):
            measurement.pvm_from_vectors(ev)
    else:
        pvm = measurement.pvm_from_vectors(ev)
        assert measurement.reconstruction_residual(pvm, ev) <= 1e-8 * 1e-11


@pytest.mark.parametrize("scale", [0.0, 1e-12, 2.0])
def test_pvm_rejects_a_phi_that_is_not_a_unit_vector(scale):
    # phi is not a vector of the Gram-Schmidt cut, which reads only X's: its
    # norm is checked on its own (a zero phi was dependent, a 2 e_0 passed to a
    # ConsistencyError)
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
    phi = np.array([scale, 0.0, 0.0], dtype=complex)
    with pytest.raises(errors.DomainError, match="norm"):
        measurement.pvm_from_vectors(measurement.EstimationVectors(X=x, phi=phi, w=np.eye(2)))


def test_pvm_rejects_x_without_columns():
    # no estimation vectors: nothing to measure, rather than one ray and an
    # empty offset table
    phi = np.array([1.0, 0.0, 0.0], dtype=complex)
    ev = measurement.EstimationVectors(X=np.zeros((3, 0), dtype=complex), phi=phi,
                                       w=np.eye(0))
    with pytest.raises(errors.DomainError, match="no columns"):
        measurement.pvm_from_vectors(ev)


def _spin2_frame_in_five_levels():
    """Spin s = 2, m_z = 0 at (0.8, 0.5): its three-level frame padded with two
    empty levels, as a custom model. It is quasi-classical in dim 5, so its PVM
    has three rays and a rank-2 complement."""
    spin = model.catalog_spin_rotation(2.0, 0.0, [0.8, 0.5])
    phi, dphi = spin.state(spin.theta0)
    pad = np.zeros((2, 2), dtype=complex)
    mdl = model.custom_model(5, 2, np.r_[phi, pad[0]], np.vstack([dphi, pad]).T, spin.theta0)
    return model.tangent_frame(mdl, mdl.theta0)


def _spin2_vectors():
    # dim 5 and m = 2: three rays and a rank-2 complement
    fr = _spin2_frame_in_five_levels()
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
    bad = measurement.Pvm(rays=corrupt(pvm.rays), offsets=pvm.offsets, w=pvm.w)
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
                                         phi=np.array([1.0, 0.0], dtype=complex), w=np.eye(1))]
    mdl = model.catalog_squeezed([0.3, -0.2, 0.4, 0.7])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    evs.append(measurement.optimal_vectors_coherent(measurement.naimark_frame(fd, mdl.theta0),
                                                    fd, np.eye(4)))
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
    nf = measurement.naimark_frame(fd, mdl.theta0)
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
    ev = measurement.EstimationVectors(X=fr.lifts, phi=fr.phi, w=np.eye(2))
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
    # and the coherent route requires every beta at 1: spin (1.5, 0.5) is generic
    mdl = model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    with pytest.raises(errors.NotCoherent):
        measurement.optimal_vectors_coherent(measurement.naimark_frame(fd, mdl.theta0), fd,
                                             np.eye(2))


def test_naimark_frame_reproduces_gram():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd, mdl.theta0)
    assert nf.phi.shape == (5,) and not hasattr(nf, "svd")
    assert abs(nf.phi[0] - 1.0) <= 1e-12
    assert np.abs(nf.lifts.conj().T @ nf.lifts - fd.gram).max() <= 1e-10
    assert np.abs(nf.lifts.conj().T @ nf.phi).max() <= 1e-12


def test_naimark_frame_reuses_the_gram_root(monkeypatch, count_calls):
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    built = []
    original = analysis.FisherData.lift_factor

    def counted(spec):
        built.append(spec)
        return original.func(spec)

    factor = functools.cached_property(counted)
    factor.__set_name__(analysis.FisherData, "lift_factor")
    monkeypatch.setattr(analysis.FisherData, "lift_factor", factor)
    eighs = count_calls(np.linalg, "eigh")
    measurement.naimark_frame(fd, mdl.theta0)
    assert len(built) == 1   # the Fisher data do not take the factor
    assert len(eighs) == 1   # iK; the factor itself decomposes nothing
    measurement.naimark_frame(fd, mdl.theta0)
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
    nf = measurement.naimark_frame(fd, mdl.theta0)
    assert np.array_equal(res.lifts, nf.lifts)


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


@pytest.mark.parametrize("build, g", [
    (lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]), np.eye(2)),
    (lambda: model.catalog_spin_rotation(2.0, 1.0, [0.9, 0.3]), np.eye(2)),
    (lambda: model.catalog_shifted_number(3, [0.3, -0.2]), np.eye(2)),
    (lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]), np.diag([1.0, 0.0])),
], ids=["spin_1.5", "spin_2", "shifted_n3", "spin_1.5_rank1"])
def test_vectors_take_phi_from_the_embedding_they_are_built_in(build, g):
    # every route but the quasi-classical one builds X' in the Naimark
    # embedding and takes its phi there, so the model's own frame gives the
    # vectors of pvm_space's frame, and their PVM attains the bound there
    mdl = build()
    frame = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(frame)
    space = measurement.pvm_space(frame, fd)
    ev, rep = measurement.optimal_vectors(frame, fd, g)
    ref, _ = measurement.optimal_vectors(space, fd, g)
    assert np.array_equal(ev.X, ref.X) and np.array_equal(ev.phi, ref.phi)
    v, unbiased = measurement.covariance_of_pvm(measurement.pvm_from_vectors(ev), space)
    assert unbiased
    assert abs(np.sum(g * v) - rep.value) <= 1e-9 * rep.value


def test_zero_weight_on_a_coherent_model_is_attained():
    # any estimator attains CR(0) = 0; the report's covariance must be feasible
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd, mdl.theta0)
    ev, rep = measurement.optimal_vectors(nf, fd, np.zeros((2, 2)))
    assert rep.value == 0.0 and rep.attained
    assert np.abs(rep.V_opt - 2.0 * fd.js_powers[0]).max() <= 1e-12
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
    nf = measurement.naimark_frame(fd, mdl.theta0)
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
    nf = measurement.naimark_frame(fd, mdl.theta0)
    w, u = np.linalg.eigh(fd.gram)
    null = u[:, w <= matkernel.TOL["eigen_dust"] * max(1.0, np.abs(fd.gram).max())]
    assert null.shape[1] > 0
    assert np.abs(nf.lifts @ null).max() <= 1e-15


def test_lemma_ordering_on_constructed_pvm():
    # V >= Re X*X >= JS^{-1} up to eigen dust
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd, mdl.theta0)
    ev = measurement.optimal_vectors_coherent(nf, fd, np.eye(2))
    pvm = measurement.pvm_from_vectors(ev)
    v, _ = measurement.covariance_of_pvm(pvm, nf)
    x = ev.X @ ev.w   # the vectors in theta
    rexx = (x.conj().T @ x).real
    jsinv = matkernel.inv_psd(fd.JS)
    assert paper_statements.psd_geq(v + 1e-9 * np.eye(2), rexx)
    assert paper_statements.psd_geq(rexx + 1e-9 * np.eye(2), jsinv)


def test_remainder_projector_completes():
    fr = _spin2_frame_in_five_levels()
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
    pvm = measurement.pvm_from_vectors(measurement.EstimationVectors(X=x, phi=frame.phi,
                                                                     w=np.eye(1)))
    v, _ = measurement.covariance_of_pvm(pvm, frame)
    infl = paper_statements.inflate_covariance(pvm, np.array([[0.5]]))
    vi = paper_statements.analytic_covariance(infl, frame)
    assert abs(vi[0, 0] - 1.5) <= 1e-12
    same = paper_statements.inflate_covariance(pvm, np.zeros((1, 1)))
    assert np.abs(paper_statements.analytic_covariance(same, frame) - v).max() <= 1e-12
    with pytest.raises(errors.DomainError):
        paper_statements.inflate_covariance(pvm, np.array([[-0.1]]))


def test_inflate_covariance_decomposes_v0_once(count_calls):
    # the PSD decision and the square root come from one eigendecomposition
    pvm = measurement.pvm_from_vectors(_spin2_vectors())
    eighs = count_calls(np.linalg, "eigh")
    infl = paper_statements.inflate_covariance(pvm, np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert len(eighs) == 1
    assert np.abs(infl.shifts.T @ infl.shifts * infl.weight
                  - np.array([[2.0, 0.5], [0.5, 1.0]])).max() <= 1e-12
    with pytest.raises(errors.DomainError, match="V0 must be PSD"):
        paper_statements.inflate_covariance(pvm, np.array([[1.0, 0.0], [0.0, -0.1]]))
    assert len(eighs) == 2


def test_inflation_preserves_mean():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    ev = measurement.optimal_vectors_coherent(nf, fd, np.eye(2))
    pvm = measurement.pvm_from_vectors(ev)
    v0 = np.array([[1.0, 0.0], [0.0, 2.0]])
    infl = paper_statements.inflate_covariance(pvm, v0)
    assert abs(infl.shifts.mean(axis=0)).max() <= 1e-12
    v, _ = measurement.covariance_of_pvm(pvm, nf)
    vi = paper_statements.analytic_covariance(infl, nf)
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
    pvm = measurement.Pvm(rays=np.zeros((2, 0), dtype=complex), offsets=np.zeros((1, 1)),
                          w=np.eye(1))
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
    infl = paper_statements.inflate_covariance(coh, np.array([[1.0, 0.3], [0.3, 2.0]]))
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
    assert np.array_equal(r.analytic_cov, paper_statements.analytic_covariance(meas, frame))


def test_sampling_zero_count():
    _, pvm, frame, offsets, _ = _sampling_cases()[1]
    r = measurement.sample_outcomes(pvm, frame, 0, 3)
    assert r.count == 0 and r.samples.shape == (0, offsets.shape[1])
    assert not r.counts.any() and np.array_equal(r.estimates, offsets + frame.theta)
    assert r.mean is None and r.cov is None
    assert np.array_equal(r.analytic_cov, paper_statements.analytic_covariance(pvm, frame))


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
    pvm = measurement.Pvm(rays=rays, offsets=rng.normal(size=(300, 2)), w=np.eye(2))
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


# A PVM keeps the validated probabilities of each state it was read at: the
# covariance fills that cache and sampling reads it, so the pair takes one
# probability pass. The rays, offsets and cached probabilities are read-only.
@pytest.mark.parametrize("case", [0, 1], ids=["quasi_classical", "naimark"])
def test_covariance_then_sampling_take_one_probability_pass(count_calls, case):
    _, pvm, frame, _, probs = _sampling_cases()[case]
    pvm = measurement.Pvm(rays=pvm.rays, offsets=pvm.offsets, w=pvm.w)
    rows = count_calls(measurement, "_expectations")
    checked = count_calls(measurement, "outcome_probabilities")
    measurement.covariance_of_pvm(pvm, frame)
    r = measurement.sample_outcomes(pvm, frame, 1000, 4)
    measurement.sample_outcomes(pvm, frame, 10, 5)
    assert rows == ["_expectations"] and checked == ["outcome_probabilities"]
    cached, = pvm.probs.values()
    assert np.array_equal(cached, probs) and r.count == 1000
    for a in (pvm.rays, pvm.offsets, cached):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_bad_probability():
    # ray corrupted so the complement's <phi|E|phi> goes negative: 1.2 and -0.2
    phi = np.array([1.0, 0.0], dtype=complex)
    bad = np.array([[math.sqrt(1.2)], [0.0]], dtype=complex)
    pvm = measurement.Pvm(rays=bad, offsets=np.zeros((2, 1)), w=np.eye(1))
    with pytest.raises(errors.BadProbability):
        measurement.outcome_probabilities(pvm, phi)


def test_marginal_vectors_variance():
    mdl = model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    jsinv = matkernel.inv_psd(fd.JS)
    for i in (0, 1):
        ev = paper_statements.marginal_vectors(fr, fd, i)
        pvm = measurement.pvm_from_vectors(ev)
        v, unbiased = paper_statements.marginal_covariance(pvm, fr, i)
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
# checked against its own size (|X|, |X|^2 or |X| ||L||), and so is the
# Gram-Schmidt cut (|X|), so the PVM builds and reads unbiased, and a detuned
# one biased, in any units of theta. Against ||X*X|| alone the optimal PVM
# read biased at lifts times 1e5 and failed its reconstruction at 1e8; against
# max(1, ||X*X||) the detuned one read unbiased at 1e-4; with an absolute
# Gram-Schmidt cut the vectors (about 7e-11 at 1e10) read as dependent.
@pytest.mark.parametrize("c", [1e-10, 1e-6, 1e-4, 1.0, 1e5, 1e6, 1e8, 1e10, 1e12])
def test_marginal_pvm_is_unbiased_in_any_units(c):
    fr, fd = _scaled_shifted_n0(c)
    ev = paper_statements.marginal_vectors(fr, fd, 0)
    v, unbiased = paper_statements.marginal_covariance(measurement.pvm_from_vectors(ev), fr, 0)
    assert unbiased
    assert abs(v[0, 0] - 0.5 / c ** 2) <= 1e-12 * v[0, 0]
    bad = measurement.EstimationVectors(X=1.1 * ev.X, phi=ev.phi, w=ev.w)
    assert not paper_statements.marginal_covariance(measurement.pvm_from_vectors(bad), fr, 0)[1]


def test_exclusiveness_extraction_check():
    # the lifts times c: the precondition is relative to (JS^-1)_11, so it holds
    # in every unit of theta, and a detuned measurement fails it in every one
    for c in (1e-6, 1.0, 1e4):
        fr, fd = _scaled_shifted_n0(c)
        ev = paper_statements.marginal_vectors(fr, fd, 0)
        pvm = measurement.pvm_from_vectors(ev)
        stat = paper_statements.exclusiveness_extraction_check(pvm, fr, fd, 1)
        assert stat <= 1e-8, c
        # a detuned measurement misses the marginal bound
        bad = measurement.pvm_from_vectors(
            measurement.EstimationVectors(X=1.1 * ev.X, phi=ev.phi, w=ev.w))
        with pytest.raises(errors.PreconditionNotMet):
            paper_statements.exclusiveness_extraction_check(bad, fr, fd, 1)


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
        measurement.pvm_from_obj([{"outcome": [0.0]}], 1, np.zeros(1))


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
        measurement.pvm_from_obj([entry], 1, np.zeros(1))


N0_CONFIG = {"model": "shifted_number", "n": 0, "theta": [0.2, -0.4]}


def _stored_n0_pvm(tmp_path, outcome):
    """The PVM file that `qcrb pvm` writes for N0_CONFIG, with the first entry of
    its first outcome replaced by `outcome`."""
    from qcrb import cli

    config, path = tmp_path / "n0.json", tmp_path / "made.json"
    config.write_text(json.dumps(N0_CONFIG))
    assert cli.main(["pvm", "--config", str(config), "--out", str(path)]) == 0
    doc = json.loads(path.read_text())["pvm"]
    doc[0]["outcome"][0] = outcome
    return doc


# Checks of the PVM file that no other test reaches, through `qcrb simulate` (exit 2).
# An outcome is finite, and no farther from theta than the z-scores of a sample,
# which square the covariance, can stay finite (1e80 and 1e308 are too far).
@pytest.mark.parametrize("pvm_doc, error, match", [
    ([], "SchemaError", "nonempty list"),
    ([{"outcome": [0.1, 0.2], "projector": [[1.0, 0.0]] * 4},
      {"outcome": [0.3, 0.4], "projector": [[1.0, 0.0]] * 9}], "SchemaError",
     "inconsistent projector"),
    (math.nan, "SchemaError", "finite"),
    (math.inf, "SchemaError", "finite"),
    (1e308, "DomainError", "overflow"),
    (1e80, "DomainError", "overflow"),
], ids=["empty", "mixed_dimensions", "nan_outcome", "infinite_outcome", "outcome_1e308",
        "outcome_1e80"])
def test_pvm_file_checks_reject_their_inputs(tmp_path, cli_error, pvm_doc, error, match):
    if isinstance(pvm_doc, float):
        pvm_doc = _stored_n0_pvm(tmp_path, pvm_doc)
    path = tmp_path / "pvm.json"
    path.write_text(json.dumps(pvm_doc))
    code, out, err = cli_error(["simulate", "--pvm", path], N0_CONFIG)
    assert (code, out, err["error"]) == (2, "", error)
    assert match in err["message"]


def test_a_stored_outcome_far_from_theta_is_sampled(tmp_path, capsys):
    # 1e60 squared twice is 1e240: the z-scores stay finite, with no warning
    from qcrb import cli

    path = tmp_path / "pvm.json"
    path.write_text(json.dumps(_stored_n0_pvm(tmp_path, 1e60)))
    capsys.readouterr()
    assert cli.main(["simulate", "--config", str(tmp_path / "n0.json"), "--pvm", str(path),
                     "--samples", "1000"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["count"] == 1000
