"""Projective measurement synthesis: algebra, attainment, sampling."""

import math

import numpy as np
import pytest

from qcrb import analysis, errors, matkernel, measurement, model, oracle
from qcrb.model import FisherData, TangentFrame


def qubit_frame():
    # phi(t) = (cos t/2, sin t/2) at t = 0: lift (0,1), JS = 1
    phi = np.array([1.0, 0.0], dtype=complex)
    lifts = np.array([[0.0], [1.0]], dtype=complex)
    return TangentFrame(theta=np.array([0.0]), phi=phi, lifts=lifts)


def test_qubit_hand_construction():
    # x = (0,1): projectors onto (1,+-1)/sqrt2, outcomes +-1, variance 1
    frame = qubit_frame()
    x = np.array([[0.0], [1.0]], dtype=complex)
    ev = measurement.EstimationVectors(X=x, phi=frame.phi)
    pvm = measurement.pvm_from_vectors(ev)
    assert pvm.m == 1 and pvm.dim == 2 and len(pvm.outcomes) == 2
    offsets = sorted(float(o[0]) for o, _ in pvm.outcomes)
    assert abs(offsets[0] + 1.0) <= 1e-12 and abs(offsets[1] - 1.0) <= 1e-12
    for offset, proj in pvm.outcomes:
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
    offs = sorted(abs(float(o[0])) for o, _ in pvm.outcomes)
    assert abs(offs[-1] - c) <= 1e-12


def test_pvm_rejects_nonorthogonal_x():
    phi = np.array([1.0, 0.0], dtype=complex)
    x = np.array([[0.5], [1.0]], dtype=complex)  # <phi|x> != 0
    with pytest.raises(errors.DomainError):
        measurement.pvm_from_vectors(measurement.EstimationVectors(X=x, phi=phi))


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


def test_naimark_frame_reuses_the_gram_root(count_calls):
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    roots = count_calls(matkernel, "sqrt_psd")
    measurement.naimark_frame(fd)
    assert len(roots) == 1   # the Fisher data do not take the root
    measurement.naimark_frame(fd)
    assert len(roots) == 1


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
    assert max(measurement.estimation_residuals(ev, nf.lifts).values()) <= 1e-8
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
    rexx = (ev.X.conj().T @ ev.X).real
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
    total = sum(proj for _, proj in pvm.outcomes)
    assert np.abs(total - np.eye(5)).max() <= 1e-9
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
    pvm = measurement.Pvm(m=1, dim=2,
                          outcomes=[(np.zeros(1), np.eye(2, dtype=complex))])
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
        offsets = np.array([o for o, _ in pvm.outcomes])
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
    assert r.mean is None and r.cov is None
    assert np.array_equal(r.analytic_cov, measurement.analytic_covariance(pvm, frame))


def test_sampling_reads_the_probabilities_once(count_calls):
    _, pvm, frame, _, _ = _sampling_cases()[1]
    probs = count_calls(measurement, "outcome_probabilities")
    cov = count_calls(measurement, "covariance_of_pvm")
    measurement.sample_outcomes(pvm, frame, 1000, 4)
    assert len(probs) == 1 and not cov


def test_bad_probability():
    # projector corrupted so <phi|E|phi> goes negative
    phi = np.array([1.0, 0.0], dtype=complex)
    bad = [(np.zeros(1), -0.2 * np.eye(2, dtype=complex)),
           (np.zeros(1), 1.2 * np.eye(2, dtype=complex))]
    pvm = measurement.Pvm(m=1, dim=2, outcomes=bad)
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


def test_exclusiveness_extraction_check():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    ev = measurement.marginal_vectors(fr, fd, 0)
    pvm = measurement.pvm_from_vectors(ev)
    stat = measurement.exclusiveness_extraction_check(pvm, fr, fd, 1)
    assert stat <= 1e-8
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
    for (oa, pa), (ob, pb) in zip(pvm.outcomes, back.outcomes):
        assert np.abs(oa - ob).max() <= 1e-15
        assert np.abs(pa - pb).max() <= 1e-15
    with pytest.raises(errors.SchemaError):
        measurement.pvm_from_obj([{"outcome": [0.0]}], 1)
