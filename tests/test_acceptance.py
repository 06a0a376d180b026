"""Ten headline checks, one test per criterion.

Closed forms are validated against two independent optimizers, the penalty
reference (`penalty_oracle`, tests only) and the Holevo SDP of `qcrb.oracle`,
and against hand-derived anchors; nothing here trusts the code path it is
testing.
"""

import math
import time

import numpy as np
import pytest

import paper_statements
import penalty_oracle
from qcrb import analysis, matkernel, measurement, model, oracle
from qcrb.model import FisherData

BETA_GRID = (0.0, 0.3, 0.6, 0.9, 1.0)
SDP_TOL = 1e-8     # relative agreement of the SDP with a closed form


def sdp_value_agrees(g, gram, expect):
    res = oracle.minimize(oracle.OracleProblem(gram=gram, G=g))
    assert res.gap <= matkernel.TOL["gap"] * max(1.0, res.value)
    return abs(res.value - expect) <= SDP_TOL * max(1.0, abs(expect))


def synthetic_fd(beta):
    jt = beta * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return FisherData(JS=np.eye(2), Jt=jt, gram=np.eye(2) + 1j * jt)


def seeded_pd_weights(seed, count, m=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        b = rng.normal(size=(m, m))
        out.append(b @ b.T + 0.1 * np.eye(m))
    return out


@pytest.fixture(scope="module")
def grid_oracle_runs():
    """Penalty and SDP solutions for the beta grid, shared by criteria 3 and 10."""
    runs = []
    for beta in BETA_GRID:
        fd = synthetic_fd(beta)
        for k, g in enumerate(seeded_pd_weights(1000 + int(beta * 10), 5)):
            problem = penalty_oracle.OracleProblem(gram=fd.gram, G=g, restarts=6,
                                                   seed=31 * k + 7)
            result = penalty_oracle.minimize(problem)
            closed = analysis.cr_bound_2param(fd, g)
            solved = oracle.minimize(oracle.OracleProblem(gram=fd.gram, G=g))
            runs.append((beta, fd, g, problem, result, closed, solved))
    return runs


def test_criterion_01_beta_closed_forms():
    rng = np.random.default_rng(101)
    for s in (0.5, 1.0, 1.5, 2.0, 2.5):
        for m_z in np.arange(-s, s + 0.5, 1.0):
            expect = abs(m_z) / (s * (s + 1) - m_z * m_z)
            for _ in range(3):
                theta = [rng.uniform(0.2, math.pi - 0.2),
                         rng.uniform(0.0, 2.0 * math.pi)]
                mdl = model.catalog_spin_rotation(s, float(m_z), theta)
                fd = model.fisher_data(model.tangent_frame(mdl, theta))
                betas = analysis.beta_spectrum(fd).betas
                assert abs(betas[0] - expect) <= 1e-8, (s, m_z, theta)
                assert abs(betas[1] - expect) <= 1e-8, (s, m_z, theta)
    for n in (0, 1, 2, 3):
        theta = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
        mdl = model.catalog_shifted_number(n, theta)
        fd = model.fisher_data(model.tangent_frame(mdl, theta))
        betas = analysis.beta_spectrum(fd).betas
        assert np.abs(betas - 1.0 / (2 * n + 1)).max() <= 1e-6, n


def test_criterion_02_squeezed_fisher_matrices():
    for theta in ([0.0, 0.0, 0.3, 0.2], [1.0, -1.0, 0.5, 0.0]):
        mdl = model.catalog_squeezed(theta)
        fd = model.fisher_data(model.tangent_frame(mdl, theta))
        js, jt = model.squeezed_closed_forms(theta)
        assert np.abs(fd.JS - js).max() <= 1e-6, theta
        assert np.abs(fd.Jt - jt).max() <= 1e-6, theta
        djs = abs(np.linalg.det(fd.JS))
        djt = abs(np.linalg.det(fd.Jt))
        assert abs(djs - djt) <= 1e-6 * max(djs, djt), theta


def test_criterion_03_two_param_bound_vs_oracle(grid_oracle_runs):
    start = time.monotonic()
    assert len(grid_oracle_runs) == 25
    for beta, fd, g, problem, result, closed, solved in grid_oracle_runs:
        assert abs(closed.value - result.value) <= 1e-4, (beta, g.tolist())
        assert abs(closed.value - solved.value) <= SDP_TOL * max(1.0, closed.value), \
            (beta, g.tolist())
        assert solved.gap <= matkernel.TOL["gap"] * max(1.0, solved.value)
    assert time.monotonic() - start <= 600.0


def test_criterion_04_js_weight_triple_agreement():
    for beta in BETA_GRID:
        expect = 4.0 / (1.0 + math.sqrt(1.0 - beta * beta))
        fd = synthetic_fd(beta)
        v1 = analysis.cr_bound_2param(fd, fd.JS).value
        v2 = analysis.cr_bound_js_weight(fd).value
        curve = analysis.boundary_2param(beta, count=11)
        k = int(np.argmin(np.abs(curve[:, 0])))
        assert abs(curve[k, 0]) <= 1e-12  # x = 0 sample is exact
        v3 = curve[k, 2] + curve[k, 3]
        for v in (v1, v2, v3):
            assert abs(v - expect) <= 1e-9, (beta, v1, v2, v3)


def test_criterion_05_coherent_bound_vs_oracle():
    n0 = model.catalog_shifted_number(0, [0.2, -0.4])
    fd0 = model.fisher_data(model.tangent_frame(n0, n0.theta0))
    sq = model.catalog_squeezed([0.3, -0.2, 0.4, 0.7])
    fds = model.fisher_data(model.tangent_frame(sq, sq.theta0))
    cases = [(fd0, np.eye(2)), (fd0, seeded_pd_weights(55, 1)[0]),
             (fds, np.eye(4)), (fds, seeded_pd_weights(56, 1, m=4)[0])]
    for fd, g in cases:
        closed = analysis.closed_form(fd, fd.weight(g))
        assert closed.method == ("closed_form_2param" if len(g) == 2 else "closed_form_coherent")
        res = penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=fd.gram, G=g,
                                                                   restarts=6, seed=5))
        assert abs(closed.value - res.value) <= 1e-4, g.shape
        assert sdp_value_agrees(g, fd.gram, closed.value), g.shape
    rep = analysis.closed_form(fd0, fd0.weight(np.eye(2)))
    assert abs(rep.value - 2.0) <= 1e-9
    assert abs(np.trace(rep.V_opt) - rep.value) <= 1e-9


def test_criterion_06_pvm_attainment():
    # quasi-classical: covariance equals the inverse Fisher matrix
    spin = model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1])
    phi = np.array([0.6, 0.8, 0.0], dtype=complex)
    dphi = np.array([[-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    custom = model.custom_model(3, 2, phi, dphi, [0.0, 0.0])
    for mdl in (spin, custom):
        fr = model.tangent_frame(mdl, mdl.theta0)
        fd = model.fisher_data(fr)
        ev = measurement.optimal_vectors_quasi_classical(fr, fd)
        pvm = measurement.pvm_from_vectors(ev)
        assert max(measurement.pvm_algebra_residuals(pvm).values()) <= 1e-9
        v, unbiased = measurement.covariance_of_pvm(pvm, fr)
        assert unbiased
        assert np.abs(v - matkernel.inv_psd(fd.JS)).max() <= 1e-8
    # coherent: Tr G V matches the closed form
    n0 = model.catalog_shifted_number(0, [0.2, -0.4])
    sq = model.catalog_squeezed([0.3, -0.2, 0.4, 0.7])
    for mdl, g in ((n0, np.eye(2)), (n0, seeded_pd_weights(57, 1)[0]),
                   (sq, np.eye(4))):
        fr = model.tangent_frame(mdl, mdl.theta0)
        fd = model.fisher_data(fr)
        closed = analysis.closed_form(fd, fd.weight(g))
        assert closed.method == ("closed_form_2param" if len(g) == 2 else "closed_form_coherent")
        nf = measurement.naimark_frame(fd, theta=mdl.theta0)
        ev = measurement.optimal_vectors_coherent(nf, fd, g)
        pvm = measurement.pvm_from_vectors(ev)
        assert max(measurement.pvm_algebra_residuals(pvm).values()) <= 1e-9
        v, unbiased = measurement.covariance_of_pvm(pvm, nf)
        assert unbiased
        assert abs(np.sum(g * v) - closed.value) <= 1e-6


def test_criterion_07_sampling_consistency():
    count = 100_000
    jobs = []
    spin = model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1])
    fr = model.tangent_frame(spin, spin.theta0)
    fd = model.fisher_data(fr)
    jobs.append((measurement.pvm_from_vectors(
        measurement.optimal_vectors_quasi_classical(fr, fd)), fr))
    for theta in ([0.2, -0.4], [1.0, 0.5]):
        n0 = model.catalog_shifted_number(0, theta)
        fr0 = model.tangent_frame(n0, n0.theta0)
        fd0 = model.fisher_data(fr0)
        nf = measurement.naimark_frame(fd0, theta=n0.theta0)
        ev = measurement.optimal_vectors_coherent(nf, fd0, np.eye(2))
        jobs.append((measurement.pvm_from_vectors(ev), nf))
    for k, (pvm, frame) in enumerate(jobs):
        a = measurement.sample_outcomes(pvm, frame, count, 1234 + k)
        b = measurement.sample_outcomes(pvm, frame, count, 1234 + k)
        assert np.array_equal(a.samples, b.samples)
        theta = np.asarray(frame.theta, dtype=float)
        va = a.analytic_cov
        se_mean = np.sqrt(np.diag(va) / count)
        assert np.abs(a.mean - theta).max() <= np.abs(4.0 * se_mean).max()
        se_cov = np.sqrt((np.outer(np.diag(va), np.diag(va)) + va * va) / count)
        assert np.abs(a.cov - va).max() <= np.abs(4.0 * se_cov).max()


def test_criterion_08_marginal_sweep_and_inflation():
    mdl = model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    jsinv = matkernel.inv_psd(fd.JS)
    for i in (0, 1):
        target, _ = paper_statements.marginal_infimum(fd, i)
        assert abs(target - jsinv[i, i]) <= 1e-12
        values = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            g = np.zeros((2, 2))
            g[i, i] = 1.0
            g += eps * np.eye(2)
            res = penalty_oracle.minimize(penalty_oracle.OracleProblem(
                gram=fd.gram, G=g, restarts=4, seed=3))
            values.append(res.value)
            assert sdp_value_agrees(g, fd.gram, analysis.cr_bound_2param(fd, g).value)
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
        assert abs(values[-1] - target) <= 1e-3, (i, values)
    # inflation: analytic covariance gains exactly V0
    qc = model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1])
    fr = model.tangent_frame(qc, qc.theta0)
    fd = model.fisher_data(fr)
    ev = measurement.optimal_vectors_quasi_classical(fr, fd)
    pvm = measurement.pvm_from_vectors(ev)
    v, _ = measurement.covariance_of_pvm(pvm, fr)
    rng = np.random.default_rng(88)
    for _ in range(5):
        b = rng.normal(size=(2, 2))
        v0 = b @ b.T
        infl = paper_statements.inflate_covariance(pvm, v0)
        vi = paper_statements.analytic_covariance(infl, fr)
        assert np.abs(vi - (v + v0)).max() <= 1e-9


def test_criterion_09_structural_properties():
    # reparametrization invariance of the JS-weight bound
    rng = np.random.default_rng(99)
    sq = model.catalog_squeezed([0.3, -0.2, 0.4, 0.7])
    fds = model.fisher_data(model.tangent_frame(sq, sq.theta0))
    base = analysis.cr_bound_js_weight(fds).value
    for _ in range(3):
        t = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        gram2 = t.T @ fds.gram @ t
        fd2 = FisherData(JS=gram2.real.copy(), Jt=gram2.imag.copy(), gram=gram2)
        assert abs(analysis.cr_bound_js_weight(fd2).value - base) <= 1e-8
    # rotational symmetry in normalized coordinates
    fd = synthetic_fd(0.6)
    g = seeded_pd_weights(77, 1)[0]
    va = analysis.cr_bound_2param(fd, g).value
    for ang in (0.3, 1.2, 2.8):
        r = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        vb = analysis.cr_bound_2param(fd, r.T @ g @ r).value
        assert abs(va - vb) <= 1e-8
    # monotone in beta
    grid = [analysis.cr_bound_2param(synthetic_fd(b), g).value
            for b in np.arange(0.0, 1.001, 0.1)]
    assert all(a <= b + 1e-10 for a, b in zip(grid, grid[1:]))
    # additivity across informationally independent blocks
    na = model.catalog_shifted_number(0, [0.2, -0.4])
    nb = model.catalog_shifted_number(0, [1.0, 0.5])
    fa = model.fisher_data(model.tangent_frame(na, na.theta0))
    fb = model.fisher_data(model.tangent_frame(nb, nb.theta0))
    joint = np.zeros((4, 4), dtype=complex)
    joint[:2, :2] = fa.gram
    joint[2:, 2:] = fb.gram
    fj = FisherData(JS=joint.real.copy(), Jt=joint.imag.copy(), gram=joint)
    assert paper_statements.independence_partition(fj, [[0, 1], [2, 3]])
    ga, gb = seeded_pd_weights(78, 2)
    gj = np.zeros((4, 4))
    gj[:2, :2] = ga
    gj[2:, 2:] = gb
    whole, part_a, part_b = (analysis.closed_form(f, f.weight(g))
                             for f, g in ((fj, gj), (fa, ga), (fb, gb)))
    assert whole.method == "closed_form_coherent"
    assert part_a.method == part_b.method == "closed_form_2param"
    assert abs(whole.value - (part_a.value + part_b.value)) <= 1e-8
    # an optimal first-parameter measurement extracts nothing about the other
    fr = model.tangent_frame(na, na.theta0)
    ev = paper_statements.marginal_vectors(fr, fa, 0)
    pvm = measurement.pvm_from_vectors(ev)
    assert paper_statements.exclusiveness_extraction_check(pvm, fr, fa, 1) <= 1e-8


def test_criterion_10_stationarity_certificates(grid_oracle_runs):
    checked_multiplier = 0
    for beta, fd, g, problem, result, closed, solved in grid_oracle_runs:
        for cert in (oracle.stationarity_certificate(result),
                     oracle.stationarity_certificate(solved)):
            assert cert.residual <= 1e-6, (beta, cert.residual)
            if "multiplier_spectrum" in cert.extras:
                spec = np.asarray(cert.extras["multiplier_spectrum"])
                assert np.abs(spec - 1.0).max() <= 1e-5, (beta, spec)
                checked_multiplier += 1
    assert checked_multiplier >= 10  # every beta = 1 problem is coherent, both solvers
    # coherent catalog problems carry the same certificate structure
    n0 = model.catalog_shifted_number(0, [0.2, -0.4])
    fd0 = model.fisher_data(model.tangent_frame(n0, n0.theta0))
    for g in (np.eye(2), seeded_pd_weights(58, 1)[0]):
        problem = penalty_oracle.OracleProblem(gram=fd0.gram, G=g, restarts=6, seed=8)
        result = penalty_oracle.minimize(problem)
        for cert in (oracle.stationarity_certificate(result),
                     oracle.stationarity_certificate(
                         oracle.minimize(oracle.OracleProblem(gram=fd0.gram, G=g)))):
            assert cert.residual <= 1e-6
            spec = np.asarray(cert.extras["multiplier_spectrum"])
            assert np.abs(spec - 1.0).max() <= 1e-5
