"""The Holevo SDP engine, and the penalty reference it is cross-checked against.

Each problem with a known answer is solved by both: the penalty reference
(`penalty_oracle`, tests only) at its own tolerances, and the SDP to 1e-8
relative with its duality gap.
"""

import numpy as np
import pytest

import paper_statements
import penalty_oracle
from qcrb import analysis, cli, errors, matkernel, measurement, model, oracle
from qcrb.model import FisherData

SDP_TOL = 1e-8     # relative agreement of the SDP with a known value


def synthetic_fd(beta):
    jt = beta * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return FisherData(JS=np.eye(2), Jt=jt, gram=np.eye(2) + 1j * jt)


def numeric_gradient(f, y0, h=1e-6):
    g = np.zeros_like(y0)
    for k in range(y0.size):
        e = np.zeros_like(y0)
        e[k] = h
        g[k] = (f(y0 + e) - f(y0 - e)) / (2 * h)
    return g


def sdp(fd_or_gram, g):
    gram = getattr(fd_or_gram, "gram", fd_or_gram)
    res = oracle.minimize(oracle.OracleProblem(gram=gram, G=g))
    assert res.gap <= matkernel.TOL["gap"] * max(1.0, res.value)
    return res


def assert_sdp_value(res, expect):
    assert abs(res.value - expect) <= SDP_TOL * max(1.0, abs(expect)), (res.value, expect)


def test_penalty_gradient_matches_finite_differences():
    fd = synthetic_fd(0.6)
    g = np.array([[1.3, 0.2], [0.2, 0.7]])
    problem = penalty_oracle.OracleProblem(gram=fd.gram, G=g)
    setup = penalty_oracle._setup(problem)
    nbasis, xp, lc = setup[7], setup[5], setup[4]
    shape = (nbasis.shape[1], 2)
    rng = np.random.default_rng(17)
    y0 = 0.2 * rng.standard_normal(shape).reshape(-1)
    lam = np.array([[0.0, 0.7], [-0.7, 0.0]])
    for mu, lm in ((0.0, None), (1e3, None), (31.0, lam)):
        val, grad = penalty_oracle._penalty_objective(y0, shape, xp, nbasis, g, mu, lm)
        num = numeric_gradient(
            lambda y: penalty_oracle._penalty_objective(y, shape, xp, nbasis, g,
                                                        mu, lm)[0],
            y0)
        assert np.abs(grad - num).max() <= 1e-5 * max(1.0, np.abs(num).max())


def test_oracle_quasi_classical_hits_sld():
    mdl = model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    g = np.eye(2)
    res = penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=fd.gram, G=g, restarts=3))
    assert abs(res.value - paper_statements.sld_bound(fd, g)) <= 1e-6
    assert max(res.residuals.values()) <= 1e-7
    res = sdp(fd, g)
    assert_sdp_value(res, paper_statements.sld_bound(fd, g))
    assert max(res.residuals.values()) <= 1e-9


def test_oracle_m1_trivial():
    gram = np.array([[2.5 + 0j]])
    res = penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=gram, G=np.eye(1),
                                                               restarts=2))
    assert abs(res.value - 0.4) <= 1e-8
    assert_sdp_value(sdp(gram, np.eye(1)), 0.4)


def test_oracle_matches_closed_form_generic():
    fd = synthetic_fd(0.45)
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    closed = analysis.cr_bound_2param(fd, g).value
    res = penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=fd.gram, G=g,
                                                               restarts=4, seed=9))
    assert abs(res.value - closed) <= 1e-6
    assert res.value >= paper_statements.sld_bound(fd, g) - 1e-9
    res = sdp(fd, g)
    assert_sdp_value(res, closed)
    assert res.value - res.gap >= paper_statements.sld_bound(fd, g) - 1e-9


def test_oracle_never_undercuts_sld():
    fd = synthetic_fd(0.9)
    g = np.diag([1.0, 2.0])
    res = penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=fd.gram, G=g,
                                                               restarts=4))
    assert res.value >= paper_statements.sld_bound(fd, g) - 1e-9
    assert sdp(fd, g).value >= paper_statements.sld_bound(fd, g) - 1e-9


def test_oracle_restart_stats_recorded():
    fd = synthetic_fd(0.3)
    res = penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=fd.gram, G=np.eye(2),
                                                               restarts=5, seed=4))
    assert len(res.restarts) == 5
    assert any(s.feasible for s in res.restarts)
    assert all(s.residual >= 0 for s in res.restarts)
    # the SDP runs one solve, summarized in one stat
    res = sdp(fd, np.eye(2))
    assert len(res.restarts) == 1
    stat = res.restarts[0]
    assert (stat.value, stat.gap) == (res.value, res.gap)
    assert 1 <= stat.iterations <= oracle.MAX_ITER


def test_oracle_deterministic_given_seed():
    fd = synthetic_fd(0.7)
    g = np.array([[1.0, 0.1], [0.1, 3.0]])
    a = penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=fd.gram, G=g,
                                                             restarts=3, seed=12))
    b = penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=fd.gram, G=g,
                                                             restarts=3, seed=12))
    assert a.value == b.value
    assert np.array_equal(a.X, b.X)
    # the SDP has no seed: one deterministic start
    a, b = sdp(fd, g), sdp(fd, g)
    assert a.value == b.value and a.gap == b.gap
    assert np.array_equal(a.X, b.X)


def test_oracle_rejects_bad_weight():
    fd = synthetic_fd(0.5)
    for mod in (penalty_oracle, oracle):
        with pytest.raises(errors.DomainError):
            mod.minimize(mod.OracleProblem(gram=fd.gram, G=np.diag([1.0, -1.0])))
        with pytest.raises(errors.DomainError):
            mod.minimize(mod.OracleProblem(gram=fd.gram, G=np.eye(3)))


def test_oracle_infeasible_when_tolerance_unreachable():
    fd = synthetic_fd(0.8)
    with pytest.raises(penalty_oracle.Infeasible):
        penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=fd.gram, G=np.eye(2),
                                                             restarts=2, penalties=(),
                                                             residual_tol=1e-15))


def test_oracle_gap_target_missed_is_nonconvergence(monkeypatch):
    fd = synthetic_fd(0.8)
    monkeypatch.setattr(oracle, "MAX_ITER", 2)
    with pytest.raises(errors.NonConvergence):
        oracle.minimize(oracle.OracleProblem(gram=fd.gram, G=np.eye(2)))


def test_beta_snap_of_a_hand_built_gram():
    # a Gram eigenvalue within the eigen dust below 0 is clipped by the Gram's
    # root, and beta snaps to 1: the SDP solves on the snapped range, and the
    # Naimark frame reproduces the Gram to its dust
    fd = synthetic_fd(1.0 + 5e-11)
    assert analysis.beta_spectrum(fd).classification == "coherent"
    res = sdp(fd, np.eye(2))
    assert_sdp_value(res, analysis.cr_bound(synthetic_fd(1.0), np.eye(2)).value)
    measurement.naimark_frame(fd, np.zeros(2))
    # beyond it the Gram is not PSD, and both routes say so through the spectrum
    for beta in (1.0 + 5e-10, 1.0 + 1e-6):
        for route in (lambda fd: oracle.minimize(oracle.OracleProblem(gram=fd.gram, G=np.eye(2))),
                      lambda fd: measurement.naimark_frame(fd, np.zeros(2))):
            with pytest.raises(errors.DomainError) as exc:
                route(synthetic_fd(beta))
            assert cli._exit_code(exc.value) == 2


def test_every_reader_of_the_lift_factor_checks_it():
    # FisherData.embedding checks R* R against the Gram once for every reader, so
    # the SDP, which reads R too, refuses Fisher data whose SVD is of other
    # lifts (it returned a value while only the Naimark frame checked)
    def fd_of(mdl):
        return model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    spin = fd_of(model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]))
    n0 = fd_of(model.catalog_shifted_number(0, [0.2, -0.4]))
    for build in (lambda fd: analysis.oracle_bound(fd, np.eye(2)),
                  lambda fd: measurement.naimark_frame(fd, np.zeros(2))):
        with pytest.raises(errors.ConsistencyError, match="naimark_gram"):
            build(FisherData.from_gram(spin.gram, svd=n0.svd))


def test_stationarity_certificate_on_closed_form_problems():
    fd = synthetic_fd(0.6)
    g = np.array([[1.4, 0.3], [0.3, 0.9]])
    res = penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=fd.gram, G=g,
                                                               restarts=4, seed=2))
    for result in (res, sdp(fd, g)):
        cert = oracle.stationarity_certificate(result, oracle.OracleProblem(gram=fd.gram, G=g))
        assert cert.residual <= 1e-6
        assert np.abs(cert.Lambda + cert.Lambda.T).max() <= 1e-12
        assert "quadratic_sym" in cert.extras and "quadratic_antisym" in cert.extras
        assert cert.extras["quadratic_sym"] <= 1e-5
        assert cert.extras["quadratic_antisym"] <= 1e-5


# The multiplier fit reads its design matrix through `_real`, one product over
# the antisymmetric basis; the penalty reference's loop over that basis gives
# the same Lambda, bit for bit.
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_multiplier_fit_matches_the_loop_reference(m):
    rng = np.random.default_rng(m)
    lifts = rng.normal(size=(2 * m + 1, m)) + 1j * rng.normal(size=(2 * m + 1, m))
    b = rng.normal(size=(m, m))
    problem = oracle.OracleProblem(gram=lifts.conj().T @ lifts, G=b @ b.T + 0.5 * np.eye(m))
    result = oracle.minimize(problem)
    ours, ref = (mod.stationarity_certificate(result, problem)
                 for mod in (oracle, penalty_oracle))
    assert np.array_equal(ours.Lambda, ref.Lambda) and ours.residual == ref.residual


def test_stationarity_multiplier_spectrum_coherent():
    mdl = model.catalog_shifted_number(0, [0.0, 0.0])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    g = np.array([[1.0, 0.2], [0.2, 2.0]])
    res = penalty_oracle.minimize(penalty_oracle.OracleProblem(gram=fd.gram, G=g,
                                                               restarts=4, seed=6))
    for result in (res, sdp(fd, g)):
        cert = oracle.stationarity_certificate(result, oracle.OracleProblem(gram=fd.gram, G=g))
        assert cert.residual <= 1e-6
        spec = cert.extras["multiplier_spectrum"]
        assert np.abs(np.asarray(spec) - 1.0).max() <= 1e-5


def test_stationarity_certificate_does_not_swallow_checks(monkeypatch):
    res = sdp(synthetic_fd(1.0), np.eye(2))

    def failing(fd):
        raise errors.ConsistencyError("beta spectrum failed")

    monkeypatch.setattr(analysis, "beta_spectrum", failing)
    with pytest.raises(errors.ConsistencyError):
        oracle.stationarity_certificate(res)


def test_feasible_scan_reaches_attainable_targets():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    rep = analysis.cr_bound_coherent(fd, np.eye(2))
    problem = penalty_oracle.OracleProblem(gram=fd.gram, G=np.eye(2), restarts=4, seed=3)
    assert penalty_oracle.feasible_scan(problem, rep.V_opt)
    # upward closedness
    assert penalty_oracle.feasible_scan(problem, rep.V_opt + np.diag([0.5, 0.0]))


def test_feasible_scan_quasi_classical_inverse_fisher():
    mdl = model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    problem = penalty_oracle.OracleProblem(gram=fd.gram, G=np.eye(2), restarts=4, seed=3)
    assert penalty_oracle.feasible_scan(problem, matkernel.inv_psd(fd.JS))


def test_feasible_scan_rejects_inverse_fisher_on_coherent():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    problem = penalty_oracle.OracleProblem(gram=fd.gram, G=np.eye(2), restarts=4, seed=3)
    assert not penalty_oracle.feasible_scan(problem, matkernel.inv_psd(fd.JS))


@pytest.mark.parametrize("theta", [[-0.4986, -0.0371], [0.4293, 0.2563]])
def test_coherent_points_return_two(theta):
    # points where the penalty search took 7-8 s and returned 1.99999997
    mdl = model.catalog_shifted_number(0, theta)
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    res = sdp(fd, np.eye(2))
    assert abs(res.value - 2.0) <= 1e-9
    assert oracle.stationarity_certificate(res).residual <= 1e-9


def test_singular_weight_is_solved_on_its_range():
    fd = synthetic_fd(0.5)
    # rank-1 weight: the marginal infimum, attained for beta < 1
    g = np.diag([1.0, 0.0])
    res = sdp(fd, g)
    assert_sdp_value(res, analysis.cr_bound_2param(fd, g).value)
    assert res.attained and max(res.residuals.values()) <= 1e-9
    assert abs(np.sum(g * (res.X.conj().T @ res.X).real) - res.value) <= 1e-9
    # at beta = 1 no estimator attains it: the value stands without vectors
    res = sdp(synthetic_fd(1.0), g)
    assert_sdp_value(res, 1.0)
    assert not res.attained and res.X is None
    with pytest.raises(errors.PreconditionNotMet):
        oracle.stationarity_certificate(res)
    # zero weight
    res = sdp(fd, np.zeros((2, 2)))
    assert res.value == 0.0 and res.attained


# Both routes cut the normalized weight w G w at TOL["eigen_dust"] * ||w G w||:
# a small eigenvalue of 5e-10 is kept by both, one of 5e-12 dropped by both.
@pytest.mark.parametrize("small, rank", [(1e-9, 2), (1e-11, 1)])
def test_two_parameter_routes_share_the_weight_rank(small, rank):
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    g = np.diag([1.0, small])
    rep = analysis.cr_bound_2param(fd, g)
    assert rep.notes.get("rank", 2) == rank
    w = fd.js_powers[1]
    eig = matkernel.psd_eig(matkernel.symmetrize(w @ g @ w))
    assert oracle._weight_split(*eig)[1].shape[1] == rank
    res = oracle.minimize(oracle.OracleProblem(gram=fd.gram, G=g))
    assert abs(res.value - rep.value) <= matkernel.TOL["oracle_agreement"] * rep.value
    assert res.attained == rep.attained == (rank == 2)


def test_a_problem_reads_the_fisher_data_it_is_given():
    mdl = model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    g = np.array([[1.4, 0.3], [0.3, 0.9]])
    given = oracle.OracleProblem(gram=fd.gram, G=g, fd=fd)
    bare = oracle.OracleProblem(gram=fd.gram, G=g)
    assert given.fd is fd and bare.fd is not fd
    assert np.array_equal(bare.fd.JS, fd.JS) and np.array_equal(bare.fd.Jt, fd.Jt)
    a, b = oracle.minimize(given), oracle.minimize(bare)
    # the given fd reads the frame's SVD, the bare one its Gram's root: the
    # same point, to roundoff
    assert abs(a.value - b.value) <= 1e-13 * a.value
    assert np.abs(a.X - b.X).max() <= 1e-12 * np.abs(a.X).max()
    assert fd.lift_factor[1] is not bare.fd.lift_factor[1]
    assert np.array_equal(a.lifts, measurement.naimark_frame(fd, mdl.theta0).lifts)
    with pytest.raises(errors.DomainError):
        oracle.OracleProblem(gram=fd.gram.copy(), G=g, fd=fd)
