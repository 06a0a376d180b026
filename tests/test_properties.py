"""Property-based invariants over randomized models and matrices."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fock_reference
import paper_statements
from qcrb import analysis, errors, matkernel, measurement, model, oracle
from qcrb.model import FisherData

finite = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


def gram_from_seed(seed, m):
    """Random valid lift Gram: PSD with PD real part."""
    rng = np.random.default_rng(seed)
    d = 2 * m + 1
    lifts = rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m))
    gram = lifts.conj().T @ lifts + 0.1 * np.eye(m)
    return FisherData(JS=gram.real.copy(), Jt=gram.imag.copy(), gram=gram)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_beta_spectrum_in_unit_interval(seed, m):
    fd = gram_from_seed(seed, m)
    spec = analysis.beta_spectrum(fd)
    assert spec.betas.shape == (m,)
    assert spec.betas.min() >= 0.0
    assert spec.betas.max() <= 1.0
    assert np.all(np.diff(spec.betas) <= 1e-12)  # sorted descending


def fd_with_beta(seed, m, beta):
    """Random well-conditioned JS with every pair of the beta spectrum equal to beta."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    js = a @ a.T + 0.5 * np.eye(m)
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    k = np.zeros((m, m))
    for j in range(m // 2):
        k[2 * j, 2 * j + 1], k[2 * j + 1, 2 * j] = -beta, beta
    root = matkernel.sqrt_psd(js)
    jt = matkernel.antisymmetrize(root @ q @ k @ q.T @ root)
    return js, jt


# beta = 5e-8 with D = diag(1e3, 1) is the case a rule on ||Jt|| / ||JS|| gets wrong
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.0, 5e-8, 0.3, 1.0]),
       st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4))
@example(0, 2, 5e-8, [3.0, 0.0, 0.0, 0.0])
def test_quasi_classical_rule_is_scale_invariant(seed, m, beta, log_d):
    js, jt = fd_with_beta(seed, m, beta)
    d = np.diag(10.0 ** np.array(log_d[:m]))
    verdicts = []
    for a, b in ((js, jt), (d @ js @ d, d @ jt @ d)):
        fd = FisherData(JS=a, Jt=b, gram=a + 1j * b)
        verdicts.append((analysis.closed_form(fd, fd.weight(fd.JS)).method == "quasi_classical",
                         analysis.beta_spectrum(fd).classification))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] == (verdicts[0][1] == "quasi_classical")


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 0.99), st.integers(2, 60))
def test_boundary_curve_contained(beta, count):
    curve = analysis.boundary_2param(beta, count=count)
    u, v = curve[:, 2], curve[:, 3]
    assert u.min() >= 1.0 - 1e-12 and v.min() >= 1.0 - 1e-12
    resid = np.abs(np.sqrt(u - 1) + np.sqrt(v - 1) - beta * np.sqrt(u * v))
    assert resid.max() <= 1e-9
    xmax = beta * beta / (2.0 * (1.0 - beta * beta))
    assert np.abs(curve[:, 0]).max() <= xmax + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_2param_bound_between_sld_and_trace(beta, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(2, 2))
    g = b @ b.T + 0.05 * np.eye(2)
    jt = beta * np.array([[0.0, 1.0], [-1.0, 0.0]])
    fd = FisherData(JS=np.eye(2), Jt=jt, gram=np.eye(2) + 1j * jt)
    rep = analysis.cr_bound_2param(fd, g)
    sld = paper_statements.sld_bound(fd, g)
    assert rep.value >= sld - 1e-9
    # never exceeds the beta = 1 ceiling for the same weight
    ceiling = analysis.cr_bound_2param(
        FisherData(JS=np.eye(2), Jt=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                   gram=np.eye(2) + 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])), g)
    assert rep.value <= ceiling.value + 1e-9
    assert abs(np.sum(g * rep.V_opt) - rep.value) <= 1e-8 * max(1.0, rep.value)
    w = np.linalg.eigvalsh(rep.V_opt)
    assert w.min() >= -1e-10


# Every weight of a two-parameter model, PD, rank 1 or zero, at every beta in
# [0, 1], takes one point of the stationary curve, and in any units of the
# weight: G' = R diag(g0, g1) R^T where JS = I, scaled by 2^k.
@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), st.floats(0.0, math.pi),
       st.integers(-1000, 1000))
@example(0.0, 1.0, 4.0, 0.3, 0)
@example(1.0, 1.0, 4.0, 0.3, 0)
@example(1.0, 0.0, 4.0, 0.3, 900)
@example(1.0, 0.0, 0.0, 0.3, -900)
@example(1.0, 1e-3, 1e3, 1.0, -1000)
@example(1.0, 1e3, 1e3, 0.0, 1000)
@example(1.0 - 1e-13, 0.0, 1.0, 0.7, 0)
def test_2param_bound_is_one_curve_point_in_any_units(beta, ga, gb, angle, k):
    jt = beta * np.array([[0.0, 1.0], [-1.0, 0.0]])
    fd = FisherData.from_gram(np.eye(2) + 1j * jt)
    g0, g1 = sorted((ga, gb))
    r = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    g = r @ np.diag([g0, g1]) @ r.T
    rep = analysis.cr_bound_2param(fd, g)
    at_one = rep.notes["beta"] == 1.0
    assert rep.attained == (not (at_one and g0 == 0.0 < g1))
    if at_one:
        exact = (math.sqrt(g0) + math.sqrt(g1)) ** 2
        assert abs(rep.value - exact) <= 1e-12 * exact
    if rep.attained:
        # Tr(G V_opt) to 1e-12 of the size of its terms, which a rank-1 weight
        # near beta = 1 makes far larger than the value
        terms = g * rep.V_opt
        assert abs(terms.sum() - rep.value) <= 1e-12 * np.abs(terms).sum()
    else:
        assert rep.V_opt is None
    scaled = analysis.cr_bound_2param(fd, np.ldexp(g, k))
    assert (scaled.attained, scaled.notes.get("rank")) == (rep.attained, rep.notes.get("rank"))
    expect = rep.value * 2.0 ** k
    if 1e-300 <= expect <= 1e300:
        assert abs(scaled.value - expect) <= 1e-14 * expect


# A working point of each of the five routes, and a weight that takes it: the
# G = JS weight on a generic m = 3 Gram, and elsewhere a random one whose entries
# are multiples of 2^-8 with at most 15 significant bits (rank 1 in a third of the
# two-parameter draws), so that 2^k G stays exact far into the subnormals.
ROUTE_POINTS = {
    "quasi_classical": lambda seed: model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1]),
    "closed_form_2param": lambda seed: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]),
    "closed_form_coherent": lambda seed: model.catalog_squeezed([0.1, -0.2, 0.4, 0.3]),
    "closed_form_JS_weight": lambda seed: gram_from_seed(seed, 3),
    "oracle": lambda seed: gram_from_seed(seed, 3),
}


def _route_point(route, seed):
    point = ROUTE_POINTS[route](seed)
    fd = point if isinstance(point, FisherData) else \
        model.fisher_data(model.tangent_frame(point, point.theta0))
    if route == "closed_form_JS_weight":
        return fd, fd.JS.copy()
    b = np.round(16.0 * np.random.default_rng(seed).normal(size=(len(fd.JS),) * 2)) / 16.0
    if route == "closed_form_2param" and seed % 3 == 0:
        return fd, np.outer(b[0], b[0])
    return fd, b @ b.T + 0.125 * np.eye(len(b))


# The bound is homogeneous in the weight, CR(cG) = c CR(G), and every route computes
# it at unit scale (`FisherData.weight`), where 2^k G is the same weight as G for
# even k. So where 2^k G is exact, the bound is a DomainError exactly when 2^k CR(G)
# is nonzero and outside [tiny, max]; otherwise, for even k, a route returns exactly
# 2^k times its bound for G, with the same method, attainment and V_opt, and for
# odd k the same value to the oracle's agreement (G = 2 JS is not the JS weight at
# unit scale). 2^k G must be finite; where it rounds, the bound is still a normal
# float, zero, or a DomainError.
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ROUTE_POINTS)), st.integers(-1100, 1100), st.integers(0, 10_000))
@example("closed_form_2param", 1022, 0)
@example("closed_form_2param", -1060, 1)
@example("closed_form_2param", -1075, 1)
@example("closed_form_coherent", -1030, 2)
@example("closed_form_JS_weight", 1000, 3)
@example("oracle", -1000, 4)
@example("quasi_classical", 1, 5)
def test_every_route_is_homogeneous_in_the_weight(route, k, seed):
    fd, g = _route_point(route, seed)
    assume(k + math.frexp(np.abs(g).max())[1] <= 1024)
    base = analysis.cr_bound(fd, g)
    assert base.method == route
    gk = np.ldexp(g, k)
    if not np.array_equal(np.ldexp(gk, -k), g):
        try:
            value = analysis.cr_bound(fd, gk).value
        except errors.DomainError:
            return
        assert value == 0.0 or -1021 <= math.frexp(value)[1] <= 1024
        return
    if base.value != 0.0 and not -1021 <= math.frexp(base.value)[1] + k <= 1024:
        with pytest.raises(errors.DomainError):
            analysis.cr_bound(fd, gk)
        return
    rep = analysis.cr_bound(fd, gk)
    expect = np.ldexp(base.value, k)
    if k % 2:
        assert abs(rep.value - expect) <= matkernel.TOL["oracle_agreement"] * expect
        return
    assert (rep.method, rep.attained) == (base.method, base.attained)
    assert rep.value == expect
    assert (rep.V_opt is None) == (base.V_opt is None)
    assert rep.V_opt is None or np.array_equal(rep.V_opt, base.V_opt)


# A weight's own G looks up that Weight, also where symmetrizing is not
# idempotent: halving an odd multiple of 2^-1074 rounds it to even, so a G
# symmetrized twice can differ from one symmetrized once. The subnormal entries
# sit on a normal weight or make up the whole of one.
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.booleans(),
       st.lists(st.integers(-3, 3), min_size=16, max_size=16))
@example(0, 2, True, [0, 1, 2] + [0] * 13)
def test_a_weight_looks_itself_up(seed, m, normal, ticks):
    fd = gram_from_seed(seed, m)
    n = np.array(ticks[:m * m], dtype=float).reshape(m, m) + 4 * m * np.eye(m)
    g = np.ldexp(n, -1074) + (np.eye(m) if normal else 0.0)
    wt = fd.weight(g)
    assert fd.weight(wt.G) is wt and len(fd.reports) == 1
    assert wt.G.tobytes() == wt.G.T.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_js_weight_reparametrization_invariant(seed, m):
    fd = gram_from_seed(seed, m)
    value = analysis.cr_bound_js_weight(fd).value
    rng = np.random.default_rng(seed + 1)
    t = rng.normal(size=(m, m)) + m * np.eye(m)
    gram2 = t.T @ fd.gram @ t
    fd2 = FisherData(JS=gram2.real.copy(), Jt=gram2.imag.copy(), gram=gram2)
    value2 = analysis.cr_bound_js_weight(fd2).value
    assert abs(value - value2) <= 1e-8 * max(1.0, abs(value))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_rotation_symmetry_of_2param_bound(seed):
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.05, 0.95))
    jt = beta * np.array([[0.0, 1.0], [-1.0, 0.0]])
    fd = FisherData(JS=np.eye(2), Jt=jt, gram=np.eye(2) + 1j * jt)
    b = rng.normal(size=(2, 2))
    g = b @ b.T + 0.05 * np.eye(2)
    ang = float(rng.uniform(0.0, 2.0 * math.pi))
    r = np.array([[math.cos(ang), -math.sin(ang)],
                  [math.sin(ang), math.cos(ang)]])
    va = analysis.cr_bound_2param(fd, g).value
    vb = analysis.cr_bound_2param(fd, r.T @ g @ r).value
    assert abs(va - vb) <= 1e-8 * max(1.0, abs(va))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_quasi_classical_pvm_invariants(seed):
    rng = np.random.default_rng(seed)
    d, m = 4, 2
    phi = rng.normal(size=d)
    phi = phi / np.linalg.norm(phi)
    dphi = rng.normal(size=(m, d)) * 0.5
    mdl = model.custom_model(d, m, phi.astype(complex), dphi.astype(complex),
                             [0.0, 0.0])
    try:
        fr = model.tangent_frame(mdl, mdl.theta0)
        fd = model.fisher_data(fr)
    except (model.DegenerateModel, model.SingularFisher):
        return
    # real amplitudes force Jt = 0
    assert analysis.closed_form(fd, fd.weight(np.eye(m))).method == "quasi_classical"
    ev = measurement.optimal_vectors_quasi_classical(fr, fd)
    pvm = measurement.pvm_from_vectors(ev)
    assert max(measurement.pvm_algebra_residuals(pvm).values()) <= 1e-9
    v, unbiased = measurement.covariance_of_pvm(pvm, fr)
    assert unbiased
    assert np.abs(v - matkernel.inv_psd(fd.JS)).max() <= 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_inflation_additivity(seed):
    rng = np.random.default_rng(seed)
    mdl = model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1])
    fr = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(fr)
    ev = measurement.optimal_vectors_quasi_classical(fr, fd)
    pvm = measurement.pvm_from_vectors(ev)
    b = rng.normal(size=(2, 2))
    v0 = b @ b.T
    infl = paper_statements.inflate_covariance(pvm, v0)
    v, _ = measurement.covariance_of_pvm(pvm, fr)
    vi = paper_statements.analytic_covariance(infl, fr)
    assert np.abs(vi - (v + v0)).max() <= 1e-12 * max(1.0, np.abs(v0).max())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7))
def test_betas_are_the_imaginary_eigenvalues(seed, m):
    fd = gram_from_seed(seed, m)
    ev = np.linalg.eigvals(np.linalg.solve(fd.JS, fd.Jt))
    expect = np.sort(np.abs(ev.imag))[::-1]
    assert np.abs(analysis.beta_spectrum(fd).betas - expect).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_sqrt_abs_consistency(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    ab = matkernel.abs_sym(h)
    assert np.abs(ab - ab.conj().T).max() <= 1e-10
    assert np.linalg.eigvalsh(ab).min() >= -1e-9
    assert np.abs(ab @ ab - h @ h).max() <= 1e-8 * max(1.0, np.abs(h).max() ** 2)


def gram_with_betas(rng, betas, m):
    """Lift Gram T^T (I + i K) T whose beta spectrum is `betas` (one per pair).

    With every beta equal to 1 and m even the Gram has rank m / 2, the
    coherent case. T has condition number below e^2. Near beta = 1 the bound
    moves like 1/sqrt(1 - beta), so roundoff of order eps * cond(JS) in beta
    moves every double-precision route: at cond(JS) = 1.7e7 and
    beta = 1 - 7.6e-7 the closed form sits 1.8e-7 and the SDP 1.8e-8
    (relative) from a 50-digit value. Bounded conditioning keeps the 1e-8
    comparison about the routes, not about the input.
    """
    k = np.zeros((m, m))
    for j, b in enumerate(betas):
        k[2 * j, 2 * j + 1], k[2 * j + 1, 2 * j] = b, -b
    q1, _ = np.linalg.qr(rng.normal(size=(m, m)))
    q2, _ = np.linalg.qr(rng.normal(size=(m, m)))
    t = (q1 * np.exp(rng.uniform(-1.0, 1.0, m))) @ q2
    gram = t.T @ (np.eye(m) + 1j * k) @ t
    gram = 0.5 * (gram + gram.conj().T)
    return FisherData(JS=gram.real.copy(), Jt=gram.imag.copy(), gram=gram)


def draw_beta(rng, kind):
    if kind == "one":
        return 1.0
    delta = 10.0 ** rng.uniform(-8.0, -6.0)     # within 1e-6, clear of the Gram root's dust
    return {"near0": delta, "near1": 1.0 - delta, "any": rng.uniform(0.0, 1.0)}[kind]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]),
       st.sampled_from(["any", "near0", "near1", "one"]),
       st.sampled_from(["random", "JS"]))
def test_holevo_sdp_matches_closed_forms(seed, m, kind, weight):
    rng = np.random.default_rng(seed)
    fd = gram_with_betas(rng, [draw_beta(rng, kind) for _ in range(m // 2)], m)
    if weight == "JS":
        g = fd.JS.copy()
    else:
        b = rng.normal(size=(m, m))
        g = (b @ b.T + 0.1 * np.eye(m)) * 10.0 ** rng.uniform(0.0, 3.0)
    res = oracle.minimize(oracle.OracleProblem(gram=fd.gram, G=g))
    scale = max(1.0, res.value)
    assert res.gap <= 1e-9 * scale
    refs = []
    if m == 2:
        refs.append(analysis.cr_bound_2param(fd, g).value)
    if weight == "JS":
        refs.append(analysis.cr_bound_js_weight(fd).value)
    if kind == "one" and m % 2 == 0:
        closed = analysis.closed_form(fd, fd.weight(g))
        assert closed.method == ("closed_form_2param" if m == 2 else "closed_form_coherent")
        refs.append(closed.value)
    for ref in refs:
        assert abs(res.value - ref) <= 1e-8 * max(1.0, abs(ref)), (res.value, ref)
    # SLD bound <= value <= the Holevo function at the SLD estimator L JS^{-1}
    jsinv = np.linalg.inv(fd.JS)
    w, u = np.linalg.eigh(g)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
    low = float(np.trace(g @ jsinv))
    high = low + float(np.linalg.svd(root @ jsinv @ fd.Jt @ jsinv @ root,
                                     compute_uv=False).sum())
    assert low - 1e-9 * scale <= res.value <= high + 1e-9 * scale
    assert res.attained
    assert res.residuals["im_xx"] <= 1e-9
    assert res.residuals["unbiasedness"] <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0), st.floats(0.0, 3.0))
def test_holevo_sdp_certificate_at_large_weights(seed, beta, log_scale):
    # the weights of the acceptance grid, scaled up to 1e3
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(2, 2))
    g = (b @ b.T + 0.1 * np.eye(2)) * 10.0 ** log_scale
    jt = beta * np.array([[0.0, 1.0], [-1.0, 0.0]])
    res = oracle.minimize(oracle.OracleProblem(gram=np.eye(2) + 1j * jt, G=g))
    assert oracle.stationarity_certificate(res).residual <= 1e-6


# t3 runs up to the largest squeezing whose frame tangent_frame accepts (about
# 4.07; see test_model.test_fock_frames_far_out); the Fock reference builds up
# to t3 = 2.6 within its start truncation. t3 = 1e-3 is an explicit case: the
# t4 direction's JS eigenvalue 2 sinh^2(2 t3) is small there, and the reference
# writes its t3 column with tanh^(k-1) so as not to divide small numbers.
@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 30.0), st.floats(0.0, 2 * math.pi), st.floats(1e-3, 4.0),
       st.floats(0.0, math.pi), st.integers(0, 6))
@example(1.5, 5.2, 1e-3, 2.1, 0)
@example(0.0, 0.0, 4.0, 0.0, 0)
def test_fock_frames_match_closed_forms(radius, angle, t3, t4, n):
    t1, t2 = radius * math.cos(angle), radius * math.sin(angle)
    mdl = model.catalog_squeezed([t1, t2, t3, t4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    js, jt = model.squeezed_closed_forms([t1, t2, t3, t4])
    tol = 1e-12 * max(1.0, np.linalg.norm(js, 2))
    assert np.abs(fd.JS - js).max() <= tol
    assert np.abs(fd.Jt - jt).max() <= tol
    if t3 <= 2.6:
        gram, _ = fock_reference.lift_gram(*fock_reference.squeezed_frame([t1, t2, t3, t4]))
        assert np.abs(fd.gram - gram).max() <= 1e-10 * max(1.0, np.linalg.norm(js, 2))
    mdl = model.catalog_shifted_number(n, [t1, t2])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    expect = (4 * n + 2) * np.eye(2) + 2j * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.abs(fd.gram - expect).max() <= 1e-12


# Exact zeros anywhere, the last entry included, must never be drawn.
@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=40),
       st.booleans(), st.integers(0, 5000), st.integers(0, 2 ** 32 - 1))
@example([0.5, 0.0, 0.25, 0.0], True, 5000, 7)
@example([0.0, 1.0], False, 3000, 0)
def test_sampling_draw_is_generator_choice(weights, zero_last, count, seed):
    w = np.array(weights)
    if zero_last and w.size > 1:
        w[-1] = 0.0
    if w.sum() == 0.0:
        w[0] = 1.0
    p = w / w.sum()
    idx, counts = measurement._draw(np.random.default_rng(seed), p, count)
    ref = np.random.default_rng(seed).choice(p.size, size=count, p=p)
    assert np.array_equal(idx, ref)
    assert np.array_equal(counts, np.bincount(ref, minlength=p.size))
    assert np.all(p[idx] > 0.0)


# catalog points with a PVM, by class; (r, angle, t) set the working point
CATALOG_PVM_POINTS = {
    "spin_quasi_classical": lambda r, a, t: model.catalog_spin_rotation(
        round(1 + 4 * t), 0.0, [0.2 + 0.9 * r, a]),
    "spin_generic": lambda r, a, t: model.catalog_spin_rotation(1.5, 0.5, [0.2 + 0.9 * r, a]),
    "shifted_n0": lambda r, a, t: model.catalog_shifted_number(
        0, [r * math.cos(a), r * math.sin(a)]),
    "squeezed": lambda r, a, t: model.catalog_squeezed(
        [0.3 * r * math.cos(a), 0.3 * r * math.sin(a), 0.2 + 0.4 * t, a / 2]),
}


# Sampling reads the probabilities that the covariance validated and cached on
# the PVM: it draws the same shots, bit for bit, as a fresh PVM of the same rays
# whose one probability pass is its own.
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CATALOG_PVM_POINTS)), st.floats(0.0, 2.5),
       st.floats(0.0, 2 * math.pi, exclude_max=True), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 63 - 1),
       st.integers(0, 5000))
@example("shifted_n0", 0.5, 1.0, 0.0, 7, 2000)
@example("spin_quasi_classical", 1.0, 0.3, 1.0, 0, 1)
def test_sampling_after_the_covariance_is_a_fresh_pass(point, r, angle, t, seed, count):
    mdl = CATALOG_PVM_POINTS[point](r, angle, t)
    frame = model.tangent_frame(mdl, mdl.theta0)
    fd = model.fisher_data(frame)
    space = measurement.pvm_space(frame, fd)
    ev = measurement.optimal_vectors(space, fd, fd.weight(np.eye(mdl.m)))[0]
    pvm = measurement.pvm_from_vectors(ev)
    fresh = measurement.Pvm(rays=pvm.rays.copy(), offsets=pvm.offsets.copy(), w=pvm.w.copy())
    measurement.covariance_of_pvm(pvm, space)
    assert len(pvm.probs) == 1 and not fresh.probs
    ours = measurement.sample_outcomes(pvm, space, count, seed)
    ref = measurement.sample_outcomes(fresh, space, count, seed)
    for name in ("drawn", "counts", "analytic_cov", "estimates"):
        a, b = getattr(ours, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _custom_generic(seed, dim, m):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    dphi = 0.5 * (rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim)))
    return model.custom_model(dim, m, phi / np.linalg.norm(phi), dphi, np.zeros(m))


STRADDLE_POINTS = {
    "quasi_classical": lambda: model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1]),
    "coherent_m2": lambda: model.catalog_shifted_number(0, [0.2, -0.4]),
    "generic_m2": lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]),
    "coherent_m4": lambda: model.catalog_squeezed([0.1, -0.2, 0.4, 0.3]),
    "generic_m3": lambda: _custom_generic(3, 5, 3),
}


def _outcome(route, mdl, g):
    """(error name, None) or (None, report) of a route on a fresh working point."""
    try:
        report = route(model.fisher_data(model.tangent_frame(mdl, mdl.theta0)), g)
    except errors.QcrbError as exc:
        return type(exc).__name__, None
    return None, report[0] if isinstance(report, tuple) else report


# The one PSD decision and rank cut are made on w G w at its dust, for every
# route: the lowest eigenvalue of w G w is set at t times that dust.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(STRADDLE_POINTS)), st.integers(0, 10_000),
       st.sampled_from([-3.0, -1.5, -0.7, -0.2, 0.2, 0.7, 1.5, 3.0]))
# where a decision on G at G's dust differs: the quasi-classical route would
# accept the first weight, and the coherent closed form would count the second
# positive definite
@example("quasi_classical", 0, -1.5)
@example("coherent_m4", 47, 0.7)
def test_routes_agree_on_weights_at_the_dust(point, seed, t):
    mdl = STRADDLE_POINTS[point]()
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    m = fd.JS.shape[0]
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    lam = np.concatenate([[0.0], rng.uniform(0.5, 2.0, m - 1)])
    lam[0] = t * matkernel.TOL["eigen_dust"] * np.abs(q @ np.diag(lam) @ q.T).max()
    root = matkernel.sqrt_psd(fd.JS)
    g = matkernel.symmetrize(root @ (q @ np.diag(lam) @ q.T) @ root)
    (err_a, a), (err_b, b) = (_outcome(r, mdl, g) for r in (
        analysis.cr_bound, lambda fd, g: analysis.oracle_bound(fd, fd.weight(g))))
    assert err_a == err_b
    assert (err_a == "DomainError") == (t < -1.0)
    if a is not None:
        assert a.attained == b.attained
        assert abs(a.value - b.value) <= matkernel.TOL["oracle_agreement"] * a.value


# CR(c G) = c CR(G): every rule that reads the weight is relative to it, so
# the units of the weight change no route, rank or attainment.
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(STRADDLE_POINTS)), st.integers(0, 10_000),
       st.floats(-14.0, 4.0))
@example("coherent_m4", 0, -11.0)
@example("generic_m2", 0, -12.0)
def test_bound_is_homogeneous_in_the_weight(point, seed, log_c):
    mdl = STRADDLE_POINTS[point]()
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    m = fd.JS.shape[0]
    a = np.random.default_rng(seed).normal(size=(m, m))
    g = a @ a.T + 0.1 * np.eye(m)
    c = 10.0 ** log_c
    for route, tol in ((analysis.cr_bound, 1e-12),
                       (lambda f, w: analysis.oracle_bound(f, f.weight(w))[0], 1e-8)):
        one, scaled = route(fd, g), route(fd, c * g)
        assert (scaled.method, scaled.attained) == (one.method, one.attained)
        assert abs(scaled.value - c * one.value) <= tol * c * one.value


def _call_in_order(frame, g, order):
    """{name: (method, value) or error name} of the four entry points, called in
    `order` on a fresh working point; `same` is whether optimal_vectors returned
    the report object that the table's walk, else the oracle, cached."""
    fd = model.fisher_data(frame)
    space = measurement.pvm_space(frame, fd)
    calls = {
        "cr_bound": lambda: analysis.cr_bound(fd, g),
        "closed_form": lambda: analysis.closed_form(fd, fd.weight(g)),
        "optimal_vectors": lambda: measurement.optimal_vectors(space, fd, fd.weight(g))[1],
        "oracle_bound": lambda: analysis.oracle_bound(fd, fd.weight(g))[0],
    }
    reports, out = {}, {}
    for name in order:
        try:
            reports[name] = calls[name]()
        except errors.QcrbError as exc:
            out[name] = type(exc).__name__
            continue
        rep = reports[name]
        out[name] = None if rep is None else (rep.method, rep.value.hex())
    vectors = reports.get("optimal_vectors")
    cached = reports["closed_form"]
    if fd.canonical[2].classification == "generic" or cached is None:
        cached = reports["oracle_bound"]
    return out, vectors is None or vectors is cached


# One dispatcher: whichever entry point reads a weight first, each gives the
# same route and the same value, bit for bit, and on models that are not
# generic optimal_vectors returns the table's cached report itself.
@pytest.mark.parametrize("weight", ["identity", "sld", "random", "rank_deficient"])
@pytest.mark.parametrize("point", sorted(STRADDLE_POINTS))
def test_one_dispatcher_in_any_call_order(point, weight):
    mdl = STRADDLE_POINTS[point]()
    frame = model.tangent_frame(mdl, mdl.theta0)
    m = mdl.m
    a = np.random.default_rng(m).normal(size=(m, m))
    g = {"identity": np.eye(m), "sld": model.fisher_data(frame).JS,
         "random": a @ a.T + 0.1 * np.eye(m),
         "rank_deficient": np.diag([1.0] * (m - 1) + [0.0])}[weight]
    names = ("cr_bound", "closed_form", "optimal_vectors", "oracle_bound")
    first = None
    for order in itertools.permutations(names):
        out, same = _call_in_order(frame, g, order)
        assert same, order
        if first is None:
            first = out
        assert out == first, order
    if point == "generic_m3" and weight == "sld":
        assert first["closed_form"][0] == "closed_form_JS_weight"


def _lifted(phi, lifts):
    """The frame and Fisher data of the custom model with state phi and lifts
    `lifts` (orthogonal to phi) at theta = 0."""
    m = lifts.shape[1]
    mdl = model.custom_model(len(phi), m, phi, 0.5 * lifts.T, np.zeros(m))
    fr = model.tangent_frame(mdl, mdl.theta0)
    return fr, model.fisher_data(fr)


UNIT_FAMILIES = {
    "squeezed": lambda: model.catalog_squeezed([0.1, -0.2, 0.4, 0.3]),
    "spin_15": lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]),
    "spin_1": lambda: model.catalog_spin_rotation(1.0, 0.0, [0.7, 1.1]),
    "shifted_n3": lambda: model.catalog_shifted_number(3, [0.2, -0.4]),
}


# theta -> theta / c multiplies the lifts by c and, at a fixed weight, the bound
# by 1 / c^2. The degeneracy floor, the beta snap and the measurement checks
# are relative, so the units of theta change no class, bound or PVM. With a
# floor of 1 on s_max^2, lifts times 1e-6 were a DegenerateModel.
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(UNIT_FAMILIES)), st.floats(-8.0, 0.0))
@example("squeezed", -5.0)
@example("shifted_n3", -6.0)
@example("spin_15", -8.0)
def test_units_of_theta_change_no_answer(family, log_c):
    mdl = UNIT_FAMILIES[family]()
    frame = model.tangent_frame(mdl, mdl.theta0)
    c = 10.0 ** log_c
    answers = []
    for scale in (1.0, c):
        fr, fd = _lifted(frame.phi, scale * frame.lifts)
        g = np.eye(fd.JS.shape[0])
        space = measurement.pvm_space(fr, fd)
        ev, rep = measurement.optimal_vectors(space, fd, fd.weight(g))
        v, unbiased = measurement.covariance_of_pvm(measurement.pvm_from_vectors(ev), space)
        assert unbiased
        assert abs(np.trace(v) - rep.value) <= 1e-9 * rep.value
        answers.append((analysis.beta_spectrum(fd).classification, rep.value))
    (cls_one, one), (cls_c, value) = answers
    assert cls_c == cls_one
    assert abs(c * c * value - one) <= 1e-12 * one


def _random_t(rng, m, log_cond):
    """Random real m x m T = Q1 diag(10^logs) Q2 with cond(T) = 10^log_cond."""
    q1, q2 = (np.linalg.qr(rng.normal(size=(m, m)))[0] for _ in range(2))
    logs = np.concatenate([[0.0, log_cond], rng.uniform(0.0, log_cond, m - 2)])
    return (q1 * 10.0 ** logs) @ q2


def _reparametrized_pvm_covariance(frame, t, g):
    """Covariance of the bound-attaining PVM of the model whose lifts are frame's
    times t (theta = t eta), at the weight t^T g t, with the route taken."""
    fr, fd = _lifted(frame.phi, frame.lifts @ t)
    space = measurement.pvm_space(fr, fd)
    ev, rep = measurement.optimal_vectors(space, fd, fd.weight(t.T @ g @ t))
    v, unbiased = measurement.covariance_of_pvm(measurement.pvm_from_vectors(ev), space)
    assert unbiased
    return v, rep.method


def _squeezed_near(rng):
    return model.catalog_squeezed([rng.uniform(-1, 1), rng.uniform(-1, 1), 0.4,
                                   rng.uniform(-1, 1)])


# The vectors are built in the parameters where JS = I, which no real
# reparametrization theta = T eta changes: the PVM's covariance moves as
# T^-1 V T^-T. JS^{+-1/2}, K and beta come from the lifts' SVD, so up to
# cond(T) = 1e4 the route and the class hold and the PVM is unbiased. The
# covariance is compared up to cond(T) = 1e3: the products that carry theta'
# to eta (w T^T G T w, w V' w) are off by about eps cond(T)^2, which moved it
# by 1.5e-10 at most at 1e3 and by 1.8e-8 at 1e4 over 300 draws, and still by
# 3e-9 at cond(T) = 8192 with T and T^T G T exactly representable.
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["coherent_m4", "generic_m3"]), st.integers(0, 10_000),
       st.floats(0.0, 4.0))
def test_pvm_covariance_under_reparametrization(point, seed, log_cond):
    rng = np.random.default_rng(seed)
    mdl = _squeezed_near(rng) if point == "coherent_m4" else _custom_generic(seed, 5, 3)
    frame = model.tangent_frame(mdl, mdl.theta0)
    m = mdl.m
    b = rng.normal(size=(m, m))
    g = b @ b.T + 0.5 * np.eye(m)
    t = _random_t(rng, m, log_cond)
    v, method = _reparametrized_pvm_covariance(frame, np.eye(m), g)
    vt, method_t = _reparametrized_pvm_covariance(frame, t, g)
    tinv = np.linalg.inv(t)
    expected = tinv @ v @ tinv.T
    assert method_t == method == ("closed_form_coherent" if point == "coherent_m4" else "oracle")
    if log_cond <= 3.0:
        assert np.abs(vt - expected).max() <= 1e-9 * np.abs(expected).max()


# A coherent model stays coherent under any real reparametrization theta = T eta:
# K and beta come from the SVD of the lifts L T, and the snap scales with
# cond(L T), here up to about 2e4, so no check fires. The bound is compared up
# to cond(T) = 1e3: the weight T^T G T, and w T^T G T w where JS = I, are off
# by about eps cond(T)^2, which moves CR by 5.7e-11 at most at 1e3 and by
# 6.3e-9 at 1e4 over 1200 draws.
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 4.0))
@example(2, 4.0)
@example(12, 4.0)
@example(5, 3.0)
def test_reparametrized_coherent_models_stay_coherent(seed, log_cond):
    rng = np.random.default_rng(seed)
    mdl = _squeezed_near(rng)
    frame = model.tangent_frame(mdl, mdl.theta0)
    fd0 = model.fisher_data(frame)
    t = _random_t(rng, 4, log_cond)
    _, fd = _lifted(frame.phi, frame.lifts @ t)
    assert analysis.beta_spectrum(fd).classification == "coherent"
    assert fd.coherent
    b = rng.normal(size=(4, 4))
    for g in (np.eye(4), b @ b.T + 0.5 * np.eye(4)):
        ref = analysis.cr_bound(fd0, g).value
        value = analysis.cr_bound(fd, t.T @ g @ t).value
        if log_cond <= 3.0:
            assert abs(value - ref) <= 1e-9 * ref


def _pair_lifts(delta):
    """2 x 2 lifts with Gram [[1, i beta], [-i beta, 1]], beta = 1 - delta: rows
    sqrt(1 +- beta) v+-*, with v+- = (1, -+i)/sqrt 2 the Gram's eigenvectors."""
    up, down = np.array([1.0, 1j]) / math.sqrt(2), np.array([1.0, -1j]) / math.sqrt(2)
    return np.array([math.sqrt(2.0 - delta) * up, math.sqrt(delta) * down])


def _embedded(lifts):
    """_lifted with phi the first basis vector and the lifts below it."""
    phi = np.zeros(len(lifts) + 1, dtype=complex)
    phi[0] = 1.0
    return _lifted(phi, np.vstack([np.zeros((1, lifts.shape[1])), lifts]))


# Near beta = 1 every construction succeeds on either side of the snap. On
# the JS = I lifts the snap is TOL "beta" = 1e-14 (cond(L) = 1), where the
# bound's slope in beta leaves at most sqrt(2e-14) = 1.4e-7. A bare Gram is
# factored through its PSD root, whose eigen dust sets beta to 1 below
# 1 - beta = 1e-10, so it is checked for the constructions alone. The m = 4
# models are L0 T of two pairs at 1 - delta and 1 - 3 delta, mixed by a random
# isometry on the left and a random T (cond(T) < e^2) on the right.
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["js_identity", "bare_gram", "m4"]), st.floats(-16.0, -2.0),
       st.integers(0, 10_000))
@example("js_identity", -13.7, 0)
@example("bare_gram", math.log10(5e-10), 0)
@example("m4", -13.5, 0)
def test_near_beta_one_every_construction_succeeds(family, log_delta, seed):
    delta = 10.0 ** log_delta
    rng = np.random.default_rng(seed)
    if family == "js_identity":
        fd = _embedded(_pair_lifts(delta))[1]
    elif family == "bare_gram":
        jt = (1.0 - delta) * np.array([[0.0, 1.0], [-1.0, 0.0]])
        fd = FisherData(JS=np.eye(2), Jt=jt, gram=np.eye(2) + 1j * jt)
    else:
        l0 = np.zeros((4, 4), dtype=complex)
        l0[:2, :2], l0[2:, 2:] = _pair_lifts(delta), _pair_lifts(3.0 * delta)
        q1, q2 = (np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(2))
        t = (q1 * np.exp(rng.uniform(-1.0, 1.0, 4))) @ q2
        u = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0][:, :4]
        fd = _embedded(u @ l0 @ t)[1]
    m = fd.JS.shape[0]
    nf = measurement.naimark_frame(fd, np.zeros(m))
    b = rng.normal(size=(m, m))
    for g in (np.eye(m), b @ b.T + 0.5 * np.eye(m)):
        ev, rep = measurement.optimal_vectors(nf, fd, fd.weight(g))
        v, unbiased = measurement.covariance_of_pvm(measurement.pvm_from_vectors(ev), nf)
        assert unbiased
        assert abs(np.sum(g * v) - rep.value) <= 1e-9 * rep.value
    if family == "js_identity":
        value = analysis.cr_bound(fd, np.eye(2)).value
        expect = 4.0 / (1.0 + math.sqrt(delta * (2.0 - delta)))
        assert abs(value - expect) <= 2e-7 * expect
