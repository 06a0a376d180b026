"""Bound formulas, curve geometry, classification."""

import decimal
import fractions
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import paper_statements
from qcrb import analysis, errors, matkernel, measurement, model, oracle
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


def _block(beta):
    return np.array([[0.0, -beta], [beta, 0.0]])


def _schur_betas(a):
    """Pair betas from scipy's real Schur form, an independent reference; a pair
    below the beta snap (TOL "beta", here where cond(L) = 1) is zero."""
    t, _ = scipy.linalg.schur(a, output="real")
    dust = matkernel.TOL["beta"] * max(1.0, np.abs(a).max())
    betas, k = [], 0
    while k < len(t):
        if k + 1 < len(t) and abs(t[k + 1, k]) > dust:
            betas.append(np.sqrt(abs(t[k + 1, k] * t[k, k + 1])))
            k += 2
        else:
            k += 1
    return np.sort(betas)[::-1]


def _rotated(rng, *blocks):
    d = scipy.linalg.block_diag(*blocks)
    r, _ = np.linalg.qr(rng.normal(size=d.shape))
    a = r.T @ d @ r
    return 0.5 * (a - a.T)


def structure_fd(a, c):
    """Fisher data with JS = c I and Jt = a, so K = a / c: every beta <= 1
    when c is the largest pair of a."""
    js = c * np.eye(len(a))
    return FisherData(JS=js, Jt=a, gram=js + 1j * a)


@pytest.mark.parametrize("case, blocks, pairs", [
    ("repeated pairs", (_block(0.7), _block(0.7), np.zeros((1, 1))), 2),
    ("kernel of dimension 4", (_block(1.3), np.zeros((4, 4))), 1),
    ("pair at 1e-15 is zero", (_block(0.9), _block(1e-15), np.zeros((1, 1))), 1),
    ("pair at 1e-8 is a pair", (_block(0.9), _block(1e-8)), 2),
    ("two pairs at 1e-8 and a kernel", (_block(1e-8), _block(1e-8), _block(1.0),
                                        np.zeros((1, 1))), 3),
    ("n = 1", (np.zeros((1, 1)),), 0),
    ("two by two", (_block(0.3),), 1),
    ("zero matrix", (np.zeros((3, 3)),), 0),
    ("pair at 1e-11 is a pair", (_block(0.9), _block(1e-11), np.zeros((1, 1))), 2),
])
def test_beta_spectrum_matches_schur(case, blocks, pairs):
    a = _rotated(np.random.default_rng(11), *blocks)
    n = len(a)
    ref = _schur_betas(a)
    assert ref.size == pairs
    c = ref[0] if pairs else 1.0
    fd = structure_fd(a, c)
    mu, beta = fd.canonical[1][0], fd.canonical[2]
    found, zeros = mu[mu > 0][::-1], np.count_nonzero(mu == 0)
    assert found.size == pairs and 2 * pairs + zeros == n
    assert np.abs(found * c - ref).max(initial=0.0) <= 1e-12
    expect = np.concatenate([np.repeat(ref, 2), np.zeros(zeros)])
    assert np.abs(beta.betas * c - expect).max() <= 1e-12


# With G = I the squeezed bound Tr JS^-1 + Tr |JS^-1 Jt JS^-1| is
# cosh 2 t3 + 3/2 + 1/sinh 2 t3 + 1/(2 sinh^2 2 t3) at every t1, t2 and t4; a
# 60-digit mpmath evaluation from the closed-form JS and Jt agrees at t3 = 2, 4
# and 8. K taken from the Gram erred by about eps cond(JS): 8.3e-11 at t3 = 4.
@pytest.mark.parametrize("t3", np.arange(1, 9) * 0.5)
def test_squeezed_bound_matches_its_exact_value(t3):
    mdl = model.catalog_squeezed([0.1, -0.2, t3, 0.3])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    sh = math.sinh(2.0 * t3)
    exact = math.cosh(2.0 * t3) + 1.5 + 1.0 / sh + 0.5 / (sh * sh)
    assert abs(analysis.cr_bound(fd, np.eye(4)).value - exact) <= 1e-12 * exact


def test_beta_spectrum_random_antisymmetric():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 7):
        b = rng.normal(size=(n, n))
        a = b - b.T
        # the pairs are the singular values of a, each taken twice
        sv = np.linalg.svd(a, compute_uv=False)
        mu = structure_fd(a, sv[0]).canonical[1][0]
        found, zeros = mu[mu > 0][::-1], np.count_nonzero(mu == 0)
        assert 2 * found.size + zeros == n
        assert np.abs(found * sv[0] - sv[::2][:found.size]).max() <= 1e-9


def test_classification_tests():
    assert synthetic_fd(0.0).canonical[2].classification == "quasi_classical"
    assert synthetic_fd(0.2).canonical[2].classification != "quasi_classical"
    assert synthetic_fd(1.0).coherent
    assert not synthetic_fd(0.9).coherent


def test_sld_bound_is_trace_form():
    fd = synthetic_fd(0.5, js=np.diag([2.0, 4.0]))
    g = np.diag([1.0, 3.0])
    assert abs(paper_statements.sld_bound(fd, g) - (0.5 + 0.75)) <= 1e-12


def _shifted_n3():
    mdl = model.catalog_shifted_number(3, [0.2, -0.4])
    return model.fisher_data(model.tangent_frame(mdl, mdl.theta0))


@pytest.mark.parametrize("g, error", [
    (np.eye(3), errors.DomainError),
    (np.full((2, 2), np.nan), errors.NonFinite),
    (np.diag([-1.0, 1.0]), errors.DomainError),
], ids=["wrong_shape", "nan", "not_psd"])
def test_sld_bound_checks_the_weight_as_every_route(g, error):
    # without the checks these gave a numpy ValueError, nan and 0.0
    with pytest.raises(error):
        paper_statements.sld_bound(_shifted_n3(), g)


def test_boundary_degenerate_and_hyperbola():
    c0 = analysis.boundary_2param(0.0, count=7)
    assert c0.shape == (1, 4)
    assert np.abs(c0[0] - [0.0, 1.0, 1.0, 1.0]).max() <= 1e-12
    c1 = analysis.boundary_2param(1.0, count=9, x_window=(-2.0, 2.0))
    x, z = c1[:, 0], c1[:, 1]
    assert np.abs((z - 1.0) ** 2 - x * x - 1.0).max() <= 1e-12
    assert abs(z[4] - 2.0) <= 1e-12  # x = 0 gives z = 2


def test_boundary_x0_anchor():
    # at x = 0 the curve passes through z = 1 + ((1 - sqrt(1-b^2))/b)^2
    beta = 0.6
    c = analysis.boundary_2param(beta, count=11)
    mid = c[5]
    w = (1.0 - math.sqrt(1.0 - beta ** 2)) / beta
    assert abs(mid[0]) <= 1e-12
    assert abs(mid[1] - (1.0 + w * w)) <= 1e-12
    u, v = c[:, 2], c[:, 3]
    resid = np.abs(np.sqrt(u - 1) + np.sqrt(v - 1) - beta * np.sqrt(u * v))
    assert resid.max() <= 1e-12


def test_boundary_endpoints_and_domain():
    beta = 0.8
    c = analysis.boundary_2param(beta, count=21)
    xmax = beta ** 2 / (2 * (1 - beta ** 2))
    assert abs(c[0, 0] + xmax) <= 1e-10
    assert abs(c[-1, 0] - xmax) <= 1e-10
    assert c[:, 2].min() >= 1.0 - 1e-12
    assert c[:, 3].min() >= 1.0 - 1e-12
    with pytest.raises(errors.DomainError):
        analysis.boundary_2param(-0.1, 101)
    with pytest.raises(errors.DomainError):
        analysis.boundary_2param(1.2, 101)
    # a non-finite window built a NaN curve, which the CSV writer refused (exit 3)
    for window in ((math.inf, 1.0), (-1.0, math.nan)):
        with pytest.raises(errors.DomainError, match="x_window"):
            analysis.boundary_2param(1.0, count=3, x_window=window)


@pytest.mark.parametrize("window", [
    (-2.0, 2.0), (1e8, 1e17), (0.0, 1e200), (-1e300, 1e300), (-1e300, -1e-300), (3e299, 1e300),
])
def test_hyperbola_rows_lie_on_the_curve(window):
    # 1 + sqrt(1 + x^2) overflowed past |x| = 1.3e154, and z - x cancelled to
    # v = 1 and then 0. Each row is checked in exact arithmetic on its floats:
    # (u-1)(v-1) = 1 relative to the size of its terms, u |v-1| + |u-1| v (a v
    # near 1 holds v - 1 only to its ulp), and each entry against the curve at x,
    # to 50 digits, to 1e-15 relative.
    for x, z, u, v in analysis.boundary_2param(1.0, count=9, x_window=window).tolist():
        uq, vq = fractions.Fraction(u), fractions.Fraction(v)
        miss = abs((uq - 1) * (vq - 1) - 1)
        assert miss <= fractions.Fraction(1e-15) * (uq * abs(vq - 1) + abs(uq - 1) * vq), x
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            xd = decimal.Decimal(x)
            s = (1 + xd * xd).sqrt()
            far, near = 1 + s + abs(xd), 1 + 1 / (s + abs(xd))
            exact = (1 + s, *((far, near) if x >= 0 else (near, far)))
            for got, ref in zip((z, u, v), exact):
                assert abs(decimal.Decimal(got) - ref) <= decimal.Decimal(1e-15) * ref, x
        assert u >= 1.0 and v >= 1.0


def test_hyperbola_beyond_the_float_range_is_a_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for window in ((0.0, 1e308), (-1e308, 0.0)):
            with pytest.raises(errors.DomainError, match="float range"):
                analysis.boundary_2param(1.0, count=3, x_window=window)


# Checks of the analysis layer that no other test reaches, called directly.
@pytest.mark.parametrize("m", [1, 3])
def test_two_parameter_bound_rejects_other_m(m):
    fd = FisherData.from_gram(np.eye(m))
    with pytest.raises(errors.DomainError, match="requires m = 2"):
        analysis.cr_bound_2param(fd, np.eye(m))


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("count", [0, -3])
def test_boundary_rejects_empty_sample_count(beta, count):
    with pytest.raises(errors.DomainError):
        analysis.boundary_2param(beta, count=count)


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
        assert rep.value >= paper_statements.sld_bound(fd, g) - 1e-10


def _curve_value(g0, g1, beta, p):
    c = math.sqrt(1.0 - beta * beta)
    q = (beta - c * p) / (beta * p + c)
    return g0 * (1.0 + p * p) + g1 * (1.0 + q * q)


@pytest.mark.parametrize("beta", [1e-12, 1e-6, 0.05, 0.5, 0.9, 0.999, 1.0 - 1e-6,
                                  1.0 - 1e-12])
def test_minimize_on_curve_matches_brent(beta):
    # reference: the best point of a dense grid, refined by bounded Brent
    pmax = beta / math.sqrt(1.0 - beta * beta)
    grid = np.linspace(0.0, pmax, 4097)
    for g0 in (1e-6, 1e-3, 0.4, 1.0, 30.0, 1e6):
        for g1 in (1e-6, 1e-3, 0.7, 1.0, 30.0, 1e6):
            vals = _curve_value(g0, g1, beta, grid)
            k = int(np.argmin(vals))
            res = scipy.optimize.minimize_scalar(
                lambda p: _curve_value(g0, g1, beta, p),
                bounds=(grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]),
                method="bounded", options={"xatol": 1e-14, "maxiter": 1000})
            ref = min(float(res.fun), float(vals[k]))
            p, q = analysis._minimize_on_curve(g0, g1, beta)
            assert 0.0 <= p <= pmax
            got = g0 * (1.0 + p * p) + g1 * (1.0 + q * q)
            assert abs(got - ref) <= 1e-12 * ref, (g0, g1, got, ref)


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
    # at m = 2 the table's two-parameter entry answers first; the coherent
    # entry's own solve gives the same value, Tr(G JS^-1) + Tr|M| = 1 + 1
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    rep = analysis.closed_form(fd, fd.weight(np.eye(2)))
    assert rep.method == "closed_form_2param"
    assert abs(rep.value - 2.0) <= 1e-9
    assert abs(np.trace(rep.V_opt) - rep.value) <= 1e-9
    coherent = analysis._coherent(fd, fd.weight(np.eye(2)))
    assert coherent.value == pytest.approx(rep.value, rel=1e-14)
    assert coherent.notes["sld_part"] == pytest.approx(1.0, abs=1e-9)
    assert coherent.notes["abs_part"] == pytest.approx(1.0, abs=1e-9)
    # closed_form caches its report per weight, read-only where it is shared
    assert analysis.closed_form(fd, fd.weight(np.eye(2))) is rep
    assert analysis.cr_bound(fd, np.eye(2)) is rep
    assert not rep.G.flags.writeable and not rep.V_opt.flags.writeable
    other = analysis.closed_form(fd, fd.weight(np.diag([2.0, 1.0])))
    assert other is not rep and other.value > rep.value
    # the coherent entry's two parts, on a coherent point at m = 4 under G = JS,
    # where G' = I and |M| = |K| has every eigenvalue 1: each part is m
    sq = model.catalog_squeezed([0.1, -0.2, 0.4, 0.3])
    fd4 = model.fisher_data(model.tangent_frame(sq, sq.theta0))
    rep4 = analysis.closed_form(fd4, fd4.weight(fd4.JS))
    assert rep4.method == "closed_form_coherent"
    assert rep4.notes["sld_part"] == pytest.approx(4.0, abs=1e-9)
    assert rep4.notes["abs_part"] == pytest.approx(4.0, abs=1e-9)
    assert rep4.value == pytest.approx(8.0, abs=1e-9)


def test_cr_bound_coherent_rejections(table_solves):
    # a point that is not coherent, and a coherent one under a singular weight,
    # fall past the coherent entry: no coherent solve, and the oracle answers
    sq = model.catalog_squeezed([0.1, -0.2, 0.4, 0.3])
    cases = [(built_fd(custom_generic(5, 3, 3)), np.diag([1.0, 2.0, 0.5])),
             (built_fd(sq), np.diag([1.0, 2.0, 3.0, 0.0]))]
    for fd, g in cases:
        assert analysis.closed_form(fd, fd.weight(g)) is None
        assert analysis.cr_bound(fd, g).method == "oracle"
    assert cases[1][0].coherent and not cases[0][0].coherent
    assert table_solves == []


def test_marginal_infimum():
    fd = synthetic_fd(0.0, js=np.diag([2.0, 2.0]))
    value, hint = paper_statements.marginal_infimum(fd, 0)
    assert abs(value - 0.5) <= 1e-12
    assert hint
    value, hint = paper_statements.marginal_infimum(synthetic_fd(1.0), 0)
    assert abs(value - 1.0) <= 1e-12
    assert not hint
    _, hint = paper_statements.marginal_infimum(synthetic_fd(0.6), 1)
    assert hint


def test_marginal_infimum_takes_an_integer_index():
    # the index goes through operator.index, as a sequence index does: a float
    # or a string is a DomainError (1.0 was an IndexError), and True is 1 (it
    # was a ValueError)
    fd = _shifted_n3()
    for i in (1.0, 0.5, "0", None, -1, 2):
        with pytest.raises(errors.DomainError):
            paper_statements.marginal_infimum(fd, i)
    expect = paper_statements.marginal_infimum(fd, 1)
    assert paper_statements.marginal_infimum(fd, np.int64(1)) == expect
    assert paper_statements.marginal_infimum(fd, True) == expect


def custom_generic(dim, m, seed):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    dphi = 0.5 * (rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim)))
    return model.custom_model(dim, m, phi / np.linalg.norm(phi), dphi, np.zeros(m))


@pytest.mark.parametrize("build, attained", [
    (lambda: custom_generic(5, 3, 3), True),
    (lambda: custom_generic(6, 3, 11), True),
    (lambda: custom_generic(7, 4, 5), True),
    (lambda: custom_generic(9, 4, 8), True),
    # each coherent (theta1, theta2) or (theta3, theta4) block is a beta = 1
    # pair, where a marginal is an infimum that no estimator attains
    (lambda: model.catalog_squeezed([0.1, -0.2, 0.4, 0.3]), False),
], ids=["custom_m3_a", "custom_m3_b", "custom_m4_a", "custom_m4_b", "squeezed"])
def test_marginal_infimum_is_the_bound_of_a_unit_weight(build, attained):
    mdl = build()
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    m = mdl.m
    if attained:
        assert analysis.beta_spectrum(fd).classification == "generic"
    jsinv = fd.js_powers[0]
    for i in range(m):
        value, flag = paper_statements.marginal_infimum(fd, i)
        assert abs(value - jsinv[i, i]) <= 1e-12 * jsinv[i, i]
        assert flag is attained


def test_independence_partition():
    gram = np.zeros((4, 4), dtype=complex)
    gram[:2, :2] = 2.0 * np.eye(2) + 2j * np.array([[0.0, -1.0], [1.0, 0.0]])
    gram[2:, 2:] = 3.0 * np.eye(2)
    fd = FisherData(JS=gram.real, Jt=gram.imag, gram=gram)
    assert paper_statements.independence_partition(fd, [[0, 1], [2, 3]])
    assert not paper_statements.independence_partition(fd, [[0, 2], [1, 3]])
    with pytest.raises(errors.DomainError):
        paper_statements.independence_partition(fd, [[0, 1], [2]])


def test_independence_squeezed_blocks():
    mdl = model.catalog_squeezed([0.0, 0.0, 0.4, 0.7])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    assert paper_statements.independence_partition(fd, [[0, 1], [2, 3]])


def test_exclusiveness_test():
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    assert paper_statements.exclusiveness_test(fd, 0, 1)
    assert not paper_statements.exclusiveness_test(synthetic_fd(0.0), 0, 1)
    assert not paper_statements.exclusiveness_test(synthetic_fd(0.6), 0, 1)
    with pytest.raises(errors.DomainError):
        paper_statements.exclusiveness_test(fd, 1, 1)


def _pair_and_zero(s, coupling=0.0):
    """Bare Gram s (I + iK), m = 3: one pair at beta = 0.5 over (0, 1), a zero
    beta on 2, and `coupling` in K between 1 and 2."""
    k = np.zeros((3, 3))
    k[0, 1], k[1, 2] = 0.5, coupling
    return FisherData.from_gram(s * (np.eye(3) + 1j * (k - k.T)))


# The G = JS route and block independence read TOL "eigen_dust" times ||JS||,
# and exclusiveness times sqrt(JS_ii JS_jj). With a floor of 1 on ||JS||,
# G = 2 JS passed for JS at JS = 1e-10 I, and entries near 1e-9 of a small JS
# read as zero.
@pytest.mark.parametrize("s", [1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0])
def test_js_scale_zeros_scale_with_js(s):
    fd = _pair_and_zero(s)
    js_value = 4.0 / (1.0 + math.sqrt(0.75)) + 1.0
    rep = analysis.cr_bound(fd, fd.JS)
    assert rep.method == "closed_form_JS_weight"
    assert abs(rep.value - js_value) <= 1e-12 * js_value
    rep = analysis.cr_bound(fd, 2.0 * fd.JS)
    assert rep.method == "oracle"
    assert abs(rep.value - 2.0 * js_value) <= 1e-8 * rep.value
    assert paper_statements.independence_partition(fd, [[0, 1], [2]])
    assert not paper_statements.independence_partition(_pair_and_zero(s, 0.3), [[0, 1], [2]])
    # a PSD pair with a real part of 1e-6 sqrt(JS_00 JS_11) is not exclusive at
    # any scale; without it, it is
    g01 = 1e-6 + 1j * math.sqrt(1.0 - 1e-12)
    gram = s * np.array([[1.0, g01], [np.conj(g01), 1.0]])
    assert not paper_statements.exclusiveness_test(FisherData.from_gram(gram), 0, 1)
    assert paper_statements.exclusiveness_test(FisherData.from_gram(gram - gram.real + s * np.eye(2)),
                                       0, 1)


# JS is its own unit, since w JS w = I, below ||JS|| = 2^1023; from there the
# floor on the weight's 2^f makes the unit JS/4. The G = JS entry takes G = JS
# on both sides, with the same bound, which does not depend on the units of
# theta. Compared with JS itself, the entry missed G = JS from 2^1023 on, and
# cr_bound_js_weight read 4 times the bound.
@pytest.mark.parametrize("k", [510, 511])
def test_js_weight_entry_at_the_top_of_the_float_range(k):
    phi = np.eye(5)[0]
    dphi = np.array([[0, 0.8, 0.25j, 0, 0], [0, 0.1j, 0.05, 0.2, 0], [0, 0, 0.1, 0.05j, 0.15]])
    fd0, fd = (model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
               for mdl in (model.custom_model(5, 3, phi, c * dphi, np.zeros(3))
                           for c in (1.0, 2.0 ** k)))
    assert (matkernel.mnorm(fd.JS) >= 2.0 ** 1023) == (k == 511)
    value = analysis.cr_bound(fd0, fd0.JS).value
    rep = analysis.cr_bound(fd, fd.JS)
    assert rep.method == "closed_form_JS_weight"
    for v in (rep.value, analysis.cr_bound_js_weight(fd).value):
        assert abs(v - value) <= 1e-14 * value


# A bare Gram's Hermitian part is halved before its sum and its difference, so
# entries up to the top of the float range do not overflow there: G = JS gets
# its bound where the spectrum of the Gram, up to 1.5 s, is finite, and past
# that the eigendecomposition's infinite eigenvalue is NonFinite.
@pytest.mark.parametrize("c", [1.0, 1.3, 1.5, 1.99])
def test_bare_gram_at_the_top_of_the_float_range(c):
    fd = _pair_and_zero(c * 2.0 ** 1023)
    if c < 1.5:
        rep = analysis.cr_bound(fd, fd.JS)
        assert rep.method == "closed_form_JS_weight"
        value = 4.0 / (1.0 + math.sqrt(0.75)) + 1.0
        assert abs(rep.value - value) <= 1e-14 * value
    else:
        with pytest.raises(errors.NonFinite):
            analysis.cr_bound(fd, fd.JS)


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


def test_each_working_point_is_decomposed_once(monkeypatch):
    mdl = model.catalog_squeezed([0.1, 0.2, 0.4, 0.7])
    seen = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    frame = model.tangent_frame(mdl, mdl.theta0)
    assert seen == []   # the three-level frame is in closed form
    fd = model.fisher_data(frame)
    assert analysis.beta_spectrum(fd).classification == "coherent"
    assert fd.coherent
    g = np.eye(4)
    assert analysis.cr_bound(fd, g).method == "closed_form_coherent"
    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    measurement.optimal_vectors_coherent(nf, fd, g)
    # JS^{+-1/2} and K come from the frame's SVD, so iK is the point's one
    # eigh; the weight is decomposed in normalized form, w G w; the
    # completion's h = V' - kh* kh, from the closed form's V' where JS = I
    w = fd.js_powers[1]
    kh = fd.lift_factor[0]
    h = analysis.closed_form(fd, fd.weight(g)).Vn - kh.conj().T @ kh
    expected = {"iK": 1j * fd.canonical[0],
                "wGw": matkernel.symmetrize(w @ g @ w), "h": 0.5 * (h + h.conj().T)}
    names = [name for x in seen for name, e in expected.items()
             if x.shape == e.shape and np.array_equal(x, e)]
    assert sorted(names) == sorted(expected) and len(seen) == len(expected)


def test_two_parameter_coherent_bound_and_vectors_share_one_solve(monkeypatch, table_solves):
    mdl = model.catalog_shifted_number(0, [0.2, -0.4])
    frame = model.tangent_frame(mdl, mdl.theta0)
    seen = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    fd = model.fisher_data(frame)
    g = np.eye(2)
    rep = analysis.cr_bound(fd, g)
    assert rep.method == "closed_form_2param"
    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    ev = measurement.optimal_vectors_coherent(nf, fd, g)
    assert table_solves == ["closed_form_2param"]
    assert max(analysis.estimation_residuals(ev.X, ev.phi, nf.lifts @ ev.w,
                                             errors.InfeasibleGram).values()) <= 1e-8
    # no eigh of JS: its powers come from the frame's SVD
    w = fd.js_powers[1]
    kh = fd.lift_factor[0]
    h = rep.Vn - kh.conj().T @ kh
    expected = {"iK": 1j * fd.canonical[0],
                "wGw": matkernel.symmetrize(w @ g @ w),
                "h": 0.5 * (h + h.conj().T)}
    names = [name for x in seen for name, e in expected.items()
             if x.shape == e.shape and np.array_equal(x, e)]
    assert sorted(names) == sorted(expected) and len(seen) == len(expected)


@pytest.mark.parametrize("beta", [0.0, 1e-12, 5e-10])
def test_cr_bound_2param_at_tiny_beta_is_the_sld_bound(beta):
    # closed_form calls such models quasi-classical; a direct call takes the
    # curve, which collapses to V = JS^{-1}
    fd = synthetic_fd(beta, js=np.array([[2.0, 0.3], [0.3, 0.7]]))
    g = np.array([[1.5, 0.2], [0.2, 0.8]])
    rep = analysis.cr_bound_2param(fd, g)
    expect = paper_statements.sld_bound(fd, g)
    assert abs(rep.value - expect) <= 1e-13 * expect
    assert np.abs(rep.V_opt - fd.js_powers[0]).max() <= 1e-8


def test_cr_bound_2param_rejects_an_indefinite_weight():
    with pytest.raises(errors.DomainError):
        analysis.cr_bound_2param(synthetic_fd(0.5), np.diag([1.0, -1e-3]))


def built_fd(mdl):
    return model.fisher_data(model.tangent_frame(mdl, mdl.theta0))


@pytest.mark.parametrize("build, g, method", [
    (lambda: synthetic_fd(0.0), np.diag([1.0, 2.0]), "quasi_classical"),
    (lambda: synthetic_fd(0.5), np.diag([1.0, 2.0]), "closed_form_2param"),
    (lambda: synthetic_fd(1.0), np.diag([1.0, 0.0]), "closed_form_2param"),
    (lambda: built_fd(model.catalog_squeezed([0.3, -0.2, 0.4, 0.7])),
     np.diag([1.0, 2.0, 3.0, 0.5]), "closed_form_coherent"),
    (lambda: built_fd(custom_generic(5, 3, 3)), None, "closed_form_JS_weight"),
    (lambda: built_fd(custom_generic(5, 3, 3)), np.eye(3), None),
], ids=["quasi_classical", "2param", "2param_unattained", "coherent", "js_weight", "none"])
def test_closed_form_is_cached_per_weight_and_read_only(build, g, method):
    fd = build()
    g = fd.JS.copy() if g is None else g
    rep = analysis.closed_form(fd, fd.weight(g))
    assert analysis.closed_form(fd, fd.weight(g.copy())) is rep
    if method is None:
        assert rep is None
        return
    assert rep.method == method
    assert analysis.cr_bound(fd, g) is rep
    for arr in (rep.G, rep.V_opt, rep.Vn):
        assert arr is None or not arr.flags.writeable
    with pytest.raises(ValueError):
        rep.G[0, 0] = 5.0


def test_coherent_route_decomposes_the_weight_once(monkeypatch):
    mdl = model.catalog_squeezed([0.1, 0.2, 0.4, 0.7])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    analysis.beta_spectrum(fd)
    g = np.eye(4)
    w = fd.js_powers[1]
    weights = {"G": g, "wGw": matkernel.symmetrize(w @ g @ w)}
    seen = []
    original = matkernel.hermitian_eig

    def recording(a):
        seen.extend(name for name, e in weights.items()
                    if np.shape(a) == e.shape and np.array_equal(a, e))
        return original(a)

    monkeypatch.setattr(matkernel, "hermitian_eig", recording)
    assert analysis.cr_bound(fd, g).method == "closed_form_coherent"
    # the stationarity certificate reads the same decomposition
    report, result = analysis.oracle_bound(fd, fd.weight(g))
    assert "multiplier_spectrum" in oracle.stationarity_certificate(result, fd).extras
    assert seen == ["wGw"]


# The |det JS| = |det Jt| cross-check of a coherent point runs once, whichever of
# the bound, the vectors and FisherData.coherent reads it first.
@pytest.mark.parametrize("build", [
    lambda: model.catalog_squeezed([0.1, 0.2, 0.4, 0.7]),
    lambda: model.catalog_shifted_number(0, [0.2, -0.4]),
], ids=["squeezed", "shifted_n0"])
def test_coherent_point_takes_the_determinants_once(count_calls, build):
    mdl = build()
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    dets = count_calls(np.linalg, "det")
    g = np.eye(mdl.m)
    analysis.cr_bound(fd, g)
    measurement.optimal_vectors_coherent(measurement.naimark_frame(fd, mdl.theta0), fd, g)
    assert fd.coherent and fd.coherent
    assert dets == ["det", "det"]


# A failed determinant check is not cached: it raises on every read, and once the
# check can pass, it is taken once more and then cached. The coherent entry's
# applies reads it, so at m = 4 a walk of the route table raises it too, and
# caches no answer for the weight; at m = 2 the two-parameter entry answers first.
def test_a_failed_coherent_check_raises_on_every_read(monkeypatch, count_calls):
    dets = count_calls(np.linalg, "det")
    for mdl, method in ((model.catalog_shifted_number(0, [0.2, -0.4]), "closed_form_2param"),
                        (model.catalog_squeezed([0.1, -0.2, 0.4, 0.3]), "closed_form_coherent")):
        fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
        g = np.eye(mdl.m)
        dets.clear()
        monkeypatch.setitem(matkernel.TOL, "coherent_det", -1.0)
        for _ in range(2):
            with pytest.raises(errors.ConsistencyError):
                fd.coherent
            if mdl.m > 2:
                with pytest.raises(errors.ConsistencyError):
                    analysis.closed_form(fd, fd.weight(g))
        monkeypatch.setitem(matkernel.TOL, "coherent_det", 1e-6)
        assert fd.coherent and fd.coherent
        assert len(dets) == (6 if mdl.m == 2 else 10)
        assert analysis.closed_form(fd, fd.weight(g)).method == method


def test_coherent_route_with_singular_weight_goes_to_the_oracle():
    mdl = model.catalog_squeezed([0.1, 0.2, 0.4, 0.7])
    fd = model.fisher_data(model.tangent_frame(mdl, mdl.theta0))
    g = np.diag([2.0, 1.0, 1.0, 0.0])
    assert analysis.closed_form(fd, fd.weight(g)) is None
    rep = analysis.cr_bound(fd, g)
    assert rep.method == "oracle"
    assert abs(rep.notes["gap"]) <= 1e-9 * max(1.0, rep.value)
    # dropping a weight can only lower the bound below the full coherent one
    full = analysis.closed_form(fd, fd.weight(np.diag([2.0, 1.0, 1.0, 1e-3])))
    assert full.method == "closed_form_coherent" and rep.value <= full.value
    assert rep.value >= paper_statements.sld_bound(fd, g) - 1e-12


SPIN_QC_POINT = (1.0, 0.0, [0.7, 1.1])


def _fd(mdl):
    return model.fisher_data(model.tangent_frame(mdl, mdl.theta0))


@pytest.mark.parametrize("g, error", [
    (np.diag([1.0, -1.0]), errors.DomainError),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), errors.NonFinite),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), errors.NonFinite),
], ids=["indefinite", "nan", "inf"])
def test_quasi_classical_route_validates_the_weight(g, error):
    # the quasi-classical value Tr(G JS^-1) read -0.352 and nan for the first two;
    # an infinite entry made w G w warn ("invalid value encountered in matmul")
    fd = _fd(model.catalog_spin_rotation(*SPIN_QC_POINT))
    assert analysis.beta_spectrum(fd).classification == "quasi_classical"
    with pytest.raises(error):
        analysis.cr_bound(fd, g)


@pytest.mark.parametrize("build, method", [
    (lambda: model.catalog_spin_rotation(*SPIN_QC_POINT), "quasi_classical"),
    (lambda: model.catalog_shifted_number(0, [0.2, -0.4]), "closed_form_2param"),
    (lambda: model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]), "closed_form_2param"),
], ids=["quasi_classical", "coherent_m2", "generic_m2"])
def test_weight_of_the_wrong_shape_is_a_domain_error(build, method):
    fd = _fd(build())
    assert analysis.cr_bound(fd, np.eye(2)).method == method
    # closed_form and oracle_bound take the Weight that fd.weight builds
    for route in (analysis.cr_bound, FisherData.weight):
        with pytest.raises(errors.DomainError, match="does not match m = 2"):
            route(fd, np.eye(3))


def test_oracle_report_is_cached_beside_the_closed_forms(count_calls):
    # a generic m = 3 model has no closed form at this weight: the bound, the
    # vectors and the bound again share one SDP solve on the point's FisherData
    rng = np.random.default_rng(4)
    phi = rng.normal(size=5) + 1j * rng.normal(size=5)
    dphi = 0.5 * (rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)))
    mdl = model.custom_model(5, 3, phi / np.linalg.norm(phi), dphi, np.zeros(3))
    g = np.diag([1.0, 2.0, 0.5])
    solves = count_calls(oracle, "_minimize")
    factored = count_calls(matkernel, "lift_svd")
    fd = _fd(mdl)
    first = analysis.cr_bound(fd, g)
    nf = measurement.naimark_frame(fd, theta=mdl.theta0)
    ev, rep = measurement.optimal_vectors(nf, fd, fd.weight(g))
    again = analysis.cr_bound(fd, g)
    assert first.method == "oracle"
    assert len(solves) == 1 and len(factored) == 1   # the point is factored once
    assert rep is first and again is first
    report, result = analysis.oracle_bound(fd, fd.weight(g))
    # the result keeps the point's gram, not its fd, which caches it
    assert report is first and ev.X is result.Xn and result.gram is fd.gram
    for a in (report.G, report.V_opt, result.X, result.Xn):
        assert not a.flags.writeable
    # the closed-form entry of the same weight is a separate key
    assert analysis.closed_form(fd, fd.weight(g)) is None


def _generic_point():
    rng = np.random.default_rng(4)
    phi = rng.normal(size=5) + 1j * rng.normal(size=5)
    dphi = 0.5 * (rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)))
    mdl = model.custom_model(5, 3, phi / np.linalg.norm(phi), dphi, np.zeros(3))
    frame = model.tangent_frame(mdl, mdl.theta0)
    return frame, model.fisher_data(frame)


def _library_routes():
    """bound, PVM, covariance and sampling on each class; the oracle's routes."""
    for mdl in (model.catalog_spin_rotation(1, 0, [0.7, 0.3]),
                model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]),
                model.catalog_shifted_number(0, [0.2, -0.4]),
                model.catalog_squeezed([0.1, -0.2, 0.4, 0.3])):
        frame = model.tangent_frame(mdl, mdl.theta0)
        fd = model.fisher_data(frame)
        g = np.eye(mdl.m)
        analysis.cr_bound(fd, g)
        space = measurement.pvm_space(frame, fd)
        pvm = measurement.pvm_from_vectors(measurement.optimal_vectors(space, fd, fd.weight(g))[0])
        measurement.covariance_of_pvm(pvm, space)
        measurement.sample_outcomes(pvm, space, 1000, 3)
    fd = _fd(model.catalog_spin_rotation(1.5, 0.5, [0.9, 0.3]))
    analysis.oracle_bound(fd, fd.weight(np.diag([1.0, 0.0])))
    frame, fd = _generic_point()
    g = np.diag([1.0, 2.0, 0.5])
    measurement.optimal_vectors(measurement.pvm_space(frame, fd), fd, fd.weight(g))
    oracle.stationarity_certificate(analysis.oracle_bound(fd, fd.weight(g))[1], fd)


def test_library_routes_leave_no_reference_cycles():
    # a cycle through a working point frees its Fisher data, decompositions and
    # reports only in a pass of the cyclic collector, in the middle of later work
    _library_routes()   # imports and per-process caches
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _library_routes()
        found = gc.collect()
        kinds = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0, kinds


def test_a_dropped_point_is_freed_by_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        frame, fd = _generic_point()
        g = np.diag([1.0, 2.0, 0.5])
        analysis.cr_bound(fd, g)
        analysis.closed_form(fd, fd.weight(np.eye(3)))
        measurement.optimal_vectors(measurement.pvm_space(frame, fd), fd, fd.weight(g))
        point = weakref.ref(fd)
        assert point() is not None and point().reports
        del frame, fd
        assert point() is None
    finally:
        if enabled:
            gc.enable()
