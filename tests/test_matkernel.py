"""Dense Hermitian kernel checks against plain numpy oracles."""

import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import paper_statements
from qcrb import errors, matkernel

SRC = Path(__file__).resolve().parents[1] / "src" / "qcrb"
OLD_CONSTANTS = {"EIGEN_DUST", "HERMITIAN_TOL", "CLASSIFY_DUST", "TAIL_TOL", "GAP_TOL",
                 "GAP_FLOOR", "ORACLE_AGREEMENT_TOL"}


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_psd(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T


def test_check_hermitian_accepts_and_symmetrizes():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 4)
    a = h + 1e-14 * 1j * np.eye(4)
    out, size = matkernel.check_hermitian(a)
    assert np.abs(out - out.conj().T).max() == 0.0
    assert size == np.abs(a).max()


def test_check_hermitian_rejects():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(errors.NonHermitian):
        matkernel.check_hermitian(a)


def test_check_finite_rejects_nan():
    a = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(errors.NonFinite):
        matkernel.check_finite(a)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                 complex(np.nan, np.nan)])
def test_check_finite_rejects_complex_entries(bad):
    a = np.eye(2, dtype=complex)
    a[0, 1] = bad
    with pytest.raises(errors.NonFinite):
        matkernel.check_finite(a)


# check_hermitian reads finiteness from its one norm, and takes the entrywise
# check only when that norm is not finite: NaN and Inf still raise NonFinite,
# in real and complex matrices alike
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                 complex(np.nan, 1.0), complex(-np.inf, np.nan)])
def test_check_hermitian_rejects_non_finite_entries(bad):
    dtype = complex if isinstance(bad, complex) else float
    for i, j in ((0, 0), (0, 1)):
        a = np.eye(2, dtype=dtype)
        a[i, j] = bad
        a[j, i] = np.conj(bad)
        with pytest.raises(errors.NonFinite):
            matkernel.check_hermitian(a)


def test_check_hermitian_passes_a_modulus_past_the_float_range():
    # finite parts whose modulus overflows: the norm is infinite, the entrywise
    # check passes, and an infinite norm admits any deviation
    x = complex(1.3e308, 1.3e308)
    for a in (np.array([[0.0, x], [np.conj(x), 0.0]]), np.array([[0.0, x], [0.0, 0.0]])):
        with np.errstate(over="ignore", invalid="ignore"):
            out, size = matkernel.check_hermitian(a)
            ref = 0.5 * (a + a.conj().T)
        assert size == np.inf
        assert np.array_equal(out, ref, equal_nan=True)


def test_psd_eig_reads_its_input_once(monkeypatch):
    # one max-abs pass of the input serves the finiteness check, the Hermitian
    # check's scale and the dust; no entrywise isfinite pass
    a = random_psd(np.random.default_rng(3), 4)
    passes, isfinite = [], []
    absolute, finite = np.abs, np.isfinite
    monkeypatch.setattr(np, "abs", lambda x, *args, **kw: (
        passes.append(x is a), absolute(x, *args, **kw))[1])
    monkeypatch.setattr(np, "isfinite", lambda x, *args, **kw: (
        isfinite.append(x), finite(x, *args, **kw))[1])
    w, _, keep = matkernel.psd_eig(a)
    monkeypatch.undo()
    assert passes.count(True) == 1 and isfinite == []
    assert keep.all() and np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-12 * np.abs(a).max()


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(1)
    a = random_psd(rng, 5)
    r = matkernel.sqrt_psd(a)
    assert np.abs(r @ r - a).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_sqrt_psd_real_input_real_output():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(4, 4))
    r = matkernel.sqrt_psd(b @ b.T)
    assert not np.iscomplexobj(r)


def test_sqrt_psd_drops_dust_eigenvalues():
    # an eigenvalue within the dust is a zero; its root 1e-6 would not be
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    a = (q * np.array([2.0, 1.0, 1e-12])) @ q.conj().T
    r = matkernel.sqrt_psd(a)
    assert np.abs(r @ q[:, 2]).max() <= 1e-15
    assert np.abs(r @ r - a).max() <= 1e-10


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(errors.NotPSD):
        matkernel.sqrt_psd(np.diag([1.0, -0.5]))


def test_inv_and_invsqrt():
    rng = np.random.default_rng(3)
    a = random_psd(rng, 4) + np.eye(4)
    assert np.abs(matkernel.inv_psd(a) @ a - np.eye(4)).max() <= 1e-10
    w = matkernel.psd_powers(a, -0.5)[0]
    assert np.abs(w @ a @ w - np.eye(4)).max() <= 1e-9


def test_invsqrt_rejects_singular():
    with pytest.raises(errors.NotPSD):
        matkernel.psd_powers(np.diag([1.0, 0.0]), -0.5)


def test_abs_sym_matches_spectral_oracle():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 6)
    w, u = np.linalg.eigh(h)
    expect = (u * np.abs(w)) @ u.conj().T
    assert np.abs(matkernel.abs_sym(h) - expect).max() <= 1e-10


def test_psd_geq():
    assert paper_statements.psd_geq(np.diag([2.0, 2.0]), np.eye(2))
    assert not paper_statements.psd_geq(np.diag([0.5, 2.0]), np.eye(2))


def _tolerance_literals(path):
    """(line, token) of each exponent-form float below 1e-5 outside `TOL = {...}`,
    and of each name of a constant the table replaced."""
    toks = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
    found, depth = [], 0
    for i, tok in enumerate(toks):
        if depth:
            depth += {"{": 1, "}": -1}.get(tok.string, 0) if tok.type == tokenize.OP else 0
            continue
        if tok.string == "{" and [t.string for t in toks[i - 2:i]] == ["TOL", "="]:
            depth = 1
        elif tok.type == tokenize.NAME and tok.string in OLD_CONSTANTS:
            found.append((tok.start[0], tok.string))
        elif (tok.type == tokenize.NUMBER and "e" in tok.string.lower()
              and not tok.string.lower().startswith("0x") and float(tok.string) < 1e-5):
            found.append((tok.start[0], tok.string))
    return found


def test_tolerances_live_only_in_the_table():
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "matkernel.py" in paths
    found = {p.name: _tolerance_literals(p) for p in paths}
    assert {name: hits for name, hits in found.items() if hits} == {}
    # the scan sees the table itself: every entry is a literal inside it
    assert all(0 < v < 1e-5 for v in matkernel.TOL.values())


def test_every_tolerance_entry_is_read():
    # the names src reads through TOL["..."] and check("...", ...): a dead or
    # misspelt entry fails here
    pattern = re.compile(r'TOL\["(\w+)"\]|\bcheck\(\s*"(\w+)"')
    read = {a or b for p in SRC.glob("*.py") for a, b in pattern.findall(p.read_text())}
    assert read == set(matkernel.TOL)


def test_check_names_the_entry_and_scales_by_its_scale():
    tol = matkernel.TOL["hermitian"]
    matkernel.check("hermitian", 0.5 * tol, 0.5, errors.NonHermitian)
    matkernel.check("hermitian", 3.0 * tol, 3.0, errors.NonHermitian)
    matkernel.check("hermitian", 0.0, 0.0, errors.NonHermitian)
    # no floor of 1: a scale below 1 shrinks the limit with it
    for scale in (2.0, 0.5, 1e-12):
        with pytest.raises(errors.NonHermitian, match="hermitian"):
            matkernel.check("hermitian", 1.5 * tol * scale, scale, errors.NonHermitian)
    with pytest.raises(errors.NonHermitian):
        matkernel.check("hermitian", float("nan"), 1.0, errors.NonHermitian)
