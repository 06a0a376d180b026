"""Dense matrix kernel: the decompositions every other module is built on.

All tolerances use the max-absolute-entry norm. Eigenvalues within
EIGEN_DUST * max(1, ||A||) of zero are treated as exact zeros everywhere
(rank decisions, PSD checks), so classification thresholds are consistent
across the package.
"""

import numpy as np
import scipy.linalg

from .errors import ConsistencyError, NonFinite, NonHermitian, NotPSD

EIGEN_DUST = 1e-10
HERMITIAN_TOL = 1e-12


def mnorm(a):
    """Max-absolute-entry norm."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def check_finite(a):
    a = np.asarray(a)
    ok = np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))
    if not ok:
        raise NonFinite("matrix has NaN or Inf entries")
    return a


def check_hermitian(a, tol=HERMITIAN_TOL):
    """Validate Hermitian symmetry and return the symmetrized matrix."""
    a = np.asarray(check_finite(a))
    dev = mnorm(a - a.conj().T)
    if dev > tol * max(1.0, mnorm(a)):
        raise NonHermitian(f"Hermitian deviation {dev:.3e} exceeds tolerance")
    return 0.5 * (a + a.conj().T)


def symmetrize(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def antisymmetrize(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - a.T)


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix).
    """
    h = check_hermitian(a)
    w, u = np.linalg.eigh(h)
    return w, u


def psd_powers(a, *powers):
    """A^p for each p in `powers` (1/2, -1/2 or -1), from one eigendecomposition.

    The PSD floor is decided here for the whole package. Negative eigenvalue
    dust within EIGEN_DUST * max(1, ||A||) is clipped to zero; anything more
    negative raises NotPSD. A negative power also raises NotPSD unless every
    eigenvalue lies above that dust. Real symmetric input gives real results.
    """
    w, u = hermitian_eig(a)
    dust = EIGEN_DUST * max(1.0, mnorm(a))
    if min(powers) < 0:
        if w.min() <= dust:
            raise NotPSD(f"matrix is singular at dust level (min eig {w.min():.3e})")
    elif w.min(initial=0.0) < -dust:
        raise NotPSD(f"min eigenvalue {w.min():.3e} below PSD floor {-dust:.3e}")
    w = np.clip(w, 0.0, None)
    real = not np.iscomplexobj(np.asarray(a))
    out = []
    for p in powers:
        root = w if p == -1 else np.sqrt(w)
        r = (u * root if p > 0 else u / root) @ u.conj().T
        out.append(symmetrize(r.real) if real else 0.5 * (r + r.conj().T))
    return out


def sqrt_psd(a):
    """PSD square root; see psd_powers for the floor."""
    return psd_powers(a, 0.5)[0]


def inv_psd(a):
    """Inverse of a PD matrix; raises NotPSD if singular at the dust level."""
    return psd_powers(a, -1)[0]


def invsqrt_psd(a):
    """Inverse square root of a PD matrix."""
    return psd_powers(a, -0.5)[0]


def abs_sym(a):
    """|A| = (A A*)^{1/2} via singular value decomposition.

    For Hermitian or real-symmetric A this is U|lambda|U*; for real
    antisymmetric A, Tr|A| equals the sum of |eigenvalues|.
    """
    a = np.asarray(check_finite(a))
    u, s, _ = np.linalg.svd(a)
    r = (u * s) @ u.conj().T
    if not np.iscomplexobj(a):
        return symmetrize(r.real)
    return 0.5 * (r + r.conj().T)


def antisym_canonical(a):
    """Canonical form of a real antisymmetric matrix under orthogonal congruence.

    Returns (Q, betas, zero_count) with Q real orthogonal such that Q^T A Q is
    block diagonal with 2x2 blocks [[0, -beta_j], [beta_j, 0]], beta_j > 0
    sorted descending, followed by zeros on the diagonal.
    """
    a = np.asarray(check_finite(a), dtype=float)
    n = a.shape[0]
    dev = mnorm(a + a.T)
    if dev > 1e-9 * max(1.0, mnorm(a)):
        raise NonHermitian(f"antisymmetry deviation {dev:.3e}")
    a = antisymmetrize(a)
    dust = EIGEN_DUST * max(1.0, mnorm(a))
    t, q = scipy.linalg.schur(a, output="real")
    # A is normal, so T is block diagonal up to dust; scan the subdiagonal.
    pairs = []   # (beta, first column index)
    singles = []
    k = 0
    while k < n:
        if k + 1 < n and abs(t[k + 1, k]) > dust:
            b = 0.5 * (abs(t[k + 1, k]) + abs(t[k, k + 1]))
            if t[k + 1, k] < 0:
                q[:, [k, k + 1]] = q[:, [k + 1, k]]
            pairs.append((b, k))
            k += 2
        else:
            singles.append(k)
            k += 1
    # Descending beta; ties broken by the lexicographic order of the block's
    # first column (sign-fixed so its first significant component is positive).
    cols = []
    keyed = []
    for b, k in pairs:
        q1 = q[:, k].copy()
        q2 = q[:, k + 1].copy()
        nzi = np.argmax(np.abs(q1) > dust)
        if q1[nzi] < 0:
            # flipping both columns preserves the block sign pattern
            q1, q2 = -q1, -q2
        keyed.append((-b, tuple(np.round(q1, 12)), q1, q2, b))
    keyed.sort(key=lambda r: (r[0], r[1]))
    betas = []
    for _, _, q1, q2, b in keyed:
        cols.extend([q1, q2])
        betas.append(b)
    for k in singles:
        cols.append(q[:, k])
    qout = np.column_stack(cols) if cols else np.zeros((n, 0))
    betas = np.array(betas, dtype=float)
    canon = np.zeros((n, n))
    for j, b in enumerate(betas):
        canon[2 * j, 2 * j + 1] = -b
        canon[2 * j + 1, 2 * j] = b
    resid = mnorm(qout.T @ a @ qout - canon)
    if resid > 1e-9 * max(1.0, mnorm(a)):
        raise ConsistencyError(f"canonical form residual {resid:.3e}")
    return qout, betas, len(singles)


def expm_skew_hermitian(h, t):
    """exp(i t H) for Hermitian H, via eigendecomposition; result is unitary."""
    w, u = hermitian_eig(h)
    return (u * np.exp(1j * t * w)) @ u.conj().T


def is_psd(a, scale=None):
    w, _ = hermitian_eig(a)
    ref = max(1.0, mnorm(a) if scale is None else scale)
    return bool(w.min(initial=0.0) >= -EIGEN_DUST * ref)


def psd_geq(a, b):
    """a >= b in the PSD order, up to eigen dust of the pair's scale."""
    d = np.asarray(a) - np.asarray(b)
    scale = max(mnorm(a), mnorm(b))
    return is_psd(0.5 * (d + d.conj().T), scale=scale)
