"""Dense matrix kernel: the decompositions every other module is built on.

All tolerances use the max-absolute-entry norm. Eigenvalues within
EIGEN_DUST * max(1, ||A||) of zero are treated as exact zeros everywhere
(rank decisions, PSD checks), so classification thresholds are consistent
across the package.
"""

import numpy as np

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

    The PSD floor is decided here for the whole package. Eigenvalues within
    EIGEN_DUST * max(1, ||A||) of zero are set to exactly zero, so a square
    root has no component along the numerical null space; anything more
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
    w = np.where(w > dust, w, 0.0)
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

    The form comes from one eigendecomposition of the Hermitian matrix iA. An
    eigenvector x + iy with eigenvalue beta > 0 has A x = beta y and
    A y = -beta x, with |x| = |y| = 1/sqrt(2) and x orthogonal to y, so
    (sqrt(2) x, sqrt(2) y) is the block's column pair. The eigenvectors within
    dust of zero span the kernel; the real and imaginary parts of them span
    its real form.
    """
    a = np.asarray(check_finite(a), dtype=float)
    n = a.shape[0]
    dev = mnorm(a + a.T)
    if dev > 1e-9 * max(1.0, mnorm(a)):
        raise NonHermitian(f"antisymmetry deviation {dev:.3e}")
    a = antisymmetrize(a)
    dust = EIGEN_DUST * max(1.0, mnorm(a))
    w, v = np.linalg.eigh(1j * a)
    # Descending beta; ties broken by the lexicographic order of the block's
    # first column (sign-fixed so its first significant component is positive).
    keyed = []
    for k in np.flatnonzero(w > dust):
        col = np.sqrt(2.0) * v[:, k]
        q1, q2 = col.real, col.imag
        nzi = np.argmax(np.abs(q1) > dust)
        if q1[nzi] < 0:
            # flipping both columns preserves the block sign pattern
            q1, q2 = -q1, -q2
        keyed.append((-w[k], tuple(np.round(q1, 12)), q1, q2, w[k]))
    keyed.sort(key=lambda r: (r[0], r[1]))
    null = v[:, np.abs(w) <= dust]
    zero_count = null.shape[1]
    if 2 * len(keyed) + zero_count != n:
        raise ConsistencyError(
            f"eigenvalues of iA are not symmetric at dust level {dust:.3e}")
    cols = [q for key in keyed for q in key[2:4]]
    if zero_count:
        u, _, _ = np.linalg.svd(np.concatenate([null.real, null.imag], axis=1))
        cols.extend(u[:, :zero_count].T)
    qout = np.column_stack(cols) if cols else np.zeros((n, 0))
    # eigh separates +beta from -beta and from the kernel only to about
    # eps/beta, so for beta near the dust the columns are that far from
    # orthonormal. Gram-Schmidt in column order (QR with the signs kept)
    # restores Q^T Q = I and keeps the span of every leading set of columns.
    qout, tri = np.linalg.qr(qout)
    qout = qout * np.sign(np.diag(tri))
    betas = np.array([key[4] for key in keyed], dtype=float)
    canon = np.zeros((n, n))
    for j, b in enumerate(betas):
        canon[2 * j, 2 * j + 1] = -b
        canon[2 * j + 1, 2 * j] = b
    resid = mnorm(qout.T @ a @ qout - canon)
    if resid > 1e-9 * max(1.0, mnorm(a)):
        raise ConsistencyError(f"canonical form residual {resid:.3e}")
    return qout, betas, zero_count


def expm_frechet_hermitian(h, t, v, directions):
    """exp(i t H) v and, for each direction E, d/ds exp(i t (H + s E)) v at s = 0.

    v is a vector or a matrix of columns; every result has its shape. One
    eigendecomposition H = U diag(w) U* serves all of them. The derivative is
    the Daleckii-Krein form U (Gamma o (U* E U)) U* (Higham, Functions of
    Matrices, Thm 3.11) with Gamma_jk = i t e^{i t (w_j + w_k)/2}
    sinc(t (w_j - w_k)/2). No eigenvalue gap is divided by, so repeated
    eigenvalues need no special case.
    """
    w, u = hermitian_eig(h)
    uh = u.conj().T
    x = uh @ v
    half = 0.5 * t * w
    gamma = (1j * t) * np.exp(1j * np.add.outer(half, half)) \
        * np.sinc(np.subtract.outer(half, half) / np.pi)
    derivs = [u @ ((gamma * (uh @ e @ u)) @ x) for e in directions]
    return (u * np.exp(1j * t * w)) @ x, derivs


def is_psd(a, scale=None):
    w, _ = hermitian_eig(a)
    ref = max(1.0, mnorm(a) if scale is None else scale)
    return bool(w.min(initial=0.0) >= -EIGEN_DUST * ref)


def psd_geq(a, b):
    """a >= b in the PSD order, up to eigen dust of the pair's scale."""
    d = np.asarray(a) - np.asarray(b)
    scale = max(mnorm(a), mnorm(b))
    return is_psd(0.5 * (d + d.conj().T), scale=scale)
