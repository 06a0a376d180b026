"""Dense matrix kernel: the decompositions every other module is built on.

Every tolerance of the package is an entry of TOL, and matrix sizes use the
max-absolute-entry norm. A check raises through `check`; a decision (a dust
snap, a rank cut, a branch) reads TOL directly. Whether a quantity is zero
(or nonnegative) up to roundoff is one rule, TOL["eigen_dust"] at the
quantity's own scale. Eigenvalues within it of zero are exact zeros
everywhere: `psd_eig` makes that one PSD decision and rank cut, and returns
them as 0.0, for the PSD powers and order, for a completion's V' - kh* kh and,
once per working point and weight, for the normalized weight w G w that
`analysis.FisherData.weight` caches.
"""

import math

import numpy as np

from .errors import DomainError, NonFinite, NonHermitian, NotPSD

# name -> value. Each entry is multiplied by the scale its comment names;
# "absolute" entries take scale 1. Every rule is homogeneous: rescaling a
# weight or the parameters rescales the scale with the compared quantity.
# "eigen_dust" decides every zero; the others are agreement checks, slacks on
# inputs and snaps, and the oracle's gaps.
TOL = {
    # the one zero rule: a quantity within this of zero, at its own scale, is
    # zero (or nonnegative). Eigenvalues in matkernel.psd_eig, times ||A|| or
    # the scale its caller names: PSD floors, inverses and rank cuts, a bare
    # Gram's root, the weight w G w of every route, and V' - kh* kh of a
    # completion at ||V'||. Squared singular values of the stacked lifts, times
    # s_max^2: a degenerate model (a singular JS for a bare Gram). |R_kk| of
    # the QR of [phi, X], times |X| = sqrt(||X*X||): dependent estimation
    # vectors. G - JS, times ||JS||. A negative outcome probability, absolute
    # (the probabilities sum to 1). The residual of the oracle's null(G)
    # cross-block least squares, times max(||SLD columns||, ||Y||)^2
    "eigen_dust": 1e-10,
    # Hermitian deviation of a matrix input; times ||A||
    "hermitian": 1e-12,
    # deviation of the spectrum of iK (K = JS^-1/2 Jt JS^-1/2) from +- symmetry;
    # times ||K||
    "canonical_form": 1e-9,
    # each eigenvalue mu of iK within this of -1, 0 or 1 snaps there: the one
    # decision that sets the class, the betas and the lift factor's rank;
    # times cond(L) = s_max / s_min of the lifts' stacked SVD
    "beta": 1e-14,
    # beta within this of 0 or 1 takes the point or hyperbola boundary curve; absolute
    "boundary_beta": 1e-12,
    # | |det JS| - |det Jt| | of a coherent model; absolute on the ratio to the larger
    "coherent_det": 1e-6,
    # spectrum form against matrix form of the G = JS bound, a sum of m numbers
    # in [1, 2]; absolute
    "js_weight_forms": 1e-9,
    # Tr(G' V') against the coherent closed form, in the parameters where JS = I
    # (G' = w G w, V' = w^-1 V w^-1); times its value
    "coherent_trace": 1e-9,
    # Gram reproduction of the Naimark frame, beyond the beta snap's own shift
    # ||JS|| max |mu - snapped mu|; times ||gram||
    "naimark_gram": 1e-10,
    # estimation vectors X' in the parameters where JS = I and their PVM, the one
    # rule of `analysis.estimation_residuals`: <x'|phi>, Re X'*L' - I and
    # Im X'*X' (InfeasibleGram from a completion or the generic route,
    # NonConvergence from the oracle, DomainError and NotCommuting from
    # pvm_from_vectors), the vectors rebuilt from a PVM's outcomes, and a PVM's
    # outcome mean and unbiasedness there; each times the size of its products,
    # with |X'| = sqrt(||X'*X'||) (of the covariance, for a PVM's outcomes): |X'|
    # for <x'|phi>, the rebuilt vectors and the mean, |X'|^2 for Im X'*X', and
    # |X'| ||L'|| for Re X'*L' - I
    "vectors": 1e-8,
    # idempotence, orthogonality and completeness of a PVM, read from its ray
    # Gram B*B; a stored PVM's entries against bb* and I - BB*; and its outcome
    # probabilities summing to 1; absolute
    "pvm_algebra": 1e-9,
    # |phi| - 1 of a state, and of the phi handed to pvm_from_vectors; absolute
    "norm": 1e-8,
    # components of phi this close to the largest |phi_k| tie for the phase
    # reference, and the lowest index wins; times the largest |phi_k|
    "phase_tie": 1e-12,
    # slack of the half-integer tests of s and m_z and of |m_z| <= s; absolute
    "half_integer": 1e-12,
    # accepted duality gap of the oracle; times its value
    "gap": 1e-9,
    # duality gap at which the interior-point iterations stop; times the primal value
    "gap_floor": 1e-13,
    # |oracle - closed form| for `bound --oracle`; times the closed form
    "oracle_agreement": 1e-8,
}


def check(name, residual, scale, error):
    """Raise `error` unless residual <= TOL[name] * scale; a NaN residual never passes."""
    limit = TOL[name] * scale
    if not residual <= limit:
        raise error(f"{name}: residual {residual:.3e} exceeds {limit:.3e}")


def mnorm(a):
    """Max-absolute-entry norm: 0 for an empty array, NaN if an entry is NaN."""
    return float(np.abs(a).max(initial=0.0))


def zeros(shape, dtype=float):
    """np.zeros(shape, dtype), where a size that cannot be allocated is a DomainError.

    The one place where numpy's refusal of a size becomes a typed error: a
    MemoryError past the memory the system grants, or a ValueError past the
    address space.
    """
    try:
        return np.zeros(shape, dtype)
    except (MemoryError, ValueError) as exc:
        raise DomainError(f"cannot allocate the array this input asks for: {exc}") from exc


def check_finite(a):
    """Raise NonFinite on a NaN or Inf entry (real or imaginary part)."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise NonFinite("matrix has NaN or Inf entries")
    return a


def check_hermitian(a):
    """Validate Hermitian symmetry; return the symmetrized matrix and ||a||.

    A NaN or Inf part raises NonFinite, a deviation past TOL "hermitian" times
    ||a|| NonHermitian. The norm is read once: a finite ||a|| means every
    entry is finite, so only a NaN or infinite one takes the entrywise
    check_finite, which passes an entry with finite parts whose modulus
    overflows.
    """
    a = np.asarray(a)
    size = mnorm(a)
    if not math.isfinite(size):
        check_finite(a)
    ah = a.conj().T
    check("hermitian", mnorm(a - ah), size, NonHermitian)
    return 0.5 * (a + ah), size


def symmetrize(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def antisymmetrize(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - a.T)


def lift_svd(lifts, error):
    """Thin SVD (U, s, Vt) of the stacked lifts [Re L; Im L], so JS = Vt^T diag(s^2) Vt.

    A singular value past the square root of the float range raises NonFinite:
    the Gram would overflow. s_min^2 at most TOL["eigen_dust"] * s_max^2
    raises `error`. s_min is at most every lift's norm, so a vanishing lift,
    or an all-zero one (s_min = s_max = 0), raises it too.
    """
    u, s, vt = np.linalg.svd(np.vstack([lifts.real, lifts.imag]), full_matrices=False)
    if not s[0] < np.sqrt(np.finfo(float).max):
        raise NonFinite(f"lift Gram overflows the float range at singular value {s[0]:.3e}")
    if s[-1] ** 2 <= TOL["eigen_dust"] * s[0] ** 2:
        raise error("lifts are R-linearly dependent at the dust level")
    return u, s, vt


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix, checked as check_hermitian does.

    Returns (eigenvalues ascending, unitary eigenvector matrix, ||a||): the
    norm is the one the Hermitian check read.
    """
    h, size = check_hermitian(a)
    w, u = np.linalg.eigh(h)
    return w, u, size


def psd_eig(a, error=NotPSD, scale=None):
    """The one PSD decision and rank cut: (w, u, keep) from one hermitian_eig.

    w are the decided eigenvalues ascending, u the eigenvectors, and keep the
    mask of eigenvalues above the dust TOL["eigen_dust"] * scale, where the
    scale is ||a||, as the Hermitian check read it, unless the caller names a
    larger input that a's roundoff follows. Every eigenvalue within the dust
    is returned as exactly 0.0; one below minus the dust raises `error`.
    """
    w, u, size = hermitian_eig(a)
    dust = TOL["eigen_dust"] * (size if scale is None else scale)
    if len(w) and w[0] < -dust:   # eigh's eigenvalues ascend
        raise error(f"matrix is not PSD: min eigenvalue {w[0]:.3e} below {-dust:.3e}")
    keep = w > dust
    return np.where(keep, w, 0.0), u, keep


def psd_powers(a, *powers):
    """A^p for each p in `powers` (1/2, -1/2 or -1), from one psd_eig.

    Dust eigenvalues are exact zeros, so a square root has no component along
    the numerical null space. A negative power raises NotPSD unless every
    eigenvalue lies above the dust. Real symmetric input gives real results.
    """
    w, u, keep = psd_eig(a)
    if min(powers) < 0 and not keep.all():
        raise NotPSD(f"matrix is singular: {(~keep).sum()} of {len(w)} eigenvalues "
                     "within the dust")
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

