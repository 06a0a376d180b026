"""Dense matrix kernel: the decompositions every other module is built on.

Every tolerance of the package is an entry of TOL, and matrix sizes use the
max-absolute-entry norm. A check raises through `check`; a decision (a dust
snap, a rank cut, a branch) reads TOL directly. Eigenvalues within
TOL["eigen_dust"] times the matrix's norm of zero are exact zeros everywhere:
`psd_eig` makes that one PSD decision and rank cut, for the PSD powers and
order and, once per working point and weight, for the normalized weight
w G w that `analysis.Spectrum.weight` caches.
"""

import numpy as np

from .errors import NonFinite, NonHermitian, NotPSD

# name -> value. Each entry is multiplied by the scale its comment names;
# "absolute" entries take scale 1. Every rule is homogeneous: rescaling a
# weight or the parameters rescales the scale with the compared quantity.
TOL = {
    # eigenvalue counted as zero: PSD floors, inverses, rank cuts (a weight's PSD
    # decision and rank, made on w G w for every route; a bare Gram's PSD
    # decision); times ||A||, or the scale a caller names. Squared singular
    # values of the stacked lifts at most it times s_max^2 are a degenerate
    # model (a singular JS for a bare Gram)
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
    # JS-scale entry counted as zero (block tests, G = JS); times ||JS||
    "fisher_dust": 1e-9,
    # shortfall of |Im gram_ij| below sqrt(JS_ii JS_jj) for exclusive pairs;
    # absolute on the ratio to sqrt(JS_ii JS_jj)
    "exclusive": 1e-9,
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
    # negative eigenvalue of V' - kh* kh in a completion, where JS = I (V' the
    # closed form's covariance there, kh the lift factor); times ||V'||
    "completion_floor": 1e-8,
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
    # |R_kk| of the QR of [phi, X] below which the estimation vectors handed to
    # pvm_from_vectors are linearly dependent (DomainError); absolute
    "gram_schmidt": 1e-10,
    # idempotence, orthogonality and completeness of a PVM, read from its ray
    # Gram B*B; a stored PVM's entries against bb* and I - BB*; and its outcome
    # probabilities summing to 1; absolute
    "pvm_algebra": 1e-9,
    # negative outcome probability; absolute
    "probability_floor": 1e-10,
    # PVM variance against (JS^-1)_11 in the exclusiveness check; times (JS^-1)_11
    "marginal_variance": 1e-6,
    # |phi| - 1 of a state; absolute
    "norm": 1e-8,
    # components of phi this close to the largest |phi_k| tie for the phase
    # reference, and the lowest index wins; times the largest |phi_k|
    "phase_tie": 1e-12,
    # slack of the half-integer tests of s and m_z and of |m_z| <= s; absolute
    "half_integer": 1e-12,
    # the oracle's null(G) cross-block least squares; times
    # max(||SLD columns||, ||Y||)^2
    "null_completion": 1e-9,
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
    """Max-absolute-entry norm."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def check_finite(a):
    """Raise NonFinite on a NaN or Inf entry (real or imaginary part)."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise NonFinite("matrix has NaN or Inf entries")
    return a


def check_hermitian(a):
    """Validate Hermitian symmetry and return the symmetrized matrix."""
    a = np.asarray(check_finite(a))
    check("hermitian", mnorm(a - a.conj().T), mnorm(a), NonHermitian)
    return 0.5 * (a + a.conj().T)


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
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix).
    """
    h = check_hermitian(a)
    w, u = np.linalg.eigh(h)
    return w, u


def psd_eig(a, error=NotPSD, scale=None):
    """The one PSD decision and rank cut: (w, u, keep) from one hermitian_eig.

    w are the eigenvalues ascending, u the eigenvectors, and keep the mask of
    eigenvalues above the dust TOL["eigen_dust"] * scale, where the scale is
    ||a|| unless the caller names a larger input that a's roundoff follows.
    An eigenvalue below minus the dust raises `error`.
    """
    w, u = hermitian_eig(a)
    dust = TOL["eigen_dust"] * (mnorm(a) if scale is None else scale)
    if w.min(initial=0.0) < -dust:
        raise error(f"matrix is not PSD: min eigenvalue {w.min():.3e} below {-dust:.3e}")
    return w, u, w > dust


def psd_powers(a, *powers):
    """A^p for each p in `powers` (1/2, -1/2 or -1), from one psd_eig.

    Dust eigenvalues are exact zeros, so a square root has no component along
    the numerical null space. A negative power raises NotPSD unless every
    eigenvalue lies above the dust. Real symmetric input gives real results.
    """
    w, u, keep = psd_eig(a)
    if min(powers) < 0 and not keep.all():
        raise NotPSD(f"matrix is singular at dust level (min eig {w.min():.3e})")
    w = np.where(keep, w, 0.0)
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


def psd_geq(a, b):
    """a >= b in the PSD order, up to eigen dust of the pair's scale."""
    d = np.asarray(a) - np.asarray(b)
    try:
        psd_eig(0.5 * (d + d.conj().T), scale=max(mnorm(a), mnorm(b)))
    except NotPSD:
        return False
    return True
