"""Dense matrix kernel: the decompositions every other module is built on.

Every tolerance of the package is an entry of TOL, and matrix sizes use the
max-absolute-entry norm. A check raises through `check`; a decision (a dust
snap, a rank cut, a branch) reads TOL directly. Eigenvalues within
TOL["eigen_dust"] * max(1, ||A||) of zero are treated as exact zeros
everywhere (rank decisions, PSD checks); `weight_eig` makes that cut for
every weight matrix, once per working point and weight, on the normalized
weight w G w that `analysis.Spectrum.weight` caches.
"""

import numpy as np

from .errors import DomainError, NonFinite, NonHermitian, NotPSD

# name -> value. "relative" means times max(1, scale) for the scale each site
# names; "absolute" means times 1.
TOL = {
    # eigenvalue counted as zero: PSD floors, inverses, rank cuts (a weight's PSD
    # decision and rank, made on w G w for every route; a bare Gram's PSD
    # decision); relative to ||A||. Squared singular values of the stacked lifts
    # below it relative to s_max^2 are a degenerate model (a singular JS for a
    # bare Gram)
    "eigen_dust": 1e-10,
    # Hermitian deviation of a matrix input; relative to ||A||
    "hermitian": 1e-12,
    # deviation of the spectrum of iK (K = JS^-1/2 Jt JS^-1/2) from +- symmetry;
    # relative to ||K||
    "canonical_form": 1e-9,
    # each eigenvalue mu of iK within this of -1, 0 or 1 snaps there: the one
    # decision that sets the class, the betas and the lift factor's rank;
    # relative to cond(L) = s_max / s_min of the lifts' stacked SVD
    "beta": 1e-14,
    # JS-scale entry counted as zero (block tests, G = JS); relative to ||JS||
    "fisher_dust": 1e-9,
    # shortfall of |Im gram_ij| below sqrt(JS_ii JS_jj) for exclusive pairs;
    # absolute on the ratio to sqrt(JS_ii JS_jj)
    "exclusive": 1e-9,
    # beta within this of 0 or 1 takes the point or hyperbola boundary curve; absolute
    "boundary_beta": 1e-12,
    # | |det JS| - |det Jt| | of a coherent model; absolute on the ratio to the larger
    "coherent_det": 1e-6,
    # spectrum form against matrix form of the G = JS bound; absolute
    "js_weight_forms": 1e-9,
    # Tr(G' V') against the coherent closed form, in the parameters where JS = I
    # (G' = w G w, V' = w^-1 V w^-1); relative to its value
    "coherent_trace": 1e-9,
    # Gram reproduction of the Naimark frame, beyond the beta snap's own shift
    # ||JS|| max |mu - snapped mu|; relative to ||gram||
    "naimark_gram": 1e-10,
    # negative eigenvalue of V' - kh* kh in a completion, where JS = I (V' the
    # closed form's covariance there, kh the lift factor); relative to its norm
    "completion_floor": 1e-8,
    # estimation vectors X' in the parameters where JS = I and their PVM, the one
    # rule of `analysis.estimation_residuals`: <x'|phi>, Re X'*L' - I and
    # Im X'*X' (InfeasibleGram from a completion or the generic route,
    # NonConvergence from the oracle, DomainError and NotCommuting from
    # pvm_from_vectors), the vectors rebuilt from a PVM's outcomes, and a PVM's
    # outcome mean and unbiasedness there; relative to ||X'*X'|| (to the
    # covariance for a PVM's outcomes)
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
    # PVM variance against (JS^-1)_11 in the exclusiveness check; absolute
    "marginal_variance": 1e-6,
    # |phi| - 1 of a state; absolute
    "norm": 1e-8,
    # components of phi this close to the largest |phi_k| tie for the phase
    # reference, and the lowest index wins; relative to the largest |phi_k|
    "phase_tie": 1e-12,
    # lift norm below which a parameter direction vanishes; absolute
    "lift_norm": 1e-8,
    # slack of the half-integer tests of s and m_z and of |m_z| <= s; absolute
    "half_integer": 1e-12,
    # the oracle's null(G) cross-block least squares; relative to
    # max(||SLD columns||, ||Y||)^2
    "null_completion": 1e-9,
    # accepted duality gap of the oracle; relative to its value
    "gap": 1e-9,
    # duality gap at which the interior-point iterations stop; relative to the primal value
    "gap_floor": 1e-13,
    # |oracle - closed form| for `bound --oracle`; relative to the closed form
    "oracle_agreement": 1e-8,
}


def check(name, residual, scale, error):
    """Raise `error` unless residual <= TOL[name] * max(1, scale).

    A scale of 0 makes the entry absolute; a NaN residual never passes.
    """
    limit = TOL[name] * max(1.0, scale)
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
    the Gram would overflow. A lift norm below TOL["lift_norm"], or s_min^2
    below TOL["eigen_dust"] * max(1, s_max^2), raises `error`.
    """
    u, s, vt = np.linalg.svd(np.vstack([lifts.real, lifts.imag]), full_matrices=False)
    # every lift norm is at most s[0], so the Gram and the norms below are finite
    if not s[0] < np.sqrt(np.finfo(float).max):
        raise NonFinite(f"lift Gram overflows the float range at singular value {s[0]:.3e}")
    norms = np.linalg.norm(lifts, axis=0)
    if np.any(norms < TOL["lift_norm"]):
        raise error(f"lift norms {norms} contain a vanishing direction")
    if s[-1] ** 2 < TOL["eigen_dust"] * max(1.0, s[0] ** 2):
        raise error("lifts are R-linearly dependent at the dust level")
    return u, s, vt


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
    TOL["eigen_dust"] * max(1, ||A||) of zero are set to exactly zero, so a square
    root has no component along the numerical null space; anything more
    negative raises NotPSD. A negative power also raises NotPSD unless every
    eigenvalue lies above that dust. Real symmetric input gives real results.
    """
    w, u = hermitian_eig(a)
    dust = TOL["eigen_dust"] * max(1.0, mnorm(a))
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


def is_psd(a, scale=None):
    w, _ = hermitian_eig(a)
    ref = max(1.0, mnorm(a) if scale is None else scale)
    return bool(w.min(initial=0.0) >= -TOL["eigen_dust"] * ref)


def weight_eig(g):
    """Eigendecomposition of a PSD weight and its numerical range.

    Returns (w, u, keep): eigenvalues ascending, eigenvectors, and the mask of
    eigenvalues above TOL["eigen_dust"] * max(1, ||g||). An eigenvalue below
    minus that dust raises DomainError.
    """
    w, u = hermitian_eig(g)
    dust = TOL["eigen_dust"] * max(1.0, mnorm(g))
    if w[0] < -dust:
        raise DomainError("weight matrix must be PSD")
    return w, u, w > dust


def psd_geq(a, b):
    """a >= b in the PSD order, up to eigen dust of the pair's scale."""
    d = np.asarray(a) - np.asarray(b)
    scale = max(mnorm(a), mnorm(b))
    return is_psd(0.5 * (d + d.conj().T), scale=scale)
