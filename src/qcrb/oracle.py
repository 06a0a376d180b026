"""The Holevo SDP: the attainable bound of any pure-state model, with a certificate.

For a pure state the attainable bound is the Holevo bound (Matsumoto,
J. Phys. A 35, 3111 (2002)). With R (r x m, R* R = gram) the working
point's lift factor, which the Naimark frame also reads, it is the SDP
(Albarelli, Friel and Datta, PRL 123, 200503 (2019))

    CR(G) = min Tr(G V) over real symmetric V and complex Y,
            subject to [[V, Y*], [Y, I]] >= 0 and Re(Y* R) = I.

Y holds the lift-span coordinates of the estimation vectors. R has full row
rank r: the factor drops the directions where analysis snaps beta to 1, so
the Newton system stays nonsingular on the singular Grams of coherent models.
The equality is eliminated with an SVD null space.

`_minimize(fd, wt)` is the one body every solve runs. It reads JS^{-1/2} and
R from fd, the one `analysis.FisherData` of the working point, and the
weight from wt, its `Weight` of G at unit scale, whose `back` returns the
value, the gap and the certificate's multiplier in the weight's units.
`analysis.oracle_bound(fd, wt)` passes the pair it is handed and caches the
answer on wt beside the closed form. `minimize(OracleProblem(gram,
G))` is the one place that builds a working point from a bare Gram.
`stationarity_certificate(result, fd)` reads the point the caller solved at;
given the result alone, it reads the point of the result's gram.

The solver is a primal-dual interior-point method with Nesterov-Todd scaling
and Mehrotra's predictor-corrector (Vandenberghe and Boyd, SIAM Rev. 38, 49
(1996)). It runs from one deterministic strictly feasible pair: the SLD
estimator Y0 = R JS^{-1} with V0 = (|Y0|^2 + 1) I, and the dual point
diag(G, I). Every iterate stays primal and dual feasible, so `gap` =
primal - dual bounds the distance of `value` from the bound.

The estimation vectors are X = [Y; B] with B*B = V - Y*Y in the m-dimensional
complement of the lift span, so X*X = V is real. B keeps the eigenvalues of
V - Y*Y that complementary slackness with the dual marks as nonzero, and a
Gauss-Newton polish of the first-order conditions at that rank removes the
O(sqrt(gap)) error that interior-point iterates carry.

A weight with a null space leaves the covariance there free. The SDP is then
solved on range(G), and the columns of X for null(G) are completed so that
X*X stays real. When no completion exists the bound is an infimum that no
estimator attains, and the result carries `attained = False` and `X = None`.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import analysis, matkernel
from .errors import NonConvergence, PreconditionNotMet
from .matkernel import TOL, check

MAX_ITER = 60        # interior-point iterations before NonConvergence
STEP = 0.95          # fraction of the step to the boundary of the cone
POLISH_STEPS = 3     # Gauss-Newton steps on the first-order conditions


@dataclass
class OracleProblem:
    """The SDP of weight G at the working point of a bare lift Gram (`minimize`)."""
    gram: np.ndarray                      # Hermitian PSD, m x m
    G: np.ndarray                         # real PSD weight, m x m


@dataclass
class RestartStat:
    """The summary of one solve; the engine runs one per problem."""
    value: float
    gap: float
    iterations: int
    residual: float


@dataclass
class OracleResult:
    """The solve at one working point and weight. It keeps the point's gram and the
    symmetrized G, which a certificate given no fd reads, and no FisherData: a
    result cached on an fd must not refer back to that fd, so that reference
    counting frees the point. X and the lifts live in the Naimark embedding,
    whose phi the result does not copy: it is `measurement.naimark_frame(fd).phi`."""
    value: float
    gap: float                            # value minus a dual lower bound
    attained: bool
    X: Optional[np.ndarray]               # (2m+1, m), column i = |x^i>, X = Xn w
    Xn: Optional[np.ndarray]              # the same in theta' = JS^{1/2} theta, as solved
    lifts: np.ndarray                     # embedded lifts, (2m+1, m)
    residuals: dict
    restarts: List[RestartStat]
    gram: np.ndarray
    G: np.ndarray


def _real(stack):
    """Real coordinates of a stack of matrices; isometric for Re Tr(A* B)."""
    n = stack.shape[0]
    return np.concatenate([stack.real.reshape(n, -1), stack.imag.reshape(n, -1)], axis=1)


def _sym_basis(p):
    """Orthonormal basis of the real symmetric p x p matrices."""
    out = []
    for a in range(p):
        for b in range(a, p):
            e = np.zeros((p, p))
            e[a, b] = e[b, a] = 1.0 if a == b else np.sqrt(0.5)
            out.append(e)
    return np.array(out).reshape(-1, p, p)


def _to_boundary(lam, d):
    """Largest step t with diag(lam) + t d >= 0 (inf if there is none)."""
    root = np.sqrt(lam)
    e = np.linalg.eigvalsh(d / np.outer(root, root))[0]
    return np.inf if e >= 0 else -1.0 / e


def _interior_point(f0, fs, c, x, z):
    """min c.x subject to F(x) = f0 + sum_i x_i fs[i] >= 0, from a feasible pair.

    fs is orthonormal for the trace inner product and z is strictly dual
    feasible (Tr(fs[i] z) = c_i). Returns (x, z, iterations); both stay
    strictly feasible, so c.x + Tr(f0 z) is a duality gap.
    """
    n = f0.shape[0]
    flat = fs.reshape(len(fs), -1).conj()
    ls = np.linalg.cholesky(f0 + np.tensordot(x, fs, 1))
    lz = np.linalg.cholesky(z)
    for it in range(1, MAX_ITER + 1):
        primal = float(c @ x)
        if primal + np.vdot(f0, z).real <= TOL["gap_floor"] * abs(primal):
            return x, z, it
        # Nesterov-Todd scaling: r^{-1} S r^{-*} = r^* Z r = diag(lam)
        _, lam, vh = np.linalg.svd(lz.conj().T @ ls)
        rinv = np.sqrt(lam)[:, None] * (vh @ np.linalg.inv(ls))
        ft = rinv @ fs @ rinv.conj().T
        # QR of the scaled constraint map in place of its normal equations,
        # whose condition number squares as the gap closes
        q, tri = np.linalg.qr(_real(ft).T)

        def direction(d):
            rhs = 2.0 * d / np.add.outer(lam, lam)      # lam o (ds + dz) = d
            qb = q.T @ _real(rhs[None])[0]
            dsv = q @ qb
            ds = (dsv[:n * n] + 1j * dsv[n * n:]).reshape(n, n)
            ds = 0.5 * (ds + ds.conj().T)
            return np.linalg.solve(tri, qb), ds, rhs - ds

        mu = float(lam @ lam) / n
        _, dsa, dza = direction(-np.diag(lam * lam))
        ap = min(1.0, _to_boundary(lam, dsa))
        ad = min(1.0, _to_boundary(lam, dza))
        mua = np.trace((np.diag(lam) + ap * dsa) @ (np.diag(lam) + ad * dza)).real / n
        sigma = (mua / mu) ** 3
        dx, ds, dz = direction(sigma * mu * np.eye(n) - np.diag(lam * lam)
                               - 0.5 * (dsa @ dza + dza @ dsa))
        ap = min(1.0, STEP * _to_boundary(lam, ds))
        ad = min(1.0, STEP * _to_boundary(lam, dz))
        # roundoff can leave the cone where the gap nears machine precision;
        # halve the step, and stop at the last point known to be interior
        for _ in range(4):
            xn = x + ap * dx
            # Z as a congruence of the scaled point, which the step keeps PD
            zn = rinv.conj().T @ (np.diag(lam) + ad * dz) @ rinv
            zn = 0.5 * (zn + zn.conj().T)
            # restore Tr(fs[i] z) = c_i against roundoff; fs is orthonormal
            zn = zn + np.tensordot(c - (flat @ zn.ravel()).real, fs, 1)
            try:
                lsn = np.linalg.cholesky(f0 + np.tensordot(xn, fs, 1))
                lzn = np.linalg.cholesky(zn)
                break
            except np.linalg.LinAlgError:
                ap, ad = 0.5 * ap, 0.5 * ad
        else:
            return x, z, it
        x, z, ls, lz = xn, zn, lsn, lzn
    return x, z, MAX_ITER


def _polish(c, b, lam, g, kh, target):
    """Gauss-Newton on the first-order conditions at the rank of b.

    With lifts kh (r x m), lift-span part c and complement part b of X, they
    read c (g - i lam) = kh n, b (g - i lam) = 0, Re(c* kh) = target and
    Im(c*c + b*b) = 0, for real antisymmetric lam and real n. They are
    quadratic, so the Jacobian is an exact central difference. Returns the
    (c, b) with the smallest residual.
    """
    r, p = c.shape
    k = b.shape[0]
    m = kh.shape[1]
    iu = np.triu_indices(p, 1)
    rhs = c @ (g - 1j * lam)
    khr = np.vstack([kh.real, kh.imag])
    nmul = np.linalg.lstsq(khr, np.vstack([rhs.real, rhs.imag]), rcond=None)[0]
    sizes = np.cumsum([r * p, r * p, k * p, k * p, len(iu[0])])

    def split(u):
        cr, ci, br, bi, lv, nv = np.split(u, sizes, axis=-1)
        sh = u.shape[:-1]
        lm = np.zeros(sh + (p, p))
        lm[..., iu[0], iu[1]] = lv
        return ((cr + 1j * ci).reshape(sh + (r, p)), (br + 1j * bi).reshape(sh + (k, p)),
                lm - np.swapaxes(lm, -1, -2), nv.reshape(sh + (m, p)))

    def residual(u):
        cc, bb, ll, nn = split(u)
        w = g - 1j * ll
        e1 = cc @ w - kh @ nn
        e2 = bb @ w
        ch, bh = np.swapaxes(cc.conj(), -1, -2), np.swapaxes(bb.conj(), -1, -2)
        e3 = (ch @ kh).real - target
        e4 = (ch @ cc + bh @ bb).imag[..., iu[0], iu[1]]
        flat = [e.reshape(u.shape[:-1] + (-1,)) for e in (e1.real, e1.imag, e2.real,
                                                          e2.imag, e3, e4)]
        return np.concatenate(flat, axis=-1)

    u = np.concatenate([c.real.ravel(), c.imag.ravel(), b.real.ravel(), b.imag.ravel(),
                        lam[iu], nmul.ravel()])
    f = residual(u)
    best = (float(np.abs(f).max()), u)
    eye = np.eye(u.size)
    for _ in range(POLISH_STEPS):
        jac = 0.5 * (residual(u + eye) - residual(u - eye)).T
        u = u - np.linalg.lstsq(jac, f, rcond=None)[0]
        f = residual(u)
        if np.abs(f).max() < best[0]:
            best = (float(np.abs(f).max()), u)
    return split(best[1])[:2]


def _solve_range(gp, kh, c0, target, null):
    """The SDP restricted to p = gp.shape[0] columns.

    Returns (dual, c, b, iterations): the dual bound in units of gp, and the
    polished lift-span part c of X with its complement part b (k x p), k the
    rank of V - Y*Y.
    """
    r, p = c0.shape
    nn = null.shape[0]
    size = p + r
    sym = _sym_basis(p)
    fs = np.zeros((len(sym) + nn * p, size, size), dtype=complex)
    fs[:len(sym), :p, :p] = sym
    for j, vec in enumerate(null):
        for col in range(p):
            f = fs[len(sym) + j * p + col]
            f[p:, col] = vec * np.sqrt(0.5)
            f[col, p:] = vec.conj() * np.sqrt(0.5)
    c = np.concatenate([np.einsum("nab,ab->n", sym, gp), np.zeros(nn * p)])
    f0 = np.zeros((size, size), dtype=complex)
    f0[p:, :p] = c0
    f0[:p, p:] = c0.conj().T
    f0[p:, p:] = np.eye(r)
    v0 = (np.linalg.norm(c0, 2) ** 2 + 1.0) * np.eye(p)
    x0 = np.concatenate([np.einsum("nab,ab->n", sym, v0), np.zeros(nn * p)])
    z0 = np.zeros((size, size), dtype=complex)
    z0[:p, :p] = gp
    z0[p:, p:] = np.eye(r)
    x, z, iterations = _interior_point(f0, fs, c, x0, z0)
    s = f0 + np.tensordot(x, fs, 1)
    dual = -float(np.vdot(f0, z).real)
    v, cy = matkernel.symmetrize(s[:p, :p].real), s[p:, :p]
    # complementary slackness: (V - Y*Y) A = 0 at the optimum, A the dual's
    # leading block, so an eigenvalue of V - Y*Y is kept where it outweighs
    # A on its eigenvector, each measured against its own scale
    h = v - cy.conj().T @ cy
    wh, uh = np.linalg.eigh(0.5 * (h + h.conj().T))
    a = z[:p, :p]
    aw = np.einsum("ij,ik,kj->j", uh.conj(), a, uh).real
    keep = wh / np.linalg.eigvalsh(v)[-1] > aw / np.linalg.eigvalsh(a)[-1]
    b = np.sqrt(np.clip(wh[keep], 0.0, None))[:, None] * uh[:, keep].conj().T
    cy, b = _polish(cy, b, -matkernel.antisymmetrize(a.imag), gp, kh, target)
    return dual, cy, b, iterations


def _complete(c, b, c0n, null):
    """Columns for null(G): (c_n, bfull) with X*X real, or None if none exist.

    c (r x p) and b (k x p) solve the SDP on range(G), c0n (r x n) holds the
    SLD columns for null(G), and null (q x r) the free directions of one
    column. The cross block V_pn - Y_p* Y_n must lie in range(b*b): that is
    linear in the real V_pn and the free coordinates t of Y_n, and solved by
    least squares; a residual beyond TOL "eigen_dust" times
    max(||c0n||, ||c||)^2 means no such columns exist. Then V_nn = Re T + s I
    with T = Y_n* Y_n + W* W makes V - Y*Y = bfull* bfull for the block rows
    [b, W; 0, (s I - i Im T)^(1/2)].
    """
    p, n = c.shape[1], c0n.shape[1]
    vh = np.linalg.svd(b)[2] if b.size else np.eye(p)
    u0 = vh[b.shape[0]:].conj().T                        # null(b), b has full row rank
    w = c @ u0
    lhs = np.hstack([u0.conj().T, -(w.conj().T @ null.T)])
    lhs = np.vstack([lhs.real, lhs.imag])
    rhs = w.conj().T @ c0n
    rhs = np.vstack([rhs.real, rhs.imag])
    sol = np.linalg.lstsq(lhs, rhs, rcond=None)[0] if lhs.size else np.zeros((p + len(null), n))
    scale = max(matkernel.mnorm(c0n), matkernel.mnorm(c)) ** 2
    if matkernel.mnorm(lhs @ sol - rhs) > TOL["eigen_dust"] * scale:
        return None
    cn = c0n + null.T @ sol[p:]
    d = sol[:p] - c.conj().T @ cn
    wn = np.linalg.lstsq(b.conj().T, d, rcond=None)[0] if b.size else np.zeros((0, n))
    t = cn.conj().T @ cn + wn.conj().T @ wn
    shift = 1j * matkernel.antisymmetrize(t.imag)
    ws, us, _ = matkernel.hermitian_eig(shift)
    lower = (us * np.sqrt(np.clip(ws[-1] - ws, 0.0, None))) @ us.conj().T
    k = b.shape[0]
    bfull = np.zeros((k + n, p + n), dtype=complex)
    bfull[:k, :p], bfull[:k, p:], bfull[k:, p:] = b, wn, lower
    return cn, bfull


def minimize(problem):
    """The Holevo bound of the problem, its duality gap and attaining vectors:
    `_minimize` at the FisherData of the bare Gram problem.gram and its Weight
    of problem.G (DomainError unless PSD)."""
    fd = analysis.FisherData.from_gram(problem.gram)
    return _minimize(fd, fd.weight(problem.G))


def _minimize(fd, wt):
    """The Holevo bound at the working point fd and its Weight wt of G.

    The SDP is solved in the normalized parameters theta' = JS^{1/2} theta,
    whose lift Gram is I + iK and whose weight is w G w (w = JS^{-1/2}), all
    read from fd: kh* kh = I + iK and R = kh JS^{1/2}
    (r x m) on the directions where analysis does not snap beta to 1, and the
    weight's one decomposition, at unit scale. The vectors X' are checked
    there, against the lifts kh, by `analysis.estimation_residuals`
    (NonConvergence), and X = X' w maps them back. The lifts are R in
    coordinates 1..r, the Naimark frame's, so X is valid in that frame and X'
    in the frame's parameters theta'. The gap is checked at unit scale; the
    value and the gap are then scaled back to G's units, and X does not
    depend on that scale.
    """
    w, kh = fd.js_powers[1], fd.lift_factor[0]
    m, r = wt.gn.shape[0], kh.shape[0]
    # free directions of one column c of Y: the null space of c -> Re(c* kh)
    _, _, vt = np.linalg.svd(np.hstack([kh.real.T, kh.imag.T]))
    null = vt[m:, :r] + 1j * vt[m:, r:]
    # P spans range(G') and Q null(G'), so G' = P gp P^T; P = I for a PD weight
    keep = wt.keep
    pb, qb = (np.eye(m), np.zeros((m, 0))) if keep.all() else (wt.r[:, keep], wt.r[:, ~keep])
    p = pb.shape[1]
    if p:
        gp = matkernel.symmetrize(pb.T @ wt.gn @ pb)
        # kh is also the SLD estimator, since JS = I in these parameters
        dual, c, b, iterations = _solve_range(gp, kh, kh @ pb, pb.T, null)
        value = float(np.sum(gp * (c.conj().T @ c + b.conj().T @ b).real))
    else:
        value = dual = 0.0
        c, b, iterations = np.zeros((r, 0)), np.zeros((0, 0)), 0
    gap = value - dual
    _, lifts, liftn = fd.embedding
    if p == m:
        cn, bfull = np.zeros((r, 0)), b
    else:
        done = _complete(c, b, kh @ qb, null)
        cn, bfull = done if done is not None else (None, None)
    x = xn = None
    residuals, residual = {}, 0.0
    if cn is not None:
        basis = np.hstack([pb, qb]).T
        xn = np.zeros(lifts.shape, dtype=complex)
        xn[1:r + 1, :] = np.hstack([c, cn]) @ basis
        xn[m + 1:m + 1 + bfull.shape[0], :] = bfull @ basis
        residuals = analysis.estimation_residuals(xn, None, liftn, NonConvergence)
        residual = max(residuals.values())
        x = xn @ w
    check("gap", gap, abs(value), NonConvergence)
    value, gap = wt.back(value, gap)
    stat = RestartStat(value=value, gap=gap, iterations=iterations, residual=residual)
    return OracleResult(value=value, gap=gap, attained=x is not None, X=x, Xn=xn, lifts=lifts,
                        residuals=residuals, restarts=[stat], gram=fd.gram, G=wt.G)


@dataclass
class StationarityReport:
    Lambda: np.ndarray
    residual: float
    extras: dict


def stationarity_certificate(result, fd=None):
    """Recover the antisymmetric multiplier and report the stationarity residual.

    The first-order condition at an optimum is X(G - i Lambda) = L V G for
    some real antisymmetric Lambda; Lambda is fit by linear least squares.
    For two-parameter problems the quadratic multiplier identities are also
    reported, relative to the largest of their terms, and for coherent
    problems the spectrum of the scaled multiplier. All are taken on the
    weight at unit scale (`FisherData.weight`), so no product leaves the
    float range; Lambda and the residual are then scaled back to G's units,
    and the identities and the spectrum do not depend on that scale.
    They read fd, the working point the caller solved at, and fd.weight of
    result.G, the solve's own Weight's G, which returns that Weight: so they
    read the decompositions the solve read. Without fd they read the
    FisherData of the bare Gram result.gram. result is anything that holds X,
    lifts and G (and gram, when fd is not given).
    """
    if result.X is None:
        raise PreconditionNotMet("no estimation vectors: the bound is not attained")
    fd = analysis.FisherData.from_gram(result.gram) if fd is None else fd
    x = result.X
    lifts = result.lifts
    wt = fd.weight(result.G)
    g = wt.unit
    m = g.shape[0]
    v = matkernel.symmetrize((x.conj().T @ x).real)
    c = x @ g - lifts @ (v @ g)
    # Lambda's coordinates on the basis e_a e_b^T - e_b e_a^T, a < b
    iu = np.triu_indices(m, 1)
    basis = np.zeros((len(iu[0]), m, m))
    basis[:, iu[0], iu[1]] = np.eye(len(iu[0]))
    basis -= np.swapaxes(basis, 1, 2)
    lam = np.zeros((m, m))
    if len(basis):   # m = 1 has no antisymmetric multiplier
        lam[iu] = np.linalg.lstsq(_real(1j * (x @ basis)).T, _real(c[None])[0], rcond=None)[0]
        lam -= lam.T
    residual = matkernel.mnorm(x @ (g - 1j * lam) - lifts @ (v @ g))
    extras = {}
    if m == 2:
        # the real and imaginary parts of one identity, quadratic in (G, Lambda),
        # reported relative to the largest of their terms (G V G at least, where
        # Lambda and Jt vanish)
        gv = g @ v
        terms = {"quadratic_sym": (gv @ g, -lam @ v @ lam, -gv @ fd.JS @ v @ g),
                 "quadratic_antisym": (gv @ lam, lam @ v @ g, gv @ fd.Jt @ v @ g)}
        size = max(matkernel.mnorm(t) for ts in terms.values() for t in ts)
        for name, ts in terms.items():
            extras[name] = matkernel.mnorm(sum(ts)) / size if size else 0.0
    # a singular weight has no scaled multiplier
    if analysis.beta_spectrum(fd).classification == "coherent" and wt.keep.all():
        # t = w G'^{-1/2} with G' = w G w, so t t^T = G^{-1}: t^T Lambda t is similar
        # to G^{-1} Lambda
        t = fd.js_powers[1] @ (wt.r / np.sqrt(wt.g)) @ wt.r.T
        extras["multiplier_spectrum"] = np.sort(np.abs(np.linalg.eigvals(t.T @ lam @ t).imag))
    lam, residual = wt.back(None, lam, residual)[1:]
    return StationarityReport(Lambda=lam, residual=residual, extras=extras)
