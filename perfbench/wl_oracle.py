"""generic_oracle: the brute-force minimizer on seeded random problems.

One op is `oracle.minimize` with default `OracleProblem` options followed by
`stationarity_certificate`. Every round holds one problem of each kind,
m in {2, 3, 4, 6} times G in {identity, sld (G = JS), random PD}; the grams and
random weights are fresh in every round. No model is built.
"""

from dataclasses import dataclass

import numpy as np

import yardstick
from qcrb import analysis, oracle
from qcrb.model import FisherData

KINDS = tuple((m, weight) for m in (2, 3, 4, 6) for weight in ("identity", "sld", "random"))
POOL_ROUNDS = 8
AGREE_TOL = 1e-4          # oracle vs closed form, as tier-1 uses
CERT_TOL = 1e-6           # stationarity residual where tier-1 gates it (m = 2)
BRACKET_TOL = 1e-6        # relative slack on the SLD / Holevo-at-SLD bracket


@dataclass(frozen=True)
class Problem:
    m: int
    weight: str
    gram: np.ndarray
    G: np.ndarray


def random_gram(rng, m):
    """Gram of m random lifts in C^{2m}: Hermitian, with Re part PD."""
    b = (rng.standard_normal((2 * m, m)) + 1j * rng.standard_normal((2 * m, m)))
    g = b.conj().T @ b / (2 * m)
    return 0.5 * (g + g.conj().T)


def random_weight(rng, m):
    """Random PD weight with condition number below e^2: a random rotation of
    diag(e^u), u ~ U(-1, 1). Unbounded conditioning (b b^T + 0.1 I reaches
    condition numbers in the hundreds at m = 6) swings the oracle's work per
    op by 2-3x with the seed; bounded, the work per op is set by the workload."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diag(r))
    return (q * np.exp(rng.uniform(-1.0, 1.0, m))) @ q.T


def _fisher(gram):
    return FisherData(JS=0.5 * (gram.real + gram.real.T),
                      Jt=0.5 * (gram.imag - gram.imag.T), gram=gram)


def _problem(rng, m, weight):
    gram = random_gram(rng, m)
    if weight == "identity":
        g = np.eye(m)
    elif weight == "sld":
        g = _fisher(gram).JS
    else:
        g = random_weight(rng, m)
    return Problem(m=m, weight=weight, gram=gram, G=g)


def sld_bracket(gram, g):
    """(Tr G JS^-1, Tr G JS^-1 + Tr|sqrt(G) JS^-1 Jt JS^-1 sqrt(G)|).

    The bound lies between the SLD bound and the Holevo function at the
    SLD estimator X = L JS^-1, which is feasible; computed here with numpy
    alone, independently of the package.
    """
    fd = _fisher(gram)
    jsinv = np.linalg.inv(fd.JS)
    w, u = np.linalg.eigh(g)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
    low = float(np.trace(g @ jsinv))
    skew = root @ jsinv @ fd.Jt @ jsinv @ root
    return low, low + float(np.linalg.svd(skew, compute_uv=False).sum())


class Workload:
    TAIL_PERCENTILE = 75.0    # ten samples beyond it take four rounds
    REF_EVERY = 1             # ops take about a second; the reference takes 8 ms
    reference = staticmethod(yardstick.in_process)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self._pool = [[_problem(rng, m, weight) for m, weight in KINDS]
                      for _ in range(POOL_ROUNDS)]

    def round(self, r):
        return self._pool[r % POOL_ROUNDS]

    def trace_ops(self):
        return self.round(0)

    def run(self, p):
        result = oracle.minimize(oracle.OracleProblem(gram=p.gram, G=p.G))
        return result.value, oracle.stationarity_certificate(result).residual

    run_in_process = run

    def check(self, p, out):
        """None if the outcome passes every gate, else what failed."""
        value, residual = out
        what = f"m={p.m} G={p.weight}"
        low, high = sld_bracket(p.gram, p.G)
        if not low * (1 - BRACKET_TOL) <= value <= high * (1 + BRACKET_TOL):
            return f"{what}: value {value!r} outside [{low!r}, {high!r}]"
        fd = _fisher(p.gram)
        refs = []
        if p.m == 2:
            refs.append(analysis.cr_bound_2param(fd, p.G).value)
            if not residual <= CERT_TOL:
                return f"{what}: certificate residual {residual:.3e} above {CERT_TOL:g}"
        if p.weight == "sld":
            refs.append(analysis.cr_bound_js_weight(fd).value)
        for ref in refs:
            if not abs(value - ref) <= AGREE_TOL:
                return f"{what}: oracle {value!r} vs closed form {ref!r}"
        return None

    def peak_rss_mb(self):
        return None   # the ops run in this process; run.py reads its own peak
