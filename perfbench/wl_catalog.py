"""catalog_sweep: catalog working points through the whole pipeline.

One op builds a catalog model (with truncation growth), takes its tangent
frame, Fisher data, beta spectrum and the bound for G = I. Points that the
workload lists as quasi-classical or coherent go on to optimal vectors, a PVM,
its covariance and a 10^4-shot sample. The route is fixed per point by the
workload, not by what the program classifies, so the work per op does not
change when the program learns to build PVMs for more classes.
"""

import math
from dataclasses import dataclass

import numpy as np

import yardstick
from qcrb import analysis, measurement, model

SHOTS = 10_000
POOL_ROUNDS = 64
TRACE_ROUNDS = 4
SQUEEZE_SHIFT = 0.8       # |z| sqrt(2) of the displacement
SQUEEZE_T3 = 0.6          # squeezing strength; with the shift, Fock dim 84
# (family, parameters, PVM route or None). Spin (s, m_z); shifted (n, |theta|).
POINTS = (
    ("spin", (1.0, 0.0), "quasi_classical"),
    ("spin", (5.0, 0.0), "quasi_classical"),
    ("spin", (20.0, 0.0), "quasi_classical"),
    ("spin", (1.5, 0.5), None),
    ("spin", (5.0, 4.0), None),
    ("spin", (20.0, 19.0), None),
    ("shifted", (0, 0.5), "coherent"),
    ("shifted", (0, 3.0), "coherent"),
    ("shifted", (3, 0.5), None),
    ("shifted", (3, 3.0), None),
    ("squeezed", (), "coherent"),
)


@dataclass(frozen=True)
class Point:
    family: str
    params: tuple
    route: str | None     # PVM route fixed by the workload; None stops at the bound
    theta: tuple
    seed: int


@dataclass
class Outcome:
    fd: model.FisherData
    betas: np.ndarray
    bound: float
    tr_gv: float = math.nan
    unbiased: bool = False
    shots: int = 0


def _theta(family, params, rng):
    if family == "spin":
        return (rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2.0 * math.pi))
    a = rng.uniform(0.0, 2.0 * math.pi)
    if family == "shifted":
        return (params[1] * math.cos(a), params[1] * math.sin(a))
    return (SQUEEZE_SHIFT * math.cos(a), SQUEEZE_SHIFT * math.sin(a), SQUEEZE_T3,
            rng.uniform(0.0, math.pi))


def _build(p):
    if p.family == "spin":
        return model.catalog_spin_rotation(p.params[0], p.params[1], list(p.theta))
    if p.family == "shifted":
        return model.catalog_shifted_number(p.params[0], list(p.theta))
    return model.catalog_squeezed(list(p.theta))


class Workload:
    TAIL_PERCENTILE = 99.0    # lands inside the squeezed points, the slowest ~9% of ops
    REF_EVERY = len(POINTS)   # the reference once per round

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self._pool = [
            [Point(family, params, route, _theta(family, params, rng),
                   int(rng.integers(2 ** 31)))
             for family, params, route in POINTS]
            for _ in range(POOL_ROUNDS)]

    def round(self, r):
        return self._pool[r % POOL_ROUNDS]

    def trace_ops(self):
        return [p for r in range(TRACE_ROUNDS) for p in self.round(r)]

    def run(self, p):
        mdl = _build(p)
        frame = model.tangent_frame(mdl, mdl.theta0)
        fd = model.fisher_data(frame)
        spec = analysis.beta_spectrum(fd)
        g = np.eye(mdl.m)
        out = Outcome(fd=fd, betas=spec.betas, bound=analysis.cr_bound(fd, g).value)
        if p.route is None:
            return out
        if p.route == "quasi_classical":
            space = frame
            ev = measurement.optimal_vectors_quasi_classical(frame, fd)
        else:
            space = measurement.naimark_frame(fd, theta=mdl.theta0)
            ev = measurement.optimal_vectors_coherent(space, fd, g)
        pvm = measurement.pvm_from_vectors(ev, seed=p.seed)
        v, out.unbiased = measurement.covariance_of_pvm(pvm, space)
        out.tr_gv = float(np.trace(v))
        out.shots = measurement.sample_outcomes(pvm, space, SHOTS, p.seed).count
        return out

    run_in_process = run
    reference = staticmethod(yardstick.in_process)

    def check(self, p, out):
        """None if the outcome passes every gate, else what failed."""
        if p.family == "spin":
            s, m_z = p.params
            err = np.abs(out.betas - abs(m_z) / (s * (s + 1) - m_z * m_z)).max()
            if not err <= 1e-8:
                return f"spin{p.params} beta off by {err:.3e}"
        elif p.family == "shifted":
            err = np.abs(out.betas - 1.0 / (2 * p.params[0] + 1)).max()
            if not err <= 1e-6:
                return f"shifted{p.params} beta off by {err:.3e}"
        else:
            js, jt = model.squeezed_closed_forms(p.theta)
            err = max(np.abs(out.fd.JS - js).max(), np.abs(out.fd.Jt - jt).max())
            if not err <= 1e-6:
                return f"squeezed Fisher matrices off by {err:.3e}"
        if p.route is not None:
            gap = abs(out.tr_gv - out.bound)
            if not gap <= 1e-8:
                return f"{p.family}{p.params} Tr(G V_pvm) misses the bound by {gap:.3e}"
            if not out.unbiased:
                return f"{p.family}{p.params} PVM is biased"
            if out.shots != SHOTS:
                return f"{p.family}{p.params} drew {out.shots} of {SHOTS} shots"
        return None

    def peak_rss_mb(self):
        return None   # the ops run in this process; run.py reads its own peak
