"""Fixed reference computations that time the host, not qcrb.

The host shares its cores with other tenants, and they slow whole stretches
of a run, by up to a half at times. run.py times one of these computations
between a workload's ops and divides each op statistic by the same statistic
of the reference: a slow stretch slows both, and the ratio keeps little of
it. Neither computation touches qcrb, so no change to the package moves them.
"""

import subprocess
import sys

import numpy as np

_rng = np.random.default_rng(0)
_H = _rng.normal(size=(24, 24)) + 1j * _rng.normal(size=(24, 24))
_H = _H + _H.conj().T
_A = _rng.normal(size=(60, 60))
# skew-Hermitian pair at the squeezed model's Fock dimension
_X, _E = (0.05 * (m - m.conj().T) for m in
          (_rng.normal(size=(84, 84)) + 1j * _rng.normal(size=(84, 84)) for _ in range(2)))
CHILD = "import numpy, scipy.linalg; scipy.linalg.expm(numpy.ones((64, 64)) / 100)"


def in_process():
    """About 8 ms: small dense linear algebra and interpreted Python, like a
    light catalog op, then one 84 x 84 complex `expm_frechet`, the kernel of
    the squeezed point."""
    import scipy.linalg

    for _ in range(4):
        np.linalg.eigh(_H)
        scipy.linalg.expm(0.01j * _H)
        s = 0.0
        for k in range(2000):
            s += k * 0.5
        _A @ _A
    scipy.linalg.expm_frechet(_X, _E)


def child(env, cwd):
    """A fresh interpreter that imports numpy and scipy.linalg and runs one
    `expm`: a cold CLI op without qcrb."""
    subprocess.run([sys.executable, "-c", CHILD], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
