"""Reference kernel: a fixed numpy workload that measures the host's speed.

The benchmark times this kernel around every pass and rescales the pass
time to what it would have been on a host where the kernel takes
``NOMINAL_MS``.  The kernel never calls greenvar.  Its mix follows the
program's: complex polynomial and logarithm arithmetic on large arrays,
batched 2x2 linear algebra and einsum products, an exactly rounded sum,
a loop of small-array calls where interpreter overhead dominates, and a
pure-Python loop.

Measure the nominal time again with ``python3 bench/kernel.py``.
Importing this module pins BLAS and OpenMP to one thread, so it must be
imported before numpy loads; ``run.py`` imports it first.
"""

from __future__ import annotations

import math
import os
import statistics
import time

# One BLAS/OpenMP thread: numpy's eigensolver (Gauss-Legendre nodes in
# disk_rule) otherwise spreads over both cores of a small host, and the share
# of the second core it gets depends on everything else the host runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the thread settings

# Median kernel time, in ms, on the reference host (see README.md).
NOMINAL_MS = 16.0

_N_BIG = 32768
_N_MAT = 8192
_N_SMALL = 64
_SMALL_ITERS = 150
_PY_ITERS = 10000
# Kernel runs behind one measurement of the nominal time.
_NOMINAL_REPS = 300


class Kernel:
    """Fixed inputs, built once; :meth:`__call__` returns elapsed ms."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.z = 0.9 * np.sqrt(rng.uniform(size=_N_BIG)) * np.exp(
            2j * np.pi * rng.uniform(size=_N_BIG))
        self.coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
        a = rng.normal(size=(_N_MAT, 2, 2))
        self.spd = np.einsum("...ij,...kj->...ik", a, a) + np.eye(2)
        self.small = rng.uniform(size=(_N_SMALL, 2))

    def run(self) -> float:
        z = self.z
        acc = np.full_like(z, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        g = (np.log(np.abs(1.0 - z * np.conj(0.3 + 0.1j)))
             - np.log(np.abs(z - (0.3 + 0.1j)))) * np.abs(acc) ** 2
        inv = np.linalg.inv(self.spd)
        chol = np.linalg.cholesky(self.spd)
        t = np.einsum("...ij,...jk->...ik", inv, self.spd)
        total = math.fsum(g) + float(np.einsum("...ii->...", t).sum()) + float(chol[..., 0, 0].sum())
        p = self.small
        for _ in range(_SMALL_ITERS):
            q = p[..., 0] + 1j * p[..., 1]
            q = np.exp(1j * 0.1) * q / (1.0 + 0.01 * q * q)
            p = np.stack([q.real, q.imag], axis=-1)
            total += float(np.einsum("mi,mi->m", p, p).sum())
        for i in range(_PY_ITERS):
            total += math.sqrt(i) * 0.5
        return total

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return (time.perf_counter() - t0) * 1e3


def main() -> None:
    kernel = Kernel()
    kernel()
    times = [kernel() for _ in range(_NOMINAL_REPS)]
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(f"kernel: median {med:.3f} ms, quartiles {q1:.3f} / {q3:.3f} ms "
          f"over {_NOMINAL_REPS} runs (NOMINAL_MS = {NOMINAL_MS})")


if __name__ == "__main__":
    main()
