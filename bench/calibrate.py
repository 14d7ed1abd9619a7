"""Machine-speed calibration that shares no code with matderiv.

A shared 2-vCPU virtual machine, like the one this benchmark was tuned
on, changes speed by up to 2x over minutes as other tenants load its
cores and caches. Raw wall-clock medians of runs a few minutes apart then
differ by more than any useful regression bound. So a run times a small
fixed kernel before every op, and each op's time is divided by the
kernel's slowdown over the few seconds around it, relative to
``NOMINAL_MS``. Reported times are
thus in the milliseconds of a machine on which the kernel takes its
nominal time. The raw figures stay in the report.

Three kernels match where the workloads spend their time: ``py`` loops
over sorted index tuples with dict lookups and complex arithmetic, like
the divided-difference tables; ``blas`` is a complex matrix product and
solve at n=160, like ``expm`` and ``eigh``; ``spawn`` starts a bare
interpreter, like the start-up and imports of a CLI call.
"""
from __future__ import annotations

import cmath
import itertools
import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_MS = {"py": 2.0, "blas": 4.0, "spawn": 10.0}
WINDOW_S = 2.5

_LAM = [cmath.exp(0.1j * k) for k in range(16)]
_RNG = np.random.default_rng(0)
_A = (_RNG.standard_normal((160, 160)) + 1j * _RNG.standard_normal((160, 160))) / 18.0
_SHIFT = 4.0 * np.eye(160)


def py_kernel() -> None:
    cache: dict[tuple[int, ...], complex] = {}
    for idx in itertools.product(range(16), repeat=3):
        key = tuple(sorted(idx))
        if key not in cache:
            cache[key] = sum(_LAM[i] for i in key) / (1 + key[0])


def blas_kernel() -> None:
    np.linalg.solve(_A @ _A + _SHIFT, _A)


def spawn_kernel() -> None:
    # no timeout: a wait with one polls in sleeps of up to 50 ms, which would
    # swamp the time; run.py's deadline kills a hung worker with its children
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


KERNELS = {"py": py_kernel, "blas": blas_kernel, "spawn": spawn_kernel}


class Speed:
    """Kernel timings through a run, and the slowdown they imply."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: list[tuple[float, float]] = []   # (start s, ms)

    def sample(self) -> None:
        t0 = time.perf_counter()
        KERNELS[self.kind]()
        self.samples.append((t0, (time.perf_counter() - t0) * 1e3))

    def factor(self, start: float, end: float) -> float:
        """Slowdown against nominal over the samples from WINDOW_S before
        ``start`` to WINDOW_S after ``end``."""
        near = [ms for ts, ms in self.samples if start - WINDOW_S <= ts <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return statistics.median(near) / NOMINAL_MS[self.kind]

    def overall(self) -> float:
        return statistics.median(ms for _, ms in self.samples) / NOMINAL_MS[self.kind]
