"""A fixed reference kernel that calibrates timings to the current speed of the core.

On a shared host the speed of a virtual core changes by up to 1.6x within
a second or two, as other work comes and goes on the same physical core.
Raw wall times of identical requests then spread by 10-40% between runs.
The benchmark therefore runs this kernel on the same pinned core right after
every request.  Each request's wall time is scaled by ``REFERENCE_S /
(mean time of the kernel runs just before and just after it)``.  The result
is the request's time on a core where the kernel takes ``REFERENCE_S``, in
calibrated seconds.

The kernel mixes what doew's requests do: small LAPACK calls (SVD and
Hermitian eigenvalues of 16x16 matrices, a 4x4 Kronecker product) and
interpreter-bound dictionary and loop work.  It does not touch doew, so a
change to doew moves calibrated times by the same share as raw ones.
``REFERENCE_S`` is the kernel's time on an uncontended core of the machine
the benchmark was tuned on: an Intel Xeon (Sapphire Rapids) KVM guest with
2 vCPUs, Python 3.11 and numpy 2.4 with OpenBLAS.  On that machine,
calibrated times read like uncontended wall times.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.002
_ROUNDS = 20

_rng = np.random.default_rng(0)
_M = _rng.normal(size=(16, 16))
_H = _M + _M.T
_V = _rng.normal(size=(4, 4))


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        np.linalg.svd(_M, compute_uv=False)
        np.linalg.eigvalsh(_H)
        np.kron(_V, _V).sum()
        counts = {}
        for j in range(200):
            counts[j % 17] = counts.get(j % 17, 0.0) + j * 0.5
    return time.perf_counter() - start


class Calibrator:
    """Scale factors from the kernel runs that bracket each timed interval."""

    def __init__(self):
        self._last = reference_seconds()

    def scale(self) -> float:
        """Run the kernel again; return the factor for the interval since the last run."""
        now = reference_seconds()
        factor = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        return factor
