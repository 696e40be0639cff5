"""Host-load correction: a fixed numpy/scipy kernel timed between operations.

On a small share of a busy host the same operation's wall time drifts by
20% and more over a few minutes, as other tenants' load comes and goes, and
a run's mean cannot average that out. The drift moves this kernel's time
in step, so a wall time is corrected by the factor
``(REFERENCE_S / kernel time around it) ** ELASTICITY``.

One kernel pass moves more with the host's load than an operation does, so
the full ratio (``ELASTICITY`` 1) over-corrects. Over two sets of ten seeds
on each of the three workloads on a 2-core host, the spread of ``op_s``
across seeds (quartile distance over median) was at worst 19.1% with no
correction, 9.0% at 0.5, 9.9% at 0.75 and 14.1% at 1, and its mean over the
six was lowest at 0.75.

The kernel mixes what the program spends its time on: a linear-interpolation
gather (``map_coordinates``, as in registration and resampling), float32
matrix products through BLAS (as in conv3d) and float64 element-wise work.
It never calls neuroseg, so no change to the program moves it, and its inputs
are fixed, independent of the workload seed. A pass allocates nothing, so its
time does not depend on how the allocator last returned memory.
``map_coordinates`` is bound at import, so a tracer that replaces it on
``scipy.ndimage`` does not see it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.ndimage import map_coordinates

REFERENCE_S = 0.125  # the kernel's typical time on a 2-core x86-64 host
ELASTICITY = 0.75  # how far operation times follow the kernel's, log-log
_REPEATS = 10

_rng = np.random.default_rng(0)
_VOLUME = _rng.random((48, 48, 48))
_COORDS = _rng.random((3, 48, 48, 48)) * 47
_GATHERED = np.empty_like(_VOLUME)
_SQUARES = np.empty_like(_VOLUME)
_ACTIVATIONS = _rng.random((64, 16384)).astype(np.float32)
_WEIGHTS = _rng.random((64, 64)).astype(np.float32)
_PRODUCT = np.empty((64, 16384), dtype=np.float32)


def calibrate() -> float:
    """Wall time of one pass of the fixed kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        map_coordinates(_VOLUME, _COORDS, output=_GATHERED, order=1)
        for _ in range(4):
            np.dot(_WEIGHTS, _ACTIVATIONS, out=_PRODUCT)
        np.multiply(_VOLUME, _VOLUME, out=_SQUARES)
        _SQUARES.sum()
    return time.perf_counter() - t0


def warm_up() -> None:
    """Fault in the kernel's pages and start the BLAS threads: the first
    few passes take up to twice as long as the rest."""
    for _ in range(6):
        calibrate()


def correction(kernel_s: float) -> float:
    """Factor that corrects a wall time for the host's load, given the
    kernel's time around it (the mean of the passes before and after)."""
    return (REFERENCE_S / kernel_s) ** ELASTICITY
