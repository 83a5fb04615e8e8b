"""Fixed reference kernel that measures how fast the host runs right now.

The reference host is a shared virtual machine whose CPU speed drifts by up to
a factor of two over tens of seconds to minutes, so raw wall times of the same
code taken minutes apart cannot be compared.  :func:`kernel_s` times a fixed
piece of work of the same kind as the simulator's hot path (Python loops of
small numpy operations: a SAGA-style logistic-gradient loop and a full
gradient), which imports nothing from ``ltadmm`` and so does not move when the
program changes.  ``run.py`` times it before and after every measured call and
reports each time divided by the kernel time around it, rescaled by
:data:`REFERENCE_S` to seconds at the reference host's nominal speed.

The kernel and :data:`REFERENCE_S` are part of the benchmark's contract:
changing either changes every end-to-end time it reports.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the reference host (2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6): median over a 4-minute stretch.
REFERENCE_S = 0.29

_OUTER = 1500
_INNER = 10


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel."""
    rng = np.random.default_rng(12345)
    features = rng.standard_normal((100, 5))
    labels = np.sign(rng.standard_normal(100))
    x = np.zeros(5)
    table = np.zeros((100, 5))
    average = np.zeros(5)
    start = time.perf_counter()
    for _ in range(_OUTER):
        for _ in range(_INNER):
            i = int(rng.integers(100))
            row = features[i]
            margin = labels[i] * float(row @ x)
            grad = -labels[i] * row / (1.0 + np.exp(margin)) + 0.02 * x / (1.0 + x * x) ** 2
            step = grad - table[i] + average
            average += (grad - table[i]) / 100
            table[i] = grad
            x = x - 0.01 * step
        full = -(labels / (1.0 + np.exp(labels * (features @ x))))[:, None] * features
        x = x - 1e-3 * full.mean(axis=0)
    return time.perf_counter() - start


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """Each time over the mean kernel time before and after it, in reference seconds.

    ``kernels`` holds one more entry than ``times``: kernel ``i`` ran just
    before time ``i`` was taken and kernel ``i + 1`` just after.
    """
    assert len(kernels) == len(times) + 1
    return [
        t * 2.0 * REFERENCE_S / (before + after)
        for t, before, after in zip(times, kernels, kernels[1:])
    ]
