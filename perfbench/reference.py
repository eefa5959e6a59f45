"""A fixed CPU kernel that gauges how fast the host runs at this moment.

On a shared host each CPU drifts between fast and slow spells lasting from a
second to many minutes, and the whole machine can slow by half for minutes
at a time. A timing divided by this kernel's time, taken on the same CPU
right before and after, keeps the program's speed and drops the host's.
The kernel does what a training step does: small dense products and
elementwise numpy on a (256, 16) batch, and a Python dict loop.
"""

import time

import numpy as np

# Seconds of one kernel pass on a fast spell of the 2-core VM the bounds were
# set on (Xeon at 2.1 GHz, one BLAS thread). Timings divided by the measured
# pass time are multiplied by this, so they read as seconds on that machine.
NOMINAL_S = 0.003
PASSES = 15

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((256, 16))
_W1 = _rng.standard_normal((16, 64))
_W2 = _rng.standard_normal((64, 5))


def _one_pass() -> float:
    t0 = time.perf_counter()
    for _ in range(20):
        h = np.tanh(_X @ _W1)
        z = h @ _W2
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        _X.T @ ((p @ _W2.T) * (1.0 - h * h))
        counts: dict[int, int] = {}
        for i in range(400):
            counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Least time of several kernel passes: the host's speed right now."""
    return min(_one_pass() for _ in range(PASSES))


def host_scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two kernel timings into
    seconds on the nominal machine."""
    return NOMINAL_S / min(before, after)
