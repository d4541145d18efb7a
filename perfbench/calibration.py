"""A fixed reference task that tracks the machine's current speed.

On a shared host the same unit of work can take twice as long from one
minute to the next, and run-to-run spread is then mostly the machine's,
not the program's. The benchmark times this task before and after every
unit and every set-up, in the same process, and reports each timed figure
also rescaled to the speed at which the task takes ``REFERENCE_S``:

    value_ref = value * REFERENCE_S / calibration time around it

The task calls no heartfields code, so a change to the program cannot
speed it up or slow it down. It mixes the kinds of work the workloads do:
interpreted Python, small elementwise numpy operations, a float32 and a
float64 matrix product, and a sort.
"""

import time

import numpy as np

# the task's median time on the 2-vCPU Xeon VM (2.0 GHz, BLAS at 1 thread)
# where the benchmark was defined
REFERENCE_S = 0.08

_rng = np.random.default_rng(0)
_A32 = _rng.standard_normal((1536, 128)).astype(np.float32)
_W32 = (_rng.standard_normal((128, 128)) / 16).astype(np.float32)
_A64 = _rng.standard_normal((512, 128))
_W64 = _rng.standard_normal((128, 128)) / 16
_KEYS = _rng.standard_normal(1_000_000)


def calibration_s():
    """Wall time of one pass of the reference task."""
    t0 = time.perf_counter()
    total = 0
    for i in range(240_000):
        total += i * i
    x32, x64 = _A32, _A64
    for _ in range(32):
        x32 = np.tanh(x32 @ _W32)
    for _ in range(40):
        x64 = np.maximum(x64 @ _W64, 0.0) - 0.5 * x64
    np.sort(_KEYS)
    np.argsort(np.abs(x64[:, 0]) + total % 7)
    return time.perf_counter() - t0


def rescaled(value, before, after):
    """``value`` at the reference speed, from the calibration times
    measured just before and just after it."""
    return value * REFERENCE_S / (0.5 * (before + after))
