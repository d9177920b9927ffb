"""Host-speed calibration for the end-to-end timings.

The benchmark's host shares its cores with other machines, and its speed
drifts by up to 1.6x within minutes. A fixed piece of work that does not
touch the package is timed between operations; timings are then scaled by
``REFERENCE_S`` over the mean calibration time of the same phase, which
turns them into times at a fixed reference speed. The work mixes what the
workloads do: interpreter-bound Python, many small numpy calls (like the
solver) and matrix products (like a training step).
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

# About the calibration time on a 2.1 GHz Xeon VM core at its faster speed,
# with numpy 2.4 and one OpenBLAS thread; the scale of every normalized timing.
REFERENCE_S = 0.025
INTERVAL_S = 0.5  # about 5% of the run goes to calibration

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(1024, 64))
_B = _rng.normal(size=(64, 256))
_POINTS = _rng.normal(size=(6, 3))
_NORMAL = np.eye(3) * 2.0 + _rng.normal(size=(3, 3)) * 0.1


def calibration_seconds() -> float:
    """Wall time of the fixed calibration work, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(90_000):
        acc += i * i % 7
    for _ in range(600):
        d = np.linalg.norm(_POINTS - _POINTS[0], axis=1)
        np.linalg.solve(_NORMAL, d[:3])
    for _ in range(10):
        (_A @ _B).sum()
    return time.perf_counter() - t0


class Speed:
    """Calibration samples of one phase of a run.

    Samples are taken at most every INTERVAL_S, so they follow the host's
    speed changes, which last a few seconds each.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self):
        self.samples.append(calibration_seconds())
        self._last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def spent(self) -> float:
        """Seconds spent calibrating so far, to take out of enclosing timings."""
        return sum(self.samples)

    def factor(self) -> float:
        """Reference time over measured time: below 1 when the host is slow."""
        return REFERENCE_S / (sum(self.samples) / len(self.samples))


@contextlib.contextmanager
def sampling_inside(speed: Speed, module, names):
    """Let ``speed`` sample before calls of ``module.<name>`` during the block.

    Long package calls such as ``train()`` then get calibrated every
    INTERVAL_S from inside; callers subtract ``speed.spent()`` from their
    timings. Names the module no longer has are skipped, so a refactor of
    the package degrades the sampling instead of breaking the run. The
    original attributes are restored on exit.
    """
    originals = {name: getattr(module, name) for name in names if hasattr(module, name)}

    def hooked(original):
        def call(*args, **kwargs):
            speed.maybe_sample()
            return original(*args, **kwargs)

        return call

    try:
        for name, original in originals.items():
            setattr(module, name, hooked(original))
        yield
    finally:
        for name, original in originals.items():
            setattr(module, name, original)
