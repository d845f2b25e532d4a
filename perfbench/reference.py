"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark shares its CPU with other load it cannot see, and that load
slows every pass by up to half for minutes at a time.  The loop below does a
fixed mix of the work the library does (small-array special functions with
Python overhead, a sine transform, Gaussian draws and a small matrix
product) without calling gffpin.  Sampled right before, during and after
each pass (the samples inside are taken out of the pass's time), it gives
the machine's speed over the pass; scaling the pass's time by it cancels
the slowdown the two share.  Reported times are "reference seconds": raw
seconds scaled to the speed at which one unit of the loop takes UNIT_S.

The loop is part of the benchmark, not of the program, so a change to gffpin
cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import fft, special

UNIT_S = 0.006  # one unit at the reference speed (an unloaded 2-vCPU Xeon virtual machine)

_SMALL = np.linspace(-3.0, 3.0, 112)
_GRID = np.linspace(0.0, 1.0, 31 * 31).reshape(31, 31)
_MAT = np.eye(64) + np.linspace(0.0, 1e-3, 64 * 64).reshape(64, 64)


def _unit(rng: np.random.Generator) -> float:
    acc = 0.0
    for i in range(600):
        p = special.ndtr(_SMALL + 1e-3 * i)
        acc += float(np.cumsum(p * np.exp(-p))[-1])
    for _ in range(25):
        acc += float(fft.dstn(_GRID, type=1, norm="ortho")[3, 5])
        acc += float(rng.standard_normal(4096).sum())
        acc += float((_MAT @ _MAT)[0, 0])
    return acc


def warm_up() -> None:
    """Run one unit untimed, so that first-call costs (FFT plans, ufunc loops)
    do not read as a slow machine."""
    _unit(np.random.Generator(np.random.Philox(7)))


def measure(units: int) -> tuple[float, float]:
    """(wall, cpu) seconds taken by `units` units of the loop."""
    rng = np.random.Generator(np.random.Philox(7))
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(units):
        _unit(rng)
    return time.perf_counter() - w0, time.process_time() - c0


class Speedometer:
    """Reference-loop samples taken around and inside one pass.

    inside_wall and inside_cpu hold what the samples taken during the pass
    cost, which the pass's own time must exclude.
    """

    def __init__(self, ticks: bool = True):
        self.ticks = ticks  # whether the pass may sample inside itself
        self.units, self.wall, self.cpu = 0, 0.0, 0.0
        self.inside_wall = self.inside_cpu = 0.0
        self.in_pass = False

    def sample(self, units: int = 1) -> None:
        wall, cpu = measure(units)
        self.units += units
        self.wall += wall
        self.cpu += cpu
        if self.in_pass:
            self.inside_wall += wall
            self.inside_cpu += cpu

    @property
    def speed_wall(self) -> float:
        """Reference speed over all samples (1 on the reference machine)."""
        return UNIT_S * self.units / self.wall

    @property
    def speed_cpu(self) -> float:
        return UNIT_S * self.units / self.cpu
