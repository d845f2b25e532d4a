"""Disorder fields and the change-of-measure machinery.

The substrate charges are IID centred unit-variance variables, standard
Gaussian or symmetric +/-1, each with a closed-form log-MGF lambda(beta)
that is finite for every beta; contact sites see the exponentially tilted
law.  The cell events flag windows with an atypically high disorder mean
(the penalized configurations) or an atypically dense cluster of contacts,
each at the default radius and threshold of the cell side, and the penalty
multiplies the partition function by e^{-2} per flagged cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lattice import BoxGeometry, Cell, CellTiling


@dataclass(frozen=True)
class DisorderSpec:
    """Distribution of a single charge: standard gaussian or symmetric +/-1."""

    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in ("gaussian", "bernoulli"):
            raise DomainError(f"unknown disorder kind {self.kind!r}")


GAUSSIAN = DisorderSpec("gaussian")
BERNOULLI = DisorderSpec("bernoulli")


def log_mgf(spec: DisorderSpec, beta: float) -> tuple[float, float, float]:
    """lambda(beta), lambda'(beta), lambda''(beta), in closed form."""
    b = float(beta)
    if spec.kind == "gaussian":
        return 0.5 * b * b, b, 1.0
    # bernoulli: log cosh with overflow guard
    ab = abs(b)
    lam = ab + math.log1p(math.exp(-2.0 * ab)) - math.log(2.0)
    t = math.tanh(b)
    return lam, t, 1.0 - t * t


@dataclass
class DisorderField:
    """One charge per site of {1,...,N}^2, zero elsewhere on the grid."""

    geom: BoxGeometry
    spec: DisorderSpec
    values: np.ndarray  # (N+1, N+1)


def _draw(spec: DisorderSpec, rng: np.random.Generator, shape) -> np.ndarray:
    if spec.kind == "gaussian":
        return rng.standard_normal(shape)
    return rng.integers(0, 2, size=shape) * 2.0 - 1.0


def sample_disorder(geom: BoxGeometry, spec: DisorderSpec,
                    rng: np.random.Generator) -> DisorderField:
    values = np.zeros((geom.side, geom.side))
    values[1:, 1:] = _draw(spec, rng, (geom.N, geom.N))
    return DisorderField(geom, spec, values)


# ---------------------------------------------------------------------------
# windowed cell events
# ---------------------------------------------------------------------------

def default_radius(N1: int) -> int:
    return int(math.floor(math.log(N1) ** 2))


def default_mean_threshold(spec: DisorderSpec, beta: float, N1: int) -> float:
    lam1 = log_mgf(spec, beta)[1]
    return 0.5 * lam1 * math.log(N1) ** 3


def default_cluster_threshold(N1: int) -> float:
    return math.log(N1) ** 3


def _diamond_kernel(radius: int) -> np.ndarray:
    r = int(radius)
    if r < 0:
        raise DomainError("window radius must be >= 0")
    g = np.abs(np.arange(-r, r + 1))
    return (g[:, None] + g[None, :] <= r).astype(float)


def window_sums(values: np.ndarray, radius: int) -> np.ndarray:
    """Sliding l1-ball sums over a cell block (no wrap: sums stop at the cell edge)."""
    from scipy import ndimage

    return ndimage.convolve(values, _diamond_kernel(radius), mode="constant", cval=0.0)


@dataclass(frozen=True)
class CellEventResult:
    triggered: bool
    structurally_false: bool = False


def event_E_cell(omega: DisorderField, cell: Cell, beta: float = 1.0) -> CellEventResult:
    """Some window inside the cell has disorder sum >= threshold, with the
    default radius and mean threshold at the cell side and beta."""
    N1 = cell.cell_slice[0].stop - cell.cell_slice[0].start
    r = default_radius(N1)
    thr = default_mean_threshold(omega.spec, beta, N1)
    block = omega.values[cell.cell_slice]
    return CellEventResult(float(window_sums(block, r).max()) >= thr)


def event_C_cell(contacts: np.ndarray, cell: Cell) -> CellEventResult:
    """Some window inside the cell holds >= threshold contact points, with the
    default radius and cluster threshold at the cell side.

    When the threshold exceeds the window size the event is impossible at
    this cell side; it is reported as (structurally) false and flagged.
    """
    N1 = cell.cell_slice[0].stop - cell.cell_slice[0].start
    r = default_radius(N1)
    thr = default_cluster_threshold(N1)
    sites = int(_diamond_kernel(r).sum())
    block = contacts[cell.cell_slice].astype(float)
    return CellEventResult(float(window_sums(block, r).max()) >= thr,
                           structurally_false=thr > sites)


@dataclass(frozen=True)
class PenaltyResult:
    value: float
    count: int


def penalty_f(omega: DisorderField, tiling: CellTiling, beta: float) -> PenaltyResult:
    """f(omega) = exp(-2 * number of cells whose mean event fires)."""
    count = sum(event_E_cell(omega, cell, beta=beta).triggered for cell in tiling.cells)
    return PenaltyResult(math.exp(-2.0 * count), count)
