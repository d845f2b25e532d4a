"""Disorder fields and the change-of-measure machinery.

The substrate charges are IID centred unit-variance variables with log-MGF
lambda(beta); contact sites see the exponentially tilted law.  The cell
events flag windows with an atypically high disorder mean (the penalized
configurations) or an atypically dense cluster of contacts, and the penalty
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
    """Distribution of a single charge: standard gaussian, symmetric +/-1,
    or a finite table (values, probs).  beta_bar bounds the usable tilt so
    that lambda(2 beta) stays finite; infinite for the built-ins."""

    kind: str = "gaussian"
    values: np.ndarray | None = None
    probs: np.ndarray | None = None
    beta_bar: float = math.inf

    def __post_init__(self):
        if self.kind not in ("gaussian", "bernoulli", "tabulated"):
            raise DomainError(f"unknown disorder kind {self.kind!r}")
        if self.kind == "tabulated":
            v = np.asarray(self.values, dtype=float)
            p = np.asarray(self.probs, dtype=float)
            if v.shape != p.shape or v.ndim != 1 or len(v) < 2:
                raise DomainError("tabulated disorder needs matching 1D values/probs")
            if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
                raise DomainError("tabulated probs must be a probability vector")
            mean = float(np.dot(p, v))
            var = float(np.dot(p, (v - mean) ** 2))
            if abs(mean) > 1e-12 or abs(var - 1.0) > 1e-10:
                raise DomainError("tabulated disorder must be centred with unit variance")
            object.__setattr__(self, "values", v)
            object.__setattr__(self, "probs", p)


GAUSSIAN = DisorderSpec("gaussian")
BERNOULLI = DisorderSpec("bernoulli")


def log_mgf(spec: DisorderSpec, beta: float) -> tuple[float, float, float]:
    """lambda(beta), lambda'(beta), lambda''(beta).

    Closed forms for the built-ins; exact weighted moments for a table
    (finite support makes the tilted moments exact, no differencing needed).
    The usable domain extends to 2*beta_bar (the pair-overlap tilt).
    """
    b = float(beta)
    if b > 2.0 * spec.beta_bar:
        raise DomainError(f"beta={b} beyond the finite-MGF domain (2 beta_bar = {2 * spec.beta_bar})")
    if spec.kind == "gaussian":
        return 0.5 * b * b, b, 1.0
    if spec.kind == "bernoulli":
        # log cosh with overflow guard
        ab = abs(b)
        lam = ab + math.log1p(math.exp(-2.0 * ab)) - math.log(2.0)
        t = math.tanh(b)
        return lam, t, 1.0 - t * t
    logw = b * spec.values + np.log(spec.probs)
    top = logw.max()
    w = np.exp(logw - top)
    z = w.sum()
    lam = top + math.log(z)
    mean = float(np.dot(w, spec.values) / z)
    var = float(np.dot(w, (spec.values - mean) ** 2) / z)
    return lam, mean, var


def chi(spec: DisorderSpec, beta: float) -> float:
    """chi(beta) = lambda(2 beta) - 2 lambda(beta), the replica-pair overlap rate."""
    return log_mgf(spec, 2.0 * beta)[0] - 2.0 * log_mgf(spec, beta)[0]


@dataclass
class DisorderField:
    """One charge per site of {1,...,N}^2, zero elsewhere on the grid."""

    geom: BoxGeometry
    spec: DisorderSpec
    values: np.ndarray  # (N+1, N+1)
    stream_tags: tuple = ()


def _draw(spec: DisorderSpec, rng: np.random.Generator, shape) -> np.ndarray:
    if spec.kind == "gaussian":
        return rng.standard_normal(shape)
    if spec.kind == "bernoulli":
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0
    return rng.choice(spec.values, size=shape, p=spec.probs)


def sample_disorder(geom: BoxGeometry, spec: DisorderSpec, rng: np.random.Generator,
                    stream_tags: tuple = ()) -> DisorderField:
    values = np.zeros((geom.side, geom.side))
    values[1:, 1:] = _draw(spec, rng, (geom.N, geom.N))
    return DisorderField(geom, spec, values, stream_tags)


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
    max_window: float
    threshold: float
    window_sites: int
    structurally_false: bool = False


def event_E_cell(omega: DisorderField, cell: Cell, radius: int | None = None,
                 threshold: float | None = None, beta: float = 1.0) -> CellEventResult:
    """Some window inside the cell has disorder sum >= threshold."""
    N1 = cell.cell_slice[0].stop - cell.cell_slice[0].start
    r = default_radius(N1) if radius is None else int(radius)
    thr = default_mean_threshold(omega.spec, beta, N1) if threshold is None else float(threshold)
    block = omega.values[cell.cell_slice]
    mx = float(window_sums(block, r).max())
    return CellEventResult(mx >= thr, mx, thr, int(_diamond_kernel(r).sum()))


def event_C_cell(contacts: np.ndarray, cell: Cell, radius: int | None = None,
                 threshold: float | None = None) -> CellEventResult:
    """Some window inside the cell holds >= threshold contact points.

    When the threshold exceeds the window size the event is impossible at
    this cell side; it is reported as (structurally) false and flagged.
    """
    N1 = cell.cell_slice[0].stop - cell.cell_slice[0].start
    r = default_radius(N1) if radius is None else int(radius)
    thr = default_cluster_threshold(N1) if threshold is None else float(threshold)
    sites = int(_diamond_kernel(r).sum())
    block = contacts[cell.cell_slice].astype(float)
    mx = float(window_sums(block, r).max())
    return CellEventResult(mx >= thr, mx, thr, sites, structurally_false=thr > sites)


@dataclass(frozen=True)
class PenaltyResult:
    value: float
    count: int
    flags: tuple


def penalty_f(omega: DisorderField, tiling: CellTiling, beta: float,
              radius: int | None = None, threshold: float | None = None) -> PenaltyResult:
    """f(omega) = exp(-2 * number of cells whose mean event fires)."""
    flags = tuple(
        event_E_cell(omega, cell, radius=radius, threshold=threshold, beta=beta).triggered
        for cell in tiling.cells
    )
    count = int(sum(flags))
    return PenaltyResult(math.exp(-2.0 * count), count, flags)
