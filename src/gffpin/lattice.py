"""Geometry of the box {0,...,N}^2.

Site classification (boundary, interior, the interaction range {1..N}^2),
the l^1 distance to the boundary, the inner sub-boxes used to keep
observables away from the boundary, the coarse-graining cell tiling, and the
scale indices j(x) and j(x, y) used by the multiscale field decomposition.

Sites are stored row-major: linear index = x1 * (N+1) + x2, which is also
the flat index of a numpy array of shape (N+1, N+1).  All per-site arrays in
the package use this layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySubBoxError, InvalidGeometryError, TilingError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BoxGeometry:
    """The box Lambda_N = {0,...,N}^2 with precomputed site classification.

    Immutable after construction; safe to share between workers.
    """

    N: int
    side: int = field(init=False)

    def __post_init__(self):
        if self.N < 2:
            raise InvalidGeometryError(f"N must be >= 2 (got {self.N}): no interior sites")
        object.__setattr__(self, "side", self.N + 1)
        n, side = self.N, self.side
        x1, x2 = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        boundary = (x1 == 0) | (x1 == n) | (x2 == 0) | (x2 == n)
        interior = ~boundary
        # l1 distance to the boundary frame reduces to the min coordinate gap
        dist = np.minimum.reduce([x1, x2, n - x1, n - x2])
        tilde = (x1 >= 1) & (x2 >= 1)
        object.__setattr__(self, "_x1", x1)
        object.__setattr__(self, "_x2", x2)
        object.__setattr__(self, "_boundary", boundary)
        object.__setattr__(self, "_interior", interior)
        object.__setattr__(self, "_tilde", tilde)
        object.__setattr__(self, "_dist", dist)

    # -- masks, all shaped (N+1, N+1) --
    @property
    def boundary_mask(self) -> np.ndarray:
        return self._boundary

    @property
    def interior_mask(self) -> np.ndarray:
        return self._interior

    @property
    def tilde_mask(self) -> np.ndarray:
        """Lambda~_N = {1,...,N}^2, the canonical interaction range."""
        return self._tilde

    @property
    def dist_boundary(self) -> np.ndarray:
        """d(x, boundary) in the l1 metric, 0 on the boundary itself."""
        return self._dist

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        return self._x1, self._x2

    # -- index map --
    def site(self, idx) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(idx)
        return idx // self.side, idx % self.side


def build_box(N: int) -> BoxGeometry:
    return BoxGeometry(int(N))


def _inward_interval(N: int, frac: float) -> tuple[int, int]:
    # closed interval [N*frac, N*(1-frac)], rounded inward
    lo = math.ceil(N * frac - 1e-12)
    hi = math.floor(N * (1.0 - frac) + 1e-12)
    return lo, hi


def sub_box_interval(geom: BoxGeometry, exponent: float) -> tuple[int, int]:
    """Coordinate range [lo, hi] of the inner box with margin N*(log N)^-exponent.

    exponent 1/8 gives the primary inner box, exponent 2 the wide one.  At
    laboratory sizes the 1/8 margin exceeds N/2, in which case the box is
    empty and this raises rather than silently returning no sites.
    """
    frac = math.log(geom.N) ** (-exponent)
    lo, hi = _inward_interval(geom.N, frac)
    if lo > hi:
        raise EmptySubBoxError(
            f"inner box with margin N(log N)^-{exponent} is empty at N={geom.N} "
            f"(needs (log N)^-{exponent} < 1/2, i.e. N > {math.exp(2.0 ** (1.0 / exponent)):.3g})"
        )
    return lo, hi


def sub_box_mask(geom: BoxGeometry, exponent: float) -> np.ndarray:
    lo, hi = sub_box_interval(geom, exponent)
    x1, x2 = geom.coords
    return (x1 >= lo) & (x1 <= hi) & (x2 >= lo) & (x2 <= hi)


@dataclass(frozen=True)
class Cell:
    """One coarse-graining cell: the N1 x N1 block of sites centred at N1*y
    (shifted +1/2); the slice indexes arrays of shape (N+1, N+1)."""

    y: tuple[int, int]
    cell_slice: tuple[slice, slice]


@dataclass(frozen=True)
class CellTiling:
    cells: tuple[Cell, ...]


def cell_tiling(geom: BoxGeometry, N1: int) -> CellTiling:
    """Tile the box with disjoint N1-cells indexed by y in [1, k-1]^2."""
    N1 = int(N1)
    if N1 < 2 or N1 % 2 != 0:
        raise TilingError(f"cell side must be a positive even integer (got {N1})")
    if geom.N % N1 != 0:
        raise TilingError(f"N={geom.N} is not a multiple of the cell side N1={N1}")
    k = geom.N // N1
    if k < 2:
        raise TilingError(f"need at least 2 cells per side (N={geom.N}, N1={N1})")
    half = N1 // 2
    cells = []
    for y1 in range(1, k):
        for y2 in range(1, k):
            c1 = slice(N1 * y1 - half + 1, N1 * y1 + half + 1)
            c2 = slice(N1 * y2 - half + 1, N1 * y2 + half + 1)
            cells.append(Cell((y1, y2), (c1, c2)))
    return CellTiling(tuple(cells))


def _ceil_guard(v: np.ndarray) -> np.ndarray:
    # guard against sites sitting a rounding error above an exact scale edge
    return np.ceil(v - 1e-9)


@dataclass(frozen=True)
class ScaleIndex:
    j: np.ndarray  # shaped (N+1, N+1), integer in [0, k]


def scale_index(geom: BoxGeometry, k: int) -> ScaleIndex:
    """j(x) = (k - ceil(log d(x,boundary) / 2pi))_+ clamped to [0, k].

    Boundary sites (d = 0) get j = k, matching the d = 1 value.
    """
    if k < 1:
        raise InvalidGeometryError(f"scale count must be >= 1 (got {k})")
    d = np.maximum(geom.dist_boundary, 1)
    j = k - _ceil_guard(np.log(d) / TWO_PI)
    j = np.clip(j, 0, k).astype(np.int64)
    return ScaleIndex(j)


def pair_scale_index(k: int, dist: np.ndarray) -> np.ndarray:
    """Decorrelation scale of two sites at l1 distance dist.

    ceil(k - log|x-y| / 2pi) clamped to [0, k]; coincident sites get k.
    """
    d = np.maximum(np.asarray(dist, dtype=float), 1.0)
    j = _ceil_guard(k - np.log(d) / TWO_PI)
    return np.clip(j, 0, k).astype(np.int64)
