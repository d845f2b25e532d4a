import math
from types import SimpleNamespace

import numpy as np
import pytest

from gffpin import lattice
from gffpin.errors import EmptySubBoxError, InvalidGeometryError, TilingError


def test_counts_small():
    g = lattice.build_box(2)
    assert g.interior_mask.sum() == 1
    assert g.boundary_mask.sum() == 8
    x1, x2 = g.coords
    assert g.interior_mask[1, 1]
    assert not g.interior_mask[0, 1]


@pytest.mark.parametrize("N", [2, 3, 4, 7, 16, 64])
def test_cardinalities(N):
    g = lattice.build_box(N)
    assert g.boundary_mask.size == (N + 1) ** 2
    assert g.boundary_mask.sum() == 4 * N
    assert g.interior_mask.sum() == (N - 1) ** 2
    assert g.tilde_mask.sum() == N ** 2
    # boundary and interior partition the box
    assert not np.any(g.boundary_mask & g.interior_mask)
    assert np.all(g.boundary_mask | g.interior_mask)


def test_interior_64():
    assert lattice.build_box(64).interior_mask.sum() == 3969


def test_invalid_geometry():
    with pytest.raises(InvalidGeometryError):
        lattice.build_box(1)


def test_distance_examples():
    g = lattice.build_box(4)
    assert g.dist_boundary[2, 2] == 2
    assert g.dist_boundary[0, 3] == 0
    assert g.dist_boundary[1, 2] == 1


@pytest.mark.parametrize("N", [3, 5, 8, 17, 32])
def test_distance_brute_force(N):
    g = lattice.build_box(N)
    bx1, bx2 = np.nonzero(g.boundary_mask)
    x1, x2 = g.coords
    brute = np.min(np.abs(x1[..., None] - bx1) + np.abs(x2[..., None] - bx2), axis=-1)
    assert np.array_equal(brute, g.dist_boundary)


def test_index_roundtrip():
    g = lattice.build_box(5)
    idx = 3 * 6 + 4  # row-major
    assert g.site(idx) == (3, 4)
    assert g.coords[0].ravel()[idx] == 3 and g.coords[1].ravel()[idx] == 4


def test_sub_box_empty_at_small_sizes():
    g = lattice.build_box(256)
    with pytest.raises(EmptySubBoxError):
        lattice.sub_box_interval(g, 1.0 / 8.0)


def test_sub_box_wide_nonempty():
    g = lattice.build_box(32)
    lo, hi = lattice.sub_box_interval(g, 2.0)
    assert 0 < lo <= hi < 32
    mask = lattice.sub_box_mask(g, 2.0)
    assert mask.sum() == (hi - lo + 1) ** 2
    # inward rounding: the margin is at least N (log N)^-2
    assert lo >= 32 * math.log(32) ** -2


def test_tiling_example():
    g = lattice.build_box(8)
    t = lattice.cell_tiling(g, 2)
    assert len(t.cells) == 9  # (8/2 - 1)^2
    for cell in t.cells:
        block = np.zeros((9, 9), dtype=bool)
        block[cell.cell_slice] = True
        assert block.sum() == 4


def test_tiling_divisibility_error():
    g = lattice.build_box(8)
    with pytest.raises(TilingError):
        lattice.cell_tiling(g, 3)


@pytest.mark.parametrize("N,N1", [(8, 2), (16, 4), (24, 4), (32, 8)])
def test_tiling_disjoint_cover(N, N1):
    g = lattice.build_box(N)
    t = lattice.cell_tiling(g, N1)
    cover = np.zeros((N + 1, N + 1), dtype=int)
    for cell in t.cells:
        cover[cell.cell_slice] += 1
    assert cover.max() == 1
    covered = int((cover == 1).sum())
    assert covered == len(t.cells) * N1 ** 2 == (N // N1 - 1) ** 2 * N1 ** 2
    # the uncovered part of {1..N}^2 is a thin frame
    uncovered = int(g.tilde_mask.sum()) - covered
    assert uncovered <= 2 * N * N1
    assert np.all(cover[~g.tilde_mask] == 0)


def _scale_index_at(k: int, d: float) -> int:
    """j for one site at l1 distance d from the boundary (scale_index reads only distances)."""
    return int(lattice.scale_index(SimpleNamespace(dist_boundary=np.array([[d]])), k).j[0, 0])


def test_scale_index_examples():
    # d = ceil(e^{2 pi 3}) sits in scale band 3
    d = math.ceil(math.exp(2 * math.pi * 3))
    assert _scale_index_at(10, d) == 7
    # far sites clamp to zero
    assert _scale_index_at(4, math.exp(2 * math.pi * 4) * 2) == 0
    # adjacent to the boundary, and on it: full depth
    assert _scale_index_at(3, 1) == 3
    assert _scale_index_at(3, 0) == 3


def test_scale_index_monotone():
    g = lattice.build_box(64)
    s = lattice.scale_index(g, 5)
    d = g.dist_boundary
    for dv in range(1, 32):
        sel_near = d == dv
        sel_far = d == dv + 1
        if sel_near.any() and sel_far.any():
            assert s.j[sel_near].min() >= s.j[sel_far].max()
    assert s.j.min() >= 0 and s.j.max() <= 5


def test_pair_scale_index():
    assert lattice.pair_scale_index(4, np.array([1]))[0] == 4
    assert lattice.pair_scale_index(4, np.array([0]))[0] == 4
    big = math.exp(2 * math.pi * 5)
    assert lattice.pair_scale_index(4, np.array([big]))[0] == 0


def test_inner_boxes_nested():
    # a larger margin exponent gives a larger box: the analogue of the
    # primary-inside-wide containment at sizes where both are nonempty
    g = lattice.build_box(64)
    narrow = lattice.sub_box_mask(g, 2.0)
    wide = lattice.sub_box_mask(g, 4.0)
    assert np.all(narrow <= wide)
    assert narrow.sum() < wide.sum() < g.boundary_mask.size
