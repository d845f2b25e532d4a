import hashlib
import math

import numpy as np
import pytest

from gffpin import fields, kernels, lattice, rng
from gffpin.errors import DomainError


def test_single_site_law():
    g = lattice.build_box(2)
    r = rng.stream(1, "single")
    vals = np.array([fields.sample_dirichlet_interior(g, 0.0, 1, r)[0][0, 0] for _ in range(20000)])
    assert abs(vals.mean()) < 4 * 0.5 / math.sqrt(len(vals))
    assert abs(vals.var() - 0.25) < 5 * 0.25 * math.sqrt(2 / len(vals))


def test_zero_mean_probes():
    g = lattice.build_box(16)
    r = rng.stream(2, "mean")
    batch = fields.sample_dirichlet_interior(g, 0.0, 30000, r)
    diag = kernels.green_dirichlet_diag(g, 0.0)[1:-1, 1:-1]
    probes = [(7, 7), (0, 0), (3, 11), (14, 2), (7, 0), (11, 3), (5, 5), (9, 9), (1, 7), (13, 13)]
    for p in probes:
        se = math.sqrt(diag[p] / batch.shape[0])
        assert abs(batch[:, p[0], p[1]].mean()) < 4 * se


def test_variance_matches_green():
    g = lattice.build_box(16)
    r = rng.stream(3, "var")
    n = 50000
    batch = fields.sample_dirichlet_interior(g, 0.0, n, r)
    center = batch[:, 7, 7]
    target = kernels.green_dirichlet_diag(g, 0.0)[8, 8]
    se = target * math.sqrt(2.0 / n)
    assert abs(center.var() - target) < 3 * se


def test_boundary_is_exact():
    # phi + H for a zero-boundary phi carries the boundary data exactly
    g = lattice.build_box(8)
    phi = np.zeros((g.side, g.side))
    phi[1:-1, 1:-1] = fields.sample_dirichlet_interior(g, 0.1, 1, rng.stream(4, "b"))[0]
    ext = fields.harmonic_extension(g, 0.1, fields.explicit_bc(np.full(4 * 8, 2.5)))
    shifted = phi + ext.values
    assert np.abs(shifted[g.boundary_mask] - 2.5).max() < 1e-12


def test_harmonic_extension_constant():
    g = lattice.build_box(8)
    ext = fields.harmonic_extension(g, 0.0, fields.explicit_bc(np.full(4 * 8, 3.0)))
    assert np.abs(ext.values - 3.0).max() < 1e-10
    # massive with one interior site: H(center) = 4c/(4+m^2)
    g2 = lattice.build_box(2)
    m = 0.7
    ext2 = fields.harmonic_extension(g2, m, fields.explicit_bc(np.full(4 * 2, 1.0)))
    assert abs(ext2.values[1, 1] - 4.0 / (4.0 + m * m)) < 1e-12


def test_harmonic_extension_max_principle():
    g = lattice.build_box(12)
    r = rng.stream(5, "mp")
    bc = fields.explicit_bc(r.standard_normal(48))
    for m in (0.0, 0.5):
        ext = fields.harmonic_extension(g, m, bc)
        assert np.abs(ext.values).max() <= bc.max_abs() + 1e-12
        assert ext.residual < 1e-10


def test_harmonic_extension_mc_agreement():
    g = lattice.build_box(16)
    r = rng.stream(6, "mc")
    bc = fields.explicit_bc(r.standard_normal(64))
    ext = fields.harmonic_extension(g, 0.0, bc)
    mc = fields.harmonic_extension_mc(g, 0.0, bc, [(8, 8), (4, 12)], 8000,
                                      rng.stream(6, "mc-walk"))
    for i, s in enumerate([(8, 8), (4, 12)]):
        assert abs(mc["mean"][i] - ext.values[s]) < 4 * mc["se"][i]


def test_boundary_sampling_covariance():
    g = lattice.build_box(16)
    m = 0.4
    r = rng.stream(8, "bc")
    cov = fields.boundary_covariance(g, m)
    n = 6000
    draws = np.array([fields.sample_boundary_infinite_massive(g, m, r, cov=cov).values
                      for _ in range(n)])
    g00 = kernels.green_massive_infinite((0, 0), m)
    ge1 = kernels.green_massive_infinite((1, 0), m)
    var0 = draws[:, 0].var()
    assert abs(var0 - g00) < 5 * g00 * math.sqrt(2.0 / n)
    # adjacent boundary sites sit next to each other in row-major order on an edge
    idx = fields.boundary_indices(g)
    x1, x2 = g.site(idx)
    pair = None
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if abs(x1[i] - x1[j]) + abs(x2[i] - x2[j]) == 1:
                pair = (i, j)
                break
        if pair:
            break
    c = np.cov(draws[:, pair[0]], draws[:, pair[1]])[0, 1]
    assert abs(c - ge1) < 5 * g00 * math.sqrt(2.0 / n)


def test_infinite_volume_pipeline():
    # Var(phi + H) at the centre equals the translation-invariant G^m(0,0)
    g = lattice.build_box(16)
    m = 0.4
    r = rng.stream(9, "pipe")
    cov = fields.boundary_covariance(g, m)
    n = 4000
    vals = np.empty(n)
    for i in range(n):
        bc = fields.sample_boundary_infinite_massive(g, m, r, cov=cov)
        ext = fields.harmonic_extension(g, m, bc)
        vals[i] = fields.sample_dirichlet_interior(g, m, 1, r)[0][7, 7] + ext.values[8, 8]
    target = kernels.green_massive_infinite((0, 0), m)
    assert abs(vals.var() - target) < 5 * target * math.sqrt(2.0 / n)
    assert abs(vals.mean()) < 4 * math.sqrt(target / n)


def test_cov_h_identity():
    # Var(H(x)) + G^{m,*}(x,x) = G^m(0,0) under sampled boundary data
    g = lattice.build_box(16)
    m = 0.3
    r = rng.stream(10, "covh")
    cov = fields.boundary_covariance(g, m)
    n = 4000
    hval = np.empty(n)
    for i in range(n):
        bc = fields.sample_boundary_infinite_massive(g, m, r, cov=cov)
        hval[i] = fields.harmonic_extension(g, m, bc).values[8, 8]
    total = hval.var() + kernels.green_dirichlet_diag(g, m)[8, 8]
    target = kernels.green_massive_infinite((0, 0), m)
    assert abs(total - target) < 5 * target * math.sqrt(2.0 / n)


def test_extension_regularity():
    # |H(x) - H(y)| <= C B log(N) |x-y| / N on the inner window, C stable in N
    fits = []
    for N in (32, 64):
        g = lattice.build_box(N)
        r = rng.stream(11, "reg", N)
        window = lattice.sub_box_mask(g, 2.0)
        x1, x2 = g.coords
        worst = 0.0
        for _ in range(5):
            bc = fields.explicit_bc(r.standard_normal(4 * N))
            ext = fields.harmonic_extension(g, 0.0, bc)
            b = bc.max_abs()
            hw = ext.values[window]
            xs1, xs2 = x1[window], x2[window]
            span = int(math.log(N) ** 2)
            for shift in (1, span):
                sel = (xs1 + shift <= xs1.max())
                a = ext.values[np.clip(xs1 + shift, None, x1.max()), xs2]
                d = np.abs(a[sel] - hw[sel]).max()
                worst = max(worst, d * N / (b * math.log(N) * shift))
        fits.append(worst)
    assert max(fits) < 50.0
    assert max(fits) / min(fits) < 5.0


def test_spatial_markov_resampling():
    # resampling inside a contour reproduces the sub-box variance on top of
    # the harmonic extension of the contour values
    g = lattice.build_box(16)
    sub = lattice.build_box(8)  # sub-box [4,12]^2
    r = rng.stream(12, "markov")
    n = 4000
    vals = np.empty(n)
    for i in range(n):
        outer = np.zeros((g.side, g.side))
        outer[1:-1, 1:-1] = fields.sample_dirichlet_interior(g, 0.0, 1, r)[0]
        patch = outer[4:13, 4:13]
        bc_vals = np.concatenate([patch[sub.boundary_mask]])
        ext = fields.harmonic_extension(sub, 0.0, fields.explicit_bc(patch[sub.boundary_mask]))
        inner = fields.sample_dirichlet_interior(sub, 0.0, 1, r)[0]
        vals[i] = ext.values[4, 4] + inner[3, 3]
    target = kernels.green_dirichlet_diag(g, 0.0)[8, 8]
    assert abs(vals.var() - target) < 5 * target * math.sqrt(2.0 / n)


def test_scale_stack_consistency():
    g = lattice.build_box(16)
    m = 1e-8
    r = rng.stream(13, "stack")
    grid = kernels.scale_time_grid(m)
    s = fields.sample_scale_stack(g, m, r, grid=grid)
    assert np.abs(s.stack.xi.sum(axis=0) - s.values).max() < 1e-10
    assert s.stack.k == grid.k
    # partial sums telescope
    partials = s.stack.partials()
    assert partials.shape == s.stack.xi.shape
    assert np.array_equal(partials[0], s.stack.xi[0])
    assert np.abs(partials[-1] - s.values).max() < 1e-10


def test_scale_stack_variance_profile():
    # Var(phi_i(x)) - (i - j(x))_+ stays bounded at interior probes
    g = lattice.build_box(64)
    m = 1e-8
    grid = kernels.scale_time_grid(m)
    jmap = lattice.scale_index(g, grid.k)
    cum = np.zeros((g.side, g.side))
    for i in range(1, grid.k + 1):
        cum += kernels.covariance_slice_diag(g, grid, i)
        for x in ((32, 32), (8, 8), (2, 2)):
            excess = cum[x] - max(i - jmap.j[x], 0)
            assert abs(excess) < 3.0


def test_scale_stack_sum_variance_mc():
    g = lattice.build_box(16)
    m = 1e-8
    r = rng.stream(14, "stackmc")
    grid = kernels.scale_time_grid(m)
    n = 3000
    vals = np.array([fields.sample_scale_stack(g, m, r, grid=grid).values[8, 8]
                     for i in range(n)])
    target = kernels.green_dirichlet_diag(g, m)[8, 8]
    assert abs(vals.var() - target) < 5 * target * math.sqrt(2.0 / n)


def test_bridge_edge_cases():
    r = rng.stream(15, "bridge")
    p, se = fields.bridge_positivity_probability([1.0], 0.5, 1000, r)
    assert p == 1.0
    with pytest.raises(DomainError):
        fields.bridge_positivity_probability([3.0] * 4, 1.0, 100, r)
    with pytest.raises(DomainError):
        fields.bridge_positivity_probability([0.3] * 10, 1.0, 100, r)  # total < k/2
    with pytest.raises(DomainError):
        fields.bridge_positivity_probability([1.0] * 10, -1.0, 100, r)


def test_bridge_monotone_in_barrier():
    r = rng.stream(16, "bridgemono")
    ps = [fields.bridge_positivity_probability([1.0] * 50, x, 40000, r)[0]
          for x in (1.0, 2.0, 5.0, 10.0)]
    assert all(np.diff(ps) > 0)


def test_bridge_bounds_small():
    r = rng.stream(17, "bridgebound")
    k, x = 100, 2.0
    p, se = fields.bridge_positivity_probability([1.0] * k, x, 100000, r)
    assert p >= 1 - math.exp(-x * x / k) - 4 * se
    assert p <= 0.8 * (x + math.log(k)) ** 2 / k + 4 * se


GATE_CELLS = [(k, x) for k in (25, 100, 400) for x in (1.0, 2.0, 5.0, 10.0)]


def _bridge_z(variances, x, n, r) -> float:
    """Sampler against the transfer operator, in binomial SEs of the operator's value."""
    exact = fields.bridge_positivity_transfer(variances, x)
    p, _ = fields.bridge_positivity_probability(variances, x, n, r)
    return (p - exact) / math.sqrt(exact * (1.0 - exact) / n)


@pytest.mark.parametrize("k,x", GATE_CELLS)
def test_bridge_sampler_matches_transfer_on_gate_cells(k, x):
    z = _bridge_z([1.0] * k, x, 20_000, rng.stream(265, "bridge-oracle", k, x))
    assert abs(z) < 4.0


def test_bridge_sampler_matches_transfer_unequal_variances():
    v = [0.5 + i / 24 for i in range(25)]  # 0.5 up to 1.5
    for x in (0.5, 2.0, 5.0):  # 70 000 walks fill one block and start a second
        assert abs(_bridge_z(v, x, 70_000, rng.stream(266, "bridge-oracle-var", x))) < 4.0


def test_bridge_transfer_exact_cases():
    assert fields.bridge_positivity_transfer([1.0], 0.0) == 1.0
    assert fields.bridge_positivity_transfer([0.7], 3.0) == 1.0
    # X_1 = B_1 ~ N(0, 1/2) for two unit steps, so P[B_1 <= x] = Phi(sqrt(2) x)
    for x in (0.0, 0.5, 2.0):
        exact = 0.5 * math.erfc(-x)
        assert abs(fields.bridge_positivity_transfer([1.0, 1.0], x) - exact) < 1e-5
    # the barrier at 0 for equal steps: Sparre Andersen, P = 1/k
    for k in (5, 25):
        assert abs(fields.bridge_positivity_transfer([1.0] * k, 0.0) - 1.0 / k) < 1e-5


@pytest.mark.parametrize("variances,x", [([], 1.0), ([3.0] * 4, 1.0), ([0.3] * 10, 1.0),
                                         ([1.0] * 10, -1.0)])
def test_bridge_transfer_rejects_bad_input(variances, x):
    with pytest.raises(DomainError):
        fields.bridge_positivity_transfer(variances, x)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_bridge_rejects_bad_sample_counts(n_samples):
    with pytest.raises(DomainError, match="sample"):
        fields.bridge_positivity_probability([1.0] * 4, 1.0, n_samples, rng.stream(264, "bad-n"))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# Outputs recorded bit for bit.  Calls in one list share one stream, so each also pins how
# many numbers the calls before it drew.  n = 3000 (N = 8) and 150 (N = 32) are not
# multiples of a block's rows.  Bridges run 65536 walks per block and stop at the barrier;
# k = 1 draws nothing.
PINNED_DIRICHLET = {
    8: (0.0, [(3000, "40a3f2a679fa14f2"), (1, "c36f8cba91111547")]),
    32: (0.3, [(150, "b5d02524b3bfcb1c"), (1, "60a4eff9212f8609")]),
}
PINNED_BRIDGES = [  # (k, x, n_samples, (p, se))
    (1, 0.5, 70000, (1.0, 1.4285714285714285e-05)),
    (25, 2.0, 6000, (0.4121666666666667, 0.006354595522868411)),
    (400, 5.0, 1000, (0.155, 0.011444430960078356)),
]
PINNED_STACKS = [  # N = 64, m = 1e-5 (k = 2): digest of (values, xi, j), barrier margin
    ("6d277ca10d99d680", 2.4959750094988515),
    ("81b582d8ab7bd26e", 3.279242233976137),
]


@pytest.mark.parametrize("N", sorted(PINNED_DIRICHLET))
def test_pinned_dirichlet_interior(N):
    m, expected = PINNED_DIRICHLET[N]
    g = lattice.build_box(N)
    r = rng.stream(260, "pin-dirichlet", N)
    got = []
    for n, _ in expected:
        out = fields.sample_dirichlet_interior(g, m, n, r)
        assert out.shape == (n, N - 1, N - 1)
        got.append((n, _digest(out)))
    assert got == expected


def test_pinned_bridges():
    r = rng.stream(261, "pin-bridge")
    got = [(k, x, n, fields.bridge_positivity_probability([1.0] * k, x, n, r))
           for k, x, n, _ in PINNED_BRIDGES]
    assert got == PINNED_BRIDGES
    assert r.standard_normal() == -1.3582996772817735
    # unequal step variances, 0.5 up to 1.5
    r = rng.stream(261, "pin-bridge-var")
    v = [0.5 + i / 24 for i in range(25)]
    assert fields.bridge_positivity_probability(v, 2.0, 3000, r) == (0.419, 0.009008125961227081)
    assert r.standard_normal() == -0.5360100410714418


class CountingRng:
    """A generator that counts the normals drawn through standard_normal(out=...)."""

    def __init__(self, r):
        self.r, self.normals = r, 0

    def standard_normal(self, out):
        self.normals += out.size
        return self.r.standard_normal(out=out)


def test_bridges_stop_at_the_barrier():
    # all k steps of 10 000 walks would be 4.0 M normals; most walks cross x = 1 early, so
    # they draw 408 337 (9.8x fewer), and the exact count pins where each one stopped
    r = CountingRng(rng.stream(267, "bridge-count"))
    assert fields.bridge_positivity_probability([1.0] * 400, 1.0, 10_000, r)[0] == 0.0128
    assert r.normals == 408_337
    assert r.normals < 1_000_000


def test_pinned_scale_stacks():
    g = lattice.build_box(64)
    grid = kernels.scale_time_grid(1e-5, min_scales=1)
    assert grid.k == 2
    window = lattice.sub_box_mask(g, 2.0)
    r = rng.stream(262, "pin-stack")
    got = []
    for _ in PINNED_STACKS:
        s = fields.sample_scale_stack(g, 1e-5, r, grid=grid)
        got.append((_digest(s.values, s.stack.xi, s.stack.jmap.j),
                    fields.stack_barrier_margin(s.stack, window, 0.5)))
    assert got == PINNED_STACKS


def _uncached_layers(geom, grid, r) -> np.ndarray:
    """The stack's layers straight from the slice weights, as an oracle for the tables."""
    xi = np.zeros((grid.k, geom.side, geom.side))
    for i in range(1, grid.k + 1):
        w = kernels.slice_mode_weights(geom, grid, i)
        xi[i - 1, 1:-1, 1:-1] = kernels.dst2(r.standard_normal(w.shape) * np.sqrt(w))
    return xi


def test_stack_tables_are_read_only_and_kept_per_box_and_grid():
    grids = [kernels.scale_time_grid(m, min_scales=1) for m in (1e-5, 1e-3)]
    assert [grid.k for grid in grids] == [2, 1]
    cases = [(lattice.build_box(n), gi) for n in (16, 32) for gi in range(len(grids))]
    for rep in range(2):  # the second round is served from the cache
        for geom, gi in cases:
            grid = grids[gi]
            s = fields.sample_scale_stack(geom, grid.m, rng.stream(263, geom.N, gi, rep), grid=grid)
            ref = _uncached_layers(geom, grid, rng.stream(263, geom.N, gi, rep))
            assert np.array_equal(s.stack.xi, ref)
            assert np.array_equal(s.stack.jmap.j, lattice.scale_index(geom, grid.k).j)
            with pytest.raises(ValueError):
                s.stack.jmap.j[1, 1] = 0
            sd, _ = fields._stack_tables(geom, grid)
            with pytest.raises(ValueError):
                sd[0, 0, 0] = 1.0
    # the cache stays bounded however many grids pass through it
    g = lattice.build_box(4)
    for m in np.linspace(0.1, 0.5, fields._STACK_TABLES_MAX + 3):
        fields._stack_tables(g, kernels.scale_time_grid(float(m), min_scales=0))
        assert len(fields._STACK_TABLES) <= fields._STACK_TABLES_MAX


def test_stack_rejects_a_grid_for_another_mass():
    grid = kernels.scale_time_grid(1e-5, min_scales=1)
    with pytest.raises(DomainError, match="0.3"):
        fields.sample_scale_stack(lattice.build_box(16), 0.3, rng.stream(18, "m"), grid=grid)
    s = fields.sample_scale_stack(lattice.build_box(16), 1e-5, rng.stream(18, "m"), grid=grid)
    assert s.stack.grid is grid


def test_explicit_bc_validates_length():
    g = lattice.build_box(8)
    bad = fields.explicit_bc(np.zeros(5))
    with pytest.raises(DomainError):
        bad.grid(g)
