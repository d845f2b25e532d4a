import math
import tracemalloc

import numpy as np
import pytest
from scipy import special
from scipy.fft import dstn

from gffpin import freeenergy, kernels, lattice
from gffpin.errors import DomainError, NumericError

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# heat kernels
# ---------------------------------------------------------------------------

def test_heat_kernel_free_values():
    # small time: mass concentrates on the starting site
    assert abs(kernels.heat_kernel_1d(0, 1e-9) - 1.0) < 1e-6
    # symmetry in the displacement
    assert kernels.heat_kernel_1d(-3, 0.7) == kernels.heat_kernel_1d(3, 0.7)
    # the Z^2 kernel at t=1 (the product over both coordinates) equals the
    # Bessel product, and sits near the local CLT law
    v = kernels.heat_kernel_1d(0, 1.0) ** 2
    ref = (math.exp(-2.0) * special.iv(0, 2.0)) ** 2
    assert abs(v - ref) < 1e-14
    assert abs(v - 1.0 / (4 * math.pi)) < 1.0


def test_heat_kernel_1d_branch_agreement():
    # at the switch time the Bessel and asymptotic formulas must agree
    t = 5e7
    for a in (0, 1, 5, 100):
        bessel = float(special.ive(a, 2 * t))
        asym = (4 * math.pi * t) ** -0.5 * math.exp(-a * a / (4 * t)) * (1 + 1 / (16 * t))
        assert abs(bessel - asym) / bessel < 1e-8


def test_spectral_basis_orthonormal():
    basis = kernels.spectral_basis(16)
    gram = basis.modes.T @ basis.modes
    assert np.abs(gram - np.eye(15)).max() < 1e-12
    lam = np.diag(basis.lam2d) / 2.0
    assert np.all(np.diff(lam) > 0)
    assert 0 < lam[0] and lam[-1] < 4.0


def test_spectral_basis_is_built_once_per_size_and_read_only():
    basis = kernels.spectral_basis(8)
    assert kernels.spectral_basis(8) is basis and kernels.spectral_basis(9) is not basis
    for table in (basis.lam2d, basis.modes):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    lam = 2.0 * (1.0 - np.cos(np.arange(1, 8) * np.pi / 8))
    assert np.array_equal(basis.lam2d, np.add.outer(lam, lam))


def test_dst2_transforms_its_argument_in_place():
    # dst2 returns its own C-contiguous float64 argument, holding the out-of-place transform
    a = np.random.default_rng(1).standard_normal((3, 15, 15))
    expected = dstn(a, type=1, norm="ortho", axes=(-2, -1))
    out = kernels.dst2(a)
    assert out is a and a.flags.c_contiguous and a.dtype == np.float64
    assert np.array_equal(a, expected)
    with pytest.raises(DomainError):
        kernels.dst2(np.ones((4, 4), dtype=np.float32))


def test_chapman_kolmogorov():
    s, t = 0.4, 0.9
    x = np.arange(-40, 41)
    px = kernels.heat_kernel_1d(x, s)
    py = kernels.heat_kernel_1d(x, t)
    # 1D convolution at displacement 0 and 1; 2D follows by factorization
    conv0 = float(np.sum(px * py[::-1]))
    assert abs(conv0 - kernels.heat_kernel_1d(0, s + t)) < 1e-6
    conv1 = float(np.sum(px[:-1] * py[::-1][1:]))
    assert abs(conv1 - kernels.heat_kernel_1d(1, s + t)) < 1e-6


def test_gradient_bound_stable():
    # (P_t(x,x) - P_t(x,y)) * t^2 / |x-y|^2 bounded, stable over t in [1, 1e3]
    fits = []
    for t in (1.0, 10.0, 100.0, 1000.0):
        worst = 0.0
        for r in (1, 2, int(math.sqrt(t))):
            if r < 1:
                continue
            diff = kernels.heat_kernel_1d(0, t) ** 2 - kernels.heat_kernel_1d(r, t) * kernels.heat_kernel_1d(0, t)
            worst = max(worst, diff * t * t / (r * r))
        fits.append(worst)
    assert max(fits) < 1.0
    assert max(fits) / min(fits) < 20.0


# ---------------------------------------------------------------------------
# Green functions
# ---------------------------------------------------------------------------

def test_green_infinite_dual_route():
    for m in (1.0, 0.3, 0.05):
        a = kernels.green_massive_infinite((0, 0), m)
        b = kernels.green_massive_infinite_time((0, 0), m)
        assert abs(a - b) < 1e-8
    a = kernels.green_massive_infinite((3, 2), 0.4)
    b = kernels.green_massive_infinite_time((3, 2), 0.4)
    assert abs(a - b) < 1e-8


def test_green_infinite_symmetry_and_domain():
    m = 0.7
    assert abs(kernels.green_massive_infinite((2, 1), m)
               - kernels.green_massive_infinite((-2, -1), m)) < 1e-13
    with pytest.raises(DomainError):
        kernels.green_massive_infinite((0, 0), 0.0)


def test_green_infinite_log_law():
    resid = [kernels.green_massive_infinite((0, 0), m) + math.log(m) / TWO_PI
             for m in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert max(abs(r) for r in resid) < 2.0
    assert (max(resid) - min(resid)) / abs(np.mean(resid)) < 0.2


def test_green_offset_table_matches_quadrature():
    m = 0.3
    table = kernels.green_offset_table(m, 8)
    for d in ((0, 0), (1, 0), (3, 2), (8, 8)):
        assert abs(table[d] - kernels.green_massive_infinite(d, m)) < 1e-9


def test_green_row_sum():
    # sum_y G^m(0,y) = m^{-2}: the killing time has mean m^{-2}
    m = 1.0
    a = np.arange(-80, 81)
    edges = np.concatenate([[0.0], np.geomspace(1e-8, 60.0, 400)])
    nodes, weights = np.polynomial.legendre.leggauss(16)
    lo, hi = edges[:-1], edges[1:]
    t = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * nodes[None, :]).ravel()
    w = (0.5 * (hi - lo)[:, None] * weights[None, :]).ravel()
    row = kernels.heat_kernel_1d(a[:, None], t[None, :])
    total = float(np.sum(w * np.exp(-m * m * t) * row.sum(axis=0) ** 2))
    assert abs(total - 1.0 / (m * m)) < 1e-8


def test_green_dirichlet_center_small():
    g = lattice.build_box(2)
    assert abs(kernels.green_dirichlet(g, 0.0).table[0, 0] - 0.25) < 1e-12
    for m in (0.5, 1.5):
        assert abs(kernels.green_dirichlet(g, m).table[0, 0] - 1.0 / (4 + m * m)) < 1e-12


@pytest.mark.parametrize("N,m", [(2, 0.0), (3, 0.3), (6, 0.0), (8, 0.3), (16, 0.05), (32, 0.3),
                                 (64, 0.1)])
def test_green_dirichlet_two_routes(N, m):
    g = lattice.build_box(N)
    b = kernels.green_dirichlet_solve(g, m)
    # the spectral diagonal at every size, the whole spectral table up to N = 32
    assert np.abs(kernels.green_dirichlet_diag(g, m)[g.interior_mask] - np.diag(b.table)).max() < 1e-9
    if N <= 32:
        a = kernels.green_dirichlet(g, m)
        assert np.abs(a.table - b.table).max() < 1e-12
        # exactly symmetric (the y1 >= x1 blocks are mirrored, so no last-bit asymmetry
        # survives the GEMMs) and PSD
        assert np.array_equal(a.table, a.table.T)
        eig = np.linalg.eigvalsh(a.table)
        assert eig.min() > -1e-10


def test_green_dirichlet_working_set():
    g = lattice.build_box(32)
    kernels.green_dirichlet(g, 0.3)  # caches the sine basis outside the trace
    tracemalloc.start()
    try:
        table = kernels.green_dirichlet(g, 0.3).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 7.4 MB table, one row of (x1, y1) blocks and the (N-1)^3 sine-pair arrays:
    # 8.6 MB measured, where 64-site tiles of mode rows took 9.5 MB and the full
    # site-by-mode matrix beside the table 15.4 MB
    assert peak < 1.5 * table.nbytes
    assert np.array_equal(table, table.T)


def test_green_dirichlet_solve_working_set():
    g = lattice.build_box(32)
    kernels.green_dirichlet_solve(g, 0.3)  # a first call outside the trace warms numpy.linalg
    tracemalloc.start()
    try:
        b = kernels.green_dirichlet_solve(g, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 7.4 MB table, the (N-1)^3 Schur-complement inverses and one block row's
    # product, written back into the table: 8.0 MB measured, where SuperLU's 64-column
    # blocks took 8.4 MB and a dense identity right-hand side with its solution 37 MB
    assert peak < 1.5 * b.table.nbytes
    assert np.array_equal(b.table, b.table.T)
    assert np.abs(b.table - kernels.green_dirichlet(g, 0.3).table).max() < 1e-10


def test_green_dirichlet_solve_refuses_a_negative_mass():
    with pytest.raises(DomainError):
        kernels.green_dirichlet_solve(lattice.build_box(4), -0.1)


def test_green_dirichlet_precision_identity(sparse_precision):
    # (m^2 - Delta) applied to a Green column gives the unit mass
    g = lattice.build_box(10)
    m = 0.2
    table = kernels.green_dirichlet(g, m)
    prec = sparse_precision(g.N, m)
    resid = prec @ table.table - np.eye(table.table.shape[0])
    assert np.abs(resid).max() < 1e-9


def test_green_dirichlet_diag_matches_table():
    g = lattice.build_box(12)
    m = 0.1
    diag = kernels.green_dirichlet_diag(g, m)
    table = kernels.green_dirichlet(g, m)
    # the table's rows are the interior sites in row-major order
    assert np.abs(diag[g.interior_mask] - np.diag(table.table)).max() < 1e-12
    assert np.all(diag[g.boundary_mask] == 0.0)


def test_green_dirichlet_log_law():
    for N in (64, 128):
        g = lattice.build_box(N)
        for m in (0.1, 0.01):
            diag = kernels.green_dirichlet_diag(g, m)
            mask = g.interior_mask
            ref = np.log(np.minimum(1.0 / m, g.dist_boundary[mask])) / TWO_PI
            assert np.abs(diag[mask] - ref).max() < 2.0


# ---------------------------------------------------------------------------
# f(m)
# ---------------------------------------------------------------------------

def test_f_of_m_domain_and_limits():
    with pytest.raises(DomainError):
        kernels.f_of_m(0.0)
    with pytest.raises(DomainError):
        kernels.f_of_m(1.5)
    assert kernels.f_of_m(1e-4) < 1e-6  # f -> 0 with m
    # monotone increasing
    vals = [kernels.f_of_m(m) for m in (0.1, 0.3, 0.6, 1.0)]
    assert np.all(np.diff(vals) > 0)


def test_f_of_m_memo_keeps_value_and_refusal():
    assert kernels.f_of_m(0.37) == kernels.f_of_m(0.37) == kernels._f_of_m_panels.__wrapped__(0.37)
    for _ in range(2):  # a refused m is refused on every call, never cached
        with pytest.raises(DomainError):
            kernels.f_of_m(1.5)


def test_f_of_m_keeps_its_bits():
    # the floats of the panel quadrature as the plain-expression integrand gave them
    assert kernels.f_of_m(0.3) == 0.024507214290849753
    assert kernels.f_of_m(0.5) == 0.05754968293187644
    assert kernels.f_of_m(freeenergy.desk_mass(256)) == 2.1015675664651362e-05


def test_f_of_m_working_set():
    kernels._f_of_m_panels.__wrapped__(0.3)  # warms the Gauss nodes outside the trace
    tracemalloc.start()
    try:
        kernels._f_of_m_panels.__wrapped__(0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 888 x 888 integrand buffer (6.3 MB): 6.5 MB measured, where the plain
    # expression held a temporary beside it and peaked at 12.6 MB
    assert peak < 1.2 * 888 * 888 * 8


def test_f_of_m_dual_quadrature():
    assert abs(kernels.f_of_m(0.5) - kernels.f_of_m_adaptive(0.5)) < 1e-9


@pytest.mark.parametrize("m", [1e-3, 1e-2, 0.1, 0.3, 0.5, 1.0])
def test_f_of_m_adaptive_matches_the_2d_integral(m):
    # reference route: scipy's adaptive 2D quadrature of the defining integrand
    from scipy import integrate

    def f(x, y):
        return 0.5 * np.log1p(m * m / (4.0 * (np.sin(0.5 * np.pi * x) ** 2
                                              + np.sin(0.5 * np.pi * y) ** 2)))

    ref, _ = integrate.dblquad(f, 0.0, 1.0, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    assert abs(kernels.f_of_m_adaptive(m) - ref) <= 1e-12


@pytest.mark.parametrize("m", [0.0, -0.1, 1.5, math.nan])
def test_f_of_m_adaptive_domain(m):
    with pytest.raises(DomainError):
        kernels.f_of_m_adaptive(m)


def test_f_of_m_adaptive_raises_past_its_halving_cap(monkeypatch):
    monkeypatch.setattr(kernels, "_F_ORACLE_HALVINGS", 0)
    with pytest.raises(NumericError):
        kernels.f_of_m_adaptive(0.5)


def test_f_of_m_asymptotics():
    ratios = [(kernels.f_of_m(m) - m * m * abs(math.log(m)) / (4 * math.pi)) / (m * m)
              for m in (1e-1, 1e-2, 1e-3)]
    assert all(np.isfinite(ratios))
    assert (max(ratios) - min(ratios)) / abs(np.mean(ratios)) < 0.2


# ---------------------------------------------------------------------------
# scale-time grid and slices
# ---------------------------------------------------------------------------

def test_scale_grid_requires_small_mass():
    with pytest.raises(DomainError, match=r"gives only 0 unit scales at m = 0.3; need >= 3"):
        kernels.scale_time_grid(0.3)
    with pytest.raises(DomainError, match=r"gives only 1 unit scales at m = 0.01; need >= 3"):
        kernels.scale_time_grid(1e-2)
    assert kernels.scale_time_grid(1e-2, min_scales=1).k == 1


def test_too_few_scales_message_states_no_false_bound():
    # one unit scale holds up to m ~ 0.0106 (brentq on heat_diag_time_integral), where an
    # exp(-2 pi) hint claimed m <= 1.87e-03; the message states G and the needed count only
    assert kernels.heat_diag_time_integral(0.0, 0.0223) < 1.0
    with pytest.raises(DomainError, match=r"unit scales at m = 0.0223; need >= 1") as err:
        kernels.scale_time_grid(0.0223, min_scales=1)
    message = str(err.value)
    assert "need >= 1" in message and "m <=" not in message


def test_scale_grid_slices():
    grid = kernels.scale_time_grid(1e-8)
    assert grid.k == 3
    for i in range(1, grid.k):
        assert abs(grid.slice_mass(i) - 1.0) < 1e-8
    last = grid.slice_mass(grid.k)
    assert 1.0 <= last < 2.0
    green_zero = kernels.heat_diag_time_integral(0.0, grid.m)
    assert abs(sum(grid.slice_mass(i) for i in range(1, grid.k + 1)) - green_zero) < 1e-8


def test_scale_grid_log_times():
    grid = kernels.scale_time_grid(1e-8)
    for i, t in enumerate(grid.times, start=1):
        assert abs(math.log(t) - 4 * math.pi * (grid.k - i)) <= 10.0


def test_scale_count_log_law():
    # the grid's scale count k = floor(G^m(0,0)) follows log(1/m) / 2pi
    for m in (1e-2, 1e-3, 1e-4, 1e-5):
        k = kernels.scale_time_grid(m, min_scales=1).k
        assert abs(k + math.log(m) / TWO_PI) <= 2.0


def test_degenerate_grid():
    # floor(G^m(0,0)) = 0: one slice carries all of G^m(0,0) < 1
    green_zero = kernels.heat_diag_time_integral(0.0, 0.3)
    assert green_zero < 1.0
    grid = kernels.scale_time_grid(0.3, min_scales=0)
    assert grid.k == 1 and len(grid.times) == 0
    assert grid.slice_mass(1) == pytest.approx(green_zero)


def test_slices_telescope_to_green():
    # every slice is PSD (nonnegative mode weights); weights and variances sum to G^{m,*}
    g = lattice.build_box(12)
    m = 1e-8
    grid = kernels.scale_time_grid(m)
    weights = np.zeros((g.N - 1, g.N - 1))
    total = np.zeros((g.side, g.side))
    for i in range(1, grid.k + 1):
        w = kernels.slice_mode_weights(g, grid, i)
        assert w.min() >= 0.0
        weights += w
        total += kernels.covariance_slice_diag(g, grid, i)
    basis = kernels.spectral_basis(g.N)
    assert np.abs(weights * (basis.lam2d + m * m) - 1.0).max() < 1e-7
    assert np.abs(total - kernels.green_dirichlet_diag(g, m)).max() < 1e-7


def test_slice_variance_bounds():
    # interior slice variances stay below 1 (2 for the last slice)
    g = lattice.build_box(256)
    m = 1e-8
    grid = kernels.scale_time_grid(m)
    center = (128, 128)
    for i in range(1, grid.k + 1):
        diag = kernels.covariance_slice_diag(g, grid, i)
        cap = 2.0 if i == grid.k else 1.0
        assert diag[center] <= cap + 1e-9


def test_split_weights():
    g = lattice.build_box(16)
    m = 0.0
    t_split = math.log(16) ** 8
    q1, q2 = kernels.split_diag(g, m, t_split)
    total = kernels.green_dirichlet_diag(g, m)
    assert np.abs(q1 + q2 - total).max() < 1e-12
    assert q1.min() >= 0 and q2.min() >= 0


def test_slice_index_errors():
    grid = kernels.scale_time_grid(1e-8)
    g = lattice.build_box(8)
    with pytest.raises(DomainError):
        kernels.covariance_slice_diag(g, grid, 0)
    with pytest.raises(DomainError):
        kernels.covariance_slice_diag(g, grid, grid.k + 1)
