"""Lattice potential theory for the walk with generator Delta (rate-4 walk).

The one-dimensional continuous-time heat kernel (the kernel on Z^2 is the
product over the two coordinates), massive Green functions in infinite and
finite volume, the spectral integral f(m) controlling the cost of adding
mass, and the decreasing time grid that slices the Green function into
unit-variance covariance layers.

Every quantity has two independent computation routes (spectral vs block
elimination, Fourier vs time integration, a 2D tensor quadrature vs a closed
inner integral); the tests use each as the oracle for the other, which
substitutes for the unnamed constants of the asymptotic statements.  Only
green_massive_infinite loads scipy.integrate, and nothing here loads
scipy.sparse.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.fft import dstn

from .errors import DomainError, NumericError
from .lattice import BoxGeometry

_IVE_SWITCH = 5e7  # above this time scipy's ive underflows internally; use asymptotics
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
_F_ORACLE_HALVINGS = 8


# ---------------------------------------------------------------------------
# heat kernels
# ---------------------------------------------------------------------------

def heat_kernel_1d(a, t):
    """1D rate-2 kernel p_t(a) = e^{-2t} I_|a|(2t), elementwise.

    For t beyond the Bessel evaluator's range, the local-CLT asymptotic
    (4 pi t)^{-1/2} exp(-a^2/4t)(1 + 1/16t) is exact to ~1e-14 absolute.
    """
    a = np.abs(np.asarray(a, dtype=np.int64))
    t = np.asarray(t, dtype=float)
    a, t = np.broadcast_arrays(a, t)
    out = np.empty(a.shape, dtype=float)
    small = t <= _IVE_SWITCH
    if np.any(small):
        out[small] = special.ive(a[small], 2.0 * t[small])
    if np.any(~small):
        tb, ab = t[~small], a[~small]
        out[~small] = (4.0 * np.pi * tb) ** -0.5 * np.exp(-(ab * ab) / (4.0 * tb)) * (1.0 + 1.0 / (16.0 * tb))
    return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Sine eigenbasis of the Dirichlet Laplacian on {1,...,N-1}, read-only.

    modes S[u-1, i-1] = sqrt(2/N) sin(i pi u / N), and lam2d[i-1, j-1] =
    lam_i + lam_j with lam_i = 2(1 - cos(i pi / N)), the eigenvalues of -Delta
    on the box.  S is orthogonal, so S a S^T applies the 2D transform to a
    mode-space matrix.
    """

    lam2d: np.ndarray
    modes: np.ndarray


@lru_cache(maxsize=32)
def spectral_basis(N: int) -> SpectralBasis:
    """The basis for box size N, built once per N."""
    i = np.arange(1, N)
    lam = 2.0 * (1.0 - np.cos(i * np.pi / N))
    basis = SpectralBasis(lam[:, None] + lam[None, :],
                          np.sqrt(2.0 / N) * np.sin(np.pi * np.outer(i, i) / N))
    basis.lam2d.flags.writeable = basis.modes.flags.writeable = False
    return basis


# ---------------------------------------------------------------------------
# infinite-volume massive Green function
# ---------------------------------------------------------------------------

def _log_panels(lo: float, hi: float) -> np.ndarray:
    n = max(8, int(40 * math.log10(hi / lo)))  # 40 panels per decade
    return np.geomspace(lo, hi, n + 1)


def _panel_integral(f, edges: np.ndarray) -> float:
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _GAUSS_NODES[None, :]
    w = 0.5 * (b - a)[:, None] * _GAUSS_WEIGHTS[None, :]
    return float(np.sum(w * f(mid)))


def green_massive_infinite(x, m: float) -> float:
    """G^m(0, x) by the lattice Fourier integral (one angle done in closed form).

    The inner cosine integral over theta_2 evaluates to rho^|x2| / sqrt(A^2-4)
    with A = m^2 + 4 - 2 cos(theta_1) and rho = (A - sqrt(A^2-4))/2, leaving a
    well-behaved 1D integrand whose 1/sqrt singularity at 0 is handled by
    adaptive quadrature.
    """
    if m <= 0:
        raise DomainError("massless infinite-volume Green function diverges in d=2")
    x1, x2 = (abs(int(c)) for c in x)
    if x1 < x2:
        x1, x2 = x2, x1  # oscillation on the slow axis

    def f(t):
        eps = m * m + 2.0 * (1.0 - np.cos(t))  # = A - 2 >= m^2
        s = np.sqrt(eps * (eps + 4.0))
        rho = (eps + 2.0 - s) / 2.0
        return np.cos(t * x1) * rho ** x2 / s

    from scipy import integrate

    val = 0.0
    # adaptive quad struggles near the m-scale dip; split there explicitly
    breaks = [0.0] + sorted({min(m, 0.5), 0.5}) + [np.pi]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(breaks[:-1], breaks[1:]):
            v, _ = integrate.quad(f, a, b, limit=max(200, 8 * x1), epsabs=1e-13, epsrel=1e-12)
            val += v
    return val / math.pi


def _time_integral(x1: int, x2: int, T: float, m: float) -> float:
    """int_T^inf e^{-m^2 t} p_t(x1) p_t(x2) dt, by panelled Gauss quadrature (0 from T = inf)."""
    tmax = 60.0 / (m * m)
    if T >= tmax:
        return 0.0
    edges = _log_panels(max(T, 1e-10), tmax)
    if T == 0.0:
        edges = np.concatenate([[0.0], edges])

    def f(t):
        return np.exp(-m * m * t) * (heat_kernel_1d(x1, t) * heat_kernel_1d(x2, t))

    return _panel_integral(f, edges)


def heat_diag_time_integral(T: float, m: float) -> float:
    """int_T^inf e^{-m^2 t} P_t(0,0) dt."""
    return _time_integral(0, 0, T, m)


def green_massive_infinite_time(x, m: float) -> float:
    """Independent route to G^m(0,x): direct time integration of the Bessel product."""
    if m <= 0:
        raise DomainError("massless infinite-volume Green function diverges in d=2")
    x1, x2 = (abs(int(c)) for c in x)
    return _time_integral(x1, x2, 0.0, m)


def green_offset_table(m: float, extent: int) -> np.ndarray:
    """G^m(0, (d1,d2)) for 0 <= d1,d2 <= extent, via a large-torus FFT.

    The torus Green function differs from the plane one by wrap-around images
    of size exp(-c m M); the FFT size is chosen so that this is < 1e-12.
    Used to assemble boundary covariance matrices; point values are served by
    green_massive_infinite.
    """
    if m <= 0:
        raise DomainError("offset table needs m > 0")
    need = max(4 * extent, int(40.0 / m))
    M = 1 << max(8, int(math.ceil(math.log2(need))))
    theta = 2.0 * np.pi * np.arange(M) / M
    denom = m * m + (2.0 - 2.0 * np.cos(theta))[:, None] + (2.0 - 2.0 * np.cos(theta))[None, :]
    g = np.fft.ifft2(1.0 / denom).real
    return np.ascontiguousarray(g[: extent + 1, : extent + 1])


# ---------------------------------------------------------------------------
# Dirichlet Green function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenTable:
    """Dense symmetric covariance table over the interior sites.

    table[a, b] is the Dirichlet Green function between the a-th and the
    b-th interior site, the sites taken in row-major order of the
    (N+1, N+1) grid (the order of geom.interior_mask's True entries).
    """

    table: np.ndarray


def _mode_diag(geom: BoxGeometry, w: np.ndarray) -> np.ndarray:
    """sum_ij phi_ij(x)^2 w_ij for mode weights w, on the whole grid (0 on the frame).

    The diagonal of the covariance with those weights, at cost O(N^3).
    """
    b = spectral_basis(geom.N).modes ** 2  # b[u-1, i-1] = phi_i(u)^2 (1D)
    out = np.zeros((geom.side, geom.side))
    out[1:-1, 1:-1] = b @ w @ b.T
    return out


def green_dirichlet(geom: BoxGeometry, m: float = 0.0) -> GreenTable:
    """G^{m,*} over all interior sites, spectrally.

    G^{m,*}(x,y) = sum_{ij} phi_ij(x) phi_ij(y) / (lam_i + lam_j + m^2), with
    phi_ij(x) = S[x1, i] S[x2, j] separable, so the sum splits into two GEMMs:
    A[x1, y1, j] = sum_i S[x1, i] S[y1, i] w_ij, then
    G[(x1, x2), (y1, y2)] = sum_j A[x1, y1, j] S[x2, j] S[y2, j], one product
    per row x1, at cost O(N^5) in all.  Only the (x1, y1) blocks with y1 >= x1
    are computed, each mirrored below the diagonal, and the y1 = x1 blocks are
    symmetrized in place, so the table is exactly symmetric.
    """
    if m < 0:
        raise DomainError(f"mass must be >= 0 (got {m})")
    basis = spectral_basis(geom.N)
    s, n = basis.modes, geom.N - 1
    pairs = (s[:, None, :] * s[None, :, :]).reshape(n * n, n)  # pairs[(u, v), i] = S[u, i] S[v, i]
    a = (pairs @ (1.0 / (basis.lam2d + m * m))).reshape(n, n, n)  # a[x1, y1, j]
    pairs_t = np.ascontiguousarray(pairs.T)
    table = np.empty((n * n, n * n))
    t4 = table.reshape(n, n, n, n)  # t4[x1, x2, y1, y2]
    for x1 in range(n):
        block = (a[x1, x1:] @ pairs_t).reshape(n - x1, n, n)  # block[y1 - x1, x2, y2]
        diag = block[0]
        diag[...] = 0.5 * (diag + diag.T)
        t4[x1, :, x1:, :] = block.transpose(1, 0, 2)
        t4[x1 + 1 :, :, x1, :] = block[1:].transpose(0, 2, 1)
    return GreenTable(table)


def _symmetrize_blocks(table: np.ndarray, block: int) -> None:
    """table <- (table + table.T) / 2 in place, one pair of block x block tiles at a time."""
    size = table.shape[0]
    for a in range(0, size, block):
        for b in range(a, size, block):
            upper = table[a : a + block, b : b + block]
            lower = table[b : b + block, a : a + block]
            mean = 0.5 * (upper + lower.T)
            upper[...] = mean
            lower[...] = mean.T


def green_dirichlet_diag(geom: BoxGeometry, m: float = 0.0) -> np.ndarray:
    """G^{m,*}(x,x) on the whole grid (0 on the boundary), cost O(N^3)."""
    if m < 0:
        raise DomainError(f"mass must be >= 0 (got {m})")
    return _mode_diag(geom, 1.0 / (spectral_basis(geom.N).lam2d + m * m))


def green_dirichlet_solve(geom: BoxGeometry, m: float = 0.0) -> GreenTable:
    """Oracle route: direct solve of (m^2 - Delta) with Dirichlet rows, by block elimination.

    With the interior sites in row-major order the matrix is block
    tridiagonal, one n x n block per grid row (n = N - 1): B = (4 + m^2) I - J
    on the diagonal, J the adjacency of the path {1, ..., n}, and -I beside it.
    Elimination keeps the dense inverses E_i of the Schur complements
    D_0 = B, D_i = B - E_{i-1}.  The identity's block rows are swept forward,
    Y_i = I_i + E_{i-1} Y_{i-1} (nonzero only in the first i + 1 block
    columns), and back, X_i = E_i (Y_i + X_{i+1}), in the table itself, which
    is then symmetrized block by block in place.  Only site-basis arithmetic
    enters, no sine mode, so the route is independent of green_dirichlet.
    """
    if m < 0:
        raise DomainError(f"mass must be >= 0 (got {m})")
    n = geom.N - 1
    b = (4.0 + m * m) * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    e = np.empty((n, n, n))
    e[0] = np.linalg.inv(b)
    for i in range(1, n):
        e[i] = np.linalg.inv(b - e[i - 1])
    table = np.zeros((n * n, n * n))
    np.fill_diagonal(table, 1.0)
    rows = table.reshape(n, n, n * n)  # rows[x1, x2, column]
    for i in range(1, n):
        rows[i, :, : i * n] += e[i - 1] @ rows[i - 1, :, : i * n]
    rows[n - 1] = e[n - 1] @ rows[n - 1]
    for i in range(n - 2, -1, -1):
        rows[i] += rows[i + 1]
        rows[i] = e[i] @ rows[i]
    _symmetrize_blocks(table, 64)
    return GreenTable(table)


# ---------------------------------------------------------------------------
# f(m): the free-energy cost of adding mass
# ---------------------------------------------------------------------------

def f_of_m(m: float) -> float:
    """f(m) = 1/2 int_{[0,1]^2} log(1 + m^2 / (4 sin^2(pi x/2) + 4 sin^2(pi y/2))).

    Tensor 24-point Gauss panels, geometrically refined toward the origin
    (down to 2^-18, two panels per halving) where the integrand has its
    (integrable) logarithmic singularity.  Increasing in m.  The quadrature
    is memoized per m, as spectral_basis is per N; a bad m raises on every
    call.
    """
    if not 0.0 < m <= 1.0:
        raise DomainError(f"f(m) is defined for m in (0, 1] (got {m})")
    return _f_of_m_panels(m)


@lru_cache(maxsize=32)  # behind f_of_m, which stays a plain function that tracers can wrap
def _f_of_m_panels(m: float) -> float:
    depth = 18
    edges = np.concatenate([[0.0], np.geomspace(2.0 ** -depth, 1.0, 2 * depth + 1)])
    nodes, weights = np.polynomial.legendre.leggauss(24)
    a, b = edges[:-1], edges[1:]
    x = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * nodes[None, :]).ravel()
    w = (0.5 * (b - a)[:, None] * weights[None, :]).ravel()
    s = np.sin(0.5 * np.pi * x) ** 2
    # the 888 x 888 integrand log1p(m^2 / (4 (s_i + s_j))) in one buffer: the
    # same ufuncs in the same order as the plain expression, so the same bits
    t = np.add.outer(s, s)
    t *= 4.0
    np.divide(m * m, t, out=t)
    np.log1p(t, out=t)
    return 0.5 * float(np.einsum("i,j,ij->", w, w, t))


def f_of_m_adaptive(m: float) -> float:
    """Oracle route: f(m) with its inner integral in closed form, the outer one adaptive.

    (1/pi) int_0^pi log(c + 2 - 2 cos theta) d theta = 2 asinh(sqrt(c)/2) does
    the y-integral, leaving
    f(m) = int_0^1 [asinh(sqrt(m^2/4 + v^2)) - asinh(v)] dx,  v = sin(pi x/2),
    an analytic integrand, evaluated without cancellation as
    asinh((m^2/4) / (u sqrt(1 + v^2) + v sqrt(1 + u^2))), u = sqrt(m^2/4 + v^2).
    16-point Gauss panels, graded geometrically toward 0 from m/8, are all
    halved until two successive estimates agree to 1e-14; NumericError past
    _F_ORACLE_HALVINGS halvings.
    """
    if not 0.0 < m <= 1.0:
        raise DomainError(f"f(m) is defined for m in (0, 1] (got {m})")
    q = 0.25 * m * m

    def f(x):
        v = np.sin(0.5 * np.pi * x)
        u = np.sqrt(q + v * v)
        return np.arcsinh(q / (u * np.sqrt(1.0 + v * v) + v * np.sqrt(1.0 + u * u)))

    edges = np.concatenate([[0.0], np.geomspace(m / 8.0, 1.0, math.ceil(math.log2(8.0 / m)) + 1)])
    est = _panel_integral(f, edges)
    for _ in range(_F_ORACLE_HALVINGS):
        halved = np.empty(2 * len(edges) - 1)
        halved[0::2], halved[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
        edges, prev, est = halved, est, _panel_integral(f, halved)
        if abs(est - prev) <= 1e-14:
            return est
    raise NumericError(f"f(m) oracle at m = {m}: no two estimates within 1e-14 after "
                       f"{_F_ORACLE_HALVINGS} halvings")


# ---------------------------------------------------------------------------
# scale-time grid and covariance slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleTimeGrid:
    """Decreasing times inf = t_0 > t_1 > ... > t_{k-1} > t_k = 0.

    Interior slices of int e^{-m^2 t} P_t(0,0) dt carry unit mass; the last
    slice carries the fractional remainder G^m(0,0) - (k-1) in [1, 2) -- or
    less than 1 if the grid was built in the degenerate regime floor(G) < 1,
    where k = 1.  Equality and hash see only (m, k): scale_time_grid derives
    the times from m.
    """

    m: float
    k: int
    times: np.ndarray = field(compare=False)  # t_1 .. t_{k-1}, possibly empty

    def slice_bounds(self, i: int) -> tuple[float, float]:
        """(t_i, t_{i-1}) for slice i in 1..k."""
        if not 1 <= i <= self.k:
            raise DomainError(f"slice index {i} outside 1..{self.k}")
        hi = math.inf if i == 1 else float(self.times[i - 2])
        lo = 0.0 if i == self.k else float(self.times[i - 1])
        return lo, hi

    def slice_mass(self, i: int) -> float:
        lo, hi = self.slice_bounds(i)
        return heat_diag_time_integral(lo, self.m) - heat_diag_time_integral(hi, self.m)


def scale_time_grid(m: float, min_scales: int = 3) -> ScaleTimeGrid:
    """Solve int_{t_i}^inf e^{-m^2 t} P_t(0,0) dt = i for i = 1..k-1.

    By default requires k = floor(G^m(0,0)) >= 3 and raises DomainError
    otherwise; callers running deliberately shallow decompositions (a single
    slice is still an exact sampling of the field) may lower min_scales.
    Only a grid with k > 1 root-finds (brentq), so only such a grid loads
    scipy.optimize; every laboratory mass gives k = 1.
    """
    if m <= 0:
        raise DomainError("scale grid needs m > 0")
    G = heat_diag_time_integral(0.0, m)
    k_raw = int(math.floor(G))
    if k_raw < min_scales:
        raise DomainError(
            f"G^m(0,0) = {G:.4f} gives only {k_raw} unit scales at m = {m}; need >= {min_scales}"
        )
    k = max(1, k_raw)
    times = []
    if k > 1:
        from scipy import optimize

        hi = math.log(60.0 / (m * m))
        for i in range(1, k):
            sol = optimize.brentq(
                lambda logt, i=i: heat_diag_time_integral(math.exp(logt), m) - i,
                math.log(1e-9), hi, xtol=1e-13, rtol=8.9e-16,
            )
            times.append(math.exp(sol))
    times = np.array(times)
    times.flags.writeable = False
    return ScaleTimeGrid(float(m), k, times)


def slice_mode_weights(geom: BoxGeometry, grid: ScaleTimeGrid, i: int) -> np.ndarray:
    """Per-mode weights of Q*_i: int over the slice of e^{-(m^2+mu) t} dt.

    Exact in closed form per sine mode, so the slices telescope to G^{m,*}
    at machine precision.
    """
    lo, hi = grid.slice_bounds(i)
    basis = spectral_basis(geom.N)
    rate = basis.lam2d + grid.m ** 2
    return (np.exp(-rate * lo) - np.exp(-rate * hi)) / rate


def covariance_slice_diag(geom: BoxGeometry, grid: ScaleTimeGrid, i: int) -> np.ndarray:
    """Variance of the i-th scale field on the whole grid (0 on the boundary)."""
    return _mode_diag(geom, slice_mode_weights(geom, grid, i))


def split_diag(geom: BoxGeometry, m: float, t_split: float) -> tuple[np.ndarray, np.ndarray]:
    """Variances of the rough field Q^1 (t > t_split) and the local field Q^2
    (t <= t_split), on the whole grid."""
    if t_split <= 0:
        raise DomainError("split time must be positive")
    rate = spectral_basis(geom.N).lam2d + m * m
    e = np.exp(-rate * t_split)
    return _mode_diag(geom, e / rate), _mode_diag(geom, (1.0 - e) / rate)


# ---------------------------------------------------------------------------
# sine transform helper shared with the samplers
# ---------------------------------------------------------------------------

def dst2(a: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DST-I over the last two axes (involutive), in place.

    a must be a writeable float64 array: it is overwritten with its transform
    and returned, so a caller that still needs its input transforms a copy.
    In place and out of place give the same bits.  pocketfft releases the GIL
    while it transforms, so another thread can draw meanwhile.
    """
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise DomainError("dst2 transforms a float64 array in place")
    dstn(a, type=1, norm="ortho", axes=(-2, -1), overwrite_x=True)
    return a
