"""Lattice potential theory for the walk with generator Delta (rate-4 walk).

The one-dimensional continuous-time heat kernel (the kernel on Z^2 is the
product over the two coordinates), massive Green functions in infinite and
finite volume, the spectral integral f(m) controlling the cost of adding
mass, and the decreasing time grid that slices the Green function into
unit-variance covariance layers.

Every quantity has two independent computation routes (spectral vs direct
solve, Fourier vs time integration); the tests use each as the oracle for
the other, which substitutes for the unnamed constants of the asymptotic
statements.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy import special
from scipy.fft import dstn

from .errors import DomainError, MassTooLargeError
from .lattice import BoxGeometry

if TYPE_CHECKING:
    from scipy import sparse

TWO_PI = 2.0 * math.pi
_IVE_SWITCH = 5e7  # above this time scipy's ive underflows internally; use asymptotics
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


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


@dataclass(frozen=True)
class SpectralBasis:
    """Sine eigenbasis of the Dirichlet Laplacian on {1,...,N-1}.

    lam[i-1] = 2(1 - cos(i pi / N)), modes S[u-1, i-1] = sqrt(2/N) sin(i pi u / N).
    S is orthogonal, so S a S^T applies the 2D transform to a mode-space matrix.
    """

    N: int
    lam: np.ndarray = field(init=False)
    modes: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.N
        i = np.arange(1, n)
        object.__setattr__(self, "lam", 2.0 * (1.0 - np.cos(i * np.pi / n)))
        u = np.arange(1, n)
        object.__setattr__(
            self, "modes", np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(u, i) / n)
        )

    @property
    def lam2d(self) -> np.ndarray:
        return self.lam[:, None] + self.lam[None, :]


@lru_cache(maxsize=32)
def spectral_basis(N: int) -> SpectralBasis:
    return SpectralBasis(N)


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


def heat_diag_time_integral(T: float, m: float) -> float:
    """int_T^inf e^{-m^2 t} P_t(0,0) dt, by panelled Gauss quadrature."""
    tmax = 60.0 / (m * m)
    if T >= tmax:
        return 0.0
    edges = _log_panels(max(T, 1e-10), tmax)
    if T == 0.0:
        edges = np.concatenate([[0.0], edges])

    def f(t):
        return np.exp(-m * m * t) * heat_kernel_1d(0, t) ** 2

    return _panel_integral(f, edges)


def green_massive_infinite_time(x, m: float) -> float:
    """Independent route to G^m(0,x): direct time integration of the Bessel product."""
    if m <= 0:
        raise DomainError("massless infinite-volume Green function diverges in d=2")
    x1, x2 = (abs(int(c)) for c in x)
    tmax = 60.0 / (m * m)
    edges = np.concatenate([[0.0], _log_panels(1e-10, tmax)])

    def f(t):
        return np.exp(-m * m * t) * heat_kernel_1d(x1, t) * heat_kernel_1d(x2, t)

    return _panel_integral(f, edges)


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

    G^{m,*}(x,y) = sum_{ij} phi_ij(x) phi_ij(y) / (lam_i + lam_j + m^2).
    """
    if m < 0:
        raise DomainError(f"mass must be >= 0 (got {m})")
    sites = np.flatnonzero(geom.interior_mask.ravel())
    basis = spectral_basis(geom.N)
    w = 1.0 / (basis.lam2d + m * m)
    x1, x2 = geom.site(sites)
    # rows phi_ij(site), shape (len(sites), (N-1)^2)
    phi = (basis.modes[x1 - 1][:, :, None] * basis.modes[x2 - 1][:, None, :]).reshape(len(sites), -1)
    table = (phi * w.ravel()[None, :]) @ phi.T
    table = 0.5 * (table + table.T)
    return GreenTable(table)


def green_dirichlet_diag(geom: BoxGeometry, m: float = 0.0) -> np.ndarray:
    """G^{m,*}(x,x) on the whole grid (0 on the boundary), cost O(N^3)."""
    if m < 0:
        raise DomainError(f"mass must be >= 0 (got {m})")
    return _mode_diag(geom, 1.0 / (spectral_basis(geom.N).lam2d + m * m))


def dirichlet_precision(geom: BoxGeometry, m: float = 0.0) -> sparse.csr_matrix:
    """Sparse (m^2 - Delta) restricted to interior sites (Dirichlet rows dropped)."""
    from scipy import sparse

    n = geom.N
    idx = -np.ones((geom.side, geom.side), dtype=np.int64)
    ii = np.arange((n - 1) ** 2)
    idx[1:-1, 1:-1] = ii.reshape(n - 1, n - 1)
    rows, cols, vals = [ii, ], [ii, ], [np.full((n - 1) ** 2, 4.0 + m * m)]
    for d1, d2 in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        src = idx[1:-1, 1:-1]
        nbr = idx[1 + d1 : geom.side - 1 + d1, 1 + d2 : geom.side - 1 + d2]
        ok = nbr >= 0
        rows.append(src[ok].ravel())
        cols.append(nbr[ok].ravel())
        vals.append(np.full(int(ok.sum()), -1.0))
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=((n - 1) ** 2, (n - 1) ** 2),
    )
    return mat.tocsr()


def green_dirichlet_solve(geom: BoxGeometry, m: float = 0.0) -> GreenTable:
    """Oracle route: direct sparse solve of (m^2 - Delta) with Dirichlet rows.

    The unit right-hand sides of the interior sites (row-major, the order of
    the precision's rows) are solved 64 columns at a time, each block written
    straight into the table, which is then symmetrized block by block in place.
    """
    from scipy.sparse.linalg import splu

    lu = splu(dirichlet_precision(geom, m).tocsc())
    size = (geom.N - 1) ** 2
    table = np.zeros((size, size))
    cols = 64
    for start in range(0, size, cols):
        width = min(cols, size - start)
        rhs = np.zeros((size, width))
        rhs[start + np.arange(width), np.arange(width)] = 1.0
        table[:, start : start + width] = lu.solve(rhs)
    for a in range(0, size, cols):
        for b in range(a, size, cols):
            upper = table[a : a + cols, b : b + cols]
            lower = table[b : b + cols, a : a + cols]
            mean = 0.5 * (upper + lower.T)
            upper[...] = mean
            lower[...] = mean.T
    return GreenTable(table)


# ---------------------------------------------------------------------------
# f(m): the free-energy cost of adding mass
# ---------------------------------------------------------------------------

def f_of_m(m: float) -> float:
    """f(m) = 1/2 int_{[0,1]^2} log(1 + m^2 / (4 sin^2(pi x/2) + 4 sin^2(pi y/2))).

    Tensor 24-point Gauss panels, geometrically refined toward the origin
    (down to 2^-18, two panels per halving) where the integrand has its
    (integrable) logarithmic singularity.  Increasing in m.
    """
    if not 0.0 < m <= 1.0:
        raise DomainError(f"f(m) is defined for m in (0, 1] (got {m})")
    depth = 18
    edges = np.concatenate([[0.0], np.geomspace(2.0 ** -depth, 1.0, 2 * depth + 1)])
    nodes, weights = np.polynomial.legendre.leggauss(24)
    a, b = edges[:-1], edges[1:]
    x = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * nodes[None, :]).ravel()
    w = (0.5 * (b - a)[:, None] * weights[None, :]).ravel()
    s = np.sin(0.5 * np.pi * x) ** 2
    integrand = np.log1p(m * m / (4.0 * (s[:, None] + s[None, :])))
    return 0.5 * float(np.einsum("i,j,ij->", w, w, integrand))


def f_of_m_adaptive(m: float) -> float:
    """Same integral by scipy's adaptive 2D quadrature (oracle route)."""
    if not 0.0 < m <= 1.0:
        raise DomainError(f"f(m) is defined for m in (0, 1] (got {m})")

    def f(x, y):
        return 0.5 * np.log1p(m * m / (4.0 * (np.sin(0.5 * np.pi * x) ** 2 + np.sin(0.5 * np.pi * y) ** 2)))

    from scipy import integrate

    val, _ = integrate.dblquad(f, 0.0, 1.0, 0.0, 1.0, epsabs=1e-12, epsrel=1e-11)
    return val


# ---------------------------------------------------------------------------
# scale-time grid and covariance slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleTimeGrid:
    """Decreasing times inf = t_0 > t_1 > ... > t_{k-1} > t_k = 0.

    Interior slices of int e^{-m^2 t} P_t(0,0) dt carry unit mass; the last
    slice carries the fractional remainder G^m(0,0) - (k-1) in [1, 2) -- or
    less than 1 if the grid was built in the degenerate regime floor(G) < 1,
    where k = 1.
    """

    m: float
    k: int
    times: np.ndarray  # t_1 .. t_{k-1}, possibly empty

    def slice_bounds(self, i: int) -> tuple[float, float]:
        """(t_i, t_{i-1}) for slice i in 1..k."""
        if not 1 <= i <= self.k:
            raise DomainError(f"slice index {i} outside 1..{self.k}")
        hi = math.inf if i == 1 else float(self.times[i - 2])
        lo = 0.0 if i == self.k else float(self.times[i - 1])
        return lo, hi

    def slice_mass(self, i: int) -> float:
        lo, hi = self.slice_bounds(i)
        top = heat_diag_time_integral(lo, self.m)
        bot = 0.0 if hi is math.inf else heat_diag_time_integral(hi, self.m)
        return top - bot


def scale_time_grid(m: float, min_scales: int = 3) -> ScaleTimeGrid:
    """Solve int_{t_i}^inf e^{-m^2 t} P_t(0,0) dt = i for i = 1..k-1.

    By default requires k = floor(G^m(0,0)) >= 3 and raises MassTooLargeError
    otherwise; callers running deliberately shallow decompositions (a single
    slice is still an exact sampling of the field) may lower min_scales.
    """
    if m <= 0:
        raise DomainError("scale grid needs m > 0")
    G = heat_diag_time_integral(0.0, m)
    k_raw = int(math.floor(G))
    if k_raw < min_scales:
        raise MassTooLargeError(
            f"G^m(0,0) = {G:.4f} gives only {k_raw} unit scales at m = {m}; "
            f"need >= {min_scales} (m <= ~{math.exp(-TWO_PI * min_scales):.2e} for the default)"
        )
    from scipy import optimize

    k = max(1, k_raw)
    times = []
    hi = math.log(60.0 / (m * m))
    for i in range(1, k):
        sol = optimize.brentq(
            lambda logt, i=i: heat_diag_time_integral(math.exp(logt), m) - i,
            math.log(1e-9), hi, xtol=1e-13, rtol=8.9e-16,
        )
        times.append(math.exp(sol))
    return ScaleTimeGrid(float(m), k, np.array(times))


def slice_mode_weights(geom: BoxGeometry, grid: ScaleTimeGrid, i: int) -> np.ndarray:
    """Per-mode weights of Q*_i: int over the slice of e^{-(m^2+mu) t} dt.

    Exact in closed form per sine mode, so the slices telescope to G^{m,*}
    at machine precision.
    """
    lo, hi = grid.slice_bounds(i)
    basis = spectral_basis(geom.N)
    rate = basis.lam2d + grid.m ** 2
    top = np.exp(-rate * lo)
    bot = np.zeros_like(rate) if hi is math.inf or math.isinf(hi) else np.exp(-rate * hi)
    return (top - bot) / rate


def covariance_slice_diag(geom: BoxGeometry, grid: ScaleTimeGrid, i: int) -> np.ndarray:
    """Variance of the i-th scale field on the whole grid (0 on the boundary)."""
    return _mode_diag(geom, slice_mode_weights(geom, grid, i))


def split_mode_weights(geom: BoxGeometry, m: float, t_split: float) -> tuple[np.ndarray, np.ndarray]:
    """Mode weights of the rough/local split Q^1 (t > t_split) and Q^2 (t <= t_split)."""
    if t_split <= 0:
        raise DomainError("split time must be positive")
    basis = spectral_basis(geom.N)
    rate = basis.lam2d + m * m
    e = np.exp(-rate * t_split)
    return e / rate, (1.0 - e) / rate


def split_diag(geom: BoxGeometry, m: float, t_split: float) -> tuple[np.ndarray, np.ndarray]:
    """Variances of the rough and local fields of the split, on the whole grid."""
    rough, local = split_mode_weights(geom, m, t_split)
    return _mode_diag(geom, rough), _mode_diag(geom, local)


# ---------------------------------------------------------------------------
# sine transform helper shared with the samplers
# ---------------------------------------------------------------------------

def dst2(a: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DST-I over the last two axes (involutive)."""
    return dstn(a, type=1, norm="ortho", axes=(-2, -1))
