"""Exact sampling of the free field and its relatives.

Zero-boundary (Dirichlet) and massive fields are drawn exactly in the sine
eigenbasis; boundary data for the infinite-volume massive field comes from a
dense Cholesky of the translation-invariant Green covariance, memoized per box
size and mass.  Boundary data enters only through its (massive-)harmonic
extension H, solved in the same sine basis (two transforms and one division
per mode, no sparse factorisation), by the boundary-shift identity
P^{m,bc}[phi in .] = P^m[phi + H in .]: the samplers here draw zero-boundary
fields, and code that needs boundary data adds H.values itself (the chains
start from H, the coupling leg takes it as the free field's mean).  The
multiscale stack cuts the field into independent layers whose covariances
are the time slices of the heat kernel, and the Gaussian bridge utility
prices the cost of staying below a barrier.

The batched samplers work in a working set of _BLOCK float64 values
(0.5 MB), drawn with `rng.standard_normal(out=...)` straight into a reused
buffer.  Dirichlet interiors are drawn a block of whole samples at a time and
scaled and transformed in place; Philox fills row-major and each sample is
transformed on its own, so their outputs do not depend on the block size.
With more than one block, a call makes one worker thread that transforms
block i while the calling thread draws block i + 1 (both release the GIL),
and transforms the last block itself, so a one-block call starts no thread.
Only the calling thread touches the generator, so the output and the
generator's final state are bit for bit those of the serial loop; the worker
ends with the call (no pool is left for forked replica workers to inherit),
and the call's process CPU time can exceed its wall time.  A scale stack
draws each layer into one reused buffer and transforms it in place, with no
worker: overlapping its few large layers measured slower.  Bridges run
_BLOCK walks at a time, one step of every live walk per draw, so which
normal goes to which walk, and so every bridge output, depends on _BLOCK.
Their second route is a deterministic transfer operator on a grid.  A scale
stack takes each slice's per-mode standard deviations and the scale index
j(x) from a small cache of read-only tables, computed once per box size and
scale-time grid; its barrier margin is one masked maximum per scale.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft

from . import kernels
from .errors import DomainError, NumericError
from .lattice import BoxGeometry, scale_index

_BLOCK = 1 << 16  # float64 values per block of the batched samplers (walks, for bridges)


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary data on the 4N frame sites (row-major site order); values None
    is the zero boundary."""

    values: np.ndarray | None = None
    jitter: float = 0.0

    def grid(self, geom: BoxGeometry) -> np.ndarray:
        """Boundary values placed on the (N+1, N+1) grid, zero inside."""
        out = np.zeros((geom.side, geom.side))
        mask = geom.boundary_mask
        if self.values is None:
            return out
        if self.values.shape != (int(mask.sum()),):
            raise DomainError("explicit boundary condition needs one value per boundary site")
        out[mask] = self.values
        return out

    def max_abs(self) -> float:
        if self.values is None:
            return 0.0
        return float(np.max(np.abs(self.values)))


def explicit_bc(values: np.ndarray) -> BoundaryCondition:
    return BoundaryCondition(np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# field samples
# ---------------------------------------------------------------------------

@dataclass
class ScaleStack:
    """Independent layers xi_1..xi_k with partial sums phi_i = xi_1 + ... + xi_i."""

    grid: kernels.ScaleTimeGrid
    jmap: np.ndarray  # j(x), (N+1, N+1)
    xi: np.ndarray  # (k, N+1, N+1)

    @property
    def k(self) -> int:
        return self.grid.k


@dataclass
class FieldSample:
    """One realization of the zero-boundary field: values holds the full grid
    including boundary sites, and the stack sums exactly to values."""

    values: np.ndarray
    stack: ScaleStack


def sample_dirichlet_interior(geom: BoxGeometry, m: float, n: int,
                              rng: np.random.Generator) -> np.ndarray:
    """n independent interior samples, shape (n, N-1, N-1).

    Each block of samples is drawn into its slice of the output, then scaled
    and sine-transformed there in place.  With more than one block, one
    worker thread transforms block i while this thread draws block i + 1;
    this thread transforms the last block, so a one-block call starts no
    thread.  An error in the worker is raised from the call, and the worker
    has ended by the time the call returns or raises.
    """
    basis = kernels.spectral_basis(geom.N)
    scale = 1.0 / np.sqrt(basis.lam2d + m * m)
    out = np.empty((n,) + scale.shape)
    rows = max(1, _BLOCK // scale.size)
    blocks = [out[start : start + rows] for start in range(0, n, rows)]
    with ThreadPoolExecutor(max_workers=1) if len(blocks) > 1 else nullcontext() as worker:
        pending = None
        for k, block in enumerate(blocks, start=1):
            rng.standard_normal(out=block)
            if pending is not None:
                pending.result()
            if k < len(blocks):
                pending = worker.submit(_scaled_dst2, block, scale)
            else:
                _scaled_dst2(block, scale)
    return out


def _scaled_dst2(block: np.ndarray, scale: np.ndarray) -> None:
    """Scale a block of standard normals per mode and sine-transform it, in place."""
    block *= scale
    kernels.dst2(block)


# ---------------------------------------------------------------------------
# harmonic extension
# ---------------------------------------------------------------------------

@dataclass
class HarmonicExtension:
    """Solution of Delta H = m^2 H inside with H = bc on the frame."""

    values: np.ndarray
    residual: float


def _laplacian(grid: np.ndarray) -> np.ndarray:
    """Delta applied at interior sites (shape (N-1, N-1))."""
    return (grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
            - 4.0 * grid[1:-1, 1:-1])


def harmonic_extension(geom: BoxGeometry, m: float, bc: BoundaryCondition) -> HarmonicExtension:
    """(m^2 - Delta) H = 0 inside with H = bc on the frame, solved in the sine basis.

    The frame values next to the interior form the right-hand side b of
    (m^2 - Delta_D) H = b on the interior, which the sine basis diagonalises:
    H = dst2(dst2(b) / (lam2d + m^2)).  The solution must satisfy the equation
    to 1e-10 at every interior site.
    """
    if m < 0:
        raise DomainError(f"mass must be >= 0 (got {m})")
    if bc.values is None:
        return HarmonicExtension(np.zeros((geom.side, geom.side)), 0.0)
    bgrid = bc.grid(geom)
    n = geom.N
    rhs = np.zeros((n - 1, n - 1))
    rhs[0, :] += bgrid[0, 1:-1]
    rhs[-1, :] += bgrid[n, 1:-1]
    rhs[:, 0] += bgrid[1:-1, 0]
    rhs[:, -1] += bgrid[1:-1, n]
    H = bgrid.copy()
    H[1:-1, 1:-1] = kernels.dst2(kernels.dst2(rhs) / (kernels.spectral_basis(n).lam2d + m * m))
    resid = float(np.max(np.abs(_laplacian(H) - m * m * H[1:-1, 1:-1])))
    if not np.isfinite(resid) or resid > 1e-10:
        raise NumericError(f"harmonic extension residual {resid:.3e} above 1e-10")
    return HarmonicExtension(H, resid)


def harmonic_extension_mc(geom: BoxGeometry, m: float, bc: BoundaryCondition, sites,
                          n_walks: int, rng: np.random.Generator) -> dict:
    """Random-walk representation E_x[e^{-m^2 tau} bc(X_tau)], as an MC spot check.

    Uses the embedded jump chain: each jump contributes a discount factor
    4/(4+m^2), the expectation of e^{-m^2 E} over the Exp(4) holding time.
    Returns per-site mean and standard error.
    """
    bgrid = bc.grid(geom)
    disc = 4.0 / (4.0 + m * m)
    n = geom.N
    steps = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
    means, ses = [], []
    max_steps = 2000 * n * n
    for (sx1, sx2) in sites:
        pos = np.tile([[sx1, sx2]], (n_walks, 1))
        weight = np.ones(n_walks)
        value = np.zeros(n_walks)
        active = np.ones(n_walks, dtype=bool)
        for _ in range(max_steps):
            if not active.any():
                break
            idx = rng.integers(0, 4, size=int(active.sum()))
            pos[active] += steps[idx]
            weight[active] *= disc
            p = pos[active]
            hit = (p[:, 0] == 0) | (p[:, 0] == n) | (p[:, 1] == 0) | (p[:, 1] == n)
            if hit.any():
                act_idx = np.flatnonzero(active)[hit]
                value[act_idx] = weight[act_idx] * bgrid[pos[act_idx, 0], pos[act_idx, 1]]
                active[act_idx] = False
        if active.any():
            raise NumericError("random walks failed to reach the boundary within the step cap")
        means.append(float(value.mean()))
        ses.append(float(value.std(ddof=1) / math.sqrt(n_walks)))
    return {"sites": list(sites), "mean": np.array(means), "se": np.array(ses)}


# ---------------------------------------------------------------------------
# boundary sampling for the infinite-volume massive field
# ---------------------------------------------------------------------------

def sample_boundary_infinite_massive(cov: np.ndarray, rng: np.random.Generator) -> BoundaryCondition:
    """Joint draw of the 4N frame values under the infinite-volume massive law.

    cov is boundary_covariance(geom, m), which refuses m <= 0: the covariance
    G^m(x - y) between frame sites.  Dense Cholesky, with a tiny diagonal
    jitter added (and recorded) if the factorization needs it.  Combined with
    a zero-boundary sample plus the harmonic shift, this reproduces the
    infinite-volume field on the whole box.
    """
    jitter = 0.0
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.trace(cov)) / cov.shape[0]
        chol = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
    values = chol @ rng.standard_normal(cov.shape[0])
    return BoundaryCondition(values, jitter=jitter)


def boundary_covariance(geom: BoxGeometry, m: float) -> np.ndarray:
    """Covariance of the frame sites under the infinite-volume law; read-only, memoized."""
    return _boundary_covariance(geom, m)


@lru_cache(maxsize=16)  # behind boundary_covariance, a plain function tracers can wrap
def _boundary_covariance(geom: BoxGeometry, m: float) -> np.ndarray:
    table = kernels.green_offset_table(m, geom.N)
    x1, x2 = (c[geom.boundary_mask] for c in geom.coords)  # row-major, as the frame values
    cov = table[np.abs(x1[:, None] - x1[None, :]), np.abs(x2[:, None] - x2[None, :])]
    cov.flags.writeable = False
    return cov


# ---------------------------------------------------------------------------
# multiscale stack
# ---------------------------------------------------------------------------

def sample_scale_stack(geom: BoxGeometry, m: float, rng: np.random.Generator,
                       grid: kernels.ScaleTimeGrid) -> FieldSample:
    """Zero-boundary sample built as a sum of independent scale layers.

    Layer i has covariance Q*_i (the i-th heat-kernel time slice of `grid`),
    sampled per sine mode; the sum is distributed exactly as the massive
    field, so the stack is a coupling of the field with its own
    decomposition.  The grid must be built for the mass m.
    """
    if grid.m != m:
        raise DomainError(f"scale-time grid built for m = {grid.m}, sample asked at m = {m}")
    sd, jmap = _stack_tables(geom, grid)
    xi = np.zeros((grid.k, geom.side, geom.side))
    z = np.empty(sd.shape[1:])
    for i, layer_sd in enumerate(sd):
        rng.standard_normal(out=z)
        z *= layer_sd
        xi[i, 1:-1, 1:-1] = kernels.dst2(z)
    return FieldSample(xi.sum(axis=0), ScaleStack(grid, jmap, xi))


@lru_cache(maxsize=16)
def _stack_tables(geom: BoxGeometry,
                  grid: kernels.ScaleTimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode standard deviations of slices 1..k, shape (k, N-1, N-1), and j(x).

    Both depend only on the box size and the grid, so they are computed once
    and shared, read-only, by every stack drawn with them.
    """
    sd = np.sqrt([kernels.slice_mode_weights(geom, grid, i) for i in range(1, grid.k + 1)])
    jmap = scale_index(geom, grid.k)
    sd.flags.writeable = jmap.flags.writeable = False
    return sd, jmap


def stack_barrier_margin(stack: ScaleStack, mask: np.ndarray, slope: float) -> float:
    """max over masked sites and scales i >= j(x) of phi_i(x) - slope*(i - j(x)).

    The extremal event A_N(threshold) is {margin <= threshold}; computing the
    margin once makes the event's monotonicity in the threshold exact
    sample-by-sample.  phi_i is a running sum, one add per scale; each scale
    fills one buffer with its margin, puts -inf off the selection (the mask
    alone at i = k, as j <= k) and takes one maximum, -inf if none is left.
    """
    j = stack.jmap
    worst = -np.inf
    running = None
    for i, layer in enumerate(stack.xi, start=1):
        running = layer if running is None else running + layer
        margin = np.subtract(i, j, dtype=float)
        margin *= slope
        np.subtract(running, margin, out=margin)
        np.putmask(margin, ~mask if i == stack.k else ~mask | (j > i), -np.inf)
        worst = max(worst, float(margin.max()))
    return worst


# ---------------------------------------------------------------------------
# Gaussian bridges
# ---------------------------------------------------------------------------

def _bridge_variances(variances, x: float) -> np.ndarray:
    """The step variances as an array, after the checks both bridge routes share."""
    v = np.asarray(variances, dtype=float)
    k = len(v)
    if k < 1:
        raise DomainError("need at least one step")
    if np.any(v <= 0) or np.any(v > 2.0 + 1e-12):
        raise DomainError("step variances must lie in (0, 2]")
    total = float(np.sum(v))
    if total < k / 2.0 - 1e-12:
        raise DomainError(f"total variance {total:.3f} below k/2 = {k / 2:.1f}")
    if x < 0:
        raise DomainError("barrier must be >= 0")
    return v


def bridge_positivity_transfer(variances, x: float) -> float:
    """P[max_{i<k} X_i <= x | X_k = 0] for a Gaussian walk, by a transfer operator.

    The deterministic second route to bridge_positivity_probability.  The
    killed density of X_i (unconditioned, X_i <= x for every step so far) is
    kept on a grid that ends exactly at x and reaches 6 sqrt(V_k) below 0,
    where the bridge has no mass left to lose; each step is one FFT
    convolution with the step's Gaussian density, the trapezoid rule in the
    source variable.  The last step, to 0, kills nothing, and dividing its
    density at 0 by the N(0, V_k) density there conditions on X_k = 0.  The
    grid step is 0.01 or a twentieth of the smallest step deviation, if less.
    """
    v = _bridge_variances(variances, x)
    k = len(v)
    if k == 1:
        return 1.0
    total = float(np.sum(v))
    h = min(0.01, math.sqrt(float(v.min())) / 20.0)
    y = x - h * np.arange(math.ceil((x + 6.0 * math.sqrt(total)) / h), -1, -1)
    w = np.full(len(y), h)
    w[0] = w[-1] = 0.5 * h
    reach = math.ceil(10.0 * math.sqrt(float(v.max())) / h)  # kernel half-width, in grid steps
    size = fft.next_fast_len(len(y) + 2 * reach)
    offsets = h * np.arange(-reach, reach + 1)

    def gauss(d, var):
        return np.exp(-0.5 * d * d / var) / math.sqrt(2.0 * math.pi * var)

    density = gauss(y, v[0])
    for var in v[1:-1]:
        full = fft.irfft(fft.rfft(w * density, size) * fft.rfft(gauss(offsets, var), size), size)
        density = full[reach : reach + len(y)]
    return float(np.sum(w * density * gauss(y, v[-1])) / gauss(0.0, total))


def bridge_positivity_probability(variances, x: float, n_samples: int,
                                  rng: np.random.Generator) -> tuple[float, float]:
    """MC estimate of P[max_i X_i <= x | X_k = 0] for a Gaussian walk.

    Each bridge is drawn step by step from its exact conditional law: with
    T_i = V_k - V_i the variance still to come, B_0 = 0 and
    B_i | B_{i-1} ~ N(B_{i-1} T_i / T_{i-1}, v_i T_i / T_{i-1}) for
    i < k, and B_k = 0 <= x needs no draw.  Walks run _BLOCK at a time;
    each step draws normals only for the walks still below x, then drops
    those that crossed it, so a walk stops at its first passage.  Returns
    (estimate, standard error).
    """
    v = _bridge_variances(variances, x)
    if n_samples < 1:
        raise DomainError(f"need at least one sample (got n_samples = {n_samples})")
    tail = np.cumsum(v[::-1])[::-1]  # T_{i-1} = v_i + ... + v_k at index i - 1
    shrink = tail[1:] / tail[:-1]  # T_i / T_{i-1}, i = 1 .. k-1
    sd = np.sqrt(v[:-1] * shrink)
    walks = np.empty(min(_BLOCK, n_samples))
    noise = np.empty_like(walks)
    hits = 0
    for start in range(0, n_samples, _BLOCK):
        alive = walks[: min(_BLOCK, n_samples - start)]
        alive[:] = 0.0
        for a, s in zip(shrink, sd):
            z = noise[: len(alive)]
            rng.standard_normal(out=z)
            alive *= a
            z *= s
            alive += z
            below = alive <= x
            n = int(np.count_nonzero(below))
            if n < len(alive):
                alive[:n] = alive[below]
                alive = alive[:n]
                if n == 0:
                    break
        hits += len(alive)
    p = hits / n_samples
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n_samples) / n_samples)
    return p, se
