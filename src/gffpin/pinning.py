"""The pinning Gibbs measure and its exact heat-bath dynamics.

The interaction rewards sites whose height (after any boundary shift) lies
in the band [u-1, u+1]; the co-membrane variant instead charges sites in the
lower half-plane.  Both are instances of a density with piecewise-constant
per-site log-weights in the height, so the single-site conditional is a
mixture of truncated Gaussians and can be sampled exactly: the chain is
rejection-free and in detailed balance with the target at every sweep.  A
checkerboard schedule turns a sweep into two vectorized half-updates.

Only the conditional means change between sweeps: band edges are global and
the per-site band weights are fixed for a chain, so each chain builds one
`BandLayout` per checkerboard colour (sorted edges, relative interval
weights) together with the colour's flat site and neighbour indices.  A
half-update then evaluates the normal CDF once per site and edge and draws
two uniforms per site with one rng.random(2n) call: the first n pick the
intervals, the last n the heights inside them.  Each layout owns the
sampler's workspace (the z/Phi grid with its constant far rows, the gather
offsets, the interval masses), built on its first call and rebuilt only when
it is called at another site count; a layout, like the chain holding it, is
therefore not for concurrent use.  run_chain finds a record's charged sites
once and takes the contact total, the contact fraction and the energy from
them, with the energy weights computed once per call.

Extra bands can be stacked on the same chain (a soft wall at |phi| <= b is
how the height-restriction probability is integrated thermodynamically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import special

from .disorder import DisorderField, log_mgf
from .errors import ContractError, DomainError, UnsupportedGeometryError
from .fields import BoundaryCondition, FieldSample, harmonic_extension, zero_bc
from .lattice import BoxGeometry

_Z_FAR = 38.0  # standard-normal quantile beyond which mass is below 1e-300


@dataclass(frozen=True)
class PinningParams:
    """Model parameters: disorder strength beta, reward h, mass m, substrate
    height u; model is 'pinning' or 'copolymer' (copolymer uses rho)."""

    beta: float = 0.0
    h: float = 0.0
    m: float = 0.0
    u: float = 0.0
    model: str = "pinning"
    rho: float = 0.0
    bc: BoundaryCondition = dc_field(default_factory=zero_bc)

    def __post_init__(self):
        if self.model not in ("pinning", "copolymer"):
            raise DomainError(f"unknown model {self.model!r}")
        if self.beta < 0 or self.m < 0:
            raise DomainError("beta and m must be >= 0")
        if self.model == "copolymer" and self.rho <= 0:
            raise DomainError("copolymer needs rho > 0")


def site_weights(params: PinningParams, omega: DisorderField) -> np.ndarray:
    """Per-site log-weight s_x of a contact: beta*omega_x - lambda(beta) + h."""
    lam = log_mgf(omega.spec, params.beta)[0]
    return params.beta * omega.values - lam + params.h


def contact_indicators(values: np.ndarray, u: float) -> np.ndarray:
    return np.abs(values - u) <= 1.0


def sign_indicators(values: np.ndarray) -> np.ndarray:
    """Delta_x = 1 iff phi_x < 0 (sign(0) counts as +1)."""
    return values < 0.0


def _interaction_mask(geom: BoxGeometry, interaction: str) -> np.ndarray:
    if interaction == "tilde":
        return geom.tilde_mask
    if interaction == "interior":
        return geom.interior_mask
    raise DomainError(f"unknown interaction range {interaction!r}")


def _indicators(values: np.ndarray, params: PinningParams) -> np.ndarray:
    """Sites the model's interaction charges: contacts, or the lower half-plane."""
    if params.model == "pinning":
        return contact_indicators(values, params.u)
    return sign_indicators(values)


def _charges(params: PinningParams, omega: DisorderField) -> tuple[np.ndarray, float]:
    """(w, c) with interaction energy c * (sum of w over the charged sites)."""
    if params.model == "pinning":
        return site_weights(params, omega), 1.0
    return omega.values + params.h, -2.0 * params.rho


def energy(sample: FieldSample, omega: DisorderField, params: PinningParams) -> float:
    """Interaction part of the Hamiltonian on the range {1..N}^2.

    The Gaussian part lives in the sampler/MCMC; this is the exponent of the
    density against the free measure.
    """
    mask = sample.geom.tilde_mask
    w, c = _charges(params, omega)
    return c * float(np.sum(w[mask & _indicators(sample.values, params)]))


# ---------------------------------------------------------------------------
# exact sampling of piecewise-reweighted Gaussian conditionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Band:
    """Height band [lo, hi] carrying per-site log-weight (grid or scalar)."""

    lo: float
    hi: float
    logw: np.ndarray | float


@dataclass
class _Workspace:
    """Buffers of one sampler call at a fixed site count n.

    grid holds z, Phi(z) and Phi(-z) (planes) at -far, every edge and +far
    (rows) for each site (columns); its two far rows never change.  offsets
    are the flat positions of (za, zb, Phi(za), Phi(zb), Phi(-za), Phi(-zb))
    within interval 0, so interval j sits j * n further on.
    """

    n: int
    grid: np.ndarray
    flat: np.ndarray
    offsets: np.ndarray
    index: np.ndarray
    ends: np.ndarray
    mass: np.ndarray
    mirrored: np.ndarray
    pick: np.ndarray
    flip: np.ndarray


def _workspace(k: int, n: int) -> _Workspace:
    grid = np.empty((3, k, n))
    grid[:, 0] = _FAR_LO
    grid[:, -1] = _FAR_HI
    planes = n * np.array([[0], [1], [k], [k + 1], [2 * k], [2 * k + 1]])
    offsets = planes + np.arange(n)
    return _Workspace(n, grid, grid.reshape(-1), offsets, np.empty_like(offsets),
                      np.empty((6, n)), np.empty((k - 1, n)), np.empty((k - 1, n)),
                      np.empty(n, dtype=offsets.dtype), np.empty(n, dtype=bool))


@dataclass
class BandLayout:
    """Interval layout of a band list, fixed for the life of a chain.

    The finite band edges (a column, sorted) split the real line into
    len(edges) + 1 intervals; weights[j, i] = exp(logw - max over j) is the
    relative weight of interval j at site i (one column serves every site
    when all bands are scalar).  The layout also owns the sampler's buffers,
    rebuilt whenever it is called at another site count, so one layout must
    not be shared between threads.
    """

    edges: np.ndarray
    weights: np.ndarray
    workspace: _Workspace | None = dc_field(default=None, repr=False, compare=False)


def band_layout(bands: list[tuple[float, float, np.ndarray | float]]) -> BandLayout:
    """Layout of (lo, hi, logw) bands, logw per site (1-D) or scalar."""
    edges = sorted({e for lo, hi, _ in bands for e in (lo, hi) if math.isfinite(e)})
    lows = [-math.inf] + edges
    highs = edges + [math.inf]
    n_sites = max([np.size(w) for _, _, w in bands if np.ndim(w)], default=1)
    logw = np.zeros((len(lows), n_sites))
    for lo, hi, w in bands:
        cover = np.array([(lo <= a) and (b <= hi) for a, b in zip(lows, highs)])
        if np.any(cover):
            logw[cover] += w
    logw -= logw.max(axis=0)
    return BandLayout(np.array(edges, dtype=float)[:, None], np.exp(logw))


# (z, Phi(z), Phi(-z)) at the two far ends of every site's z-grid
_FAR_LO = np.array([[-_Z_FAR], [special.ndtr(-_Z_FAR)], [special.ndtr(_Z_FAR)]])
_FAR_HI = np.array([[_Z_FAR], [special.ndtr(_Z_FAR)], [special.ndtr(-_Z_FAR)]])


def sample_banded_conditional(rng: np.random.Generator, mu: np.ndarray, sigma: float,
                              bands: BandLayout) -> np.ndarray:
    """Exact draw from N(mu, sigma^2) reweighted by the layout's band weights.

    Phi(z) and its mirror Phi(-z) are evaluated once per site and edge; their
    differences give each interval's mass stably in both tails, and the same
    values invert the CDF inside the chosen interval, through the mirrored
    tail when that one is better conditioned.  Consumes rng.random(2n): the
    first n uniforms pick the interval, the last n the position inside it.
    Works in the layout's workspace and returns a new array.
    """
    n = mu.shape[0]
    ws = bands.workspace
    if ws is None or ws.n != n:
        ws = bands.workspace = _workspace(bands.edges.shape[0] + 2, n)
    z, p, q = ws.grid
    ze = z[1:-1]
    np.subtract(bands.edges, mu, out=ze)
    ze /= sigma
    np.maximum(ze, -_Z_FAR, out=ze)
    np.minimum(ze, _Z_FAR, out=ze)
    special.ndtr(ze, out=p[1:-1])
    special.ndtr(np.negative(ze, out=q[1:-1]), out=q[1:-1])
    cum = ws.mass
    np.subtract(p[1:], p[:-1], out=cum)
    np.maximum(cum, np.subtract(q[:-1], q[1:], out=ws.mirrored), out=cum)
    cum *= bands.weights
    np.add.accumulate(cum, axis=0, out=cum)
    draws = rng.random(2 * n)
    u, t = draws[:n], draws[n:]
    u *= np.maximum(cum[-1], 1e-300)
    # the interval is the number of running sums below u; u is below the last one, the total
    pick = ws.pick
    pick.fill(0)
    for row in cum[:-1]:
        pick += np.less(row, u, out=ws.flip)
    pick *= n
    za, zb, pa, pb, qa, qb = ends = ws.ends
    np.take(ws.flat, np.add(ws.offsets, pick, out=ws.index), out=ends, mode="clip")
    flip = np.greater(za, np.negative(zb, out=u), out=ws.flip)
    np.copyto(pa, qb, where=flip)  # the lower end of the inverted CDF
    np.copyto(pb, qa, where=flip)  # and its upper end
    pb -= pa
    pb *= t
    pb += pa
    np.maximum(pb, 1e-320, out=pb)
    v = special.ndtri(np.minimum(pb, 1.0 - 1e-16, out=pb))
    np.negative(v, out=v, where=flip)
    np.maximum(v, za, out=v)
    np.minimum(v, zb, out=v)
    v *= sigma
    v += mu
    return v


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@dataclass
class GibbsChain:
    """MCMC state: the current field (boundary pinned), parameters, disorder.

    Interior sites are refreshed exactly from their single-site conditionals,
    Normal(sum of neighbours / (4 + m^2), 1 / (4 + m^2)) reweighted by the
    model's bands, in a checkerboard schedule; the boundary never changes.
    """

    geom: BoxGeometry
    params: PinningParams
    omega: DisorderField
    field: np.ndarray
    rng: np.random.Generator
    extra_bands: tuple[Band, ...] = ()
    coupling: float = 1.0

    def __post_init__(self):
        self._sigma = 1.0 / math.sqrt(4.0 + self.params.m ** 2)
        if self.params.model == "pinning":
            band = Band(self.params.u - 1.0, self.params.u + 1.0,
                        self.coupling * site_weights(self.params, self.omega))
        else:
            band = Band(-math.inf, 0.0,
                        -2.0 * self.coupling * self.params.rho * (self.omega.values + self.params.h))
        bands = (band,) + tuple(self.extra_bands)
        self.field = np.ascontiguousarray(self.field, dtype=float)
        side = self.geom.side
        x1, x2 = self.geom.coords
        inter = self.geom.interior_mask
        self._colours = []
        for c in (0, 1):
            mask = inter & ((x1 + x2) % 2 == c)
            sites = np.flatnonzero(mask)
            nbrs = sites + np.array([[-side], [side], [-1], [1]])
            layout = band_layout(
                [(b.lo, b.hi, np.asarray(b.logw)[mask] if np.ndim(b.logw) else float(b.logw))
                 for b in bands])
            self._colours.append((sites, nbrs, layout))


def make_chain(geom: BoxGeometry, params: PinningParams, omega: DisorderField,
               rng: np.random.Generator) -> GibbsChain:
    """Fresh chain started from the harmonic extension of the boundary data."""
    ext = harmonic_extension(geom, params.m, params.bc)
    return GibbsChain(geom, params, omega, ext.values.copy(), rng)


def heat_bath_sweep(chain: GibbsChain, n_sweeps: int = 1) -> GibbsChain:
    """n_sweeps full checkerboard sweeps, each refreshing every interior site."""
    flat = chain.field.reshape(-1, copy=False)
    denom = 4.0 + chain.params.m ** 2
    for _ in range(n_sweeps):
        for sites, nbrs, layout in chain._colours:
            mu = flat[nbrs].sum(axis=0)
            mu /= denom
            flat[sites] = sample_banded_conditional(chain.rng, mu, chain._sigma, layout)
    return chain


@dataclass
class ChainRecord:
    """Thinned observable stream from one chain run."""

    contacts_window: np.ndarray
    contact_fraction: np.ndarray
    energy: np.ndarray
    extra: dict
    iact: float

    def mean_se(self, series: np.ndarray) -> tuple[float, float]:
        n = len(series)
        mean = float(series.mean())
        if n < 4:
            return mean, float("inf")
        var = float(series.var(ddof=1))
        return mean, math.sqrt(var * max(self.iact, 1.0) / n)


def integrated_autocorrelation(series: np.ndarray) -> float:
    """Initial-positive-sequence IACT estimate (in units of recorded samples),
    summed over lags below n/4."""
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n < 8 or np.allclose(x, x[0]):
        return 1.0
    x = x - x.mean()
    acov = np.correlate(x, x, mode="full")[n - 1 :] / n
    if acov[0] <= 0:
        return 1.0
    rho = acov / acov[0]
    tau = 1.0
    for t in range(1, n // 4):
        if rho[t] <= 0:
            break
        tau += 2.0 * rho[t]
    return float(tau)


def run_chain(geom: BoxGeometry, params: PinningParams, omega: DisorderField,
              rng: np.random.Generator, sweeps: int, burn_in: int = 0, thinning: int = 1,
              chain: GibbsChain | None = None, interaction: str = "tilde",
              observables: dict | None = None) -> ChainRecord:
    """Run (or continue) a chain; record observables every `thinning` sweeps.

    Deterministic given the generator state.  The contact total is counted
    on the interaction range; `observables` maps names to callables
    field -> float for extra per-record statistics.  A chain passed in must
    run at `params` and `omega`; it holds the final field afterwards.  Each
    record finds the charged sites once and takes the contact total, the
    contact fraction and the interaction energy from them.
    """
    if burn_in < 0:
        raise DomainError("burn-in must be >= 0")
    if sweeps < 1 or thinning < 1:
        raise DomainError(f"sweeps and thinning must be >= 1 (got {sweeps}, {thinning})")
    if sweeps % thinning:
        raise DomainError(f"sweeps ({sweeps}) must be a multiple of thinning ({thinning})")
    if chain is None:
        chain = make_chain(geom, params, omega, rng)
    mask = _interaction_mask(geom, interaction)
    n_tilde = int(mask.sum())
    weights, scale = _charges(params, omega)
    if burn_in:
        heat_bath_sweep(chain, burn_in)
    n_rec = sweeps // thinning
    L, frac, en = np.empty(n_rec), np.empty(n_rec), np.empty(n_rec)
    extra = {name: [] for name in (observables or {})}
    for i in range(n_rec):
        heat_bath_sweep(chain, thinning)
        delta = _indicators(chain.field, params)
        charged = delta & mask
        count = np.count_nonzero(charged)
        L[i] = count
        frac[i] = count / n_tilde
        en[i] = scale * float(np.sum(weights[charged]))
        for name, fn in (observables or {}).items():
            extra[name].append(fn(chain.field))
    return ChainRecord(
        contacts_window=L,
        contact_fraction=frac,
        energy=en,
        extra={k: np.array(v) for k, v in extra.items()},
        iact=integrated_autocorrelation(L),
    )


# ---------------------------------------------------------------------------
# exact small-system partition function
# ---------------------------------------------------------------------------

def _gauss_band_integral(mu: float, var: float, s: float, u: float) -> float:
    """E[e^{s 1_band}(phi)] for phi ~ N(mu, var): 32-point Gauss on 80 panels per piece."""
    sd = math.sqrt(var)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    lo, hi = mu - 40 * sd, mu + 40 * sd
    cuts = sorted({lo, u - 1.0, u + 1.0, hi})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        edges = np.linspace(a, b, 81)
        p, q = edges[:-1], edges[1:]
        t = 0.5 * (p + q)[:, None] + 0.5 * (q - p)[:, None] * nodes[None, :]
        w = 0.5 * (q - p)[:, None] * weights[None, :]
        dens = np.exp(-0.5 * ((t - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        bump = np.where(np.abs(t - u) <= 1.0, math.exp(s), 1.0)
        total += float(np.sum(w * dens * bump))
    return total


def exact_partition_small(geom: BoxGeometry, params: PinningParams,
                          omega: DisorderField) -> float:
    """log Z by direct quadrature; ground truth for one interior site (N = 2).

    The interaction acts on the interior site alone, the range the
    integration ladders count.  A square box has one interior site at N = 2
    and at least four beyond, so N = 2 is the only box this supports.
    """
    if geom.N != 2:
        raise UnsupportedGeometryError(
            f"exact partition supports only the one-site box N = 2 "
            f"(N={geom.N} has {(geom.N - 1) ** 2} interior sites)")
    if params.model != "pinning":
        raise UnsupportedGeometryError("exact small partition implemented for the pinning model")
    bgrid = params.bc.grid(geom)
    mu = float(bgrid[0, 1] + bgrid[2, 1] + bgrid[1, 0] + bgrid[1, 2]) / (4.0 + params.m ** 2)
    var = 1.0 / (4.0 + params.m ** 2)
    s_grid = site_weights(params, omega)
    return math.log(_gauss_band_integral(mu, var, float(s_grid[1, 1]), params.u))


# ---------------------------------------------------------------------------
# restricted contacts
# ---------------------------------------------------------------------------

def restricted_contacts(sample: FieldSample, u: float,
                        window_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the contacts in the window, and of those among them whose scale
    trajectory stays below the line u*i/k + 10 at every scale; their sums are
    the contact totals L and L'."""
    if sample.stack is None:
        raise ContractError("restricted contacts need a field carrying its scale stack")
    delta = contact_indicators(sample.values, u) & window_mask
    partials = sample.stack.partials()
    k = sample.stack.k
    below = np.ones_like(delta)
    for i in range(1, k + 1):
        below &= partials[i - 1] <= u * i / k + 10.0
    return delta, delta & below
