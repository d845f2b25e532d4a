"""The pinning Gibbs measure and its heat-bath, independence and reflection dynamics.

The interaction rewards sites whose height (after any boundary shift) lies
in the band [u-1, u+1]; the co-membrane variant instead charges sites in the
lower half-plane, and _interaction alone tells the two apart.  Both are
instances of a density with piecewise-constant per-site log-weights in the
height, so the single-site conditional is a mixture of truncated Gaussians,
N(mu, sigma^2) reweighted by w.  A checkerboard schedule turns a sweep into
two vectorized half-updates.
run_chain's sweeps run in cycles of one independence sweep followed by
k = max(1, N // 4) reflection sweeps on a box of side N, the phase within
the cycle kept on the chain.  Both are Metropolis-Hastings steps with an
exact acceptance ratio: each proposes a y whose proposal law cancels against
the conditional's Gaussian factor and keeps it with probability
min(1, w(y) / w(x)), so either leaves the conditional, and with it the
target, invariant.  An independence half-update (Tierney 1994) proposes a
fresh y = mu + sigma z from the unweighted N(mu, sigma^2); at the
laboratory's parameters it keeps about 95 % of its proposals.  A reflection
half-update (Creutz's Metropolised overrelaxation) proposes y = 2 mu - x: the
map is its own inverse, has unit Jacobian and preserves N(mu, sigma^2).  The
reflections suppress the random walk of the slow modes (Adler 1981); the
independence sweeps keep the chain ergodic.  The best number of reflections
per refresh grows with the correlation length (Wolff 1992), about N here.
In a small box the conditional means barely move between sweeps, so two
reflections nearly cancel: boxes with N <= 7 keep one reflection per
independence sweep.  heat_bath_sweep, the exact reference route that no
run_chain sweep takes, draws every site of a colour exactly from its
conditional (sample_banded_conditional, plain numpy on the layout's edges
and weights, at about four times an independence half-update's cost).

Only the conditional means change between sweeps: band edges are global and
the per-site band weights are fixed for a chain.  Each checkerboard colour
has one table of flat indices, its sites' four neighbours and the sites
themselves, built once per box size and shared by every chain of that size,
and each chain keeps one `BandLayout` per colour, built at the colour's site
count (set by the per-site weights of the model's band; scalar bands are
broadcast over the sites).  The layout holds everything the colour's
Metropolis half-updates work in: edges and weights, the Metropolis step's
flat lookups, its buffers and their views, and the gather buffer; a call at
another site count is refused.  Since a half-update touches only a few
hundred sites, its cost is the number of numpy calls it makes, so each
Metropolis call works in place in these buffers, through ndarray methods
rather than the np.* wrappers, with 0-d array scalar operands, and a
masked copy is a putmask.  Every half-update, the heat-bath one included,
takes the neighbours' and the sites' heights with one take into rows 0-4 of
the layout's (6, n) gather buffer, whose rows 4 and 5 are its (x, y) pair,
sums the neighbours' (np.add.reduce) and writes its draws back by index
assignment, flat[sites] = draws (half the cost of put at N = 32).  A sweep
of run_chain's cycle makes one Metropolis half-update per colour
(_half_update), which writes its proposal into row 5: mu + sigma z from one
rng.standard_normal call, or the reflection 2 mu - x, taken from the
neighbour sum s as s / ((4 + m^2) / 2) - x, which is (mu + mu) - x bit for
bit without forming mu.  It then finds both points' intervals by counting
the edges strictly below each point of the pair (one comparison with the
column of edges and one np.add.reduce over it, in place of a binary search
whose data-dependent branches mispredict) and their weights with one take,
draws one uniform per site with one rng.random call and copies the
accepted sites from row 5 into row 4, which it writes back: 13 numpy calls
from the gather to the write-back for a reflection, 15 for an independence
update, and no Python call but its own.  Such a sweep takes the flat view
of the field once.  A layout, like its chain, is not for concurrent use.

run_chain gathers each record's interaction-range heights, through indices
found once per call, into a row of a block of at most _RECORD_BLOCK records
and _BLOCK_VALUES heights.
Once a block is full (or the run ends) it finds the charged sites of all its
rows in one vector pass, counts them and divides by the range's size; each
row's energy is its own sum of the charged sites' weights, so every series
is what one record at a time would give, bit for bit.  Extra observables are
evaluated per record, on the live field.

Extra bands can be stacked on the same chain (a soft wall at |phi| <= b is
how the height-restriction probability is integrated thermodynamically).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import special

from . import kernels
from .disorder import DisorderField, log_mgf
from .errors import DomainError
from .fields import BoundaryCondition, FieldSample, harmonic_extension
from .lattice import BoxGeometry

_Z_FAR = 38.0  # standard-normal quantile beyond which mass is below 1e-300
# run_chain scores at most _RECORD_BLOCK records at once, and at most _BLOCK_VALUES heights (128
# KiB): a larger block's vector pass costs more per record than it saves, its temporaries no
# longer fitting the cache
_RECORD_BLOCK, _BLOCK_VALUES = 64, 16384


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
    bc: BoundaryCondition = dc_field(default_factory=BoundaryCondition)

    def __post_init__(self):
        if self.model not in ("pinning", "copolymer"):
            raise DomainError(f"unknown model {self.model!r}")
        if self.beta < 0 or self.m < 0:
            raise DomainError("beta and m must be >= 0")
        if self.model == "copolymer" and self.rho <= 0:
            raise DomainError("copolymer needs rho > 0")


def contact_indicators(values: np.ndarray, u: float) -> np.ndarray:
    return np.abs(values - u) <= 1.0


def _interaction(params: PinningParams, omega: DisorderField) -> tuple:
    """(lo, hi, w, scale, charged) of the model's interaction: its energy is
    scale * (sum of w over the sites that charged(heights) marks), all of them
    with heights in [lo, hi].  Pinning: contacts |phi_x - u| <= 1, each charged
    beta*omega_x - lambda(beta) + h.  Co-membrane: the lower half-plane
    phi_x < 0 (phi_x = 0 is not charged), each charged -2 rho (omega_x + h)."""
    if params.model == "pinning":
        u = params.u
        lam = log_mgf(omega.spec, params.beta)[0]
        return (u - 1.0, u + 1.0, params.beta * omega.values - lam + params.h, 1.0,
                lambda values: contact_indicators(values, u))
    return -math.inf, 0.0, omega.values + params.h, -2.0 * params.rho, lambda values: values < 0.0


def _pinning_model_only(params: PinningParams, what: str) -> None:
    """Refuse the co-membrane model in a routine that computes the pinning model."""
    if params.model != "pinning":
        raise DomainError(f"{what} is implemented for the pinning model only "
                          f"(got model={params.model!r})")


def _interaction_mask(geom: BoxGeometry, interaction: str) -> np.ndarray:
    if interaction == "tilde":
        return geom.tilde_mask
    if interaction == "interior":
        return geom.interior_mask
    raise DomainError(f"unknown interaction range {interaction!r}")


def energy(geom: BoxGeometry, values: np.ndarray, omega: DisorderField,
           params: PinningParams) -> float:
    """Interaction part of the Hamiltonian of the heights `values` on the range {1..N}^2.

    The Gaussian part lives in the sampler/MCMC; this is the exponent of the
    density against the free measure.
    """
    _, _, w, scale, charged = _interaction(params, omega)
    return scale * float(np.sum(w[geom.tilde_mask & charged(values)]))


def boundary_contact_term(geom: BoxGeometry, params: PinningParams,
                          omega: DisorderField) -> float:
    """Deterministic part of the interaction from frame sites of the range.

    With the canonical {1..N}^2 range the two far edges sit on the boundary,
    so their charged sites are functions of the boundary data alone and add
    their charges to log Z exactly.
    """
    _, _, w, scale, charged = _interaction(params, omega)
    mask = geom.tilde_mask & geom.boundary_mask & charged(params.bc.grid(geom))
    return scale * float(np.sum(w[mask]))


def free_interaction_mean(geom: BoxGeometry, params: PinningParams, omega: DisorderField,
                          shift: np.ndarray) -> float:
    """Mean interaction energy on the interior under the free field of mean `shift`:
    the charges times the sitewise probability of the charged band, summed.  This
    is the coupling ladder's exact integrand at t = 0."""
    lo, hi, w, scale, _ = _interaction(params, omega)
    var = kernels.green_dirichlet_diag(geom, params.m)
    sd = np.sqrt(np.maximum(var, 1e-300))
    with np.errstate(over="ignore"):  # a far band edge: the quotient is +-inf, ndtr 0 or 1
        p = special.ndtr((hi - shift) / sd) - special.ndtr((lo - shift) / sd)
    p = np.maximum(np.where(var > 0, p, 0.0), 0.0)
    mask = geom.interior_mask
    return scale * float(np.sum(w[mask] * p[mask]))


# ---------------------------------------------------------------------------
# exact sampling of piecewise-reweighted Gaussian conditionals
# ---------------------------------------------------------------------------

class BandLayout:
    """Interval layout of a band list at its site count n, and every buffer and
    view a Metropolis half-update works in; built once, for the life of a chain.

    Built from (lo, hi, logw) bands, logw per site (1-D) or scalar: the
    per-site weights set the site count and scalar ones are broadcast over
    the sites, so a list without per-site weights is refused.  The finite
    band edges (a column, sorted) split the real line into len(edges) + 1
    intervals; weights[j, i] = exp(logw - max over j) is the relative weight
    of interval j at site i.  A Metropolis half-update works on the (2, n)
    buffer pair xy, its rows x (the sites' heights) and y (their proposals:
    mirror images 2 mu - x, or independent draws), and looks up both rows'
    weights at once: the (edges, 1, 1) edge_column is compared with xy into
    below_xy, and the count of edges strictly below each point, summed over
    the edges into at, is its interval j (for a height that is not NaN, the
    index a left searchsorted of the edges finds); base2 (two rows of
    i * intervals) moves it to site i's column of site_major, and one take
    puts the weights into wxy (rows wx and wy).  uniforms receives its n
    uniforms and accept the sites where u w(x) < w(y).  gather is the
    colour's (6, n) gather buffer: rows 0-3 (near) the neighbours' heights,
    rows 4-5 the pair xy, so one take fills near_x (rows 0-4) with the
    neighbours' and the sites' heights.  mu receives the conditional means
    of an independence update or a heat-bath draw; a reflection sums the
    neighbours straight into y and forms no mean.  The exact heat-bath draw
    has no other buffer here.  Not for concurrent use.
    """

    def __init__(self, bands: list[tuple[float, float, np.ndarray | float]]):
        sizes = [np.size(w) for _, _, w in bands if np.ndim(w)]
        if not sizes:
            raise DomainError("a band layout needs a band with per-site weights: "
                              "they set its site count")
        edges = sorted({e for lo, hi, _ in bands for e in (lo, hi) if math.isfinite(e)})
        lows = [-math.inf] + edges
        highs = edges + [math.inf]
        logw = np.zeros((len(lows), max(sizes)))
        for lo, hi, w in bands:
            cover = np.array([(lo <= a) and (b <= hi) for a, b in zip(lows, highs)])
            if np.any(cover):
                logw[cover] += w
        logw -= logw.max(axis=0)
        intervals, n = logw.shape
        self.n = n
        self.edges = np.array(edges, dtype=float)[:, None]
        self.weights = np.exp(logw)
        self.edge_column = self.edges[:, :, None]
        self.site_major = np.ascontiguousarray(self.weights.T).reshape(-1)
        self.base2 = np.tile(np.arange(n) * intervals, (2, 1))
        self.gather = np.empty((6, n))
        self.near, self.near_x, self.xy = self.gather[:4], self.gather[:5], self.gather[4:]
        self.mu = np.empty(n)
        self.x, self.y = self.xy
        self.below_xy = np.empty((intervals - 1, 2, n), dtype=bool)
        self.at = np.empty((2, n), dtype=self.base2.dtype)
        self.wxy = np.empty((2, n))
        self.wx, self.wy = self.wxy
        self.uniforms = np.empty(n)
        self.accept = np.empty(n, dtype=bool)


def sample_banded_conditional(rng: np.random.Generator, mu: np.ndarray,
                              sigma: float | np.ndarray, bands: BandLayout) -> np.ndarray:
    """Exact draw from N(mu, sigma^2) reweighted by the layout's band weights:
    the reference route, plain numpy on the layout's edges and weights.

    Phi(z) and its mirror Phi(-z) at every edge (z clipped to +-_Z_FAR, which
    also closes each end) give each interval's mass stably in both tails, and
    invert the CDF inside the chosen interval, through the mirrored tail when
    that one is better conditioned.  Consumes rng.random(2n): the first n
    pick the interval, the last n the position inside it.  Returns a new
    array; a mu of another length than the layout's site count is refused
    before any draw.  sigma is a float or, as a chain passes it, a 0-d array.
    """
    n = bands.n
    if mu.shape[0] != n:
        raise DomainError(f"a band layout of {n} sites was called at {mu.shape[0]}")
    grid = np.empty((3, len(bands.edges) + 2, n))  # z, Phi(z), Phi(-z) at -far, each edge, +far
    z, p, q = grid
    z[0], z[-1], p[0], p[-1] = -_Z_FAR, _Z_FAR, special.ndtr(-_Z_FAR), special.ndtr(_Z_FAR)
    q[0], q[-1] = p[-1], p[0]
    ze = np.minimum(np.maximum((bands.edges - mu) / sigma, -_Z_FAR), _Z_FAR, out=z[1:-1])
    special.ndtr(ze, out=p[1:-1])
    special.ndtr(-ze, out=q[1:-1])
    mass = np.maximum(p[1:] - p[:-1], q[:-1] - q[1:]) * bands.weights
    sums = np.cumsum(mass, axis=0)
    u, t = rng.random(2 * n).reshape(2, n)
    u = u * np.maximum(sums[-1], 1e-300)
    pick = np.count_nonzero(sums[:-1] < u, axis=0)  # u is below the last sum, the total
    sites = np.arange(n)
    za, pa, qa = grid[:, pick, sites]
    zb, pb, qb = grid[:, pick + 1, sites]
    flip = za > -zb
    lo, hi = np.where(flip, qb, pa), np.where(flip, qa, pb)  # the inverted CDF's ends
    v = special.ndtri(np.minimum(np.maximum((hi - lo) * t + lo, 1e-320), 1.0 - 1e-16))
    v = np.minimum(np.maximum(np.where(flip, -v, v), za), zb)
    return v * sigma + mu


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@dataclass
class GibbsChain:
    """MCMC state: the current field (boundary pinned), parameters, disorder.

    Interior sites are updated from their single-site conditionals,
    Normal(sum of neighbours / (4 + m^2), 1 / (4 + m^2)) reweighted by the
    model's bands, in a checkerboard schedule; the boundary never changes.
    The chain keeps the phase of the sweeps run_chain makes, in cycles of one
    Metropolised independence sweep and then k = max(1, N // 4) Metropolised
    reflection sweeps: 1:1 up to N = 7, where two reflections nearly cancel,
    1:4 at N = 16, 1:8 at N = 32.  A reflection divides the neighbour sum
    by the half denominator (4 + m^2) / 2 (_half_denom) and uses no
    conditional mean; an independence update divides it by 4 + m^2
    (_denom) into its mean.  heat_bath_sweep, the exact reference route,
    draws from the conditionals exactly through the same layouts, which
    hold only the Metropolis buffers.
    """

    geom: BoxGeometry
    params: PinningParams
    omega: DisorderField
    field: np.ndarray
    rng: np.random.Generator
    extra_bands: tuple[tuple[float, float, float], ...] = ()
    coupling: float = 1.0

    def __post_init__(self):
        self._denom = np.array(4.0 + self.params.m ** 2)  # 0-d, like sigma: numpy need not convert
        self._sigma = np.array(1.0 / math.sqrt(self._denom))
        self._half_denom = np.array(self._denom / 2)  # exact: the reflection's divisor
        lo, hi, w, scale, _ = _interaction(self.params, self.omega)
        bands = ((lo, hi, self.coupling * scale * w),) + tuple(self.extra_bands)
        self.field = np.ascontiguousarray(self.field, dtype=float)
        self._reflections = max(1, self.geom.N // 4)
        self._phase = 0  # sweeps into the current cycle; 0 runs the independence sweep
        self._colours = []
        for table in _colour_indices(self.geom):  # (sites, index, layout) per colour
            # a copy: take copies a read-only index array on every call (index assignment
            # does not); every half-update, heat-bath or Metropolis, gathers through it
            index = table.copy()
            sites = index[4]
            layout = BandLayout([(a, b, np.asarray(logw).take(sites) if np.ndim(logw)
                                  else float(logw)) for a, b, logw in bands])
            self._colours.append((sites, index, layout))


@functools.lru_cache(maxsize=None)
def _colour_indices(geom: BoxGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per checkerboard colour of the interior, the read-only (5, n) table of flat
    indices: rows 0-3 the sites' four neighbours, row 4 the sites, so one take
    fills a layout's near_x for any half-update.  A box's geometry is set by its
    size, so the tables are built once per size."""
    side = geom.side
    x1, x2 = geom.coords
    out = []
    for c in (0, 1):
        sites = np.flatnonzero(geom.interior_mask & ((x1 + x2) % 2 == c))
        index = sites + np.array([[-side], [side], [-1], [1], [0]])
        index.flags.writeable = False
        out.append(index)
    return tuple(out)


def make_chain(geom: BoxGeometry, params: PinningParams, omega: DisorderField,
               rng: np.random.Generator) -> GibbsChain:
    """Fresh chain started from the harmonic extension of the boundary data."""
    ext = harmonic_extension(geom, params.m, params.bc)
    return GibbsChain(geom, params, omega, ext.values.copy(), rng)


def heat_bath_sweep(chain: GibbsChain, n_sweeps: int = 1) -> GibbsChain:
    """n_sweeps exact checkerboard heat-bath sweeps (the reference route: no run_chain
    sweep is one); a bool, non-integer or negative n_sweeps is refused before any draw."""
    _refuse_bad_counts(f"n_sweeps must be an integer >= 0 (got {n_sweeps!r})", 0, n_sweeps)
    flat = chain.field.reshape(-1, copy=False)
    for _ in range(n_sweeps):
        for sites, index, layout in chain._colours:
            flat.take(index, out=layout.near_x, mode="clip")
            mu = np.add.reduce(layout.near, axis=0, out=layout.mu)
            mu /= chain._denom
            flat[sites] = sample_banded_conditional(chain.rng, mu, chain._sigma, layout)
    return chain


def _refuse_bad_counts(message: str, least: int, *counts) -> None:
    """DomainError(message) if a count is a bool, not an integer, or below least."""
    if any(isinstance(c, bool) or not isinstance(c, numbers.Integral) or c < least
           for c in counts):
        raise DomainError(message)


def _half_update(rng: np.random.Generator, flat: np.ndarray, sites: np.ndarray,
                 index: np.ndarray, layout: BandLayout, reflect: bool, denom: np.ndarray,
                 half_denom: np.ndarray, sigma: np.ndarray) -> None:
    """One Metropolis half-update of a colour's sites in flat, the field's flat view:
    each site's height x moves to a proposal y with probability min(1, w(y) / w(x)),
    w the layout's weight of the interval holding the point.

    One take through the colour's (5, n) index gathers the neighbours' heights and
    the sites' own into layout.near_x.  A reflection (reflect true) proposes y =
    2 mu - x, mu = s / denom the conditional mean and s the neighbour sum: it takes
    s / half_denom - x with half_denom = denom / 2, which is (mu + mu) - x bit for
    bit (halving is exact and doubling commutes with rounding) and one numpy call
    fewer.  The map is its own inverse, has unit Jacobian and preserves N(mu,
    sigma^2) (Creutz's Metropolised overrelaxation).  An independence update
    proposes y = mu + sigma z from rng.standard_normal(n), a fresh draw from the
    unweighted N(mu, sigma^2) whatever x is (Tierney 1994).  Either way the
    proposal cancels against the conditional's Gaussian factor, so the
    acceptance ratio is w(y) / w(x) and the reweighted law is kept.  Then one
    count of the edges strictly below both points of the (x, y) pair and one take
    find their weights, rng.random(n) draws one uniform per site, y is kept where
    u w(x) < w(y), and the heights are written back.
    """
    flat.take(index, out=layout.near_x, mode="clip")
    y = layout.y
    if reflect:
        np.add.reduce(layout.near, axis=0, out=y)
        y /= half_denom
        y -= layout.x
    else:
        mu = np.add.reduce(layout.near, axis=0, out=layout.mu)
        mu /= denom
        rng.standard_normal(out=y)
        y *= sigma
        y += mu
    at = layout.at
    np.add.reduce(np.less(layout.edge_column, layout.xy, out=layout.below_xy), axis=0, out=at,
                  dtype=at.dtype)
    at += layout.base2
    layout.site_major.take(at, out=layout.wxy, mode="clip")
    wx = layout.wx
    wx *= rng.random(out=layout.uniforms)
    np.putmask(layout.x, np.less(wx, layout.wy, out=layout.accept), y)
    flat[sites] = layout.x


def _alternating_sweeps(chain: GibbsChain, n_sweeps: int) -> None:
    """n_sweeps sweeps of the chain's schedule: an independence sweep at phase 0, a
    reflection sweep at each of the cycle's other chain._reflections phases, each
    one _half_update per colour.  The phase lives on the chain, so a + b sweeps in
    one call equal a sweeps then b."""
    flat = chain.field.reshape(-1, copy=False)
    rng, denom, half_denom, sigma = chain.rng, chain._denom, chain._half_denom, chain._sigma
    for _ in range(n_sweeps):
        reflect = chain._phase != 0
        for sites, index, layout in chain._colours:
            _half_update(rng, flat, sites, index, layout, reflect, denom, half_denom, sigma)
        chain._phase = (chain._phase + 1) % (1 + chain._reflections)


@dataclass
class ChainRecord:
    """Thinned observable stream from one chain run."""

    contacts_window: np.ndarray
    contact_fraction: np.ndarray
    energy: np.ndarray
    extra: dict

    def mean_se(self, series: np.ndarray) -> tuple[float, float]:
        """Mean of a recorded series and its SE, from the series' own IACT; inf from
        fewer than four records or from a series with no variation."""
        n = len(series)
        mean = float(series.mean())
        if n < 4 or series.min() == series.max():
            return mean, float("inf")
        var = float(series.var(ddof=1))
        return mean, math.sqrt(var * integrated_autocorrelation(series) / n)


def integrated_autocorrelation(series: np.ndarray) -> float:
    """Initial-positive-sequence IACT of one series, in recorded samples.

    tau = 1 + 2 sum_{t=1}^{T-1} rho(t), T the first lag with rho(T) <= 0.  The
    autocovariances of the centred series, with divisor n, sum to zero over
    the lags -(n-1) .. n-1, so such a lag always exists and the sum needs no
    lag cap.  At least 1, and 1 for a constant series.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n < 2 or x.min() == x.max():
        return 1.0
    x = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    rho = np.fft.irfft(f * np.conj(f), size)[1:n] / float(x @ x)
    stop = np.flatnonzero(rho <= 0.0)[0]
    return max(1.0 + 2.0 * float(rho[:stop].sum()), 1.0)


def run_chain(geom: BoxGeometry, params: PinningParams, omega: DisorderField,
              rng: np.random.Generator, sweeps: int, burn_in: int = 0, thinning: int = 1,
              chain: GibbsChain | None = None, interaction: str = "tilde",
              observables: dict | None = None) -> ChainRecord:
    """Run (or continue) a chain; record observables every `thinning` sweeps.

    Deterministic given the generator state.  The contact total is counted
    on the interaction range; `observables` maps names to callables
    field -> float for extra per-record statistics.  A chain passed in must
    come with its own geom, params, omega and rng (the very objects; anything
    else raises DomainError); it holds the final field afterwards.  Burn-in
    and recorded sweeps alike run the chain's cycle of one independence sweep
    and k = max(1, N // 4) reflection sweeps, from the phase the chain holds;
    boxes with N <= 7 keep 1:1, since there two reflections nearly cancel.
    Each record gathers the heights of the interaction range, through site
    indices found once per call, into a row of a block of records; per block
    the charged sites of every row are found at once, and each record's
    contact total, contact fraction and interaction energy taken from its
    row.  Every series is 1-D, one entry per record; extra observables are
    evaluated per record on the live field.  A bool, a non-integer, or a count
    below its least (burn_in 0, sweeps and thinning 1) is refused before any sweep.
    """
    _refuse_bad_counts(f"burn_in must be an integer >= 0 (got {burn_in!r})", 0, burn_in)
    _refuse_bad_counts(f"sweeps and thinning must be >= 1 (got {sweeps}, {thinning}), "
                       "each an integer", 1, sweeps, thinning)
    if sweeps % thinning:
        raise DomainError(f"sweeps ({sweeps}) must be a multiple of thinning ({thinning})")
    if chain is None:
        chain = make_chain(geom, params, omega, rng)
    for name, arg in (("geom", geom), ("params", params), ("omega", omega), ("rng", rng)):
        if arg is not getattr(chain, name):
            raise DomainError(f"run_chain was given another {name} than the chain's own; "
                              f"pass chain.{name}")
    in_range = np.flatnonzero(_interaction_mask(geom, interaction))
    _, _, weights, scale, charged_at = _interaction(params, omega)
    weights = weights.reshape(-1)[in_range]
    flat = chain.field.reshape(-1, copy=False)
    if burn_in:
        _alternating_sweeps(chain, burn_in)
    n_rec = sweeps // thinning
    L, frac, en = np.empty(n_rec), np.empty(n_rec), np.empty(n_rec)
    observables = observables or {}
    extra = {name: [] for name in observables}
    block = np.empty((max(1, min(n_rec, _RECORD_BLOCK, _BLOCK_VALUES // in_range.size)),
                      in_range.size))
    for start in range(0, n_rec, len(block)):
        stop = min(start + len(block), n_rec)
        heights = block[:stop - start]
        for row in heights:
            _alternating_sweeps(chain, thinning)
            flat.take(in_range, out=row, mode="clip")
            for name, fn in observables.items():
                extra[name].append(fn(chain.field))
        charged = charged_at(heights)
        counts = np.count_nonzero(charged, axis=1)
        L[start:stop] = counts
        frac[start:stop] = counts / in_range.size
        en[start:stop] = [scale * float(weights[row].sum()) for row in charged]
    return ChainRecord(
        contacts_window=L,
        contact_fraction=frac,
        energy=en,
        extra={k: np.array(v) for k, v in extra.items()},
    )


# ---------------------------------------------------------------------------
# exact small-system partition function
# ---------------------------------------------------------------------------

def exact_partition_small(geom: BoxGeometry, params: PinningParams,
                          omega: DisorderField) -> float:
    """log Z by direct quadrature; ground truth for one interior site (N = 2).

    The interaction acts on the interior site alone, the range the
    integration ladders count.  A square box has one interior site at N = 2
    and at least four beyond, so N = 2 is the only box this supports.
    """
    if geom.N != 2:
        raise DomainError(
            f"exact partition supports only the one-site box N = 2 "
            f"(N={geom.N} has {(geom.N - 1) ** 2} interior sites)")
    _pinning_model_only(params, "the exact small partition function")
    bgrid = params.bc.grid(geom)
    mu = float(bgrid[0, 1] + bgrid[2, 1] + bgrid[1, 0] + bgrid[1, 2]) / (4.0 + params.m ** 2)
    var = 1.0 / (4.0 + params.m ** 2)
    band_lo, band_hi, w, scale, charged = _interaction(params, omega)
    bump = math.exp(scale * float(w[1, 1]))
    # E[e^{s 1_band}(phi)], phi ~ N(mu, var), over mu +- 40 sd on panels of at most one sd,
    # cut at the band edges
    sd = math.sqrt(var)
    lo, hi = mu - 40 * sd, mu + 40 * sd
    cuts = sorted({lo, hi} | {c for c in (band_lo, band_hi) if lo < c < hi})
    edges = np.concatenate([np.linspace(a, b, math.ceil((b - a) / sd) + 1)[:-1]
                            for a, b in zip(cuts[:-1], cuts[1:])] + [[hi]])

    def f(t):
        dens = np.exp(-0.5 * ((t - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        return dens * np.where(charged(t), bump, 1.0)

    return math.log(kernels._panel_integral(f, edges))


# ---------------------------------------------------------------------------
# restricted contacts
# ---------------------------------------------------------------------------

def restricted_contacts(sample: FieldSample, u: float,
                        window_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the contacts in the window, and of those among them whose scale
    trajectory stays below the line u*i/k + 10 at every scale; their sums are
    the contact totals L and L'.  phi_i is a running sum, one add per scale."""
    delta = contact_indicators(sample.values, u) & window_mask
    k = sample.stack.k
    below = np.ones_like(delta)
    running = None
    for i, layer in enumerate(sample.stack.xi, start=1):
        running = layer if running is None else running + layer
        below &= running <= u * i / k + 10.0
    return delta, delta & below
