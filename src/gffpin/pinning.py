"""The pinning Gibbs measure and its heat-bath / reflection dynamics.

The interaction rewards sites whose height (after any boundary shift) lies
in the band [u-1, u+1]; the co-membrane variant instead charges sites in the
lower half-plane, and _interaction alone tells the two apart.  Both are
instances of a density with piecewise-constant per-site log-weights in the
height, so the single-site conditional is a mixture of truncated Gaussians,
N(mu, sigma^2) reweighted by w.  A checkerboard schedule turns a sweep into
two vectorized half-updates.
run_chain's sweeps run in cycles of one heat-bath sweep followed by
k = max(1, N // 4) reflection sweeps on a box of side N, the phase within
the cycle kept on the chain; heat_bath_sweep makes heat-bath sweeps only.  A
heat-bath half-update draws every site of its colour exactly from its
conditional.  A reflection half-update (Creutz's Metropolised
overrelaxation) proposes y = 2 mu - x and keeps it with probability
min(1, w(y) / w(x)): the map is its own inverse, has unit Jacobian and
preserves N(mu, sigma^2), so this is a Metropolis-Hastings step with an exact
acceptance ratio.  Either half-update therefore leaves the conditional, and
with it the target, invariant.  The reflections suppress the random walk of
the slow modes (Adler 1981) at about a third of a heat-bath half-update's
cost; the heat-bath sweeps keep the chain ergodic.  The best number of
reflections per heat-bath sweep grows with the correlation length (Wolff
1992), about N here.  In a small box the conditional means barely move
between sweeps, so two reflections nearly cancel: boxes with N <= 7 keep one
reflection per heat-bath sweep.

Only the conditional means change between sweeps: band edges are global and
the per-site band weights are fixed for a chain.  Each checkerboard colour
has one table of flat indices, its sites' four neighbours and the sites
themselves, built once per box size and shared by every chain of that size,
and each chain keeps one `BandLayout` per colour, built at the colour's site
count (set by the per-site weights of the model's band; scalar bands are
broadcast over the sites).  The layout holds everything the colour's
half-updates work in: edges and weights, the reflection's flat lookups, the
heat-bath sampler's grid, masses and uniforms, every view into them and the
gather buffer; a call at another site count is refused.  Since a
half-update touches only a few hundred sites, its cost is the number of
numpy calls it makes, so each call works in place in these buffers, through
ndarray methods rather than the np.* wrappers, with 0-d array scalar
operands, and a masked copy is a putmask.  A half-update takes the
neighbours' heights into the gather buffer (take), sums them into the
conditional means (np.add.reduce) and writes its draws back by index
assignment, flat[sites] = draws (half the cost of put at N = 32).  A
heat-bath half-update evaluates two normal CDFs, Phi(z) and Phi(-z), per
site and edge and draws two uniforms per site with one rng.random call into
a buffer: the first n pick the intervals (one comparison of every running
sum with them, one count), the last n the heights inside them.  A
reflection half-update takes the neighbours' and the sites' heights with
one take into rows 0-4 of the layout's (6, n) gather buffer, whose rows 4
and 5 are its (x, y) pair, and writes 2 mu - x into row 5; it finds both
points' intervals by counting the edges strictly below each point of the
pair (one comparison with the column of edges and one np.add.reduce over
it, in place of a binary search whose data-dependent branches mispredict)
and their weights with one take, draws one uniform per site with one
rng.random call and copies the accepted sites from row 5 into row 4, which
it writes back: 14 numpy calls from the gather to the write-back.  A
reflection sweep takes the flat view of the field once.  A layout, like the
chain holding it, is not for concurrent use.
None of this changes a float operation or a draw: the running interval sums
are row adds in add.accumulate's order.

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


def energy(sample: FieldSample, omega: DisorderField, params: PinningParams) -> float:
    """Interaction part of the Hamiltonian on the range {1..N}^2.

    The Gaussian part lives in the sampler/MCMC; this is the exponent of the
    density against the free measure.
    """
    _, _, w, scale, charged = _interaction(params, omega)
    return scale * float(np.sum(w[sample.geom.tilde_mask & charged(sample.values)]))


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

# (z, Phi(z), Phi(-z)) at the two far ends of every site's z-grid
_FAR_LO = np.array([[-_Z_FAR], [special.ndtr(-_Z_FAR)], [special.ndtr(_Z_FAR)]])
_FAR_HI = np.array([[_Z_FAR], [special.ndtr(_Z_FAR)], [special.ndtr(-_Z_FAR)]])
# the heat-bath draw's scalar operands as 0-d arrays: numpy converts a float operand on every call
_Z_LO, _Z_HI = np.array(-_Z_FAR), np.array(_Z_FAR)
_MASS_FLOOR, _P_FLOOR, _P_CEIL = np.array(1e-300), np.array(1e-320), np.array(1.0 - 1e-16)


class BandLayout:
    """Interval layout of a band list at its site count n, and every buffer and
    view a half-update works in; built once, for the life of a chain.

    The finite band edges (a column, sorted) split the real line into
    len(edges) + 1 intervals; weights[j, i] = exp(logw - max over j) is the
    relative weight of interval j at site i.  The reflection works on the
    (2, n) buffer pair xy, its rows x (the sites' heights) and y (their
    mirror images 2 mu - x), and looks up both rows' weights at once: the
    (edges, 1, 1) edge_column is compared with xy into below_xy, and the
    count of edges strictly below each point, summed over the edges into at,
    is its interval j (for a height that is not NaN, the index a left
    searchsorted of the edges finds); base2 (two rows of i * intervals) moves
    it to site i's column of site_major, and one take puts the weights into
    wxy (rows wx and wy).  uniforms receives its n uniforms and accept the
    sites where u w(x) < w(y).  The heat-bath draw works in the grid (flat
    holds it flattened): z, Phi(z) and Phi(-z) (planes) at -far, every edge
    and +far (rows) for each site (columns), its far rows constant.  offsets
    are the flat positions of (za, zb, Phi(za), Phi(zb), Phi(-za), Phi(-zb))
    within interval 0, so interval j sits j * n further on; ends receives
    them.  mass holds the interval masses, then their running sums,
    lower_sums all of them but the total; below receives their comparison
    with the uniforms that pick the interval; draws receives the 2n
    uniforms.  gather is the colour's (6, n) gather buffer: rows 0-3 (near)
    the neighbours' heights, rows 4-5 the pair xy, so one take fills near_x
    (rows 0-4) with the neighbours' and the sites' heights; mu receives the
    conditional means.  Not for concurrent use.
    """

    def __init__(self, edges: np.ndarray, weights: np.ndarray):
        intervals, n = weights.shape
        self.n = n
        self.edges = edges
        self.weights = weights
        self.edge_column = edges[:, :, None]
        self.site_major = np.ascontiguousarray(weights.T).reshape(-1)
        self.base2 = np.tile(np.arange(n) * intervals, (2, 1))
        k = intervals + 1  # grid rows: -far, every edge, +far
        grid = np.empty((3, k, n))
        grid[:, 0] = _FAR_LO
        grid[:, -1] = _FAR_HI
        self.flat = grid.reshape(-1)
        z, p, q = grid
        self.edge_rows = (z[1:-1], p[1:-1], q[1:-1])
        self.neighbour_rows = (p[1:], p[:-1], q[:-1], q[1:])
        planes = n * np.array([[0], [1], [k], [k + 1], [2 * k], [2 * k + 1]])
        self.offsets = planes + np.arange(n)
        self.index = np.empty_like(self.offsets)
        self.ends = np.empty((6, n))
        self.end_rows = tuple(self.ends)
        self.mass = np.empty((intervals, n))
        self.mass_rows = tuple(self.mass)
        self.lower_sums = self.mass[:-1]
        self.below = np.empty((intervals - 1, n), dtype=bool)
        self.mirrored = np.empty((intervals, n))
        self.draws = np.empty(2 * n)
        self.halves = (self.draws[:n], self.draws[n:])
        self.pick = np.empty(n, dtype=self.offsets.dtype)
        self.flip = np.empty(n, dtype=bool)
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


def band_layout(bands: list[tuple[float, float, np.ndarray | float]]) -> BandLayout:
    """Layout of (lo, hi, logw) bands, logw per site (1-D) or scalar; the per-site
    weights set the site count and scalar ones are broadcast over the sites."""
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
    return BandLayout(np.array(edges, dtype=float)[:, None], np.exp(logw))


def _refuse_other_size(mu: np.ndarray, bands: BandLayout) -> None:
    if mu.shape[0] != bands.n:
        raise DomainError(f"a band layout of {bands.n} sites was called at {mu.shape[0]}")


def sample_banded_conditional(rng: np.random.Generator, mu: np.ndarray,
                              sigma: float | np.ndarray, bands: BandLayout) -> np.ndarray:
    """Exact draw from N(mu, sigma^2) reweighted by the layout's band weights.

    Phi(z) and its mirror Phi(-z) are evaluated once per site and edge; their
    differences give each interval's mass stably in both tails, and the same
    values invert the CDF inside the chosen interval, through the mirrored
    tail when that one is better conditioned.  Consumes rng.random(2n): the
    first n uniforms pick the interval, the last n the position inside it.
    Works in the layout's buffers and returns a new array; a mu of another
    length than the layout's site count is refused before any draw.  sigma
    is a float or, as a chain passes it, a 0-d array.
    """
    _refuse_other_size(mu, bands)
    ze, pe, qe = bands.edge_rows
    np.subtract(bands.edges, mu, out=ze)
    ze /= sigma
    np.maximum(ze, _Z_LO, out=ze)
    np.minimum(ze, _Z_HI, out=ze)
    special.ndtr(ze, out=pe)
    special.ndtr(np.negative(ze, out=qe), out=qe)
    p_hi, p_lo, q_lo, q_hi = bands.neighbour_rows
    cum = bands.mass
    np.subtract(p_hi, p_lo, out=cum)
    np.maximum(cum, np.subtract(q_lo, q_hi, out=bands.mirrored), out=cum)
    cum *= bands.weights
    rows = bands.mass_rows
    for prev, row in zip(rows, rows[1:]):  # running sums, in add.accumulate's order
        row += prev
    rng.random(out=bands.draws)
    u, t = bands.halves
    total = rows[-1]
    u *= np.maximum(total, _MASS_FLOOR, out=total)
    # the interval is the number of running sums below u; u is below the last one, the total
    pick = bands.pick
    np.add.reduce(np.less(bands.lower_sums, u, out=bands.below), axis=0, out=pick,
                  dtype=pick.dtype)
    pick *= bands.n
    za, zb, pa, pb, qa, qb = bands.end_rows
    bands.flat.take(np.add(bands.offsets, pick, out=bands.index), out=bands.ends, mode="clip")
    flip = np.greater(za, np.negative(zb, out=u), out=bands.flip)
    np.putmask(pa, flip, qb)  # the lower end of the inverted CDF
    np.putmask(pb, flip, qa)  # and its upper end
    pb -= pa
    pb *= t
    pb += pa
    np.maximum(pb, _P_FLOOR, out=pb)
    v = special.ndtri(np.minimum(pb, _P_CEIL, out=pb))
    np.putmask(v, flip, np.negative(v, out=u))
    np.maximum(v, za, out=v)
    np.minimum(v, zb, out=v)
    v *= sigma
    v += mu
    return v


def _reflect_banded(rng: np.random.Generator, mu: np.ndarray, bands: BandLayout) -> np.ndarray:
    """One Metropolised reflection of bands.x in the law sample_banded_conditional draws from.

    Proposes y = 2 mu - x, which maps N(mu, sigma^2) onto itself with unit
    Jacobian and is its own inverse, so keeping y with probability
    min(1, w(y) / w(x)), w the layout's weight of the interval holding the
    point, leaves the reweighted law invariant.  Consumes rng.random(n).

    Works on the layout's (x, y) buffer pair: the caller puts x into row 0,
    bands.x (a reflection sweep gathers it there), and 2 mu - x goes into row
    1, so one count of the edges below each point of both rows and one take
    find both points' weights.  The accepted sites are copied from row 1 into
    row 0, and row 0 is returned: the layout's buffer, not a fresh array,
    valid until the layout's next reflection.
    """
    _refuse_other_size(mu, bands)
    x_row, y = bands.x, bands.y
    np.add(mu, mu, out=y)
    y -= x_row
    at = bands.at
    np.add.reduce(np.less(bands.edge_column, bands.xy, out=bands.below_xy), axis=0, out=at,
                  dtype=at.dtype)
    at += bands.base2
    bands.site_major.take(at, out=bands.wxy, mode="clip")
    wx = bands.wx
    wx *= rng.random(out=bands.uniforms)
    np.putmask(x_row, np.less(wx, bands.wy, out=bands.accept), y)
    return x_row


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
    heat-bath sweep and then k = max(1, N // 4) Metropolised reflection
    sweeps: 1:1 up to N = 7, where two reflections nearly cancel, 1:4 at
    N = 16, 1:8 at N = 32.
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
        lo, hi, w, scale, _ = _interaction(self.params, self.omega)
        bands = ((lo, hi, self.coupling * scale * w),) + tuple(self.extra_bands)
        self.field = np.ascontiguousarray(self.field, dtype=float)
        self._reflections = max(1, self.geom.N // 4)
        self._phase = 0  # sweeps into the current cycle; 0 runs the heat-bath sweep
        self._colours = []
        for table in _colour_indices(self.geom):  # (sites, neighbours, both, layout) per colour
            # a copy: take copies a read-only index array on every call (index assignment
            # does not)
            index = table.copy()
            sites = index[4]
            layout = band_layout([(a, b, np.asarray(logw).take(sites) if np.ndim(logw)
                                   else float(logw)) for a, b, logw in bands])
            self._colours.append((sites, index[:4], index, layout))


@functools.lru_cache(maxsize=None)
def _colour_indices(geom: BoxGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per checkerboard colour of the interior, the read-only (5, n) table of flat
    indices: rows 0-3 the sites' four neighbours, row 4 the sites.  A box's geometry
    is set by its size, so the tables are built once per size."""
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
    """n_sweeps full checkerboard heat-bath sweeps, each drawing every interior
    site exactly from its conditional; a negative or non-integer n_sweeps is
    refused before any draw."""
    if isinstance(n_sweeps, bool) or not isinstance(n_sweeps, numbers.Integral) or n_sweeps < 0:
        raise DomainError(f"n_sweeps must be an integer >= 0 (got {n_sweeps!r})")
    flat = chain.field.reshape(-1, copy=False)
    for _ in range(n_sweeps):
        for sites, nbrs, _, layout in chain._colours:
            flat.take(nbrs, out=layout.near, mode="clip")
            _conditional_means(layout, chain._denom)
            flat[sites] = sample_banded_conditional(chain.rng, layout.mu, chain._sigma, layout)
    return chain


def _conditional_means(layout: BandLayout, denom: np.ndarray) -> None:
    """The sum of the neighbours' heights in layout.near, over denom, into layout.mu."""
    np.add.reduce(layout.near, axis=0, out=layout.mu)
    layout.mu /= denom


def _reflection_sweep(chain: GibbsChain, flat: np.ndarray) -> None:
    """One full checkerboard sweep of the chain's field, flat its flat view, moving
    each interior site x to 2 mu - x (mu its conditional mean) with the Metropolis
    probability of its band weights.  One take per colour gathers the neighbours'
    heights and the sites' own into the layout's gather buffer."""
    for sites, _, index, layout in chain._colours:
        flat.take(index, out=layout.near_x, mode="clip")
        _conditional_means(layout, chain._denom)
        flat[sites] = _reflect_banded(chain.rng, layout.mu, layout)


def _alternating_sweeps(chain: GibbsChain, n_sweeps: int) -> None:
    """n_sweeps sweeps of the chain's schedule: a heat-bath sweep at phase 0, a
    reflection sweep at each of the cycle's other chain._reflections phases.
    The phase lives on the chain, so a + b sweeps in one call equal a sweeps
    then b.  The heat-bath sweeps go through heat_bath_sweep, whose calls a
    profiler wrapping the module's public functions counts."""
    flat = chain.field.reshape(-1, copy=False)
    for _ in range(n_sweeps):
        if chain._phase:
            _reflection_sweep(chain, flat)
        else:
            heat_bath_sweep(chain)
        chain._phase = (chain._phase + 1) % (1 + chain._reflections)


@dataclass
class ChainRecord:
    """Thinned observable stream from one chain run."""

    contacts_window: np.ndarray
    contact_fraction: np.ndarray
    energy: np.ndarray
    extra: dict

    def mean_se(self, series: np.ndarray) -> tuple[float, float]:
        """Mean of a recorded series and its SE, from the series' own IACT."""
        n = len(series)
        mean = float(series.mean())
        if n < 4:
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
    and recorded sweeps alike run the chain's cycle of one heat-bath sweep
    and k = max(1, N // 4) reflection sweeps, from the phase the chain holds;
    boxes with N <= 7 keep 1:1, since there two reflections nearly cancel.
    Each record gathers the heights of the interaction range, through site
    indices found once per call, into a row of a block of records; per block
    the charged sites of every row are found at once, and each record's
    contact total, contact fraction and interaction energy taken from its
    row.  Every series is 1-D, one entry per record; extra observables are
    evaluated per record on the live field.
    """
    if burn_in < 0:
        raise DomainError("burn-in must be >= 0")
    if sweeps < 1 or thinning < 1:
        raise DomainError(f"sweeps and thinning must be >= 1 (got {sweeps}, {thinning})")
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
    the contact totals L and L'."""
    if sample.stack is None:
        raise DomainError("restricted contacts need a field carrying its scale stack")
    delta = contact_indicators(sample.values, u) & window_mask
    partials = sample.stack.partials()
    k = sample.stack.k
    below = np.ones_like(delta)
    for i in range(1, k + 1):
        below &= partials[i - 1] <= u * i / k + 10.0
    return delta, delta & below
