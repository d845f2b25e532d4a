import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import signal, special, stats

from gffpin import disorder, fields, kernels, lattice, pinning, rng
from gffpin.errors import DomainError


def _zero_omega(g):
    return disorder.DisorderField(g, disorder.GAUSSIAN, np.zeros((g.side, g.side)))


def _chain(g, params, om, r, extra_bands):
    """A chain with extra bands, started like make_chain's from the harmonic extension."""
    start = fields.harmonic_extension(g, params.m, params.bc).values.copy()
    return pinning.GibbsChain(g, params, om, start, r, extra_bands=extra_bands)


def test_params_validation():
    with pytest.raises(DomainError):
        pinning.PinningParams(model="other")
    with pytest.raises(DomainError):
        pinning.PinningParams(beta=-0.1)
    with pytest.raises(DomainError):
        pinning.PinningParams(model="copolymer", rho=0.0)


def test_energy_examples():
    g = lattice.build_box(4)
    om = _zero_omega(g)
    assert pinning.energy(g, np.full((5, 5), 50.0), om, pinning.PinningParams(h=1.0)) == 0.0
    # single contact with omega = 0, beta = 1, h = 1/2: weight -lambda(1) + 1/2 = 0
    vals = np.full((5, 5), 50.0)
    vals[2, 2] = 0.0
    e = pinning.energy(g, vals, om, pinning.PinningParams(beta=1.0, h=0.5))
    assert abs(e) < 1e-15
    # copolymer with a positive field has no lower-solvent sites
    cop = pinning.PinningParams(model="copolymer", rho=0.5, h=0.3)
    assert pinning.energy(g, np.full((5, 5), 2.0), om, cop) == 0.0
    # sign(0) counts as the upper half-plane
    assert pinning.energy(g, np.zeros((5, 5)), om, cop) == 0.0


def _log_interval_mass(za, zb):
    """log P(za < Z <= zb) from log_ndtr, taken in the lower tail of the pair."""
    za, zb = np.broadcast_arrays(np.asarray(za, dtype=float), np.asarray(zb, dtype=float))
    upper = za > -zb
    lo, hi = np.where(upper, -zb, za), np.where(upper, -za, zb)
    log_hi = special.log_ndtr(hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_hi + np.log1p(-np.exp(special.log_ndtr(lo) - log_hi))
    return np.where(hi > lo, out, -np.inf)


def _banded_cdf(mu, sigma, bands):
    """CDF of N(mu, sigma^2) reweighted by exp(sum of the covering band weights)."""
    edges = sorted({e for lo, hi, _ in bands for e in (lo, hi) if math.isfinite(e)})
    pts = [-math.inf] + edges + [math.inf]
    parts = [(a, b, sum(wt for lo, hi, wt in bands if lo <= a and b <= hi))
             for a, b in zip(pts[:-1], pts[1:])]
    log_tot = np.logaddexp.reduce(
        [w + _log_interval_mass((a - mu) / sigma, (b - mu) / sigma) for a, b, w in parts])

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for a, b, w in parts:
            za = (a - mu) / sigma
            zx = (np.clip(x, a, b) - mu) / sigma
            out += np.exp(w + _log_interval_mass(za, zx) - log_tot)
        return out

    return cdf


def _first_band_per_site(bands, n):
    """The band list with its first band's weight given to each of n sites."""
    (lo, hi, w), *rest = bands
    return [(lo, hi, np.full(n, w))] + rest


# (mu, sigma, bands) of the exact draw's density test, drawn in this order from one stream
_DENSITY_CASES = [
    (0.3, 0.7, [(-1.0, 1.0, 1.5)]),
    (-0.5, 0.5, [(-1.0, 1.0, -2.0)]),
    (0.0, 0.5, [(-1.0, 1.0, 2.0), (-0.6, 0.6, -1.0)]),
    (1.2, 0.4, [(-math.inf, 0.0, 1.0)]),
    # far tails: the band 16-20 sd away, negligible or dominant
    (9.0, 0.5, [(-1.0, 1.0, 40.0)]),
    (9.0, 0.5, [(-1.0, 1.0, 150.0)]),
    (-9.0, 0.5, [(-1.0, 1.0, 150.0)]),
    # copolymer half-line over the mean: kept, or pushing the draw 18 sd up
    (-9.0, 0.5, [(-math.inf, 0.0, -60.0)]),
    (-9.0, 0.5, [(-math.inf, 0.0, -200.0)]),
]


def _density_case_draws():
    """20 000 exact draws per case of _DENSITY_CASES, one case after another from one stream."""
    r = rng.stream(201, "band")
    n = 20000
    for mu, sigma, bands in _DENSITY_CASES:
        yield mu, sigma, bands, pinning.sample_banded_conditional(
            r, np.full(n, mu), sigma, pinning.BandLayout(_first_band_per_site(bands, n)))


def test_banded_conditional_matches_density():
    # exact sampler vs the piecewise-reweighted Gaussian CDF (KS test)
    for mu, sigma, bands, draws in _density_case_draws():
        assert np.all(np.isfinite(draws))
        ks = stats.ks_1samp(draws, _banded_cdf(mu, sigma, bands))
        assert ks.pvalue > 0.005, (mu, sigma, bands, ks)


def _digest(values):
    return hashlib.blake2b(np.ascontiguousarray(values).tobytes(), digest_size=8).hexdigest()


# per case of _DENSITY_CASES: blake2b of the draws' bytes, the first draw and the last
PINNED_DRAWS = [
    ("7c3b39b656c6b8d0", "0x1.cbd5a7d92283ap-1", "0x1.6922d8f8a2c94p-2"),
    ("7d808df3d3aa022f", "-0x1.955cf3ce49f30p-6", "-0x1.869a46cf44a08p+0"),
    ("adc7193a56051dc0", "0x1.3e067a165e265p-1", "-0x1.3d9bde757acbfp-3"),
    ("8b16f36fddaf0fc9", "0x1.ff7ce3434739cp-1", "0x1.22b35fc47d3b4p+0"),
    ("969600de84c8e023", "0x1.3086e60e9b7f6p+3", "0x1.36d1cf2a10d7dp+3"),
    ("dd8808065ee9a0d3", "0x1.f87f59d83b740p-1", "0x1.c6ddd938c9dd0p-1"),
    ("0d82540c1e1a3eb4", "-0x1.e1fd665575bd0p-1", "-0x1.faaaae9d4a5c0p-1"),
    ("9e4c41ac696d61bf", "-0x1.222e6ed386cf9p+3", "-0x1.20dcf262c39d8p+3"),
    ("6ddff016dc7db169", "0x1.f65bf1d067000p-7", "0x1.0d5051f574000p-8"),
]


def test_banded_conditional_draws_are_pinned():
    # the exact draw's bits are part of its contract: its float operations and its
    # rng.random(2n) per call, pinned on the density test's draws
    got = [(_digest(draws), draws[0].hex(), draws[-1].hex())
           for *_, draws in _density_case_draws()]
    assert got == PINNED_DRAWS


_SOFT_WALL = math.log(0.5) ** 2  # height_restriction_logp's wall half-width at h = 0.5

# label -> (N, params, extra bands, (blake2b of the field, field sum, phi[3, 4], phi[5, 2])
# after 200 heat-bath sweeps)
PINNED_HEAT_BATH = {
    "plain": (8, dict(beta=0.5, h=0.1), (),
              ("2105f4fddc787044", -30.441231598475547, -0.9617929492809466,
               -1.8431660219094579)),
    "soft-wall": (8, dict(beta=0.5, h=0.5), ((-_SOFT_WALL, _SOFT_WALL, 12.0),),
                  ("7223f7e6bb88326b", -1.0049805602801196, 0.27985756716677357,
                   -0.4552062124359648)),
    "copolymer": (8, dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (),
                  ("984001fc8d3ddef7", 17.42610386522903, 0.7841913060871224,
                   0.06860208552998004)),
    "plain-N16": (16, dict(beta=0.5, h=0.1), (),
                  ("2226bf1b7dab9efa", -106.23090782942207, -0.318785984666229,
                   -1.3230231981103653)),
}


@pytest.mark.parametrize("label", sorted(PINNED_HEAT_BATH))
def test_pinned_heat_bath_trajectory(label):
    # the exact reference sweep's draws, pinned to the last bit (atol 0) over 200 sweeps
    N, kwargs, extra, expected = PINNED_HEAT_BATH[label]
    g = lattice.build_box(N)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(232, "hb-pin-om"))
    params = pinning.PinningParams(**kwargs)
    chain = _chain(g, params, om, rng.stream(233, "hb-pin", label), extra)
    pinning.heat_bath_sweep(chain, 200)
    f = chain.field
    assert (_digest(f), float(f.sum()), float(f[3, 4]), float(f[5, 2])) == expected


# band lists of the half-update law tests, by the weight w drawn for them
_REFLECT_BANDS = {
    "scalar": lambda w: [(-1.0, 1.0, w)],
    "wall": lambda w: [(-1.0, 1.0, w), (-0.5, 0.5, -0.5 * w)],
    "copolymer": lambda w: [(-math.inf, 0.0, w)],
}


def _banded_laws(test):
    """Run `test` over the band kinds, means, sds and weights of the half-update law tests."""
    for case in [dict(kind="scalar", mu=2.0, sigma=0.5, w=30.0),     # mu outside the band: most
                                                                     # reflections stay put
                 dict(kind="scalar", mu=-9.0, sigma=0.5, w=30.0),    # mu 16 sd below the band
                 dict(kind="scalar", mu=1.5, sigma=0.5, w=-30.0),
                 dict(kind="wall", mu=0.4, sigma=0.5, w=30.0),
                 dict(kind="copolymer", mu=3.0, sigma=0.5, w=30.0),  # mu above the half-line
                 dict(kind="copolymer", mu=-9.0, sigma=0.5, w=-30.0),
                 dict(kind="per-site", mu=1.5, sigma=0.5, w=30.0)]:
        test = example(**case)(test)
    test = given(kind=st.sampled_from(sorted(_REFLECT_BANDS) + ["per-site"]),
                 mu=st.floats(-12.0, 12.0), sigma=st.floats(0.3, 1.0),
                 w=st.floats(-30.0, 30.0))(test)
    return settings(max_examples=30, deadline=None, derandomize=True)(test)


def _half_update(r, layout, mu, x, reflect, sigma=0.5):
    """One pinning._half_update of the sites at heights x, conditional means mu and sd
    sigma on the layout, driven through its gather: a flat field whose first neighbour row
    holds 4 mu and whose other three hold -0.0 sums to 4 mu exactly, over the denominator 4.
    At mu = -0.0 all four rows hold -0.0, and their sum is +0.0, since numpy's sum starts
    from +0.0.  Returns the heights written back, a view of the field."""
    n = len(mu)
    flat = np.concatenate([4 * mu, np.full(3 * n, -0.0), x])
    index = np.arange(5 * n).reshape(5, n)
    pinning._half_update(r, flat, index[4], index, layout, reflect, np.array(4.0), np.array(2.0),
                         np.array(sigma))
    return flat[4 * n:]


def _half_update_keeps_the_banded_law(reflect, r, kind, mu, sigma, w):
    """200 000 exact draws at mean mu, sd sigma and the bands of kind and w, then one
    reflection (reflect true) or independence update of each, checked to follow the same
    law (KS); returns the draws and their updates."""
    n = 200_000
    if kind == "per-site":
        # two weights alternating over the sites: each half has its own law
        groups = [(slice(0, n, 2), [(-1.0, 1.0, w)]), (slice(1, n, 2), [(-1.0, 1.0, -0.5 * w)])]
        layout = pinning.BandLayout([(-1.0, 1.0, np.tile([w, -0.5 * w], n // 2))])
    else:
        bands = _REFLECT_BANDS[kind](w)
        groups = [(slice(None), bands)]
        layout = pinning.BandLayout(_first_band_per_site(bands, n))
    m = np.full(n, mu)
    x = pinning.sample_banded_conditional(r, m, sigma, layout)
    y = _half_update(r, layout, m, x, reflect, sigma)
    # about 45 KS tests per run: 1e-4 each keeps a false alarm below 0.5 % per run
    for sites, group_bands in groups:
        ks = stats.ks_1samp(y[sites], _banded_cdf(mu, sigma, group_bands))
        assert ks.pvalue > 1e-4, (kind, mu, sigma, w, (y != x).mean(), ks)
    return x, y


@_banded_laws
def test_reflection_keeps_the_banded_law(kind, mu, sigma, w):
    # exact draws, one Metropolised reflection each, the same law after (KS), and
    # every moved site at the mirror image of where it was, to rounding (2 mu - x
    # is rounded once and its mirror once more)
    x, y = _half_update_keeps_the_banded_law(
        True, rng.stream(260, "reflect", kind, mu, sigma, w), kind, mu, sigma, w)
    moved = y != x
    back, was = (2 * mu - y)[moved], x[moved]
    assert np.all(np.abs(back - was) <= 4 * np.spacing(np.maximum(2 * abs(mu), np.abs(was))))


# a neighbour sum s: +-0.0, or of magnitude in [1e-300, 1e300]
_NEIGHBOUR_SUMS = st.one_of(st.sampled_from([0.0, -0.0]),
                            st.builds(math.copysign, st.floats(1e-300, 1e300),
                                      st.sampled_from([1.0, -1.0])))


@settings(max_examples=500, deadline=None, derandomize=True)
@example(s=-0.0, m=0.0, x=0.0)
@example(s=1e-300, m=3.0, x=-0.0)
@example(s=-1e300, m=math.sqrt(2.0), x=1.5)
@given(s=_NEIGHBOUR_SUMS, m=st.floats(0.0, 3.0),
       x=st.floats(allow_nan=False, allow_infinity=False))
def test_reflection_over_the_half_denominator_is_twice_the_mean(s, m, x):
    # a reflection divides the neighbour sum s by the half denominator (4 + m^2) / 2 and
    # subtracts x, in place of (mu + mu) - x with mu = s / (4 + m^2): halving the
    # denominator is exact and doubling commutes with rounding, so the two agree bit for
    # bit.  Sums of magnitude below 1e-300 (but +-0) are left out: there the quotient can
    # fall among the subnormals, where doubling no longer commutes with rounding, and the
    # neighbour sums of heights of order 1 never come near them
    denom = np.array(4.0 + m ** 2)  # as GibbsChain builds it
    y = np.array([s])
    y /= denom / 2
    y -= np.array([x])
    mu = np.array([s]) / denom
    want = np.add(mu, mu) - np.array([x])
    assert y.tobytes() == want.tobytes(), (s, m, x, y, want)


@_banded_laws
def test_independence_update_keeps_the_banded_law(kind, mu, sigma, w):
    # exact draws, one Metropolised independence update each (a fresh unweighted
    # Gaussian proposal), the same law after (KS)
    _half_update_keeps_the_banded_law(
        False, rng.stream(270, "independence", kind, mu, sigma, w), kind, mu, sigma, w)


def test_band_layout_scalar_and_per_site():
    # per-site bands give one weight column per site; a scalar band is spread over them
    lay = pinning.BandLayout([(-1.0, 1.0, np.full(3, 2.0)), (-math.inf, 0.0, -1.0)])
    assert lay.edges.ravel().tolist() == [-1.0, 0.0, 1.0]
    assert lay.weights.shape == (4, 3)
    assert np.allclose(lay.weights.T, np.exp(np.array([-1.0, 1.0, 2.0, 0.0]) - 2.0))
    per_site = pinning.BandLayout([(-1.0, 1.0, np.array([0.5, -3.0]))])
    assert per_site.weights.shape == (3, 2)
    assert np.allclose(per_site.weights[1], [1.0, math.exp(-3.0)])
    assert np.allclose(per_site.weights[[0, 2]], [[math.exp(-0.5), 1.0]] * 2)


# label -> (N, params, extra bands, (field sum, phi[3, 4], phi[5, 2], L) after 200 sweeps).
# The N = 7 entries run one reflection sweep per independence sweep, as every box with
# N <= 7 does; the N = 16 (four reflection sweeps per independence sweep) and N = 32
# (eight) entries pin the benchmark's chain sizes.
PINNED_TRAJECTORIES = {
    "plain": (8, dict(beta=0.5, h=0.1), (),
              (-7.677485374282316, -0.16654736101810919, 0.499089773004487, 62.0)),
    "wall": (8, dict(beta=0.5, h=0.1, m=0.3), ((-0.5, 0.5, 2.0),),
             (-0.06932288878885418, -0.15964522193050296, 0.14385859206041757, 64.0)),
    "copolymer": (8, dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (),
                  (16.481054706044958, -0.1825702564800747, 0.393061458572489, 14.0)),
    "plain-N7": (7, dict(beta=0.5, h=0.1), (),
                 (-7.354133758829892, 0.26049832039334486, -0.369137095156093, 44.0)),
    "wall-N7": (7, dict(beta=0.5, h=0.1, m=0.3), ((-0.5, 0.5, 2.0),),
                (2.3093446824706163, 0.23387931536021886, 0.4478988991991806, 47.0)),
    "copolymer-N7": (7, dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (),
                     (-4.918952030820056, -0.8833957415575052, -0.41828307869957465, 22.0)),
    "plain-N16": (16, dict(beta=0.5, h=0.1), (),
                  (-13.075815438603698, -0.6704012551948213, -0.6886648645035436, 224.0)),
    "wall-N16": (16, dict(beta=0.5, h=0.1, m=0.3), ((-0.5, 0.5, 2.0),),
                 (-0.44579526596189467, 0.2583026581701671, -0.42339832599182947, 253.0)),
    "copolymer-N16": (16, dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (),
                      (81.14315188109313, 1.4344872337193197, 0.32597862171377856, 73.0)),
    "plain-N32": (32, dict(beta=0.5, h=0.1), (),
                  (331.5284357306461, -1.0412884997274519, -1.1074568304542516, 786.0)),
    "wall-N32": (32, dict(beta=0.5, h=0.1, m=0.3), ((-0.5, 0.5, 2.0),),
                 (-2.830642176473469, 0.012481187385500747, 0.005482820332830929, 1012.0)),
    "copolymer-N32": (32, dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (),
                      (392.581009304073, 0.7599808744894978, 0.5085495264664096, 253.0)),
}


@pytest.mark.parametrize("label", sorted(PINNED_TRAJECTORIES))
def test_pinned_trajectory(label):
    # the chain's random-number consumption, band layout and independence /
    # reflection schedule are part of its contract: these values pin 200 sweeps
    # from fixed streams
    N, kwargs, extra, expected = PINNED_TRAJECTORIES[label]
    g = lattice.build_box(N)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(230, "pin-om"))
    params = pinning.PinningParams(**kwargs)
    chain = _chain(g, params, om, rng.stream(231, "pin", label), extra)
    rec = pinning.run_chain(g, params, om, chain.rng, sweeps=200, thinning=200, chain=chain)
    f = chain.field
    got = (f.sum(), f[3, 4], f[5, 2], rec.contacts_window[-1])
    assert np.allclose(got, expected, rtol=0.0, atol=1e-10), (got, expected)


def test_fortran_ordered_field_is_updated():
    g = lattice.build_box(8)
    om = _zero_omega(g)
    params = pinning.PinningParams(h=0.5)
    start = fields.harmonic_extension(g, 0.0, params.bc).values + 0.25
    chain = pinning.GibbsChain(g, params, om, np.asfortranarray(start), rng.stream(218, "ord"))
    ref = pinning.GibbsChain(g, params, om, start.copy(), rng.stream(218, "ord"))
    field = chain.field
    assert field.flags.c_contiguous and field.dtype == np.float64
    pinning.heat_bath_sweep(chain, 5)
    pinning.heat_bath_sweep(ref, 5)
    assert chain.field is field
    assert not np.array_equal(field[g.interior_mask], start[g.interior_mask])
    assert np.array_equal(field, ref.field)
    # a C-ordered field is handed on uncopied, as consecutive ladder segments need
    nxt = pinning.GibbsChain(g, pinning.PinningParams(h=1.0), om, field, chain.rng)
    assert nxt.field is field


def test_stationary_law_single_site():
    g = lattice.build_box(2)
    om = _zero_omega(g)
    params = pinning.PinningParams(beta=0.0, h=1.0)
    rec = pinning.run_chain(g, params, om, rng.stream(202, "st"), sweeps=60000,
                            burn_in=200, interaction="interior")
    p = 2 * special.ndtr(2.0) - 1.0
    target = math.e * p / (math.e * p + 1 - p)
    mean, se = rec.mean_se(rec.contact_fraction)
    assert abs(mean - target) < 4 * max(se, math.sqrt(target * (1 - target) / len(rec.contact_fraction)))


def test_alternating_chain_single_site_off_centre():
    # boundary 0.7 puts the one site's conditional mean at 0.7, off the band's centre,
    # so reflection sweeps reject some moves; the contact fraction stays exact
    g = lattice.build_box(2)
    params = pinning.PinningParams(beta=0.0, h=1.0, bc=fields.explicit_bc(np.full(8, 0.7)))
    rec = pinning.run_chain(g, params, _zero_omega(g), rng.stream(219, "off"), sweeps=40000,
                            burn_in=200, interaction="interior")
    p = special.ndtr((1.0 - 0.7) / 0.5) - special.ndtr((-1.0 - 0.7) / 0.5)
    target = math.e * p / (math.e * p + 1 - p)
    mean, se = rec.mean_se(rec.contact_fraction)
    assert abs(mean - target) < 4 * max(se, math.sqrt(target * (1 - target) / len(rec.contact_fraction)))


@pytest.mark.parametrize("a,b", [(1, 1), (1, 4), (3, 2), (2, 3), (0, 5), (4, 7), (7, 6), (6, 11)])
def test_alternating_sweeps_split_anywhere(a, b):
    # the phase in the cycle of one heat-bath and k reflection sweeps lives on the
    # chain: a + b sweeps at once equal a sweeps then b, bit for bit, and run_chain
    # keeps that schedule; at N = 8 (k = 2) and N = 16 (k = 4) the splits cross cycles
    for N, k in ((8, 2), (16, 4)):
        g = lattice.build_box(N)
        om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(254, "split-om"))
        params = pinning.PinningParams(beta=0.5, h=0.1, m=0.3)
        one, two, three = (_chain(g, params, om, rng.stream(255, "split"), ((-0.5, 0.5, 2.0),))
                           for _ in range(3))
        assert one._reflections == k
        pinning._alternating_sweeps(one, a + b)
        pinning._alternating_sweeps(two, a)
        pinning._alternating_sweeps(two, b)
        pinning.run_chain(g, params, om, three.rng, sweeps=b, burn_in=a, chain=three)
        assert np.array_equal(one.field, two.field) and np.array_equal(one.field, three.field)
        assert one._phase == two._phase == three._phase == (a + b) % (1 + k)
        assert one.rng.random() == two.rng.random() == three.rng.random()


def test_schedule_counts_sweeps_of_each_kind():
    # one independence sweep, then max(1, N // 4) reflection sweeps: per colour of n sites
    # an independence half-update draws n normals, then n uniforms, a reflection n uniforms
    for N in (2, 7, 8, 16, 32):
        g = lattice.build_box(N)
        params = pinning.PinningParams(h=1.0)
        chain = pinning.make_chain(g, params, _zero_omega(g), rng.stream(259, "count", N))
        twin = rng.stream(259, "count", N)
        pinning._alternating_sweeps(chain, 8)
        for sweep in range(8):
            for sites, *_ in chain._colours:
                if sweep % (1 + max(1, N // 4)) == 0:
                    twin.standard_normal(len(sites))
                twin.random(len(sites))
        assert _state(chain.rng) == _state(twin), N


def test_cycle_keeps_the_heat_bath_law():
    # at N = 8 (two reflections per independence sweep) the charged fraction of
    # run_chain's chain agrees with a heat-bath-only chain of the same length, on the
    # plain band, on height_restriction_logp's soft wall at h = 0.5 at its strongest
    # kappa, and on the co-membrane's half-line
    g = lattice.build_box(8)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(262, "inv-om"))
    b = math.log(0.5) ** 2
    cases = {"plain": (dict(beta=0.5, h=0.1), ()),
             "soft-wall": (dict(beta=0.5, h=0.5), ((-b, b, 12.0),)),
             "copolymer": (dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), ())}
    sweeps, thinning = 12000, 2
    for label, (kwargs, extra) in cases.items():
        params = pinning.PinningParams(**kwargs)
        chain = _chain(g, params, om, rng.stream(263, "inv", "cycle", label), extra)
        rec = pinning.run_chain(g, params, om, chain.rng, sweeps=sweeps, burn_in=200,
                                thinning=thinning, chain=chain)
        charged = pinning._interaction(params, om)[4]
        chain = _chain(g, params, om, rng.stream(263, "inv", "heat-bath", label), extra)
        pinning.heat_bath_sweep(chain, 200)
        frac = np.empty(sweeps // thinning)
        for i in range(len(frac)):
            pinning.heat_bath_sweep(chain, thinning)
            frac[i] = charged(chain.field[g.tilde_mask]).mean()
        m1, s1 = rec.mean_se(rec.contact_fraction)
        m2, s2 = rec.mean_se(frac)
        assert abs(m1 - m2) < 4 * math.hypot(s1, s2), (label, m1, s1, m2, s2)


def test_cycle_matches_the_exact_one_site_contact_probability():
    # N = 2, off-centre boundary, beta > 0 and a mass: run_chain's contact probability is
    # the h-derivative of exact_partition_small's log Z (a central difference, error ~1e-10)
    g = lattice.build_box(2)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(271, "exact-om"))
    params = pinning.PinningParams(beta=0.5, h=0.3, m=0.4,
                                   bc=fields.explicit_bc(np.linspace(-0.5, 1.5, 8)))
    dh = 1e-5
    target = (pinning.exact_partition_small(g, dataclasses.replace(params, h=0.3 + dh), om)
              - pinning.exact_partition_small(g, dataclasses.replace(params, h=0.3 - dh), om)
              ) / (2 * dh)
    rec = pinning.run_chain(g, params, om, rng.stream(271, "exact"), sweeps=40000, burn_in=200,
                            interaction="interior")
    mean, se = rec.mean_se(rec.contact_fraction)
    assert 0.05 < target < 0.95
    assert abs(mean - target) < 4 * max(se, math.sqrt(target * (1 - target) / 40000))


def test_saturated_reward_pins_to_band():
    g = lattice.build_box(2)
    om = _zero_omega(g)
    params = pinning.PinningParams(beta=0.0, h=30.0)
    rec = pinning.run_chain(g, params, om, rng.stream(203, "sat"), sweeps=5000, burn_in=50,
                            interaction="interior")
    assert rec.contact_fraction.mean() >= 0.999


def test_neutral_weight_is_plain_gaussian():
    g = lattice.build_box(2)
    om = _zero_omega(g)
    params = pinning.PinningParams(beta=0.0, h=0.0)
    chain = pinning.make_chain(g, params, om, rng.stream(204, "plain"))
    vals = np.empty(30000)
    for i in range(len(vals)):
        pinning.heat_bath_sweep(chain)
        vals[i] = chain.field[1, 1]
    ks = stats.ks_1samp(vals, lambda x: special.ndtr(np.asarray(x) / 0.5))
    assert ks.pvalue > 0.005


def test_run_chain_deterministic():
    g = lattice.build_box(8)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(205, "om"))
    params = pinning.PinningParams(beta=0.5, h=0.2)
    chains = [pinning.make_chain(g, params, om, rng.stream(206, "run")) for _ in range(2)]
    a, b = (pinning.run_chain(g, params, om, c.rng, sweeps=50, burn_in=10, chain=c)
            for c in chains)
    assert np.array_equal(a.contacts_window, b.contacts_window)
    assert np.array_equal(chains[0].field, chains[1].field)
    assert np.array_equal(a.energy, b.energy)


def test_repulsion_and_attraction():
    g = lattice.build_box(32)
    om = _zero_omega(g)
    rec = pinning.run_chain(g, pinning.PinningParams(h=-10.0), om,
                            rng.stream(207, "rep"), sweeps=400, burn_in=200,
                            interaction="interior")
    assert rec.contact_fraction.mean() < 0.01
    rec2 = pinning.run_chain(g, pinning.PinningParams(h=10.0), om,
                             rng.stream(208, "att"), sweeps=400, burn_in=200,
                             interaction="interior")
    assert rec2.contact_fraction.mean() > 0.5


def test_contact_fraction_monotone_in_h():
    g = lattice.build_box(8)
    om = _zero_omega(g)
    means, ses = [], []
    for h in (-1.0, 0.0, 0.6, 1.5):
        rec = pinning.run_chain(g, pinning.PinningParams(h=h), om,
                                rng.stream(209, "mono", h), sweeps=2000, burn_in=300)
        m, s = rec.mean_se(rec.contact_fraction)
        means.append(m)
        ses.append(s)
    for i in range(len(means) - 1):
        assert means[i + 1] - means[i] > -3 * math.hypot(ses[i], ses[i + 1])


def test_boundary_never_changes():
    g = lattice.build_box(8)
    om = _zero_omega(g)
    bc = fields.explicit_bc(np.full(4 * 8, 1.3))
    params = pinning.PinningParams(h=0.5, bc=bc)
    chain = pinning.make_chain(g, params, om, rng.stream(210, "bc"))
    before = chain.field[g.boundary_mask].copy()
    pinning.heat_bath_sweep(chain, 30)
    assert np.array_equal(chain.field[g.boundary_mask], before)


def _records_one_at_a_time(chain, n_rec, thinning, interaction, observables):
    """run_chain's series by its per-record formulas: after each thinning interval gather the
    range's heights, find the charged sites, count them and sum their weights."""
    in_range = np.flatnonzero(pinning._interaction_mask(chain.geom, interaction))
    _, _, weights, scale, charged_at = pinning._interaction(chain.params, chain.omega)
    weights = weights.reshape(-1)[in_range]
    L, frac, en, extra = [], [], [], {name: [] for name in observables}
    for _ in range(n_rec):
        pinning._alternating_sweeps(chain, thinning)
        charged = charged_at(chain.field.reshape(-1)[in_range])
        count = np.count_nonzero(charged)
        L.append(float(count))
        frac.append(count / in_range.size)
        en.append(scale * float(weights[charged].sum()))
        for name, fn in observables.items():
            extra[name].append(fn(chain.field))
    return L, frac, en, extra


@pytest.mark.parametrize("N", [6, 20])
@pytest.mark.parametrize("interaction", ["tilde", "interior"])
@pytest.mark.parametrize("kwargs", [dict(beta=0.5, h=0.1), dict(model="copolymer", rho=0.5, h=0.2,
                                                                   beta=0.5)],
                         ids=["pinning", "copolymer"])
def test_record_blocks_match_one_record_at_a_time(kwargs, interaction, N):
    # run_chain scores its records a block at a time (N = 6: blocks of the most records, N = 20:
    # of the most heights); over two whole blocks and a remainder every series equals the
    # one-record-at-a-time formulas' bit for bit
    g = lattice.build_box(N)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(213, "blocks-om"))
    params = pinning.PinningParams(**kwargs)
    n_range = int(pinning._interaction_mask(g, interaction).sum())
    rows = min(pinning._RECORD_BLOCK, pinning._BLOCK_VALUES // n_range)
    assert (rows == pinning._RECORD_BLOCK) == (N == 6)
    n_rec, thinning = 2 * rows + 5, 2
    observables = {"sumsq": lambda f: float(np.sum(f ** 2))}
    got_chain, want_chain = (pinning.make_chain(g, params, om, rng.stream(214, "blocks"))
                             for _ in range(2))
    rec = pinning.run_chain(g, params, om, got_chain.rng, sweeps=n_rec * thinning,
                            thinning=thinning, chain=got_chain, interaction=interaction,
                            observables=observables)
    L, frac, en, extra = _records_one_at_a_time(want_chain, n_rec, thinning, interaction,
                                                observables)
    assert rec.contacts_window.tolist() == L
    assert rec.contact_fraction.tolist() == frac
    assert rec.energy.tolist() == en
    assert rec.extra["sumsq"].tolist() == extra["sumsq"]
    assert np.array_equal(got_chain.field, want_chain.field)


def test_energy_bookkeeping_matches_recompute():
    g = lattice.build_box(8)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(211, "e"))
    params = pinning.PinningParams(beta=0.4, h=0.3)
    chain = pinning.make_chain(g, params, om, rng.stream(212, "er"))
    rec = pinning.run_chain(g, params, om, chain.rng, sweeps=20, burn_in=5, chain=chain)
    assert abs(rec.energy[-1] - pinning.energy(g, chain.field, om, params)) < 1e-8


def test_exact_partition_examples():
    g = lattice.build_box(2)
    om = _zero_omega(g)
    logz = pinning.exact_partition_small(g, pinning.PinningParams(h=1.0), om)
    p = 2 * special.ndtr(2.0) - 1
    assert abs(logz - math.log(1 + (math.e - 1) * p)) < 1e-9
    assert pinning.exact_partition_small(g, pinning.PinningParams(h=0.0), om) == pytest.approx(0.0, abs=1e-12)
    for N, sites in ((3, 4), (4, 9)):
        with pytest.raises(DomainError,
                           match=rf"only the one-site box N = 2 \(N={N} has {sites} interior"):
            pinning.exact_partition_small(lattice.build_box(N), pinning.PinningParams(), om)


def test_exact_one_site_routes_agree():
    # two exact routes to the one-site log Z: the quadrature, and log(1 + (e^s - 1) p)
    # with p the band probability under the free field, which free_interaction_mean
    # (the coupling ladder's t = 0 integrand) returns when the charge is 1
    g = lattice.build_box(2)
    r = rng.stream(264, "one-site")
    for _ in range(50):
        beta, h, m, u = r.uniform([0.0, -3.0, 0.0, -2.0], [1.5, 3.0, 1.0, 2.0])
        bc = fields.explicit_bc(r.normal(0.0, 1.5, 8))
        om = disorder.sample_disorder(g, disorder.GAUSSIAN, r)
        shift = fields.harmonic_extension(g, m, bc).values
        unit = pinning.PinningParams(h=1.0, m=m, u=u, bc=bc)
        p = pinning.free_interaction_mean(g, unit, om, shift)
        s = beta * om.values[1, 1] - 0.5 * beta ** 2 + h
        params = pinning.PinningParams(beta=beta, h=h, m=m, u=u, bc=bc)
        logz = pinning.exact_partition_small(g, params, om)
        assert abs(logz - math.log1p(math.expm1(s) * p)) < 1e-12, (beta, h, m, u)


@pytest.mark.parametrize("m", [0.0, 0.5])
@pytest.mark.parametrize("bc_values", [np.zeros(8), np.linspace(-2.0, 3.0, 8)])
def test_exact_partition_closed_form(m, bc_values):
    # at beta = 0 the charge is s = h, and Z = 1 + (e^s - 1) P(band) with P(band) the
    # free one-site Gaussian's mass in [u - 1, u + 1], taken on the tail side it lies in
    g = lattice.build_box(2)
    om = _zero_omega(g)
    bc = fields.explicit_bc(bc_values)
    grid = bc.grid(g)
    mu = (grid[0, 1] + grid[2, 1] + grid[1, 0] + grid[1, 2]) / (4.0 + m * m)
    sd = (4.0 + m * m) ** -0.5
    cases = [(u, s) for u in (mu - 1.5, mu, mu + 0.7) for s in np.linspace(-5.0, 8.0, 14)]
    cases.append((mu + 10.0 * sd + 1.0, 30.0))  # band 10 sd into the upper tail
    for u, s in cases:
        a, b = (u - 1.0 - mu) / sd, (u + 1.0 - mu) / sd
        p = special.ndtr(-a) - special.ndtr(-b) if a > 0 else special.ndtr(b) - special.ndtr(a)
        logz = pinning.exact_partition_small(
            g, pinning.PinningParams(h=float(s), m=m, u=float(u), bc=bc), om)
        assert abs(logz - math.log1p(math.expm1(s) * p)) < 1e-12, (u, s)


def test_exact_partition_annealing_identity():
    # E_omega[Z^{beta,omega}] equals the beta = 0 partition function
    g = lattice.build_box(2)
    beta, h = 0.7, 0.4
    r = rng.stream(213, "ann")
    n = 20000
    zs = np.empty(n)
    for i in range(n):
        om = disorder.sample_disorder(g, disorder.GAUSSIAN, r)
        zs[i] = math.exp(pinning.exact_partition_small(
            g, pinning.PinningParams(beta=beta, h=h), om))
    z0 = math.exp(pinning.exact_partition_small(g, pinning.PinningParams(h=h), _zero_omega(g)))
    se = zs.std(ddof=1) / math.sqrt(n)
    assert abs(zs.mean() - z0) < 4 * se


def test_quenched_jensen_small():
    # mean over replicas of log Z <= annealed log Z
    g = lattice.build_box(2)
    beta, h = 0.7, 0.4
    r = rng.stream(214, "jensen")
    logs = np.array([pinning.exact_partition_small(
        g, pinning.PinningParams(beta=beta, h=h),
        disorder.sample_disorder(g, disorder.GAUSSIAN, r)) for _ in range(200)])
    z0 = pinning.exact_partition_small(g, pinning.PinningParams(h=h), _zero_omega(g))
    se = logs.std(ddof=1) / math.sqrt(len(logs))
    assert logs.mean() <= z0 + 3 * se


def test_copolymer_symmetry_at_zero():
    # no disorder, h = 0: the lower-solvent indicator has mean 1/2 inside
    g = lattice.build_box(8)
    om = _zero_omega(g)
    params = pinning.PinningParams(model="copolymer", rho=0.5, h=0.0)
    rec = pinning.run_chain(g, params, om, rng.stream(216, "sym"), sweeps=4000, burn_in=400,
                            interaction="interior")
    mean, se = rec.mean_se(rec.contact_fraction)
    assert abs(mean - 0.5) < 4 * max(se, 0.003)


def test_restricted_contacts():
    g = lattice.build_box(32)
    m = 1e-8
    grid = kernels.scale_time_grid(m)
    window = lattice.sub_box_mask(g, 2.0)
    r = rng.stream(217, "restr")
    eq = 0
    n = 40
    for _ in range(n):
        s = fields.sample_scale_stack(g, m, r, grid=grid)
        contacts, restricted = pinning.restricted_contacts(s, 0.0, window)
        assert not np.any(restricted & ~contacts)
        L, Lp = contacts.sum(), restricted.sum()
        assert Lp <= L
        eq += int(Lp == L)
    assert eq / n > 0.9  # u = 0 with a +10 offset: the restriction rarely bites
    # adversarial stack: shift the first layer far above the line
    s = fields.sample_scale_stack(g, m, r, grid=grid)
    s.stack.xi[0] += 40.0
    s.values = s.stack.xi.sum(axis=0)
    _, restricted = pinning.restricted_contacts(s, 0.0, window)
    assert not restricted.any()


def test_iact_reasonable():
    x = np.sin(np.linspace(0, 40 * math.pi, 4000)) + 0.1 * np.random.default_rng(0).standard_normal(4000)
    tau = pinning.integrated_autocorrelation(x)
    assert tau > 1.0
    iid = np.random.default_rng(1).standard_normal(4000)
    assert pinning.integrated_autocorrelation(iid) < 2.0


def _ar1(a, n, seed):
    """AR(1) series x_t = a x_{t-1} + e_t started in its stationary law."""
    e = np.random.default_rng(seed).standard_normal(n)
    e[0] /= math.sqrt(1.0 - a * a)
    return signal.lfilter([1.0], [1.0, -a], e)


@pytest.mark.parametrize("a", [0.5, 0.8, 0.95])
def test_iact_matches_ar1(a):
    # tau = (1 + a) / (1 - a) to 10 %, on series of 20000 tau (i.i.d. input is
    # test_iact_reasonable's)
    tau = (1.0 + a) / (1.0 - a)
    x = _ar1(a, int(20000 * tau), seed=int(100 * a))
    assert pinning.integrated_autocorrelation(x) == pytest.approx(tau, rel=0.1)


def test_iact_bias_at_ladder_length():
    # a ladder point holds 200-300 records; on 400 AR(1) series of 250 records at
    # a = 0.9 (tau = 19, 13 tau long) the mean estimate reads about 0.85 tau, its
    # spread over seeds about 0.03.  Sokal's window (c = 5) reads 0.61 tau here:
    # an estimator that low would shrink every ladder SE and fails this check.
    est = [pinning.integrated_autocorrelation(_ar1(0.9, 250, seed=s)) for s in range(400)]
    assert 0.75 * 19.0 < np.mean(est) < 19.0


def test_iact_sums_past_a_quarter_of_the_series():
    # a ramp's autocorrelation first turns non-positive at lag 74 of 200: the sum
    # runs to there (69.6), where a cap at n/4 lags would stop at 63.0
    x = np.arange(200.0)
    xc = x - x.mean()
    rho = np.correlate(xc, xc, mode="full")[200:] / (xc @ xc)
    first = int(np.flatnonzero(rho <= 0.0)[0])
    assert first > 50
    tau = pinning.integrated_autocorrelation(x)
    assert tau == pytest.approx(1.0 + 2.0 * rho[:first].sum(), rel=1e-12)
    assert tau > 1.0 + 2.0 * rho[:49].sum() + 6.0


def test_mean_se_uses_each_series_own_iact():
    # an i.i.d. series next to a strongly correlated one in the same record: each
    # SE carries its own series' IACT, not the contact total's
    n = 40000
    iid, slow = np.random.default_rng(7).standard_normal(n), _ar1(0.9, n, seed=8)
    rec = pinning.ChainRecord(contacts_window=slow, contact_fraction=iid, energy=slow, extra={})
    _, se_iid = rec.mean_se(iid)
    _, se_slow = rec.mean_se(slow)
    assert se_iid == pytest.approx(iid.std(ddof=1) / math.sqrt(n), rel=0.1)
    assert se_slow == pytest.approx(slow.std(ddof=1) * math.sqrt(19.0 / n), rel=0.15)


def test_iact_of_constant_and_short_series():
    # a constant series has IACT 1 and no error, and an infinite SE, since its spread says
    # nothing of its error; one too short for any lag gives an infinite SE too
    rec = pinning.ChainRecord(contacts_window=np.zeros(3), contact_fraction=np.zeros(3),
                              energy=np.zeros(3), extra={})
    for value in (0.0, 0.1, 64.0):
        const = np.full(500, value)
        assert pinning.integrated_autocorrelation(const) == 1.0
        assert rec.mean_se(const) == (value, math.inf)
    assert rec.mean_se(np.array([1.0, 2.0, 4.0]))[1] == math.inf
    # two values: the lag-1 autocorrelation is -1/2, so tau is 1
    assert pinning.integrated_autocorrelation(np.array([1.0, 3.0])) == 1.0


@pytest.mark.parametrize("kwargs", [dict(sweeps=0), dict(sweeps=-3), dict(thinning=0),
                                    dict(thinning=-1),
                                    # not a whole number of records: refused, not rounded
                                    dict(sweeps=3, thinning=10), dict(sweeps=25, thinning=10),
                                    # a bool or a float is not a count, as in heat_bath_sweep
                                    dict(sweeps=True), dict(thinning=True), dict(burn_in=True),
                                    dict(sweeps=4.0), dict(thinning=2.0), dict(burn_in=2.5)])
def test_run_chain_rejects_bad_budgets(kwargs):
    # refused before any draw: the generator is left where it was
    g = lattice.build_box(4)
    args = dict(sweeps=10, thinning=1) | kwargs
    match = (rf"burn_in must be an integer >= 0 \(got {args['burn_in']}\)" if "burn_in" in args
             else f"{args['sweeps']}.*{args['thinning']}")
    r = rng.stream(220, "bad")
    state = _state(r)
    with pytest.raises(DomainError, match=match):
        pinning.run_chain(g, pinning.PinningParams(), _zero_omega(g), r, **args)
    assert _state(r) == state


# label -> (N, params, extra bands, (energy, contact fraction, sum phi^2, L) per record), the
# values of 4 records every 3 sweeps after 6 burn-in sweeps, recorded bit for bit, at the
# sizes and schedules of PINNED_TRAJECTORIES
PINNED_RECORDS = {
    "plain": (8, dict(beta=0.5, h=0.1), (), (
        [1.1287379690271084, 2.9026425383129864, 2.973580847701315, 3.206652600799499],
        [0.765625, 0.84375, 0.890625, 0.9375],
        [40.52022392026398, 30.956387434792276, 22.679141212735214, 16.447857258956425],
        [49.0, 54.0, 57.0, 60.0])),
    "wall": (8, dict(beta=0.5, h=0.1, m=0.3), ((-0.5, 0.5, 2.0),), (
        [1.7664823209950726, 1.7664823209950726, 1.7664823209950726, 1.3636149278472716],
        [1.0, 1.0, 1.0, 0.984375],
        [5.963945747965889, 3.8207365846969275, 4.612314762900547, 3.8065537123753668],
        [64.0, 64.0, 64.0, 63.0])),
    "copolymer": (8, dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (), (
        [6.559338010511686, 1.9365422179485514, 2.6471646627064374, 3.6297524080436347],
        [0.21875, 0.265625, 0.109375, 0.140625],
        [17.406371862336492, 22.60436519041071, 56.42919034251513, 36.49069618178659],
        [14.0, 17.0, 7.0, 9.0])),
    "plain-N7": (7, dict(beta=0.5, h=0.1), (), (
        [3.333850151282582, 2.2959045567622614, 2.389475892433251, 4.63049554770463],
        [0.9591836734693877, 0.8979591836734694, 0.9591836734693877, 0.8979591836734694],
        [11.95834727127524, 19.77004246995994, 10.808023313396017, 14.06855996480153],
        [47.0, 44.0, 47.0, 44.0])),
    "wall-N7": (7, dict(beta=0.5, h=0.1, m=0.3), ((-0.5, 0.5, 2.0),), (
        [1.9729545231409862, 1.9729545231409862, 1.9729545231409862, 1.9729545231409862],
        [1.0, 1.0, 1.0, 1.0],
        [3.307011600866799, 3.580713060460206, 3.173401214102873, 2.984916932021377],
        [49.0, 49.0, 49.0, 49.0])),
    "copolymer-N7": (7, dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (), (
        [3.5528274168348704, 1.2735639497989137, 6.661312703960868, 4.471020525144775],
        [0.3469387755102041, 0.3673469387755102, 0.2857142857142857, 0.3877551020408163],
        [9.070154370940244, 12.070678305605332, 11.133178653229361, 21.287903150589784],
        [17.0, 18.0, 14.0, 19.0])),
    "plain-N16": (16, dict(beta=0.5, h=0.1), (), (
        [2.2770055984724404, 3.781528659664203, 3.372684553361113, 5.576299785407182],
        [0.8125, 0.8515625, 0.8125, 0.83203125],
        [133.88633148006124, 132.08088574888285, 137.3206481002295, 121.95599576321953],
        [208.0, 218.0, 208.0, 213.0])),
    "wall-N16": (16, dict(beta=0.5, h=0.1, m=0.3), ((-0.5, 0.5, 2.0),), (
        [-1.5086141662333032, -2.494850305704765, -2.4720746283035497, 0.03235719057338571],
        [0.98828125, 0.99609375, 0.9921875, 0.9765625],
        [25.22176928488862, 25.253663100939477, 25.699460382109784, 29.19384731560538],
        [253.0, 255.0, 254.0, 250.0])),
    "copolymer-N16": (16, dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (), (
        [25.485175636844275, 13.595324825641816, 15.176200778038902, 33.38380397153235],
        [0.25, 0.19140625, 0.1796875, 0.2890625],
        [107.08005390421317, 118.89144244029428, 155.07404648494335, 97.26242160975056],
        [64.0, 49.0, 46.0, 74.0])),
    "plain-N32": (32, dict(beta=0.5, h=0.1), (), (
        [28.2822594631321, 27.27915854834434, 18.355709860495637, 33.64655332366795],
        [0.78125, 0.7568359375, 0.751953125, 0.71875],
        [690.2135122890527, 723.3180859900141, 686.0931534203206, 812.9276114333833],
        [800.0, 775.0, 770.0, 736.0])),
    "wall-N32": (32, dict(beta=0.5, h=0.1, m=0.3), ((-0.5, 0.5, 2.0),), (
        [-26.38485754582181, -22.47072199074576, -23.99571209036998, -22.867402873135724],
        [0.9951171875, 0.9912109375, 0.98828125, 0.9853515625],
        [83.14726601350534, 105.65544070931648, 108.075985392977, 106.31833797712092],
        [1019.0, 1015.0, 1012.0, 1009.0])),
    "copolymer-N32": (32, dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (), (
        [94.26739814709575, 110.4839966016139, 114.23772759703694, 112.4792211466555],
        [0.2890625, 0.2998046875, 0.2734375, 0.2890625],
        [435.4493145799545, 462.25443715851964, 540.0819459852446, 473.0478327008581],
        [296.0, 307.0, 280.0, 296.0])),
}


@pytest.mark.parametrize("label", sorted(PINNED_RECORDS))
def test_pinned_records(label):
    # every recorded series is part of the chain's contract, to the last bit
    N, kwargs, extra, expected = PINNED_RECORDS[label]
    g = lattice.build_box(N)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(240, "id-om"))
    params = pinning.PinningParams(**kwargs)
    chain = _chain(g, params, om, rng.stream(241, "id", label), extra)
    rec = pinning.run_chain(g, params, om, chain.rng, sweeps=12, burn_in=6, thinning=3,
                            chain=chain, observables={"sumsq": lambda f: float(np.sum(f ** 2))})
    got = (rec.energy.tolist(), rec.contact_fraction.tolist(), rec.extra["sumsq"].tolist(),
           rec.contacts_window.tolist())
    assert got == expected


def _chain_pair(g, om, seed):
    params = pinning.PinningParams(beta=0.5, h=0.1)
    return [pinning.make_chain(g, params, om, rng.stream(seed, "alias", i)) for i in range(2)]


def test_heat_bath_sweep_refuses_bad_sweep_counts():
    # a negative or non-integer count is refused before any draw; zero runs nothing and a
    # numpy integer counts like an int
    g = lattice.build_box(6)
    chain = pinning.make_chain(g, pinning.PinningParams(h=0.5), _zero_omega(g),
                               rng.stream(259, "n-sweeps"))
    before, state = chain.field.copy(), _state(chain.rng)
    for n_sweeps in (-1, 1.0, 2.5, "3", True, None):
        with pytest.raises(DomainError, match=r"n_sweeps must be an integer >= 0"):
            pinning.heat_bath_sweep(chain, n_sweeps)
    pinning.heat_bath_sweep(chain, 0)
    assert np.array_equal(chain.field, before) and _state(chain.rng) == state
    twin = pinning.make_chain(g, pinning.PinningParams(h=0.5), _zero_omega(g),
                              rng.stream(259, "n-sweeps"))
    pinning.heat_bath_sweep(chain, np.int64(2))
    pinning.heat_bath_sweep(twin, 2)
    assert np.array_equal(chain.field, twin.field)


def test_alternating_chains_keep_their_own_fields():
    # two chains of the same shape, swept in turn, end where each ends alone
    g = lattice.build_box(12)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(250, "alias-om"))
    together = _chain_pair(g, om, 251)
    for _ in range(6):
        for chain in together:
            pinning.heat_bath_sweep(chain, 2)
    alone = _chain_pair(g, om, 251)
    for chain in alone:
        pinning.heat_bath_sweep(chain, 12)
    for a, b in zip(together, alone):
        assert np.array_equal(a.field, b.field)


def test_layout_refuses_another_site_count():
    # a layout serves the site count it was built at: called again there it draws what a
    # fresh one draws, in every half-update, and its heat-bath draws share no memory with
    # its buffers; called at any other count the heat-bath draw refuses before it draws,
    # and a Metropolis half-update fails in its gather, before it draws
    bands = [(-1.0, 1.0, np.full(7, 1.5)), (-math.inf, 0.0, -0.5)]
    reused = pinning.BandLayout(bands)
    mu = np.linspace(-2.0, 2.0, 7)
    for rep in range(2):
        got_r, want_r = rng.stream(252, "ws", rep), rng.stream(252, "ws", rep)
        fresh = pinning.BandLayout(bands)
        got = pinning.sample_banded_conditional(got_r, mu, 0.5, reused)
        want = pinning.sample_banded_conditional(want_r, mu, 0.5, fresh)
        assert np.array_equal(got, want)
        buffers = [b for b in vars(reused).values() if isinstance(b, np.ndarray)]
        assert buffers and not any(np.shares_memory(got, b) for b in buffers)
        assert not np.shares_memory(got, mu)
        for reflect in (True, False):
            got, want = (_half_update(got_r, reused, mu, got, reflect),
                         _half_update(want_r, fresh, mu, want, reflect))
            assert np.array_equal(got, want)
    r = rng.stream(252, "ws", "other")
    before = _state(r)
    for n in (0, 1, 6, 8, 112):
        other = np.linspace(-2.0, 2.0, n)
        with pytest.raises(DomainError, match=rf"layout of 7 sites was called at {n}\b"):
            pinning.sample_banded_conditional(r, other, 0.5, reused)
        for reflect in (True, False):
            with pytest.raises(ValueError, match="output array does not match"):
                _half_update(r, reused, other, other, reflect)
    assert _state(r) == before


def test_band_layout_refuses_bands_without_per_site_weights():
    # the per-site weights set a layout's site count, so a list of scalar bands has none
    with pytest.raises(DomainError, match="per-site weights"):
        pinning.BandLayout([(-1.0, 1.0, 1.5), (-math.inf, 0.0, -0.5)])


def test_empty_colour_class_still_samples():
    # N = 2 has one interior site, so one checkerboard colour has no sites at all
    g = lattice.build_box(2)
    params = pinning.PinningParams(h=1.0)
    chain = pinning.make_chain(g, params, _zero_omega(g), rng.stream(253, "empty"))
    assert sorted(len(sites) for sites, *_ in chain._colours) == [0, 1]
    before = chain.field.copy()
    pinning.heat_bath_sweep(chain, 3)
    assert chain.field[1, 1] != before[1, 1] and np.isfinite(chain.field[1, 1])
    assert np.array_equal(chain.field[g.boundary_mask], before[g.boundary_mask])


@pytest.mark.parametrize("name", ["geom", "params", "omega", "rng"])
def test_run_chain_refuses_another_chains_arguments(name):
    # an equal but other object is refused too, before any sweep: the chain would
    # sample at its own params and draw from its own rng whatever the call says
    g = lattice.build_box(6)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(256, "own-om"))
    params = pinning.PinningParams(beta=0.5, h=0.1)
    chain = pinning.make_chain(g, params, om, rng.stream(257, "own"))
    args = dict(geom=g, params=params, omega=om, rng=chain.rng)
    args[name] = {"geom": lambda: lattice.build_box(6),
                  "params": lambda: pinning.PinningParams(beta=0.5, h=0.1),
                  "omega": lambda: disorder.DisorderField(g, disorder.GAUSSIAN, om.values.copy()),
                  "rng": lambda: rng.stream(257, "own")}[name]()
    before, state = chain.field.copy(), _state(chain.rng)
    with pytest.raises(DomainError, match=rf"another {name} than the chain's own"):
        pinning.run_chain(args["geom"], args["params"], args["omega"], args["rng"], sweeps=4,
                          chain=chain)
    assert np.array_equal(chain.field, before) and _state(chain.rng) == state


def _state(gen):
    """The generator's state with its arrays as lists, so that states compare with ==."""
    def plain(v):
        return {k: plain(x) for k, x in v.items()} if isinstance(v, dict) else np.asarray(v).tolist()
    return plain(gen.bit_generator.state)


# finite edges -> band list of the layout, given its first band's per-site weights
_EDGE_BANDS = {
    1: lambda w: [(-math.inf, 0.0, w)],
    2: lambda w: [(-1.0, 1.0, w)],
    4: lambda w: [(-1.0, 1.0, w), (-0.5, 0.5, -0.5 * w)],
}


@pytest.mark.parametrize("per_site", [False, True], ids=["scalar", "per-site"])
@pytest.mark.parametrize("edges", sorted(_EDGE_BANDS))
def test_half_updates_draw_what_they_promise(edges, per_site):
    # a heat-bath half-update consumes rng.random(2n), a reflection rng.random(n) and an
    # independence update rng.standard_normal(n), then rng.random(n), no more and no less,
    # whatever the layout
    n = 37
    w = np.linspace(-3.0, 3.0, n) if per_site else np.full(n, 1.5)
    layout = pinning.BandLayout(_EDGE_BANDS[edges](w))
    assert layout.edges.shape == (edges, 1)
    mu = np.linspace(-2.5, 2.5, n)
    r, twin = rng.stream(258, "draws", edges, per_site), rng.stream(258, "draws", edges, per_site)
    x = pinning.sample_banded_conditional(r, mu, 0.5, layout)
    twin.random(2 * n)
    assert _state(r) == _state(twin)
    x = _half_update(r, layout, mu, x, True)
    twin.random(n)
    assert _state(r) == _state(twin)
    _half_update(r, layout, mu, x, False)
    twin.standard_normal(n)
    twin.random(n)
    assert _state(r) == _state(twin)


def _reflect_reference(r, mu, layout):
    """The reflection of layout.x by its definition: each point's interval by a left
    searchsorted of the sorted edges, its weight read per site, one uniform per site."""
    x = layout.x.copy()
    y = mu + mu - x
    at = np.searchsorted(layout.edges[:, 0], np.stack([x, y]), side="left")
    sites = np.arange(layout.n)
    wx, wy = layout.weights[at[0], sites], layout.weights[at[1], sites]
    return np.where(wx * r.random(layout.n) < wy, y, x)


@pytest.mark.parametrize("per_site", [False, True], ids=["scalar", "per-site"])
@pytest.mark.parametrize("edges", sorted(_EDGE_BANDS))
def test_reflection_lookup_is_a_left_searchsorted(edges, per_site):
    # the reflection counts the edges strictly below each point of its (x, y) pair; on
    # heights exactly on every edge, one ulp either side, +-0.0 and +-inf that count is
    # the interval a left searchsorted finds, and the reflection keeps, bit for bit,
    # what the searchsorted reference keeps from the same generator state.  At mu = -0.0
    # the gathered neighbour rows all hold -0.0, and their sum starts from numpy's +0.0, so
    # the mean is +0.0 and y = 0.0 - x mirrors each height onto its negative (both zeros
    # onto +0.0): y visits them too
    cuts = sorted({e for lo, hi, _ in _EDGE_BANDS[edges](1.0) for e in (lo, hi)
                   if math.isfinite(e)})
    x = np.array([v for e in cuts for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
                 + [0.0, -0.0, np.inf, -np.inf])
    n = x.size
    w = np.linspace(-3.0, 3.0, n) if per_site else np.full(n, 1.5)
    layout = pinning.BandLayout(_EDGE_BANDS[edges](w))
    assert layout.edges[:, 0].tolist() == cuts
    for mu in (np.full(n, -0.0), np.full(n, 0.25)):
        got_r, want_r = (rng.stream(259, "lookup", edges, per_site) for _ in range(2))
        layout.x[:] = x
        summed = mu + 0.0  # the mean the gather gives: -0.0 + 0.0 is +0.0
        want = _reflect_reference(want_r, summed, layout)
        xy = np.stack([x, summed + summed - x])
        got = _half_update(got_r, layout, mu, x, True)
        assert np.array_equal(layout.at - layout.base2,
                              np.searchsorted(layout.edges[:, 0], xy, side="left"))
        assert got.tobytes() == want.tobytes()
        assert _state(got_r) == _state(want_r)
