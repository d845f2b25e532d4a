import math

import numpy as np
import pytest
from scipy import special, stats

from gffpin import disorder, fields, kernels, lattice, pinning, rng
from gffpin.errors import ContractError, DomainError, UnsupportedGeometryError


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
    far = fields.FieldSample(g, np.full((5, 5), 50.0))
    assert pinning.energy(far, om, pinning.PinningParams(h=1.0)) == 0.0
    # single contact with omega = 0, beta = 1, h = 1/2: weight -lambda(1) + 1/2 = 0
    vals = np.full((5, 5), 50.0)
    vals[2, 2] = 0.0
    one = fields.FieldSample(g, vals)
    e = pinning.energy(one, om, pinning.PinningParams(beta=1.0, h=0.5))
    assert abs(e) < 1e-15
    # copolymer with a positive field has no lower-solvent sites
    pos = fields.FieldSample(g, np.full((5, 5), 2.0))
    cop = pinning.PinningParams(model="copolymer", rho=0.5, h=0.3)
    assert pinning.energy(pos, om, cop) == 0.0
    # sign(0) counts as the upper half-plane
    zero = fields.FieldSample(g, np.zeros((5, 5)))
    assert pinning.energy(zero, om, cop) == 0.0


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


def test_banded_conditional_matches_density():
    # exact sampler vs the piecewise-reweighted Gaussian CDF (KS test)
    r = rng.stream(201, "band")
    cases = [
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
    for mu, sigma, bands in cases:
        n = 20000
        vec = [(lo, hi, np.full(n, w)) for lo, hi, w in bands]
        draws = pinning.sample_banded_conditional(r, np.full(n, mu), sigma,
                                                  pinning.band_layout(vec))
        assert np.all(np.isfinite(draws))
        ks = stats.ks_1samp(draws, _banded_cdf(mu, sigma, bands))
        assert ks.pvalue > 0.005, (mu, sigma, bands, ks)


def test_band_layout_scalar_and_per_site():
    # scalar bands give one weight column, per-site bands one per site
    lay = pinning.band_layout([(-1.0, 1.0, 2.0), (-math.inf, 0.0, -1.0)])
    assert lay.edges.ravel().tolist() == [-1.0, 0.0, 1.0]
    assert np.allclose(lay.weights[:, 0], np.exp(np.array([-1.0, 1.0, 2.0, 0.0]) - 2.0))
    per_site = pinning.band_layout([(-1.0, 1.0, np.array([0.5, -3.0]))])
    assert per_site.weights.shape == (3, 2)
    assert np.allclose(per_site.weights[1], [1.0, math.exp(-3.0)])
    assert np.allclose(per_site.weights[[0, 2]], [[math.exp(-0.5), 1.0]] * 2)


# label -> (params, extra bands, (field sum, phi[3, 4], phi[5, 2], L) after 200 sweeps)
PINNED_TRAJECTORIES = {
    "plain": (dict(beta=0.5, h=0.1), (),
              (-12.109433942803765, -0.4133122049231355, 0.19731995057361823, 61.0)),
    "wall": (dict(beta=0.5, h=0.1, m=0.3), (pinning.Band(-0.5, 0.5, 2.0),),
             (6.873458031301729, -0.13180245438533722, -0.07086990649874295, 61.0)),
    "copolymer": (dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (),
                  (-0.3424054266505683, -0.11171145843956137, -0.10002129940274052, 25.0)),
}


@pytest.mark.parametrize("label", sorted(PINNED_TRAJECTORIES))
def test_pinned_trajectory(label):
    # the chain's random-number consumption and band layout are part of its
    # contract: these values pin 200 sweeps from fixed streams
    kwargs, extra, expected = PINNED_TRAJECTORIES[label]
    g = lattice.build_box(8)
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


def test_energy_bookkeeping_matches_recompute():
    g = lattice.build_box(8)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(211, "e"))
    params = pinning.PinningParams(beta=0.4, h=0.3)
    chain = pinning.make_chain(g, params, om, rng.stream(212, "er"))
    rec = pinning.run_chain(g, params, om, chain.rng, sweeps=20, burn_in=5, chain=chain)
    sample = fields.FieldSample(g, chain.field)
    assert abs(rec.energy[-1] - pinning.energy(sample, om, params)) < 1e-8


def test_exact_partition_examples():
    g = lattice.build_box(2)
    om = _zero_omega(g)
    logz = pinning.exact_partition_small(g, pinning.PinningParams(h=1.0), om)
    p = 2 * special.ndtr(2.0) - 1
    assert abs(logz - math.log(1 + (math.e - 1) * p)) < 1e-9
    assert pinning.exact_partition_small(g, pinning.PinningParams(h=0.0), om) == pytest.approx(0.0, abs=1e-12)
    for N, sites in ((3, 4), (4, 9)):
        with pytest.raises(UnsupportedGeometryError,
                           match=rf"only the one-site box N = 2 \(N={N} has {sites} interior"):
            pinning.exact_partition_small(lattice.build_box(N), pinning.PinningParams(), om)


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
    plain = fields.FieldSample(g, s.values)  # no stack
    with pytest.raises(ContractError):
        pinning.restricted_contacts(plain, 0.0, window)


def test_iact_reasonable():
    x = np.sin(np.linspace(0, 40 * math.pi, 4000)) + 0.1 * np.random.default_rng(0).standard_normal(4000)
    tau = pinning.integrated_autocorrelation(x)
    assert tau > 1.0
    iid = np.random.default_rng(1).standard_normal(4000)
    assert pinning.integrated_autocorrelation(iid) < 2.0


@pytest.mark.parametrize("kwargs", [dict(sweeps=0), dict(sweeps=-3), dict(thinning=0),
                                    dict(thinning=-1),
                                    # not a whole number of records: refused, not rounded
                                    dict(sweeps=3, thinning=10), dict(sweeps=25, thinning=10)])
def test_run_chain_rejects_bad_budgets(kwargs):
    g = lattice.build_box(4)
    args = dict(sweeps=10, thinning=1) | kwargs
    with pytest.raises(DomainError, match=f"{args['sweeps']}.*{args['thinning']}"):
        pinning.run_chain(g, pinning.PinningParams(), _zero_omega(g), rng.stream(220, "bad"),
                          **args)


# label -> (params, extra bands, (energy, contact fraction, sum phi^2, L) per record), the
# values of 4 records every 3 sweeps after 6 burn-in sweeps, recorded bit for bit
PINNED_RECORDS = {
    "plain": (dict(beta=0.5, h=0.1), (), (
        [4.524936867591867, 1.4572632164127564, 2.192686567147748, 1.6856093203201428],
        [0.875, 0.84375, 0.8125, 0.9375],
        [27.70680524972591, 27.82008521053203, 36.071820981750975, 13.181631731599513],
        [56.0, 54.0, 52.0, 60.0])),
    "wall": (dict(beta=0.5, h=0.1, m=0.3), (pinning.Band(-0.5, 0.5, 2.0),), (
        [1.7664823209950726, 3.6117424637471127, 1.8559740219553924, 1.719817927391344],
        [1.0, 0.96875, 0.984375, 0.984375],
        [4.296984783384325, 7.357074383655516, 5.053888629807622, 5.668185476368389],
        [64.0, 62.0, 63.0, 63.0])),
    "copolymer": (dict(model="copolymer", rho=0.5, h=0.2, beta=0.5), (), (
        [5.3724021502643176, 2.5916168568507763, 2.9283848442782316, 0.9093323136505134],
        [0.28125, 0.28125, 0.28125, 0.359375],
        [15.447099520698718, 16.922128638203965, 25.755502943245332, 20.510169587992163],
        [18.0, 18.0, 18.0, 23.0])),
}


@pytest.mark.parametrize("label", sorted(PINNED_RECORDS))
def test_pinned_records(label):
    # every recorded series is part of the chain's contract, to the last bit
    kwargs, extra, expected = PINNED_RECORDS[label]
    g = lattice.build_box(8)
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


def test_scalar_layout_serves_any_site_count():
    # one scalar-weight layout called at changing sizes draws what a fresh one draws,
    # and hands back arrays that share no memory with its workspace
    bands = [(-1.0, 1.0, 1.5), (-math.inf, 0.0, -0.5)]
    reused = pinning.band_layout(bands)
    for n in (0, 1, 7, 112, 7):
        mu = np.linspace(-2.0, 2.0, n)
        got = pinning.sample_banded_conditional(rng.stream(252, "ws", n), mu, 0.5, reused)
        want = pinning.sample_banded_conditional(rng.stream(252, "ws", n), mu, 0.5,
                                                 pinning.band_layout(bands))
        assert got.shape == (n,)
        assert np.array_equal(got, want)
        buffers = [b for b in vars(reused.workspace).values() if isinstance(b, np.ndarray)]
        assert buffers and not any(np.shares_memory(got, b) for b in buffers)
        assert not np.shares_memory(got, mu)


def test_empty_colour_class_still_samples():
    # N = 2 has one interior site, so one checkerboard colour has no sites at all
    g = lattice.build_box(2)
    params = pinning.PinningParams(h=1.0)
    chain = pinning.make_chain(g, params, _zero_omega(g), rng.stream(253, "empty"))
    assert sorted(len(sites) for sites, _, _ in chain._colours) == [0, 1]
    before = chain.field.copy()
    pinning.heat_bath_sweep(chain, 3)
    assert chain.field[1, 1] != before[1, 1] and np.isfinite(chain.field[1, 1])
    assert np.array_equal(chain.field[g.boundary_mask], before[g.boundary_mask])
