import functools
import math

import numpy as np
import pytest

from gffpin import disorder, experiments, fields, freeenergy, kernels, lattice, pinning, rng
from gffpin.errors import DomainError


def test_desk_schedule():
    assert freeenergy.desk_mass(256) == pytest.approx(math.log(256) ** 0.25 / 256)
    u = freeenergy.desk_height(256)
    assert 3.0 < u < 4.0


def test_copolymer_critical_point():
    assert freeenergy.copolymer_critical_point(disorder.GAUSSIAN, 0.5) == pytest.approx(0.5, abs=1e-14)
    rho = 0.3
    ref = math.log(math.cosh(2 * rho)) / (2 * rho)
    assert freeenergy.copolymer_critical_point(disorder.BERNOULLI, rho) == pytest.approx(ref, abs=1e-14)
    # rho -> 0: h_c -> 0 for the built-ins
    assert freeenergy.copolymer_critical_point(disorder.GAUSSIAN, 1e-6) < 1e-5
    with pytest.raises(DomainError):
        freeenergy.copolymer_critical_point(disorder.GAUSSIAN, -0.1)


def test_ti_against_exact_small_box():
    g = lattice.build_box(2)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(301, "om"))
    params = pinning.PinningParams(beta=0.5, h=0.3)
    exact = pinning.exact_partition_small(g, params, om)
    params0 = pinning.PinningParams(beta=0.5, h=0.0)
    base, bse = freeenergy.coupling_log_z(g, params0, om, rng.stream(302, "c"),
                                          sweeps=3000, burn_in=300)
    grid = freeenergy._ti_h_grid([0.3])
    res = freeenergy.ti_log_partition(g, params, om, rng.stream(303, "t"), grid,
                                      sweeps=3000, burn_in=300)
    ti = base + res.log_z[-1] - res.log_z[int(np.searchsorted(grid, 0.0))]
    se = math.hypot(bse, res.log_z_se[-1])
    assert abs(ti - exact) < 4 * se


def test_pure_curve_anchored_and_monotone():
    g = lattice.build_box(8)
    curve = freeenergy.free_energy_curve(g, 0.0, [0.0, 0.1, 0.2], 401, sweeps=400, burn_in=150)
    assert curve.value[0] == 0.0  # exact anchor
    assert np.all(np.diff(curve.value) >= 0.0)  # contact densities are nonnegative
    assert np.all(curve.value >= -3 * curve.se)  # nonnegativity diagnostic
    # crude lower bound |F| >= -|h| - 2 beta
    assert np.all(curve.value >= -np.abs(curve.h) - 0.0 - 3 * curve.se)


def test_negative_h_estimate_nonpositive():
    est_curve = freeenergy.free_energy_curve(lattice.build_box(8), 0.0, [-2.0], 402,
                                             sweeps=300, burn_in=150)
    assert est_curve.value[0] < 0.0
    assert est_curve.value[0] > -2.0  # crude bound: value >= -|h|


def _massive_log_z(u: float, seed: int, sweeps: int, burn_in: int) -> tuple[float, float]:
    """log Z(h = 0.4) - log Z(0) at beta = 0, m = 0.5, substrate height u, N = 8."""
    g = lattice.build_box(8)
    om = disorder.DisorderField(g, disorder.GAUSSIAN, np.zeros((g.side, g.side)))
    leg = freeenergy.ti_log_partition(g, pinning.PinningParams(m=0.5, u=u), om,
                                      rng.stream(seed, "massive-u"), freeenergy._ti_h_grid([0.4]),
                                      sweeps=sweeps, burn_in=burn_in)
    return float(leg.log_z[-1]), float(leg.log_z_se[-1])


def test_massive_estimator_high_substrate_empty():
    value, _ = _massive_log_z(50.0, 405, sweeps=300, burn_in=100)
    assert abs(value) < 1e-6  # the band is never touched


def test_massive_monotone_in_u():
    vals = [_massive_log_z(u, 406, sweeps=500, burn_in=200) for u in (0.0, 1.0, 2.0)]
    for (v1, s1), (v2, s2) in zip(vals[:-1], vals[1:]):
        assert v2 <= v1 + 3 * math.hypot(s1, s2)


def test_density_event_threshold_matches_formula():
    thr = freeenergy.density_event_threshold(16, 0.3, 0.35)
    assert thr == pytest.approx(256 * (2 * kernels.f_of_m(0.3) / 0.09 - 0.35))


def test_finite_volume_penalty_dominates():
    # K -> infinity turns the verdict negative at fixed budget
    rep = freeenergy.finite_volume_criterion(0.0, 0.5, 0.4, 0.0, 1e9, 8, 408,
                                             replicas=2, sweeps=150, burn_in=100)
    assert rep["verdict"] == "negative"
    assert rep["penalty"] > rep["estimate"]


def test_criterion_returns_the_record_it_writes():
    rep = freeenergy.finite_volume_criterion(0.0, 2.0, 0.3, 0.2, 10.0, 4, 7, replicas=2,
                                             sweeps=4, burn_in=2)
    res = experiments.run_experiment("finite-volume-criterion",
                                     {"N": 4, "replicas": 2, "sweeps": 4, "burn_in": 2})
    assert isinstance(rep, dict) and isinstance(res.records[0], dict)
    assert set(res.records[0]) == set(rep) == {
        "N", "m", "u", "K", "estimate", "se", "penalty", "verdict", "margin", "event_frequency"}


def test_conditioned_contact_statistics():
    out = freeenergy.conditioned_contact_statistics(16, 409, samples=60)
    assert out["mean_Lp"] <= out["mean_L"] + 1e-12
    assert out["paley_zygmund_ratio"] >= 1.0 or math.isinf(out["paley_zygmund_ratio"])
    assert 0.0 <= out["an_frequency"] <= 1.0
    assert all(0 <= j <= out["k"] for j in out["j_histogram"])


def test_pair_scale_in_statistics():
    # adjacent restricted contacts decorrelate at the deepest scale
    assert lattice.pair_scale_index(3, np.array([1.0]))[0] == 3


def test_boundary_contact_term():
    g = lattice.build_box(4)
    om = disorder.DisorderField(g, disorder.GAUSSIAN, np.zeros((5, 5)))
    params = pinning.PinningParams(beta=0.0, h=0.7, u=0.0)
    # zero boundary values are contacts at u = 0: the 2N-1 = 7 frame sites of
    # the canonical range each contribute h
    assert pinning.boundary_contact_term(g, params, om) == pytest.approx(7 * 0.7)
    # the co-membrane charges the lower half-plane only, as its chains do: a zero
    # boundary has no charged site, and a boundary at -1 charges the frame sites as
    # energy() charges them
    cop = pinning.PinningParams(model="copolymer", rho=0.5, h=0.7)
    assert pinning.boundary_contact_term(g, cop, om) == 0.0
    low = pinning.PinningParams(model="copolymer", rho=0.5, h=0.7,
                                bc=fields.explicit_bc(np.full(16, -1.0)))
    frame = fields.FieldSample(g, low.bc.grid(g))
    assert pinning.boundary_contact_term(g, low, om) == pinning.energy(frame, om, low)
    assert pinning.boundary_contact_term(g, low, om) == pytest.approx(7 * -2 * 0.5 * 0.7)


def test_pinning_routines_refuse_the_co_membrane():
    # the ladders integrate the pinning model's contact total and energy, and the
    # one-site quadrature its band: each refuses the co-membrane before any draw
    g = lattice.build_box(4)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(1, "x"))
    params = pinning.PinningParams(model="copolymer", rho=0.5, h=1.0)
    g2 = lattice.build_box(2)
    om2 = disorder.sample_disorder(g2, disorder.GAUSSIAN, rng.stream(1, "x", 2))
    r, twin = rng.stream(330, "co-membrane"), rng.stream(330, "co-membrane")
    for call in (
            lambda: freeenergy.coupling_log_z(g, params, om, r, sweeps=40, burn_in=10),
            lambda: freeenergy.ti_log_partition(g, params, om, r, np.array([0.0, 1.0]),
                                                sweeps=40, burn_in=10),
            lambda: pinning.exact_partition_small(g2, params, om2)):
        with pytest.raises(DomainError, match="pinning model only.*copolymer"):
            call()
    assert r.random() == twin.random()


def test_height_restriction_cost_shrinks():
    # the per-site cost of confining the field within |log h|^2 shrinks as h
    # decreases (the band widens); soft-wall integration at modest budget
    out1 = freeenergy.height_restriction_logp(0.5, 0.3, 32, 410, sweeps=120, burn_in=80)
    out2 = freeenergy.height_restriction_logp(0.5, 0.1, 32, 410, sweeps=120, burn_in=80)
    assert out1["logp_per_site"] < 0.0
    # at h = 0.1 the band already exceeds the field maximum at this size, so
    # the cost collapses to numerical zero
    assert out2["logp_per_site"] <= 0.0
    assert out2["logp_per_site"] > out1["logp_per_site"]


def test_doubling_gap_threads_consistent():
    a = freeenergy.doubling_gap(0.0, 0.3, 0.4, 0.0, 10.0, 4, 411, replicas=2,
                                sweeps=60, burn_in=40, threads=1)
    b = freeenergy.doubling_gap(0.0, 0.3, 0.4, 0.0, 10.0, 4, 411, replicas=2,
                                sweeps=60, burn_in=40, threads=2)
    assert a["gap"] == pytest.approx(b["gap"], abs=1e-12)  # same streams, any schedule


def test_finite_volume_localized_positive():
    rep = freeenergy.finite_volume_criterion(0.0, 2.0, 0.3, 0.2, 10.0, 8, 412,
                                             replicas=3, sweeps=200, burn_in=120)
    assert rep["verdict"] == "positive"
    rep2 = freeenergy.finite_volume_criterion(0.0, -3.0, 0.3, 0.2, 10.0, 8, 413,
                                              replicas=3, sweeps=200, burn_in=120)
    assert rep2["verdict"] == "negative"


def test_ladders_bit_identical():
    # the warm-started ladders reproduce their recorded values to the last bit
    g = lattice.build_box(4)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(242, "id-om4"))
    got = freeenergy.coupling_log_z(g, pinning.PinningParams(beta=0.5, h=0.2), om,
                                    rng.stream(243, "id-cz"), sweeps=20, burn_in=10)
    assert got == (1.7112971519060112, 0.028516877392833002)  # the 12-point t-grid
    ti = freeenergy.ti_log_partition(g, pinning.PinningParams(beta=0.5), om,
                                     rng.stream(244, "id-ti"), np.array([0.0, 0.1, 0.2]),
                                     sweeps=20, burn_in=10)
    assert ti.log_z.tolist() == [0.0, 0.8250000000000001, 1.665]
    assert ti.log_z_se.tolist() == [0.0, 0.029962940072325646, 0.052577984408347614]
    assert ti.density.tolist() == [8.3, 8.2, 8.6]


def test_free_energy_curve_bit_identical():
    # beta = 0 runs the h-leg alone; beta > 0 adds the 11-segment coupling leg per replica
    g = lattice.build_box(4)
    pure = freeenergy.free_energy_curve(g, 0.0, [0.0, 0.1, 0.2], 247,
                                        sweeps=20, burn_in=10)
    assert pure.value.tolist() == [0.0, 0.051607142857143753, 0.10375000000000627]
    assert pure.se.tolist() == [0.0, 0.0009252075822728625, 0.001280246309209898]
    quenched = freeenergy.free_energy_curve(g, 0.5, [0.0, 0.1, 0.2], 247,
                                            replicas=2, sweeps=20, burn_in=10)
    assert quenched.value.tolist() == [-0.13442408634685515, -0.08712497920399423,
                                       -0.03839730063256767]
    assert quenched.se.tolist() == [0.02835446314270708, 0.029091070285558643,
                                    0.028309820285550825]


def test_height_restriction_bit_identical():
    # the 9-segment soft-wall ladder, kappa = 0 .. 3 by 0.5, then 6, 9, 12
    out = freeenergy.height_restriction_logp(0.5, 0.5, 8, 248, sweeps=20, burn_in=10)
    assert out["kappa"].tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 6.0, 9.0, 12.0]
    assert out["mean_outside"].tolist() == [20.0, 9.6, 9.4, 4.7, 2.7, 1.4, 1.6, 0.0, 0.0, 0.0]
    assert out["logp_per_site"] == -0.3390625


def test_doubling_gap_bit_identical():
    out = freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 245, replicas=2, sweeps=4,
                                  burn_in=2)
    assert out == {"small": (3.138500579583369, 0.22078432443904147),
                   "large": (10.344574886361206, 2.638031711177584),
                   "gap": -2.2094274319722693, "gap_se": 2.781931486551492}


def test_doubling_gap_bit_identical_at_the_benchmark_boxes():
    # the doubling workload's boxes, N = 16 and 32: 4 and 8 reflection sweeps per heat-bath
    # sweep on a random massive boundary (N = 4 and 8 above run 1 : 1 and 1 : 2)
    out = freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.35, 16, 249, replicas=2, sweeps=8,
                                  burn_in=4)
    assert out == {"small": (42.570796368815216, 3.1183541428069854),
                   "large": (165.78413931411617, 5.605570427302325),
                   "gap": -4.49904616114469, "gap_se": 13.675106609267447}


def test_one_extension_solve_per_anchoring(monkeypatch):
    # each of the 4 replica jobs (2 replicas at 2 sizes) solves its boundary's extension once,
    # and its coupling ladder starts from it
    calls = []
    solve = freeenergy.fields.harmonic_extension
    monkeypatch.setattr(freeenergy.fields, "harmonic_extension",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 245, replicas=2, sweeps=4, burn_in=2)
    assert len(calls) == 4


def test_one_coupling_ladder_per_replica(monkeypatch):
    # each replica job runs one ladder at its target: at h = 0.3 the 12-point t-grid, a chain
    # at each of the 11 points past the exact first one.  The D statistic is recorded at t = 1
    # alone, the one point whose record is read, and every call returns 1-D series of its
    # record count, which a caller pooling the records of each run_chain call relies on
    calls = []
    run = freeenergy.pinning.run_chain

    def spy(*a, **kw):
        rec = run(*a, **kw)
        calls.append((kw["observables"], kw["sweeps"] // kw["thinning"], rec))
        return rec

    monkeypatch.setattr(freeenergy.pinning, "run_chain", spy)
    freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 245, replicas=2, sweeps=4, burn_in=2)
    assert len(calls) == 4 * 11
    for k, (obs, n_rec, rec) in enumerate(calls):
        assert list(obs or {}) == (["sumsq"] if k % 11 == 10 else [])
        assert list(rec.extra) == list(obs or {})
        for series in (rec.contacts_window, rec.energy, *rec.extra.values()):
            assert series.shape == (n_rec,) and n_rec == 2


def test_criterion_ladder_against_exact_small_box():
    # the steep case: at h = 2 the ladder takes the h-leg's 41-point spacing, not 12 points
    g = lattice.build_box(2)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(311, "om"))
    bc = fields.explicit_bc(np.array([0.4, -0.3, 0.9, 0.2, -0.5, 0.7, 0.1, -0.2]))
    params = pinning.PinningParams(beta=0.5, h=2.0, m=0.3, u=0.2, bc=bc)
    exact = pinning.exact_partition_small(g, params, om)
    ladder = freeenergy._coupling_ladder(g, params, om, rng.stream(312, "c"), sweeps=600,
                                         burn_in=100)
    assert len(ladder.density) == 41
    assert abs(ladder.log_z[-1] - exact) < 4 * ladder.log_z_se[-1]


def test_coupling_leg_at_beta_zero_is_the_h_leg(monkeypatch):
    # at beta = 0 the site weight is h, so the coupling leg at h runs the h-leg's grid
    # reparametrised by t h, and agrees with the h-leg from 0 to h
    grids = []
    ladder = freeenergy.integrate_ladder
    monkeypatch.setattr(freeenergy, "integrate_ladder",
                        lambda chain_at, grid, *a, **kw: grids.append(grid) or ladder(chain_at, grid,
                                                                                       *a, **kw))
    g = lattice.build_box(8)
    om = disorder.DisorderField(g, disorder.GAUSSIAN, np.zeros((g.side, g.side)))
    h = 2.0
    value, se = freeenergy.coupling_log_z(g, pinning.PinningParams(h=h), om, rng.stream(321, "c"),
                                          sweeps=200, burn_in=100)
    h_grid = freeenergy._ti_h_grid([h])
    leg = freeenergy.ti_log_partition(g, pinning.PinningParams(), om, rng.stream(322, "t"), h_grid,
                                      sweeps=200, burn_in=100)
    np.testing.assert_allclose(grids[0] * h, h_grid, rtol=0, atol=1e-12)
    assert abs(value - leg.log_z[-1]) < 4 * math.hypot(se, leg.log_z_se[-1])


def _stream_ids(call) -> list[str]:
    with rng.audit_streams() as audit:
        call()
    return audit.consumed


def test_stream_audit_survives_the_process_pool():
    # replica by replica, small box then large: each replica's bc, omega and chain streams
    expected = [f"246/dbl-{label}/{kind}/{r}" for label in ("small", "large") for r in (0, 1)
                for kind in ("bc", "omega", "chain")]
    for threads in (1, 2):
        assert _stream_ids(lambda: freeenergy.doubling_gap(
            0.5, 0.3, 0.3, 0.0, 0.05, 4, 246, replicas=2, sweeps=4, burn_in=2,
            threads=threads)) == expected
    # the curve's replicas: each replica's chain stream, then its disorder
    assert _stream_ids(lambda: freeenergy.free_energy_curve(
        lattice.build_box(4), 0.5, [0.1], 246, replicas=2, sweeps=4, burn_in=2)) == [
        "246/fe/replica/0", "246/fe/omega/0", "246/fe/replica/1", "246/fe/omega/1"]


def _kinked_rows(beta: float, targets: np.ndarray, r: int) -> np.ndarray:
    """A convex curve with a 1e-5 scatter per point; at beta > 0 each replica adds its own
    offset (SD 5e-3) to every target, and the last target drops by 2e-3."""
    noise = np.random.default_rng([int(10 * beta), r])
    value = 0.2 * targets + 0.1 * targets ** 2 + noise.normal(0.0, 1e-5, len(targets))
    if beta > 0:
        value += noise.normal(0.0, 5e-3) - 2e-3 * (targets == targets[-1])
    return value


def test_a_concave_kink_fails_the_convexity_line(monkeypatch):
    # the kink's second difference, about -1.5e-3, against a replica spread of about 1e-5 in
    # that difference: the stencil's SE sees it.  SEs that take the cumulative values as
    # independent, each holding the replicas' offsets, put 3 se near 0.02 and let it through
    monkeypatch.setattr(freeenergy, "_curve_replica",
                        lambda geom, beta, m, targets, *a: (
                            _kinked_rows(beta, targets, a[-1]),
                            np.diag(np.full(len(targets), 1e-6))))
    lines = experiments.run_experiment("thermo-consistency", {"replicas": 4}).lines
    assert lines[0].startswith("[PASS] beta=0.0: convexity")
    assert lines[2].startswith("[FAIL] beta=0.5: convexity")
    assert lines[1] == "[PASS] beta=0.0: nondecreasing in h"
    assert lines[3] == "[PASS] beta=0.5: nondecreasing in h"


def test_curve_replica_job_through_the_process_pool():
    # the curve's replica job pickles, and a pool of 2 gives the serial values, covariances
    # and stream ids
    job = functools.partial(freeenergy._curve_replica, lattice.build_box(4), 0.5, 0.0,
                            np.array([0.1, 0.2]), 248, "fe", 4, 2)
    runs = []
    for threads in (1, 2):
        with rng.audit_streams() as audit:
            rows = freeenergy._fan_out(job, 2, threads)
        runs.append((np.array([np.concatenate([vals, cov.ravel()]) for vals, cov in rows]),
                     audit.consumed))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1] == [f"248/fe/{kind}/{r}" for r in (0, 1)
                                         for kind in ("replica", "omega")]


@pytest.mark.parametrize("call", [
    lambda: freeenergy.free_energy_curve(lattice.build_box(4), 0.5, [0.1], 1,
                                         replicas=0, sweeps=4, burn_in=2),
    lambda: freeenergy.finite_volume_criterion(0.0, 0.5, 0.4, 0.0, 1.0, 4, 1, replicas=0,
                                               sweeps=4, burn_in=2),
    lambda: freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 1, replicas=1, sweeps=4,
                                    burn_in=2),
    lambda: freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 1, replicas=0, sweeps=4,
                                    burn_in=2),
], ids=["curve-0", "criterion-0", "doubling-1", "doubling-0"])
def test_bad_replica_counts_raise(call):
    # the curve and the criterion need one replica; the doubling SE needs two
    with pytest.raises(DomainError, match="replicas"):
        call()


def test_empty_target_list_raises_before_any_draw(monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("a stream was drawn before the empty target list was refused")

    monkeypatch.setattr(rng, "stream", no_stream)
    with pytest.raises(DomainError, match="at least one target h"):
        freeenergy.free_energy_curve(lattice.build_box(4), 0.5, [], 1, sweeps=4, burn_in=2)
