import math

import numpy as np
import pytest

from gffpin import disorder, freeenergy, kernels, lattice, pinning, rng
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
    curve = freeenergy.free_energy_curve(g, disorder.GAUSSIAN, 0.0, [0.0, 0.1, 0.2],
                                         401, sweeps=400, burn_in=150)
    assert curve.value[0] == 0.0  # exact anchor
    assert np.all(np.diff(curve.value) >= 0.0)  # contact densities are nonnegative
    assert np.all(curve.value >= -3 * curve.se)  # nonnegativity diagnostic
    # crude lower bound |F| >= -|h| - 2 beta
    assert np.all(curve.value >= -np.abs(curve.h) - 0.0 - 3 * curve.se)


def test_negative_h_estimate_nonpositive():
    est_curve = freeenergy.free_energy_curve(lattice.build_box(8), disorder.GAUSSIAN,
                                             0.0, [-2.0], 402, sweeps=300, burn_in=150)
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
    assert rep.verdict == "negative"
    assert rep.penalty > rep.estimate


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
    assert freeenergy.boundary_contact_term(g, params, om) == pytest.approx(7 * 0.7)


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
    assert rep.verdict == "positive"
    rep2 = freeenergy.finite_volume_criterion(0.0, -3.0, 0.3, 0.2, 10.0, 8, 413,
                                              replicas=3, sweeps=200, burn_in=120)
    assert rep2.verdict == "negative"


def test_ladders_bit_identical():
    # the warm-started ladders reproduce their recorded values to the last bit
    g = lattice.build_box(4)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(242, "id-om4"))
    got = freeenergy.coupling_log_z(g, pinning.PinningParams(beta=0.5, h=0.2), om,
                                    rng.stream(243, "id-cz"), sweeps=20, burn_in=10, n_t=4)
    assert got == (1.5626694885851902, 0.02944038203907919)
    ti = freeenergy.ti_log_partition(g, pinning.PinningParams(beta=0.5), om,
                                     rng.stream(244, "id-ti"), np.array([0.0, 0.1, 0.2]),
                                     sweeps=20, burn_in=10)
    assert ti.log_z.tolist() == [0.0, 0.8500000000000001, 1.695]
    assert ti.log_z_se.tolist() == [0.0, 0.014356570311572022, 0.023944379994757296]
    assert ti.density.tolist() == [8.3, 8.7, 8.2]


def test_free_energy_curve_bit_identical():
    # beta = 0 runs the h-leg alone; beta > 0 adds the 11-segment coupling leg per replica
    g = lattice.build_box(4)
    pure = freeenergy.free_energy_curve(g, disorder.GAUSSIAN, 0.0, [0.0, 0.1, 0.2], 247,
                                        sweeps=20, burn_in=10)
    assert pure.value.tolist() == [0.0, 0.05035714285714375, 0.10174107142856251]
    assert pure.se.tolist() == [0.0, 0.0009861031266641218, 0.0012188035993212388]
    quenched = freeenergy.free_energy_curve(g, disorder.GAUSSIAN, 0.5, [0.0, 0.1, 0.2], 247,
                                            replicas=2, sweeps=20, burn_in=10)
    assert quenched.value.tolist() == [-0.13629096204018643, -0.08620167632589734,
                                       -0.036045426325895774]
    assert quenched.se.tolist() == [0.031844870665787076, 0.03234026460126307,
                                    0.031030942359696074]


def test_height_restriction_bit_identical():
    # the 9-segment soft-wall ladder, kappa = 0 .. 3 by 0.5, then 6, 9, 12
    out = freeenergy.height_restriction_logp(0.5, 0.5, 8, 248, sweeps=20, burn_in=10)
    assert out["kappa"].tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 6.0, 9.0, 12.0]
    assert out["mean_outside"].tolist() == [20.4, 11.9, 8.1, 6.3, 2.7, 2.4, 1.7, 0.0, 0.0, 0.0]
    assert out["logp_per_site"] == -0.371484375


def test_doubling_gap_bit_identical():
    out = freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 245, replicas=2, sweeps=4,
                                  burn_in=2)
    assert out == {"small": (2.7786339207027173, 0.11028391792049375),
                   "large": (9.861033108093576, 2.2429498915869006),
                   "gap": -1.2535025747172934, "gap_se": 2.2859188299237565}


def test_one_extension_solve_per_anchoring(monkeypatch):
    # each of the 4 replica jobs (2 replicas at 2 sizes) solves its boundary's extension once,
    # and both of its legs start from it
    calls = []
    solve = freeenergy.fields.harmonic_extension
    monkeypatch.setattr(freeenergy.fields, "harmonic_extension",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 245, replicas=2, sweeps=4, burn_in=2)
    assert len(calls) == 4


def test_stream_audit_survives_the_process_pool():
    ids = []
    for threads in (1, 2):
        with rng.audit_streams() as audit:
            freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 246, replicas=2, sweeps=4,
                                    burn_in=2, threads=threads)
        ids.append(audit.consumed)
    assert len(ids[0]) == 12  # bc, omega and chain streams of 2 replicas at 2 sizes
    assert ids[1] == ids[0]


@pytest.mark.parametrize("call", [
    lambda: freeenergy.free_energy_curve(lattice.build_box(4), disorder.GAUSSIAN, 0.5, [0.1], 1,
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
