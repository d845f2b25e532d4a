import math

import numpy as np
import pytest

from gffpin import disorder, fields, freeenergy, kernels, lattice, pinning, rng
from gffpin.errors import DomainError


def test_parameter_schedule_values():
    s = freeenergy.parameter_schedule(0.5)
    assert s.alpha == 0.75
    assert s.gamma == pytest.approx(2 * math.sqrt(2 * math.pi))
    assert s.gamma == pytest.approx(5.013256549, abs=1e-8)
    assert s.log_N == 2 ** 20  # 0.5^-20 = 2^20 = 1048576
    assert s.log_log_N == pytest.approx(20 * math.log(2))
    # m = (log N)^{1/4} / N in log space
    assert s.log_m == pytest.approx(-s.log_N + 0.25 * s.log_log_N)
    assert s.u == pytest.approx(math.sqrt(2 / math.pi) * s.log_N
                                - 2.75 / (2 * math.sqrt(2 * math.pi)) * s.log_log_N)


def test_parameter_schedule_bounds_ordered():
    for h in (0.05, 0.1, 0.3, 0.49):
        s = freeenergy.parameter_schedule(h)
        assert s.log_lower_bound <= s.log_upper_bound
    with pytest.raises(DomainError):
        freeenergy.parameter_schedule(1.5)
    with pytest.raises(DomainError):
        freeenergy.parameter_schedule(0.0)


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
    spec = disorder.DisorderSpec("gaussian", beta_bar=1.0)
    with pytest.raises(DomainError):
        freeenergy.copolymer_critical_point(spec, 0.7)


def test_ti_against_exact_small_box():
    g = lattice.build_box(2)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(301, "om"))
    params = pinning.PinningParams(beta=0.5, h=0.3)
    exact = pinning.exact_partition_small(g, params, om, interaction="interior")
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


def test_quenched_below_annealed_small():
    q = freeenergy.quenched_free_energy_estimate(0.5, 0.3, 8, 403, replicas=4,
                                                 sweeps=400, burn_in=200)
    a = freeenergy.pure_free_energy_estimate(0.3, 8, 404, sweeps=400, burn_in=200)
    assert q.value <= a.value + 3 * math.hypot(q.se, a.se)
    assert q.replica_values is not None and q.spread > 0
    assert q.value >= -abs(0.3) - 2 * 0.5  # crude bound
    with pytest.raises(DomainError):
        freeenergy.quenched_free_energy_estimate(
            2.0, 0.1, 8, 1, spec=disorder.DisorderSpec("gaussian", beta_bar=1.0))


def test_massive_estimator_validates():
    with pytest.raises(DomainError):
        freeenergy.massive_shifted_free_energy_estimate(0.0, 0.1, 0.0, 0.0, 8, 1)


def test_massive_estimator_high_substrate_empty():
    est = freeenergy.massive_shifted_free_energy_estimate(0.0, 0.4, 0.5, 50.0, 8, 405,
                                                          sweeps=300, burn_in=100)
    assert abs(est.value) < 1e-6  # the band is never touched


def test_massive_monotone_in_u():
    vals = []
    for u in (0.0, 1.0, 2.0):
        est = freeenergy.massive_shifted_free_energy_estimate(0.0, 0.4, 0.5, u, 8, 406,
                                                              sweeps=500, burn_in=200)
        vals.append((est.value, est.se))
    for (v1, s1), (v2, s2) in zip(vals[:-1], vals[1:]):
        assert v2 <= v1 + 3 * math.hypot(s1, s2)


def test_density_event_threshold_matches_formula():
    thr = freeenergy.density_event_threshold(16, 0.3, 0.35)
    assert thr == pytest.approx(256 * (2 * kernels.f_of_m(0.3) / 0.09 - 0.35))


def test_event_flags_forced_field():
    g = lattice.build_box(16)
    zero = fields.FieldSample(g, np.zeros((17, 17)), 0.0, fields.zero_bc())
    flags = freeenergy.event_flags(zero, pinning.PinningParams(h=0.1, m=0.0),
                                   freeenergy.EventThresholds(h=0.1))
    assert flags["height_restriction"].value is True  # any h < 1 passes on phi = 0
    assert flags["density_typical"].value is None  # needs m > 0
    assert flags["extremal"].value is None  # needs a stack
    assert flags["frame_contacts"].value is None  # needs the frame budget


def test_event_flags_with_stack_and_frame():
    g = lattice.build_box(32)
    m = freeenergy.desk_mass(32)
    grid = kernels.scale_time_grid(m, min_scales=0)
    s = fields.sample_scale_stack(g, m, rng.stream(407, "flags"), grid=grid)
    thresholds = freeenergy.EventThresholds(h=0.1, K=0.35)
    flags = freeenergy.event_flags(s, pinning.PinningParams(h=0.1, m=m, u=freeenergy.desk_height(32)),
                                   thresholds, frame_expectation=5.0)
    assert flags["extremal"].value is not None
    assert flags["density_typical"].value is not None
    # few-contacts implies concentration by construction
    if flags["few_contacts"].value:
        assert flags["concentration"].value


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
    term = freeenergy.boundary_contact_term(g, params, om, "tilde")
    assert term == pytest.approx(7 * 0.7)
    assert freeenergy.boundary_contact_term(g, params, om, "interior") == 0.0


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


def test_doubling_gap_bit_identical():
    out = freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 245, replicas=2, sweeps=4,
                                  burn_in=2)
    assert out == {"small": (2.7786339207027173, 0.11028391792049375),
                   "large": (9.861033108093576, 2.2429498915869006),
                   "gap": -1.2535025747172934, "gap_se": 2.2859188299237565}


def test_stream_audit_survives_the_process_pool():
    ids = []
    for threads in (1, 2):
        with rng.audit_streams() as audit:
            freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 246, replicas=2, sweeps=4,
                                    burn_in=2, threads=threads)
        ids.append(audit.consumed)
    assert len(ids[0]) == 12  # bc, omega and chain streams of 2 replicas at 2 sizes
    assert ids[1] == ids[0]
