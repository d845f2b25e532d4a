import math

import numpy as np
import pytest
from scipy import stats

from gffpin import disorder, lattice, rng
from gffpin.errors import DomainError


def test_log_mgf_gaussian():
    lam, d1, d2 = disorder.log_mgf(disorder.GAUSSIAN, 0.8)
    assert lam == pytest.approx(0.32)
    assert d1 == pytest.approx(0.8)
    assert d2 == 1.0


def test_log_mgf_bernoulli():
    for b in (0.3, 2.0, -1.5, 40.0):
        lam, d1, d2 = disorder.log_mgf(disorder.BERNOULLI, b)
        assert lam == pytest.approx(math.log(math.cosh(b)) if abs(b) < 30 else abs(b) - math.log(2), rel=1e-12)
        assert d1 == pytest.approx(math.tanh(b))
        assert d2 == pytest.approx(1.0 - math.tanh(b) ** 2)


def test_tabulated_validation():
    # only the two built-in laws are accepted; a tabulated law is refused like any other kind
    with pytest.raises(DomainError):
        disorder.DisorderSpec("tabulated")
    with pytest.raises(DomainError):
        disorder.DisorderSpec("nope")


def test_sampling_moments_and_determinism():
    g = lattice.build_box(64)
    r1 = rng.stream(101, "omega")
    om1 = disorder.sample_disorder(g, disorder.GAUSSIAN, r1)
    om2 = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(101, "omega"))
    assert np.array_equal(om1.values, om2.values)  # reseeding reproduces bit-exactly
    vals = om1.values[g.tilde_mask]
    assert abs(vals.mean()) < 4.0 / math.sqrt(vals.size)
    beta = 0.5
    emp = np.exp(beta * vals).mean()
    lam = disorder.log_mgf(disorder.GAUSSIAN, beta)[0]
    se = np.exp(beta * vals).std() / math.sqrt(vals.size)
    assert abs(emp - math.exp(lam)) < 5 * se
    assert np.all(om1.values[~g.tilde_mask] == 0.0)


def test_sampling_independence_smoke():
    # sign agreement between neighbours is ~Binomial(n, 1/2)
    g = lattice.build_box(32)
    om = disorder.sample_disorder(g, disorder.BERNOULLI, rng.stream(103, "ind"))
    v = om.values[1:, 1:]
    agree = (v[:-1, :] == v[1:, :]).ravel()
    p = stats.binomtest(int(agree.sum()), len(agree), 0.5).pvalue
    assert p > 0.01


def test_event_e_trivial_cases():
    g = lattice.build_box(16)
    t = lattice.cell_tiling(g, 4)
    cell = t.cells[0]
    z = disorder.DisorderField(g, disorder.GAUSSIAN, np.zeros((17, 17)))
    assert not disorder.event_E_cell(z, cell, beta=1.0).triggered  # threshold > 0
    big = disorder.DisorderField(g, disorder.GAUSSIAN, np.full((17, 17), 50.0))
    assert disorder.event_E_cell(big, cell, beta=1.0).triggered


def test_event_e_monotone_in_omega():
    g = lattice.build_box(16)
    t = lattice.cell_tiling(g, 4)
    r = rng.stream(108, "mono")
    radius = disorder.default_radius(4)
    for trial in range(20):
        om = disorder.sample_disorder(g, disorder.GAUSSIAN, r)
        cell = t.cells[trial % len(t.cells)]
        before = disorder.event_E_cell(om, cell, beta=0.8)
        bumped = om.values.copy()
        idx = (1 + r.integers(0, 16), 1 + r.integers(0, 16))
        bumped[idx] += float(r.random() * 3)
        after = disorder.event_E_cell(
            disorder.DisorderField(g, disorder.GAUSSIAN, bumped), cell, beta=0.8)
        if before.triggered:
            assert after.triggered
        top_before = disorder.window_sums(om.values[cell.cell_slice], radius).max()
        top_after = disorder.window_sums(bumped[cell.cell_slice], radius).max()
        assert top_after >= top_before - 1e-12


def test_event_c_structural_flag():
    g = lattice.build_box(8)
    t = lattice.cell_tiling(g, 2)
    cell = t.cells[0]
    none = np.zeros((9, 9), dtype=bool)
    res = disorder.event_C_cell(none, cell)
    assert not res.triggered
    # flagged exactly when the cluster threshold exceeds the l1 ball's 2r^2 + 2r + 1 sites
    r = disorder.default_radius(2)
    assert res.structurally_false == (disorder.default_cluster_threshold(2) > 2 * r * r + 2 * r + 1)
    allc = np.ones((9, 9), dtype=bool)
    res2 = disorder.event_C_cell(allc, cell)
    assert res2.triggered and not res2.structurally_false


def test_penalty_formula():
    g = lattice.build_box(16)
    t = lattice.cell_tiling(g, 4)
    z = disorder.DisorderField(g, disorder.GAUSSIAN, np.zeros((17, 17)))
    res = disorder.penalty_f(z, t, beta=1.0)
    assert res.value == 1.0 and res.count == 0
    big = disorder.DisorderField(g, disorder.GAUSSIAN, np.full((17, 17), 50.0))
    res2 = disorder.penalty_f(big, t, beta=1.0)
    assert res2.count == len(t.cells)
    assert res2.value == pytest.approx(math.exp(-2 * len(t.cells)))
    # a window sum equal to the threshold fires
    tie = np.zeros((17, 17))
    tie[t.cells[4].cell_slice][1, 1] = disorder.default_mean_threshold(disorder.GAUSSIAN, 1.0, 4)
    res3 = disorder.penalty_f(disorder.DisorderField(g, disorder.GAUSSIAN, tie), t, beta=1.0)
    assert res3.count == 1


@pytest.mark.parametrize("N,N1", [(16, 4), (64, 8), (256, 16)])
@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0])
def test_penalty_counts_the_cells_where_the_event_fires(N, N1, beta):
    # one convolution over the stacked cells against event_E_cell, cell by cell
    g = lattice.build_box(N)
    t = lattice.cell_tiling(g, N1)
    r = rng.stream(2401, "penalty-oracle", N, beta)
    for _ in range(30):
        om = disorder.sample_disorder(g, disorder.GAUSSIAN, r)
        fired = sum(disorder.event_E_cell(om, cell, beta=beta).triggered for cell in t.cells)
        assert disorder.penalty_f(om, t, beta).count == fired


def test_penalty_inverse_factorizes():
    # E[1/f] over the box equals (one-cell value)^(number of cells)
    g = lattice.build_box(8)
    t = lattice.cell_tiling(g, 4)
    assert len(t.cells) == 1
    g2 = lattice.build_box(16)
    t2 = lattice.cell_tiling(g2, 4)
    r = rng.stream(109, "fact")
    n = 400
    one = np.mean([math.exp(2 * disorder.penalty_f(
        disorder.sample_disorder(g, disorder.GAUSSIAN, r), t, 1.0).count) for _ in range(n)])
    many = np.mean([math.exp(2 * disorder.penalty_f(
        disorder.sample_disorder(g2, disorder.GAUSSIAN, r), t2, 1.0).count) for _ in range(n)])
    # cells are iid across the box: log E[1/f] scales with the cell count
    assert abs(math.log(many) - len(t2.cells) * math.log(one)) < 0.75


def test_window_sums_diamond():
    vals = np.zeros((7, 7))
    vals[3, 3] = 1.0
    s = disorder.window_sums(vals, 2)
    # the l1 ball of radius 2 around the unit mass
    x1, x2 = np.meshgrid(np.arange(7), np.arange(7), indexing="ij")
    expect = (np.abs(x1 - 3) + np.abs(x2 - 3) <= 2).astype(float)
    assert np.abs(s - expect).max() < 1e-12


def test_event_e_frequency_shape():
    # P(mean event) fitted against N1^2 exp(-c (log N1)^2): c stays positive
    g = lattice.build_box(32)
    t = lattice.cell_tiling(g, 16)
    r = rng.stream(110, "efreq")
    n = 300
    hits = 0
    for _ in range(n):
        om = disorder.sample_disorder(g, disorder.GAUSSIAN, r)
        hits += int(disorder.event_E_cell(om, t.cells[0], beta=1.0).triggered)
    freq = max(hits / n, 0.5 / n)
    c_fit = -math.log(freq / 16 ** 2) / math.log(16) ** 2
    assert c_fit > 0.0
