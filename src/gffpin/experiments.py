"""Named experiments: the acceptance suite plus exploratory runs.

Every acceptance check is exactly one registry entry; `gffpin verify` runs
them all and prints one verdict line each.  Experiments draw all randomness
from streams keyed by (seed, experiment, purpose, replica), so a rerun with
the same resolved configuration reproduces every number bit-for-bit on the
same platform.

An experiment function takes the resolved config and returns (checks, records,
tables); its entry's defaults are the settings it reads, the only keys
accepted.  A check is (ok, text), with ok True, False or None for an info line;
run_experiment prints each check as one line and passes the run when every
check with a verdict holds (None when none has).

Frozen constants: the density-event offset K comes from density-calibrate,
run once at its recorded seed, and that entry re-derives it.  The bridge
envelope C was fitted once; no bridge calibration entry was ever registered,
so nothing in this module re-derives C.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import fields, freeenergy, kernels, lattice, pinning, rng as rngmod
from .disorder import (BERNOULLI, GAUSSIAN, DisorderField, event_C_cell, penalty_f,
                       sample_disorder)
from .errors import ConfigError, DomainError

# calibrated once and frozen; only K is re-derivable, via density-calibrate
FROZEN_DENSITY_K = 0.35       # smallest grid value with typical-density freq >= target at N=256
FROZEN_BRIDGE_C = 0.80        # envelope constant, 20% above the largest fitted cell value
FROZEN_DENSITY_C_CAP = 1.0    # family constant cap for the typicality criterion


@dataclass
class ExperimentResult:
    name: str
    passed: bool | None
    lines: list
    records: list
    tables: dict
    wall_time: float
    config: dict
    streams: list


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    statement: str
    defaults: dict
    fn: object  # cfg -> (checks, records, tables)
    acceptance: int | None = None  # criterion number when part of the gate

    def resolve(self, overrides: dict) -> dict:
        """The defaults with the overrides in; a ConfigError for an unknown key or a bad value."""
        defaults, name = self.defaults, self.name
        unknown = sorted(set(overrides) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)} for {name!r}; " + (
                f"known: {', '.join(sorted(defaults))}" if defaults else "it takes no settings"))
        wrong = [f"{key} = {value!r} (the default is {defaults[key]!r})"
                 for key, value in sorted(overrides.items()) if not _fits(value, defaults[key])]
        if wrong:
            raise ConfigError(f"config value(s) of the wrong type or not finite for {name!r}: "
                              f"{'; '.join(wrong)}")
        cfg = {**defaults, **overrides}
        if "seed" in cfg and not 0 <= cfg["seed"] < 2 ** 64:  # stream_key packs it in 8 bytes
            raise ConfigError(f"seed must be an integer in [0, 2^64) (got {cfg['seed']})")
        for key, least in _LEAST.items():
            if key in cfg and cfg[key] < least:
                raise ConfigError(f"{key} must be an integer >= {least} (got {cfg[key]})")
        return cfg


def _line(ok: bool | None, text: str) -> str:
    tag = "PASS" if ok else ("FAIL" if ok is not None else "info")
    return f"[{tag}] {text}"


# ---------------------------------------------------------------------------
# 1. exact small box
# ---------------------------------------------------------------------------

def _run_exact_small_box(cfg):
    checks = []
    g2 = lattice.build_box(2)
    g_center = kernels.green_dirichlet(g2, 0.0).table[0, 0]
    checks.append((abs(g_center - 0.25) < 1e-12, "G*(center) = 1/4 at N=2"))
    for m in (0.5, 1.0, 2.0):
        gm = kernels.green_dirichlet(g2, m).table[0, 0]
        checks.append((abs(gm - 1.0 / (4 + m * m)) < 1e-12, f"G*(center) = 1/(4+m^2) at m={m}"))
    om = DisorderField(g2, GAUSSIAN, np.zeros((3, 3)))
    params = pinning.PinningParams(beta=0.0, h=1.0)
    logz = pinning.exact_partition_small(g2, params, om)
    p = 2.0 * special.ndtr(2.0) - 1.0
    ref = math.log(1.0 + (math.e - 1.0) * p)
    checks.append((abs(logz - ref) < 1e-9,
                   f"log Z(N=2, h=1) = log(1+(e-1)(2Phi(2)-1)) [{logz:.9f} vs {ref:.9f}]"))
    logz0 = pinning.exact_partition_small(g2, pinning.PinningParams(beta=0.0, h=0.0), om)
    checks.append((abs(logz0) < 1e-12, "Z = 1 exactly at h = 0"))
    return checks, [{"check": t, "ok": ok} for ok, t in checks], {}


# ---------------------------------------------------------------------------
# 2. Green asymptotics
# ---------------------------------------------------------------------------

def _run_green_asymptotics(cfg):
    masses = [1e-1, 1e-2, 1e-3, 1e-4]
    rows = []
    resid_inf = []
    for m in masses:
        G = kernels.green_massive_infinite((0, 0), m)
        ref = -math.log(m) / (2.0 * math.pi)
        resid_inf.append(G - ref)
        rows.append((m, G, ref, G - ref))
    drift_inf = (max(resid_inf) - min(resid_inf)) / abs(np.mean(resid_inf))
    ok_inf = max(abs(r) for r in resid_inf) < 2.0 and drift_inf < 0.20
    dir_rows = []
    worst = {}
    for N in (64, 128, 256):
        g = lattice.build_box(N)
        w = 0.0
        for m in (0.1, 0.02, 0.004):
            diag = kernels.green_dirichlet_diag(g, m)
            mask = g.interior_mask
            ref = np.log(np.minimum(1.0 / m, g.dist_boundary[mask])) / (2.0 * math.pi)
            w = max(w, float(np.abs(diag[mask] - ref).max()))
        worst[N] = w
        dir_rows.append((N, w))
    vals = list(worst.values())
    drift_dir = (max(vals) - min(vals)) / np.mean(vals)
    ok_dir = max(vals) < 2.0 and drift_dir < 0.20
    checks = [
        (ok_inf, f"infinite-volume residual {np.mean(resid_inf):.5f}, drift {drift_inf:.2%}"),
        (ok_dir, f"Dirichlet residual max {max(vals):.5f}, drift across N {drift_dir:.2%}"),
    ]
    records = [{"resid_infinite": resid_inf, "resid_dirichlet": worst,
                "drift_infinite": drift_inf, "drift_dirichlet": drift_dir}]
    return checks, records, {
        "green_infinite": (["m", "G(0,0)", "log(1/m)/2pi", "residual"], rows),
        "green_dirichlet_residual": (["N", "max_abs_residual"], dir_rows)}


# ---------------------------------------------------------------------------
# 3. f(m) asymptotics
# ---------------------------------------------------------------------------

def _run_f_asymptotics(cfg):
    ratios = []
    rows = []
    for m in (1e-1, 1e-2, 1e-3):
        f = kernels.f_of_m(m)
        asym = m * m * abs(math.log(m)) / (4.0 * math.pi)
        ratios.append((f - asym) / (m * m))
        rows.append((m, f, asym, ratios[-1]))
    drift = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    f_pan = kernels.f_of_m(0.5)
    f_adp = kernels.f_of_m_adaptive(0.5)
    checks = [
        (drift < 0.20 and all(np.isfinite(ratios)),
         f"residual/m^2 = {np.mean(ratios):.5f}, drift {drift:.2%}"),
        (abs(f_pan - f_adp) < 1e-9,
         f"dual quadrature at m=0.5: |{f_pan:.12f} - {f_adp:.12f}| = {abs(f_pan - f_adp):.2e}"),
    ]
    records = [{"ratios": ratios, "drift": drift, "dual_diff": abs(f_pan - f_adp)}]
    return checks, records, {
        "f_asymptotics": (["m", "f(m)", "m^2|log m|/4pi", "residual/m^2"], rows)}


# ---------------------------------------------------------------------------
# 4. sampler exactness
# ---------------------------------------------------------------------------

def _run_sampler_exactness(cfg):
    seed = cfg["seed"]
    n = cfg["samples"]
    g = lattice.build_box(8)
    r = rngmod.stream(seed, "sampler-exactness", "cov")
    batch = fields.sample_dirichlet_interior(g, 0.0, n, r).reshape(n, -1)
    emp = batch.T @ batch / n
    exact = kernels.green_dirichlet(g, 0.0).table
    se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact ** 2) / n)
    z = np.abs(emp - exact) / se
    # the spectral sampler's probe variances match the Dirichlet Green function's diagonal at
    # the laboratory mass (the "stack" stream tag and table name stay, so the output matches
    # earlier runs); the scale slices' telescoping error is an info line, since the per-mode
    # slice weights telescope in closed form and the error cannot reach a bound
    g32 = lattice.build_box(32)
    m = 0.3
    grid = kernels.scale_time_grid(m, min_scales=0)
    diag_sum = np.zeros((g32.side, g32.side))
    for i in range(1, grid.k + 1):
        diag_sum += kernels.covariance_slice_diag(g32, grid, i)
    exact32 = kernels.green_dirichlet_diag(g32, m)
    tele = float(np.abs(diag_sum - exact32).max())
    r2 = rngmod.stream(seed, "sampler-exactness", "stack")
    n2 = cfg["stack_samples"]
    probes = [(16, 16), (8, 8), (4, 4), (2, 2), (24, 10)]
    rows, cols = (np.array(c) - 1 for c in zip(*probes))
    values = np.concatenate([
        fields.sample_dirichlet_interior(g32, m, min(500, n2 - start), r2)[:, rows, cols]
        for start in range(0, n2, 500)])
    ok_stack = True
    stack_rows = []
    for p, var in zip(probes, values.var(axis=0, ddof=1)):
        target = exact32[p]
        var_se = target * math.sqrt(2.0 / n2)
        zs = abs(var - target) / var_se
        stack_rows.append((p[0], p[1], float(var), target, zs))
        ok_stack &= zs < 5.0
    checks = [
        (float(z.max()) < 5.0,
         f"N=8 covariance: max |z| = {float(z.max()):.2f} over {z.size} entries ({n} samples)"),
        (None, f"slice telescoping N=32 m=0.3: max error {tele:.2e}"),
        (ok_stack, f"N=32 m=0.3 sampler variances at probes: max z = "
                   f"{max(rw[4] for rw in stack_rows):.2f}"),
    ]
    records = [{"max_z_cov": float(z.max()), "telescoping": tele}]
    return checks, records, {
        "stack_variances": (["x1", "x2", "empirical", "exact", "z"], stack_rows)}


# ---------------------------------------------------------------------------
# 5. harmonic extension
# ---------------------------------------------------------------------------

def _run_harmonic_extension(cfg):
    seed = cfg["seed"]
    g = lattice.build_box(16)
    r = rngmod.stream(seed, "harmonic", "bc")
    bc = fields.explicit_bc(r.standard_normal(4 * 16))
    m = 0.2
    ext = fields.harmonic_extension(g, m, bc)
    sites = [(8, 8), (3, 3), (12, 5), (1, 14), (6, 11)]
    mc = fields.harmonic_extension_mc(g, m, bc, sites, cfg["walks"],
                                      rngmod.stream(seed, "harmonic", "mc"))
    zs = []
    for i, s in enumerate(sites):
        zs.append(abs(mc["mean"][i] - ext.values[s]) / mc["se"][i])
    checks = [
        (ext.residual < 1e-10, f"solver residual {ext.residual:.2e}"),
        (max(zs) < 4.0, f"walk representation at 5 probes: max z = {max(zs):.2f}"),
        (ext.values.max() <= bc.max_abs() + 1e-12, "maximum principle |H| <= max |bc|"),
    ]
    return checks, [{"residual": ext.residual, "mc_z": zs}], {}


# ---------------------------------------------------------------------------
# 6. bridge lemma
# ---------------------------------------------------------------------------

def _run_bridge(cfg):
    seed = cfg["seed"]
    n = cfg["bridges"]
    C = FROZEN_BRIDGE_C
    rows = []
    ok = True
    for k in (25, 100, 400):
        for x in (1.0, 2.0, 5.0, 10.0):
            r = rngmod.stream(seed, "bridge", k, x)
            p, se = fields.bridge_positivity_probability([1.0] * k, x, n, r)
            lower = 1.0 - math.exp(-x * x / k)
            upper = min(C * (x + math.log(k)) ** 2 / k, 1.0)
            cell_ok = (p >= lower - 4.0 * se) and (p <= upper + 4.0 * se)
            ok &= cell_ok
            rows.append((k, x, p, se, lower, upper, cell_ok))
    checks = [(ok, f"12 cells inside [1-e^(-x^2/k), C(x+log k)^2/k] with frozen C={C}")]
    return checks, [{"cells": rows}], {
        "bridge_cells": (["k", "x", "estimate", "se", "lower", "upper", "ok"], rows)}


# ---------------------------------------------------------------------------
# 7. thermodynamic consistency
# ---------------------------------------------------------------------------

def _within_se(ok: bool, text: str, se) -> tuple[bool, str]:
    """A check that allows its standard errors some slack holds only where they are
    finite: with one that is not, at too small a budget, it fails and its line
    names that standard error."""
    se = np.atleast_1d(np.asarray(se, dtype=float))
    bad = se[~np.isfinite(se)]
    if bad.size:
        return False, f"{text}; se {bad[0]:.4f} is not finite"
    return ok, text


def _run_thermo(cfg):
    if cfg["replicas"] < 1:  # before the beta = 0 curve, which runs one replica whatever is set
        raise DomainError(f"thermo-consistency needs replicas >= 1 (got {cfg['replicas']})")
    seed = cfg["seed"]
    N = cfg["N"]
    geom = lattice.build_box(N)
    h_grid = np.round(np.arange(0.0, 0.36, 0.05), 10)
    checks = []
    curves = {}
    for beta, reps in ((0.0, 1), (0.5, cfg["replicas"])):
        curve = freeenergy.free_energy_curve(geom, beta, h_grid, seed,
                                             replicas=reps, sweeps=cfg["sweeps"],
                                             burn_in=cfg["burn_in"], tag=f"thermo-{beta}")
        curves[beta] = curve
        d2, d2se = curve.combine(np.diff(np.eye(len(h_grid)), 2, axis=0))
        checks.append(_within_se(bool(np.all(d2 >= -3.0 * d2se)),
                                 f"beta={beta}: convexity, min d2/se = "
                                 f"{float((d2 / np.maximum(d2se, 1e-300)).min()):.2f}", d2se))
        step, step_se = curve.combine(np.diff(np.eye(len(h_grid)), 1, axis=0))
        checks.append(_within_se(bool(np.all(step >= -3.0 * step_se)),
                                 f"beta={beta}: nondecreasing in h", step_se))
    checks.append((abs(curves[0.0].value[0]) == 0.0, "pure F(0) = 0 exactly"))
    i3 = int(np.searchsorted(h_grid, 0.30))
    fq = curves[0.5].value[i3]
    fa = curves[0.0].value[i3]
    se = math.hypot(curves[0.5].se[i3], curves[0.0].se[i3])
    checks.append(_within_se(fq <= fa + 3.0 * se,
                             f"quenched {fq:.4f} <= annealed {fa:.4f} + 3se ({se:.4f})", se))
    records = [{"beta": b, "h": c.h, "F": c.value, "se": c.se} for b, c in curves.items()]
    return checks, records, {
        "curves": (["beta", "h", "F", "se"],
                   [(b, float(h), float(v), float(s))
                    for b, c in curves.items() for h, v, s in zip(c.h, c.value, c.se)])}


# ---------------------------------------------------------------------------
# 8. massive comparison
# ---------------------------------------------------------------------------

def _run_massive_comparison(cfg):
    seed, N, h, m = cfg["seed"], cfg["N"], cfg["h"], cfg["m"]
    fm = kernels.f_of_m(m)  # first: it rejects m outside (0, 1] before any chain runs
    geom = lattice.build_box(N)
    est = {}
    for label, mass in (("pure", 0.0), ("massive", m)):
        curve = freeenergy.free_energy_curve(geom, 0.0, [h], seed, m=mass,
                                             sweeps=cfg["sweeps"], burn_in=cfg["burn_in"],
                                             tag=label)
        est[label] = float(curve.value[0]), float(curve.se[0])
    (pure, pure_se), (massive, massive_se) = est["pure"], est["massive"]
    se = math.hypot(pure_se, massive_se)
    checks = [_within_se(massive <= pure + fm + 3.0 * se,
                         f"F(0,{h},{m},0) = {massive:.5f} <= F({h}) + f(m) = "
                         f"{pure:.5f} + {fm:.5f} (+3se = {3 * se:.5f})", se)]
    common = {"N": N, "method": "thermodynamic-integration", "replicas": 1, "seed": seed}
    records = [{"massive": massive, "pure": pure, "f_m": fm, "se": se},
               {"params": {"beta": 0.0, "h": h}, "value": pure, "se": pure_se, **common},
               {"params": {"beta": 0.0, "h": h, "m": m, "u": 0.0}, "value": massive,
                "se": massive_se, **common}]
    return checks, records, {}


# ---------------------------------------------------------------------------
# 9. density typicality
# ---------------------------------------------------------------------------

def _sums_of_squares(g, m, n, r) -> np.ndarray:
    """sum phi^2 over the interior for each of n Dirichlet samples, drawn 250 at a
    time; the draws do not depend on the block size."""
    sums = np.empty(n)
    for start in range(0, n, 250):
        s = fields.sample_dirichlet_interior(g, m, min(250, n - start), r)
        sums[start : start + s.shape[0]] = (s ** 2).sum(axis=(1, 2))
    return sums


def _run_density_typicality(cfg):
    seed, K = cfg["seed"], cfg["K"]
    rows = []
    cs = []
    for m in (0.2, 0.1, 0.05):
        N = math.ceil((1.0 / m) * math.log(1.0 / m) ** 0.25)
        g = lattice.build_box(N)
        r = rngmod.stream(seed, "density", m)
        stats = _sums_of_squares(g, m, cfg["samples"], r)
        thr = freeenergy.density_event_threshold(N, m, K)
        freq = float(np.mean(stats >= thr))
        c = (1.0 - freq) * math.sqrt(math.log(N))
        cs.append(c)
        rows.append((m, N, freq, c))
    c_star = max(cs)
    # a mass whose every sample meets the event fits C = 0, against which no C is stable
    stability = c_star / min(cs) if min(cs) > 0 else math.inf
    checks = [(c_star <= FROZEN_DENSITY_C_CAP and stability < 1.2,
               f"family constant C* = {c_star:.3f} (cap {FROZEN_DENSITY_C_CAP}), "
               f"stability {stability:.3f} < 1.2, K = {K}")]
    return checks, [{"rows": rows, "C_star": c_star}], {
        "typicality": (["m", "N", "frequency", "fitted_C"], rows)}


def _run_density_calibrate(cfg):
    seed, N = cfg["seed"], cfg["N"]
    m = freeenergy.desk_mass(N)
    g = lattice.build_box(N)
    r = rngmod.stream(seed, "density-calibrate")
    stats = _sums_of_squares(g, m, cfg["samples"], r)
    target = 1.0 - 1.0 / math.sqrt(math.log(N))
    rows = []
    k_star = None
    for K in np.arange(0.0, 1.51, 0.05):
        thr = freeenergy.density_event_threshold(N, m, float(K))
        freq = float(np.mean(stats >= thr))
        rows.append((float(K), freq))
        if k_star is None and freq >= target:
            k_star = float(K)
    checks = [(None, f"smallest K with freq >= {target:.4f} at N={N}, m={m:.5f}: {k_star}"),
              (None, f"frozen default in use: {FROZEN_DENSITY_K}")]
    return checks, [{"K_star": k_star, "target": target, "N": N, "m": m}], {
        "calibration": (["K", "frequency"], rows)}


# ---------------------------------------------------------------------------
# 10. extremal event
# ---------------------------------------------------------------------------

def _run_extremal_event(cfg):
    seed, N = cfg["seed"], cfg["N"]
    m = freeenergy.desk_mass(N)
    g = lattice.build_box(N)
    grid = kernels.scale_time_grid(m, min_scales=1)
    wide = lattice.sub_box_mask(g, 2.0)
    r = rngmod.stream(seed, "extremal")
    n = cfg["samples"]
    margins = np.empty(n)
    for i in range(n):
        s = fields.sample_scale_stack(g, m, r, grid=grid)
        margins[i] = fields.stack_barrier_margin(s.stack, wide, freeenergy.GAMMA)
    t_star = freeenergy.GAMMA * math.log(math.log(N))
    offsets = [-1.0, -0.5, 0.0, 0.5, 1.0, t_star]
    freqs = [float(np.mean(margins <= t)) for t in offsets]
    checks = [
        (freqs[-1] >= 0.99, f"relaxed barrier (offset {t_star:.2f}): frequency {freqs[-1]:.4f} "
                            f">= 0.99 ({n} stacks, k={grid.k})"),
        (bool(np.all(np.diff(freqs) >= 0.0)),
         "frequency nondecreasing in the additive offset (shared samples)"),
        (None, f"observed margin quantiles 50/99/100%: "
               f"{np.percentile(margins, 50):.3f} / {np.percentile(margins, 99):.3f} / "
               f"{margins.max():.3f}"),
    ]
    return checks, [{"offsets": offsets, "freqs": freqs, "k": grid.k}], {
        "extremal": (["offset", "frequency"], list(zip(offsets, freqs)))}


# ---------------------------------------------------------------------------
# 11. copolymer
# ---------------------------------------------------------------------------

def _run_copolymer(cfg):
    seed, N, rho = cfg["seed"], cfg["N"], cfg["rho"]
    ok_g = abs(freeenergy.copolymer_critical_point(GAUSSIAN, rho) - rho) < 1e-12
    ref_b = math.log(math.cosh(2 * rho)) / (2 * rho)
    ok_b = abs(freeenergy.copolymer_critical_point(BERNOULLI, rho) - ref_b) < 1e-12
    g = lattice.build_box(N)
    h_c = rho
    fracs = {}
    ses = {}
    for label, h in (("at_2hc", 2 * h_c), ("at_0", 0.0)):
        om = sample_disorder(g, GAUSSIAN, rngmod.stream(seed, "cop-omega", label))
        params = pinning.PinningParams(model="copolymer", rho=rho, h=h)
        rec = pinning.run_chain(g, params, om, rngmod.stream(seed, "cop-chain", label),
                                sweeps=cfg["sweeps"], burn_in=cfg["burn_in"], thinning=2)
        fracs[label], ses[label] = rec.mean_se(rec.contact_fraction)
    checks = [
        (ok_g, f"gaussian critical point = rho exactly ({rho})"),
        (ok_b, f"bernoulli critical point = log cosh(2 rho)/(2 rho) = {ref_b:.12f}"),
        (fracs["at_2hc"] + 3 * ses["at_2hc"] < 0.05,
         f"lower-solvent fraction at h=2 rho: {fracs['at_2hc']:.4f} < 0.05"),
        (fracs["at_0"] - 3 * ses["at_0"] > 0.20,
         f"lower-solvent fraction at h=0: {fracs['at_0']:.4f} > 0.20"),
    ]
    return checks, [{"fracs": fracs, "ses": ses}], {}


# ---------------------------------------------------------------------------
# 12. sub-additivity
# ---------------------------------------------------------------------------

def _run_subadditivity(cfg):
    out = freeenergy.doubling_gap(cfg["beta"], cfg["h"], cfg["m"], 0.0, cfg["K"],
                                  cfg["N"], cfg["seed"], replicas=cfg["replicas"],
                                  sweeps=cfg["sweeps"], burn_in=cfg["burn_in"],
                                  threads=cfg["threads"])
    checks = [(out["gap"] >= -3.0 * out["gap_se"],
               f"E log Z'({2 * cfg['N']}) - 4 E log Z'({cfg['N']}) = "
               f"{out['gap']:.2f} >= -3 se ({out['gap_se']:.2f})")]
    return checks, [out], {}


# ---------------------------------------------------------------------------
# exploratory experiments (not part of the gate)
# ---------------------------------------------------------------------------

_H_GRID_MAX = 1000  # ladder points; the default grid has 6


def _run_pure_free_energy(cfg):
    if cfg["h_step"] <= 0:
        raise ConfigError(f"h_step must be > 0 (got {cfg['h_step']})")
    if cfg["h_min"] > cfg["h_max"]:
        raise ConfigError(f"h_min must be <= h_max (got h_min = {cfg['h_min']}, "
                          f"h_max = {cfg['h_max']})")
    if (cfg["h_max"] + 1e-12 - cfg["h_min"]) / cfg["h_step"] > _H_GRID_MAX:  # np.arange's length
        raise ConfigError(f"h_step = {cfg['h_step']} gives more than {_H_GRID_MAX} grid points "
                          f"over [h_min, h_max] = [{cfg['h_min']}, {cfg['h_max']}]")
    geom = lattice.build_box(cfg["N"])
    h_grid = np.round(np.arange(cfg["h_min"], cfg["h_max"] + 1e-12, cfg["h_step"]), 10)
    curve = freeenergy.free_energy_curve(geom, 0.0, h_grid, cfg["seed"],
                                         sweeps=cfg["sweeps"], burn_in=cfg["burn_in"],
                                         tag="pure-grid")
    ratio = [float(v * math.sqrt(abs(math.log(h))) / h) for h, v in zip(curve.h, curve.value) if h > 0]
    checks = [(None, f"F * sqrt|log h| / h along the grid: "
                     f"{', '.join(f'{x:.3f}' for x in ratio)}")]
    return checks, [{"h": curve.h, "value": curve.value, "se": curve.se}], {
        "pure_free_energy": (["h", "value", "se"],
                             [(float(h), float(v), float(s))
                              for h, v, s in zip(curve.h, curve.value, curve.se)])}


def _run_finite_volume(cfg):
    rep = freeenergy.finite_volume_criterion(cfg["beta"], cfg["h"], cfg["m"], cfg["u"],
                                             cfg["K"], cfg["N"], cfg["seed"],
                                             replicas=cfg["replicas"], sweeps=cfg["sweeps"],
                                             burn_in=cfg["burn_in"], threads=cfg["threads"])
    checks = [(None, f"verdict: {rep['verdict']} (estimate {rep['estimate']:.4f} "
                     f"+- {rep['se']:.4f}, penalty {rep['penalty']:.4f}, "
                     f"event freq {rep['event_frequency']:.3f})")]
    return checks, [rep], {}


def _run_wall_restriction(cfg):
    rows = []
    prev = None
    monotone = True
    for h in (0.3, 0.2, 0.1):
        out = freeenergy.height_restriction_logp(cfg["beta"], h, cfg["N"], cfg["seed"],
                                                 sweeps=cfg["sweeps"], burn_in=cfg["burn_in"])
        rows.append((h, out["barrier"], out["logp_per_site"]))
        if prev is not None and out["logp_per_site"] < prev:
            monotone = False
        prev = out["logp_per_site"]
    checks = [(None, "restriction cost per site shrinks as h decreases: "
                     + ("yes" if monotone else "no"))]
    return checks, [{"rows": rows, "monotone": monotone}], {
        "wall": (["h", "barrier", "logp_per_site"], rows)}


def _run_contact_statistics(cfg):
    out = freeenergy.conditioned_contact_statistics(cfg["N"], cfg["seed"],
                                                    samples=cfg["samples"])
    checks = [
        (None, f"E[L] = {out['mean_L']:.2f} (se {out['se_L']:.2f}), "
               f"E[L'] = {out['mean_Lp']:.2f} <= E[L]"),
        (None, f"Paley-Zygmund ratio E[L'^2]/E[L']^2 = {out['paley_zygmund_ratio']:.2f}"),
        (None, f"barrier event frequency {out['an_frequency']:.3f}, "
               f"decorrelation-scale histogram {out['j_histogram']}"),
    ]
    return checks, [out], {}


def _run_cluster_probability(cfg):
    """Frequency of a contact cluster in the central cell of a double box,
    against the variance-split bound shape evaluated numerically.

    The split time (log N1)^8 exceeds the relaxation time of any laboratory
    box, so the long-time variance V' degenerates to ~0 there; the result is
    then reported as structurally out of regime rather than asserted.
    """
    N1, h, seed = cfg["N1"], cfg["h"], cfg["seed"]
    g = lattice.build_box(2 * N1)
    tiling = lattice.cell_tiling(g, N1)
    center = next(c for c in tiling.cells if c.y == (1, 1))
    om = DisorderField(g, GAUSSIAN, np.zeros((g.side, g.side)))
    params = pinning.PinningParams(beta=0.0, h=h)

    def hit(f: np.ndarray) -> float:
        return float(event_C_cell(pinning.contact_indicators(f, 0.0), center).triggered)

    rec = pinning.run_chain(g, params, om, rngmod.stream(seed, "cluster"),
                            sweeps=2 * cfg["samples"], burn_in=cfg["burn_in"], thinning=2,
                            observables={"hit": hit})
    hit_mean, hit_se = rec.mean_se(rec.extra["hit"])
    # whether the threshold exceeds the window depends on the cell side alone
    structural = event_C_cell(np.zeros((g.side, g.side), dtype=bool), center).structurally_false
    t_split = math.log(N1) ** 8
    q1, _ = kernels.split_diag(g, 0.0, t_split)
    block = q1[center.cell_slice]
    v_prime = float(block.min())
    v_max = float(kernels.green_dirichlet_diag(g, 0.0)[center.cell_slice].max())
    checks = [
        (None, f"cluster frequency {hit_mean:.4f} (se {hit_se:.4f}) at N1={N1}, h={h}"),
        (None, f"V = max G*(x,x) = {v_max:.4f} vs log(N1)/2pi = "
               f"{math.log(N1) / (2 * math.pi):.4f}"),
        (None, f"long-time variance V' = {v_prime:.3e}"
               + (" (split time beyond box relaxation: bound degenerate here)"
                  if v_prime < 1e-6 else "")),
        (None, f"cluster threshold structurally unreachable: {structural}"),
    ]
    return checks, [{"frequency": hit_mean, "se": hit_se, "v_prime": v_prime,
                     "v_max": v_max, "structural": structural}], {}


def _run_penalty_cost(cfg):
    N, N1, beta = cfg["N"], cfg["N1"], cfg["beta"]
    g = lattice.build_box(N)
    til = lattice.cell_tiling(g, N1)
    r = rngmod.stream(cfg["seed"], "penalty")
    penalties = [penalty_f(sample_disorder(g, GAUSSIAN, r), til, beta)
                 for _ in range(cfg["samples"])]
    inv_mean, inv_se = freeenergy._mean_se(np.array([1.0 / p.value for p in penalties]))
    mean_count = float(np.mean([p.count for p in penalties]))
    checks = [
        (None, f"E[1/f(omega)] = {inv_mean:.4f} (se {inv_se:.4f}) over "
               f"{len(til.cells)} cells; mean flagged cells {mean_count:.3f}"),
        (None, f"(1/N^2) log E[1/f] = {math.log(max(inv_mean, 1e-300)) / N ** 2:.3e}"),
    ]
    return checks, [{"mean_inverse": inv_mean, "se": inv_se, "mean_count": mean_count}], {}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY: dict[str, Experiment] = {}


def _register(name, description, statement, defaults, fn, acceptance=None):
    REGISTRY[name] = Experiment(name, description, statement, defaults, fn, acceptance)


_register(
    "exact-small-box",
    "one-interior-site identities for the Green function and partition function",
    "G*(center)=1/4 and 1/(4+m^2) at N=2; log Z(N=2,b=0,h=1) = log(1+(e-1)(2 Phi(2)-1))",
    {}, _run_exact_small_box, acceptance=1)
_register(
    "green-asymptotics",
    "log-law residuals of the massive and Dirichlet Green functions",
    "|G^m(0,0) - log(1/m)/2pi| and |G^{m,*}(x,x) - log(min(1/m, d))/2pi| bounded, stable",
    {}, _run_green_asymptotics, acceptance=2)
_register(
    "f-asymptotics",
    "mass-cost integral f(m) against its m^2 log(1/m) law",
    "|f(m) - m^2 |log m| / 4pi| / m^2 stable over three decades; dual quadratures agree to 1e-9",
    {}, _run_f_asymptotics, acceptance=3)
_register(
    "sampler-exactness",
    "spectral sampler covariance and scale-slice telescoping",
    "empirical covariance matches the Green table within 5 MC se; slices sum to G^{m,*}",
    {"seed": 20260804, "samples": 100_000, "stack_samples": 40_000},
    _run_sampler_exactness, acceptance=4)
_register(
    "harmonic-extension",
    "boundary-data extension: solver residual and walk representation",
    "(Delta - m^2) H = 0 residual < 1e-10; discounted-walk estimate matches at 5 probes (4 se)",
    {"seed": 20260805, "walks": 20_000}, _run_harmonic_extension, acceptance=5)
_register(
    "bridge-lemma",
    "Gaussian bridge below a barrier: two-sided envelope",
    "P[max <= x | end pinned] in [1 - e^{-x^2/k}, C (x + log k)^2 / k] with frozen C",
    {"seed": 20260806, "bridges": 1_000_000}, _run_bridge, acceptance=6)
_register(
    "thermo-consistency",
    "free-energy curve shape in h and the quenched/annealed order",
    "F convex nondecreasing on an 8-point grid (both disorder strengths); quenched <= annealed",
    {"seed": 20260807, "N": 32, "replicas": 6, "sweeps": 500, "burn_in": 250},
    _run_thermo, acceptance=7)
_register(
    "massive-comparison",
    "confinement cost: massive free energy against pure plus f(m)",
    "F(0,h,m,0) <= F(h) + f(m) + 3 se at (h,m,N) = (0.3, 0.3, 32)",
    {"seed": 20260808, "N": 32, "h": 0.3, "m": 0.3, "sweeps": 600, "burn_in": 300},
    _run_massive_comparison, acceptance=8)
_register(
    "density-typicality",
    "typical squared-field density event across the scaled mass family",
    "freq(sum phi^2 >= N^2(2f(m)/m^2 - K)) >= 1 - C/sqrt(log N) with one C over the family",
    {"seed": 20260809, "K": FROZEN_DENSITY_K, "samples": 20_000},
    _run_density_typicality, acceptance=9)
_register(
    "extremal-event",
    "multiscale barrier event at the laboratory schedule",
    "all scale trajectories stay below gamma(i - j(x)) + offset with frequency >= 0.99",
    {"seed": 20260810, "N": 256, "samples": 1000}, _run_extremal_event, acceptance=10)
_register(
    "copolymer",
    "co-membrane critical point formulas and solvent asymmetry",
    "h_c = lambda(-2 rho)/2 rho exactly; lower-solvent fraction < 0.05 at h = 2 h_c, > 0.2 at 0",
    {"seed": 20260811, "N": 32, "rho": 0.5, "sweeps": 4000, "burn_in": 800},
    _run_copolymer, acceptance=11)
_register(
    "subadditivity",
    "doubling inequality for the boundary-averaged restricted partition function",
    "E log Z'(2N) >= 4 E log Z'(N) within 3 se at N = 16 -> 32",
    {"seed": 20260812, "N": 16, "beta": 0.5, "h": 0.3, "m": 0.3, "K": FROZEN_DENSITY_K,
     "replicas": 8, "sweeps": 400, "burn_in": 200, "threads": 1},
    _run_subadditivity, acceptance=12)

_register(
    "pure-free-energy",
    "pure-model free energy along an h-grid (CSV output)",
    "F(h) tracks sqrt(2) h / sqrt|log h| up to laboratory-size effects",
    {"seed": 20260820, "N": 64, "h_min": 0.05, "h_max": 0.3, "h_step": 0.05,
     "sweeps": 500, "burn_in": 250},
    _run_pure_free_energy)
_register(
    "finite-volume-criterion",
    "positivity certificate from one finite box with stationary boundary",
    "(1/N^2) E log E^{m,bc}[e^{interaction} 1_D] - K m^2 > 0 certifies F > 0",
    {"seed": 20260821, "N": 32, "beta": 0.0, "h": 2.0, "m": 0.3, "u": 0.2,
     "K": 10.0, "replicas": 4, "sweeps": 400, "burn_in": 250, "threads": 1},
    _run_finite_volume)
_register(
    "density-calibrate",
    "calibration sweep for the typical-density offset K",
    "smallest K with event frequency >= 1 - 1/sqrt(log N) at the laboratory schedule",
    {"seed": 20260822, "N": 256, "samples": 1500}, _run_density_calibrate)
_register(
    "wall-restriction",
    "cost of confining all heights below |log h|^2 (soft-wall integration)",
    "(1/N^2) log P[all heights within the band] shrinks in magnitude as h decreases",
    {"seed": 20260823, "N": 64, "beta": 0.5, "sweeps": 200, "burn_in": 150},
    _run_wall_restriction)
_register(
    "contact-statistics",
    "scale-restricted contact moments near the extremal height",
    "E[L'] <= E[L]; second-moment ratio finite; pairwise decorrelation scales",
    {"seed": 20260824, "N": 32, "samples": 400}, _run_contact_statistics)
_register(
    "cluster-probability",
    "contact-cluster frequency in one cell vs the variance-split bound shape",
    "freq(cluster in the central cell) against c/log(N1) e^{-u^2/2V'} with V' computed numerically",
    {"seed": 20260826, "N1": 8, "h": 0.1, "samples": 300, "burn_in": 300},
    _run_cluster_probability)
_register(
    "penalty-cost",
    "inverse-penalty cost of the disorder change of measure",
    "E[f(omega)^{-1}] stays subexponential in the cell count",
    {"seed": 20260825, "N": 16, "N1": 4, "beta": 1.0, "samples": 200}, _run_penalty_cost)


def list_experiments() -> list[tuple[str, str, str]]:
    """Sorted (name, description, statement) rows; stable across runs."""
    return [(e.name, e.description, e.statement) for _, e in sorted(REGISTRY.items())]


def acceptance_names() -> list[str]:
    pairs = [(e.acceptance, e.name) for e in REGISTRY.values() if e.acceptance]
    return [name for _, name in sorted(pairs)]


def _fits(value, default) -> bool:
    """Whether an override may replace a default: an int default takes an int,
    a float default an int or a finite float, any other default a value of its
    own type; a bool fits none, since no setting is a flag."""
    if isinstance(value, bool):
        return False
    if isinstance(default, numbers.Integral):
        return isinstance(value, numbers.Integral)
    if isinstance(default, numbers.Real):
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, type(default))


# smallest value of each count setting, wherever an experiment has one: a sample
# variance or standard error needs two draws
_LEAST = {"threads": 1, "samples": 1, "stack_samples": 2, "walks": 2}


def run_experiment(name: str, overrides: dict | None = None) -> ExperimentResult:
    if name not in REGISTRY:
        raise ConfigError(f"unknown experiment {name!r}; registry: {', '.join(sorted(REGISTRY))}")
    exp = REGISTRY[name]
    cfg = exp.resolve(overrides or {})
    t0 = time.time()
    with rngmod.audit_streams() as audit:
        checks, records, tables = exp.fn(cfg)
    wall_time = time.time() - t0
    verdicts = [ok for ok, _ in checks if ok is not None]
    return ExperimentResult(name, all(verdicts) if verdicts else None,
                            [_line(ok, text) for ok, text in checks], records, tables,
                            wall_time, cfg, audit.consumed)
