"""Free-energy estimators and the finite-volume positivity machinery.

Thermodynamic integration over the reward h is the estimator of record: the
h-derivative of log Z is the exact contact total, so log Z(h) accumulates
MCMC contact counts along a grid, anchored either at h = 0 (pure model,
where Z = 1 exactly) or at a deeply negative h0 where log Z has an explicit
first-order expansion in the tiny per-site weights.  On top of it sit the
quenched replica average, the massive comparison, the finite-volume
criterion with its typical-density event, the doubling (sub-additivity)
check, the event flags, the asymptotic parameter schedule and its
laboratory-scale analogue, and the copolymer critical point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
from scipy import special

from . import fields, kernels, pinning, rng as rngmod
from .disorder import DisorderField, DisorderSpec, log_mgf, sample_disorder
from .errors import DomainError
from .lattice import BoxGeometry, build_box, pair_scale_index, sub_box_mask

GAMMA = 2.0 * math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass
class FreeEnergyEstimate:
    value: float
    se: float
    N: int
    method: str
    params: dict
    replicas: int
    seed: int
    replica_values: np.ndarray | None = None

    @property
    def spread(self) -> float:
        """Replica-to-replica standard deviation (self-averaging diagnostic)."""
        if self.replica_values is None or len(self.replica_values) < 2:
            return 0.0
        return float(np.std(self.replica_values, ddof=1))


@dataclass
class FreeEnergyCurve:
    """Per-site free energy along an h-grid, with the TI contact densities."""

    h: np.ndarray
    value: np.ndarray
    se: np.ndarray
    density: np.ndarray
    density_se: np.ndarray

    def second_differences(self) -> tuple[np.ndarray, np.ndarray]:
        d2 = self.value[2:] - 2.0 * self.value[1:-1] + self.value[:-2]
        se = np.sqrt(self.se[2:] ** 2 + 4.0 * self.se[1:-1] ** 2 + self.se[:-2] ** 2)
        return d2, se


@dataclass
class CriterionReport:
    N: int
    m: float
    u: float
    K: float
    estimate: float
    se: float
    penalty: float
    verdict: str
    margin: float
    event_frequency: float


# ---------------------------------------------------------------------------
# thermodynamic integration core
# ---------------------------------------------------------------------------

def band_probability_grid(geom: BoxGeometry, m: float, u: float,
                          shift: np.ndarray | None = None) -> np.ndarray:
    """P(phi_x in [u-1, u+1]) sitewise under the free (possibly shifted) field."""
    var = kernels.green_dirichlet_diag(geom, m)
    sd = np.sqrt(np.maximum(var, 1e-300))
    mu = np.zeros_like(sd) if shift is None else shift
    hi = (u + 1.0 - mu) / sd
    lo = (u - 1.0 - mu) / sd
    p = np.where(var > 0, special.ndtr(hi) - special.ndtr(lo), 0.0)
    return np.maximum(p, 0.0)


def _ti_h_grid(targets, step: float = 0.03, max_points: int = 40) -> np.ndarray:
    """Integration grid through 0 and every target, spaced at most `step`
    (coarsened to cap the number of chains on wide ranges)."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    pts = set(np.round(targets, 12))
    pts.add(0.0)
    lo = min(0.0, float(targets.min()))
    hi = max(0.0, float(targets.max()))
    if hi > lo:
        step = max(step, (hi - lo) / max_points)
        n = max(2, int(math.ceil((hi - lo) / step)) + 1)
        pts.update(np.round(np.linspace(lo, hi, n), 12))
    return np.array(sorted(pts))


def boundary_contact_term(geom: BoxGeometry, params: pinning.PinningParams,
                          omega: DisorderField, interaction: str) -> float:
    """Deterministic part of the interaction from frame sites of the range.

    With the canonical {1..N}^2 range the two far edges sit on the boundary,
    so their contacts are functions of the boundary data alone and
    contribute sum s_x delta(bc_x) to log Z exactly.
    """
    mask = pinning._interaction_mask(geom, interaction) & geom.boundary_mask
    if not np.any(mask):
        return 0.0
    bgrid = params.bc.grid(geom)
    delta = pinning.contact_indicators(bgrid, params.u)
    s = pinning.site_weights(params, omega)
    return float(np.sum(s[mask & delta]))


@dataclass
class TIResult:
    h_grid: np.ndarray
    density: np.ndarray          # absolute contact totals E[sum delta]
    density_se: np.ndarray
    log_z: np.ndarray            # cumulative log Z at each grid point
    log_z_se: np.ndarray
    final_record: pinning.ChainRecord


def coupling_log_z(geom: BoxGeometry, params: pinning.PinningParams, omega: DisorderField,
                   rng: np.random.Generator, sweeps: int, burn_in: int, thinning: int = 2,
                   n_t: int = 12, interaction: str = "interior",
                   shift: np.ndarray | None = None) -> tuple[float, float]:
    """log Z at the parameters of `params` by coupling-constant integration.

    Z(t) = E[exp(t sum_x s_x delta_x)] interpolates from Z(0) = 1 (an exact
    anchor) to the target, and d/dt log Z(t) is the interaction energy under
    the partially coupled measure.  At t = 0 the integrand is the explicit
    Gaussian value sum_x s_x p_x; chains supply the rest of the t-grid.
    """
    mask = pinning._interaction_mask(geom, interaction) & geom.interior_mask
    s_grid = pinning.site_weights(params, omega)
    p_grid = band_probability_grid(geom, params.m, params.u, shift=shift)
    t_grid = np.linspace(0.0, 1.0, n_t)
    vals = [float(np.sum(s_grid[mask] * p_grid[mask]))]
    ses = [0.0]
    chain = None

    def s_total(f: np.ndarray) -> float:
        return float(np.sum(s_grid[mask & (np.abs(f - params.u) <= 1.0)]))

    for t in t_grid[1:]:
        if chain is None:
            chain = pinning.make_chain(geom, params, omega, rng)
            chain = pinning.GibbsChain(geom, params, omega, chain.field, rng, coupling=float(t))
            bi = burn_in
        else:
            chain = pinning.GibbsChain(geom, params, omega, chain.field, rng,
                                       coupling=float(t), sweeps_done=chain.sweeps_done)
            bi = max(burn_in // 3, 20)
        rec = pinning.run_chain(geom, params, omega, rng, sweeps=sweeps, burn_in=bi,
                                thinning=thinning, chain=chain, interaction=interaction,
                                observables={"s_total": s_total})
        mean, se = rec.mean_se(rec.extra["s_total"])
        vals.append(mean)
        ses.append(se)
    vals = np.array(vals)
    ses = np.array(ses)
    dt = np.diff(t_grid)
    log_z = float(np.sum(0.5 * dt * (vals[:-1] + vals[1:])))
    var = float(np.sum((0.5 * dt) ** 2 * (ses[:-1] ** 2 + ses[1:] ** 2)))
    return log_z, math.sqrt(var)


def ti_log_partition(geom: BoxGeometry, params: pinning.PinningParams, omega: DisorderField,
                     rng: np.random.Generator, h_grid: np.ndarray, sweeps: int, burn_in: int,
                     thinning: int = 2, warm_burn: int | None = None, baseline: float = 0.0,
                     observables: dict | None = None,
                     observe_at: float | None = None) -> TIResult:
    """Integrate the contact total along the h-grid with warm-started chains.

    log Z(h_j) = baseline(at h_grid[0]) + int E_{h'}[sum delta] dh'
    (trapezoid); the boundary condition, mass and height live in params.
    Only interior contacts are counted; frame contacts of the range are a
    deterministic additive term served by boundary_contact_term.  The extra
    observables are recorded at the grid point closest to observe_at
    (default: the last one) and returned in final_record.
    """
    warm_burn = burn_in // 3 if warm_burn is None else warm_burn
    obs_j = len(h_grid) - 1
    if observe_at is not None:
        obs_j = int(np.argmin(np.abs(h_grid - observe_at)))
    g, g_se = [], []
    chain = None
    record = None
    obs_record = None
    for j, hj in enumerate(h_grid):
        pj = replace(params, h=float(hj))
        if chain is None:
            chain = pinning.make_chain(geom, pj, omega, rng)
            bi = burn_in
        else:
            chain = pinning.GibbsChain(geom, pj, omega, chain.field, rng,
                                       sweeps_done=chain.sweeps_done)
            bi = warm_burn
        want_obs = observables if j == obs_j else None
        record = pinning.run_chain(geom, pj, omega, rng, sweeps=sweeps, burn_in=bi,
                                   thinning=thinning, chain=chain, interaction="interior",
                                   observables=want_obs)
        if j == obs_j:
            obs_record = record
        mean, se = record.mean_se(record.contacts_window)
        g.append(mean)
        g_se.append(se)
    g = np.array(g)
    g_se = np.array(g_se)
    dh = np.diff(h_grid)
    seg = 0.5 * dh * (g[:-1] + g[1:])
    log_z = baseline + np.concatenate([[0.0], np.cumsum(seg)])
    var = np.concatenate([[0.0], np.cumsum((0.5 * dh) ** 2 * (g_se[:-1] ** 2 + g_se[1:] ** 2))])
    return TIResult(h_grid, g, g_se, log_z, np.sqrt(var), obs_record or record)


def free_energy_curve(geom: BoxGeometry, spec: DisorderSpec, beta: float, h_targets,
                      master_seed: int, m: float = 0.0, u: float = 0.0, replicas: int = 1,
                      sweeps: int = 600, burn_in: int = 300, thinning: int = 2,
                      tag: str = "fe") -> FreeEnergyCurve:
    """Per-site free energy at each target h, replica-averaged over disorder.

    Anchoring: log Z(h=0) is 0 exactly for beta = 0 and comes from the
    coupling integration otherwise; the h-leg then sweeps every target in a
    single warm-started pass per replica.
    """
    targets = np.atleast_1d(np.asarray(h_targets, dtype=float))
    grid = _ti_h_grid(targets)
    zero_pos = int(np.searchsorted(grid, 0.0))
    n2 = geom.N ** 2
    vals = np.zeros((replicas, len(targets)))
    ses = np.zeros((replicas, len(targets)))
    dens = np.zeros((replicas, len(targets)))
    dens_se = np.zeros((replicas, len(targets)))
    pos = np.searchsorted(grid, np.round(targets, 12))
    for r in range(replicas):
        rep_rng = rngmod.stream(master_seed, tag, "replica", r)
        if beta > 0:
            omega = sample_disorder(geom, spec, rngmod.stream(master_seed, tag, "omega", r))
        else:
            omega = DisorderField(geom, spec, np.zeros((geom.side, geom.side)))
        params0 = pinning.PinningParams(beta=beta, h=0.0, m=m, u=u)
        base, base_se = 0.0, 0.0
        if beta > 0:
            base, base_se = coupling_log_z(geom, params0, omega, rep_rng, sweeps, burn_in,
                                           thinning=thinning)
        res = ti_log_partition(geom, params0, omega, rep_rng, grid, sweeps, burn_in,
                               thinning=thinning)
        log_z = res.log_z - res.log_z[zero_pos] + base
        leg_var = np.abs(res.log_z_se[pos] ** 2 - res.log_z_se[zero_pos] ** 2)
        vals[r] = log_z[pos] / n2
        ses[r] = np.sqrt(leg_var + base_se ** 2) / n2
        dens[r] = res.density[pos] / n2
        dens_se[r] = res.density_se[pos] / n2
    value = vals.mean(axis=0)
    if replicas > 1:
        se = np.sqrt(vals.var(ddof=1, axis=0) / replicas + (ses ** 2).mean(axis=0) / replicas)
    else:
        se = ses[0]
    return FreeEnergyCurve(targets, value, se,
                           dens.mean(axis=0), np.sqrt((dens_se ** 2).mean(axis=0) / replicas))


def _curve_to_estimate(curve: FreeEnergyCurve, idx: int, N: int, method: str, params: dict,
                       replicas: int, seed: int) -> FreeEnergyEstimate:
    return FreeEnergyEstimate(float(curve.value[idx]), float(curve.se[idx]), N, method,
                              params, replicas, seed)


def pure_free_energy_estimate(h: float, N: int, master_seed: int, sweeps: int = 600,
                              burn_in: int = 300) -> FreeEnergyEstimate:
    """Homogeneous model (beta = 0) free energy by thermodynamic integration."""
    geom = build_box(N)
    curve = free_energy_curve(geom, DisorderSpec("gaussian"), 0.0, [h], master_seed,
                              sweeps=sweeps, burn_in=burn_in, tag="pure")
    return _curve_to_estimate(curve, 0, N, "thermodynamic-integration",
                              {"beta": 0.0, "h": h}, 1, master_seed)


def quenched_free_energy_estimate(beta: float, h: float, N: int, master_seed: int,
                                  spec: DisorderSpec | None = None, replicas: int = 6,
                                  sweeps: int = 600, burn_in: int = 300) -> FreeEnergyEstimate:
    """Replica-averaged quenched free energy with self-averaging diagnostic."""
    spec = spec or DisorderSpec("gaussian")
    if beta > spec.beta_bar:
        raise DomainError(f"beta={beta} beyond the disorder's usable tilt {spec.beta_bar}")
    geom = build_box(N)
    targets = [h]
    reps = np.zeros(replicas)
    ses = np.zeros(replicas)
    for r in range(replicas):
        curve = free_energy_curve(geom, spec, beta, targets, master_seed + 7919 * r,
                                  replicas=1, sweeps=sweeps, burn_in=burn_in, tag="quenched")
        reps[r] = curve.value[0]
        ses[r] = curve.se[0]
    value = float(reps.mean())
    se = math.sqrt(float(reps.var(ddof=1)) / replicas + float((ses ** 2).mean()) / replicas) \
        if replicas > 1 else float(ses[0])
    return FreeEnergyEstimate(value, se, N, "thermodynamic-integration",
                              {"beta": beta, "h": h}, replicas, master_seed,
                              replica_values=reps)


def massive_shifted_free_energy_estimate(beta: float, h: float, m: float, u: float, N: int,
                                         master_seed: int, spec: DisorderSpec | None = None,
                                         replicas: int = 1, sweeps: int = 600,
                                         burn_in: int = 300) -> FreeEnergyEstimate:
    """Free energy of the massive model with substrate shifted to height u."""
    if m <= 0:
        raise DomainError("massive estimator needs m > 0")
    spec = spec or DisorderSpec("gaussian")
    geom = build_box(N)
    curve = free_energy_curve(geom, spec, beta, [h], master_seed, m=m, u=u,
                              replicas=max(replicas, 1), sweeps=sweeps, burn_in=burn_in,
                              tag="massive")
    return _curve_to_estimate(curve, 0, N, "thermodynamic-integration",
                              {"beta": beta, "h": h, "m": m, "u": u},
                              max(replicas, 1), master_seed)


# ---------------------------------------------------------------------------
# finite-volume criterion and doubling inequality
# ---------------------------------------------------------------------------

def density_event_threshold(N: int, m: float, K: float) -> float:
    """N^2 (2 f(m)/m^2 - K), the typical-density cutoff for sum phi^2."""
    return N * N * (2.0 * kernels.f_of_m(m) / (m * m) - K)


def _replica_log_z(geom: BoxGeometry, spec: DisorderSpec, beta: float, h: float, m: float,
                   u: float, threshold: float, master_seed: int, tag: str, r: int,
                   sweeps: int, burn_in: int, boundary_cov: np.ndarray | None) -> tuple[float, float]:
    """One (boundary, disorder) replica of log E^{m,bc}[e^{interaction} 1_D].

    D is the event sum phi^2 >= threshold over the interaction range (see
    density_event_threshold, computed once per box size by the caller).

    log Z' = coupling leg at h = 0 + h-leg + exact frame-contact term + log
    of the D-event frequency under the target measure.  The event factor is
    exact in the sampling limit and downward-biased at finite budgets, which
    is the conservative side for the positivity verdict.
    """
    bc_rng = rngmod.stream(master_seed, tag, "bc", r)
    om_rng = rngmod.stream(master_seed, tag, "omega", r)
    ch_rng = rngmod.stream(master_seed, tag, "chain", r)
    bc = fields.sample_boundary_infinite_massive(geom, m, bc_rng, cov=boundary_cov)
    ext = fields.harmonic_extension(geom, m, bc)
    omega = sample_disorder(geom, spec, om_rng)
    params = pinning.PinningParams(beta=beta, h=h, m=m, u=u, bc=bc)
    params0 = replace(params, h=0.0)
    grid = _ti_h_grid([h])
    zero_pos = int(np.searchsorted(grid, 0.0))
    pos = int(np.searchsorted(grid, round(h, 12)))
    base, _ = coupling_log_z(geom, params0, omega, ch_rng, sweeps, burn_in,
                             shift=ext.values)
    tmask = geom.tilde_mask

    def density_stat(f: np.ndarray) -> float:
        return float(np.sum(f[tmask] ** 2))

    res = ti_log_partition(geom, params, omega, ch_rng, grid, sweeps, burn_in,
                           baseline=0.0, observables={"sumsq": density_stat}, observe_at=h)
    log_z = res.log_z[pos] - res.log_z[zero_pos] + base
    log_z += boundary_contact_term(geom, params, omega, "tilde")
    freq = float(np.mean(res.final_record.extra["sumsq"] >= threshold))
    n_rec = len(res.final_record.extra["sumsq"])
    log_event = math.log(max(freq, 0.5 / n_rec))
    return float(log_z) + log_event, freq


def _replica_job(args) -> tuple[tuple[float, float], list[str]]:
    with rngmod.audit_streams() as audit:
        out = _replica_log_z(*args)
    return out, audit.consumed


def _map_replicas(jobs, threads: int):
    """Replica fan-out: independent (boundary, disorder) jobs over a process
    pool when threads > 1, serially otherwise; results merge order-free.
    Each job's stream ids join the active audit in job order either way."""
    if threads <= 1 or len(jobs) <= 1:
        done = [_replica_job(j) for j in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(_replica_job, jobs))
    for _, ids in done:
        rngmod.record_streams(ids)
    return [out for out, _ in done]


def finite_volume_criterion(beta: float, h: float, m: float, u: float, K: float, N: int,
                            master_seed: int, spec: DisorderSpec | None = None,
                            replicas: int = 6, sweeps: int = 500,
                            burn_in: int = 300, threads: int = 1) -> CriterionReport:
    """Laboratory version of the finite-volume lower-bound certificate.

    Estimates (1/N^2) E_bc E_omega log E^{m,bc}[exp(sum (beta w - lambda + h)
    delta^u) 1_D] - K m^2; a positive margin beyond 3 standard errors
    certifies a positive free energy at these parameters, up to MC confidence.
    """
    if m <= 0:
        raise DomainError("criterion needs m > 0")
    spec = spec or DisorderSpec("gaussian")
    geom = build_box(N)
    cov = fields.boundary_covariance(geom, m)
    thr = density_event_threshold(N, m, K)
    jobs = [(geom, spec, beta, h, m, u, thr, master_seed, "fvc", r, sweeps, burn_in, cov)
            for r in range(replicas)]
    pairs = _map_replicas(jobs, threads)
    vals = np.array([p[0] for p in pairs])
    freqs = np.array([p[1] for p in pairs])
    n2 = N * N
    est = float(vals.mean()) / n2
    se = float(vals.std(ddof=1)) / math.sqrt(replicas) / n2 if replicas > 1 else float("inf")
    penalty = K * m * m
    margin = est - penalty
    verdict = "positive" if margin > 3.0 * se else "negative"
    return CriterionReport(N, m, u, K, est, se, penalty, verdict, margin, float(freqs.mean()))


def doubling_gap(beta: float, h: float, m: float, u: float, K: float, N: int,
                 master_seed: int, spec: DisorderSpec | None = None, replicas: int = 8,
                 sweeps: int = 500, burn_in: int = 300, threads: int = 1) -> dict:
    """E log Z' at sizes N and 2N and the sub-additivity gap E_2N - 4 E_N.

    The exact finite-volume inequality is gap >= 0 in expectation over the
    boundary field and the disorder.
    """
    spec = spec or DisorderSpec("gaussian")
    out = {}
    for label, size in (("small", N), ("large", 2 * N)):
        geom = build_box(size)
        cov = fields.boundary_covariance(geom, m)
        thr = density_event_threshold(size, m, K)
        jobs = [(geom, spec, beta, h, m, u, thr, master_seed, f"dbl-{label}", r,
                 sweeps, burn_in, cov) for r in range(replicas)]
        vals = np.array([p[0] for p in _map_replicas(jobs, threads)])
        out[label] = (float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(replicas))
    gap = out["large"][0] - 4.0 * out["small"][0]
    gap_se = math.sqrt(out["large"][1] ** 2 + 16.0 * out["small"][1] ** 2)
    return {"small": out["small"], "large": out["large"], "gap": gap, "gap_se": gap_se}


# ---------------------------------------------------------------------------
# event flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flag:
    value: bool | None
    stat: float | None
    threshold: float | None
    note: str = ""


@dataclass(frozen=True)
class EventThresholds:
    """Laboratory thresholds for the typicality events.

    an_offset is the additive slack of the extremal barrier (the asymptotic
    form uses 100 gamma loglog N; the laboratory default is gamma loglog N,
    with observed exceedances reported rather than asserted).
    """

    h: float = 0.1
    K: float = 0.5
    alpha: float = 0.75
    an_offset: float | None = None
    frame_factor: float | None = None

    def barrier(self, N: int) -> float:
        if self.an_offset is not None:
            return self.an_offset
        return GAMMA * math.log(math.log(N))

    def frame_budget_factor(self, N: int) -> float:
        if self.frame_factor is not None:
            return self.frame_factor
        return math.log(N) ** (1.0 / 16.0)


def event_flags(sample: fields.FieldSample, params: pinning.PinningParams,
                thresholds: EventThresholds, window_mask: np.ndarray | None = None,
                frame_expectation: float | None = None) -> dict[str, Flag]:
    """Evaluate the typicality/restriction events available on this sample.

    Flags whose prerequisites are missing (scale stack, mass, a conditional
    frame expectation) come back with value None and a note, never an error.
    """
    geom = sample.geom
    N = geom.N
    flags: dict[str, Flag] = {}
    vals = sample.values
    # height restriction: all heights within |log h|^2
    b = abs(math.log(thresholds.h)) ** 2
    stat = float(np.max(np.abs(vals)))
    flags["height_restriction"] = Flag(stat <= b, stat, b)
    # typical density of the squared field
    if params.m > 0:
        thr = density_event_threshold(N, params.m, thresholds.K)
        stat = float(np.sum(vals[geom.tilde_mask] ** 2))
        flags["density_typical"] = Flag(stat >= thr, stat, thr)
    else:
        flags["density_typical"] = Flag(None, None, None, "needs m > 0")
    # extremal barrier over the wide inner box
    if sample.stack is not None:
        wide = sub_box_mask(geom, 2.0)
        margin = fields.stack_barrier_margin(sample.stack, wide, GAMMA)
        off = thresholds.barrier(N)
        flags["extremal"] = Flag(margin <= off, margin, off)
    else:
        flags["extremal"] = Flag(None, None, None, "needs a scale stack")
    # contact bookkeeping
    window = sub_box_mask(geom, 2.0) if window_mask is None else window_mask
    delta = pinning.contact_indicators(vals, params.u)
    L = int(np.sum(delta & window))
    frame = int(np.sum(delta & geom.tilde_mask & ~window))
    flags["contacts"] = Flag(None, float(L), None, "statistic only")
    if frame_expectation is not None:
        budget = thresholds.frame_budget_factor(N) * frame_expectation
        frame_ok = frame <= budget
        flags["frame_contacts"] = Flag(frame_ok, float(frame), budget)
        dens = flags["density_typical"]
        if dens.value is not None:
            c_val = bool(dens.value and frame_ok)
            flags["concentration"] = Flag(c_val, None, None)
            l_budget = math.log(N) ** ((1.0 + thresholds.alpha) / 2.0)
            flags["few_contacts"] = Flag(c_val and L <= l_budget, float(L), l_budget)
        else:
            flags["concentration"] = Flag(None, None, None, "needs density flag")
            flags["few_contacts"] = Flag(None, None, None, "needs density flag")
    else:
        flags["frame_contacts"] = Flag(None, float(frame), None,
                                       "needs the conditional frame expectation")
        flags["concentration"] = Flag(None, None, None, "needs frame budget")
        flags["few_contacts"] = Flag(None, None, None, "needs frame budget")
    return flags


# ---------------------------------------------------------------------------
# parameter schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParameterSchedule:
    """The proof-scale parameters, held in log space (N itself overflows).

    log N = h^-20, m = (log N)^{1/4} / N, u = sqrt(2/pi) log N
    - (2+alpha)/(2 sqrt(2 pi)) loglog N, with alpha = 3/4 and gamma =
    2 sqrt(2 pi); also carries the two free-energy bounds as logs.
    """

    h: float
    alpha: float = 0.75
    gamma: float = GAMMA
    log_N: float = dc_field(init=False)
    log_log_N: float = dc_field(init=False)
    log_m: float = dc_field(init=False)
    u: float = dc_field(init=False)
    log_lower_bound: float = dc_field(init=False)
    log_upper_bound: float = dc_field(init=False)

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise DomainError(f"schedule needs h in (0,1) (got {self.h})")
        log_n = self.h ** -20.0
        loglog = 20.0 * abs(math.log(self.h))
        object.__setattr__(self, "log_N", log_n)
        object.__setattr__(self, "log_log_N", loglog)
        object.__setattr__(self, "log_m", -log_n + 0.25 * loglog)
        object.__setattr__(self, "u",
                           math.sqrt(2.0 / math.pi) * log_n
                           - (2.0 + self.alpha) / (2.0 * math.sqrt(2.0 * math.pi)) * loglog)
        object.__setattr__(self, "log_lower_bound", -log_n)
        object.__setattr__(self, "log_upper_bound", -abs(math.log(self.h)) ** 1.5)


def parameter_schedule(h: float, alpha: float = 0.75) -> ParameterSchedule:
    return ParameterSchedule(h, alpha)


def desk_mass(N: int) -> float:
    """Laboratory analogue m(N) = (log N)^{1/4} / N of the schedule's mass."""
    return math.log(N) ** 0.25 / N


def desk_height(N: int, alpha: float = 0.75) -> float:
    """Laboratory analogue of the substrate height u(N)."""
    return (math.sqrt(2.0 / math.pi) * math.log(N)
            - (2.0 + alpha) / (2.0 * math.sqrt(2.0 * math.pi)) * math.log(math.log(N)))


# ---------------------------------------------------------------------------
# copolymer critical point
# ---------------------------------------------------------------------------

def copolymer_critical_point(spec: DisorderSpec, rho: float) -> float:
    """Critical bias of the co-membrane model: lambda(-2 rho) / (2 rho)."""
    if not 0.0 < rho < spec.beta_bar / 2.0:
        raise DomainError(f"rho must lie in (0, beta_bar/2) (got {rho})")
    return log_mgf(spec, -2.0 * rho)[0] / (2.0 * rho)


# ---------------------------------------------------------------------------
# conditioned contact statistics
# ---------------------------------------------------------------------------

def conditioned_contact_statistics(N: int, master_seed: int, m: float | None = None,
                                   u: float | None = None, samples: int = 400,
                                   alpha: float = 0.75, barrier_offset: float = 10.0) -> dict:
    """Contact totals of the multiscale field near the extremal height.

    Zero-boundary scale stacks at the laboratory schedule; reports plain and
    trajectory-restricted contact totals, their conditional versions given
    the few-contacts event, the second-moment (Paley-Zygmund) ratio, and the
    histogram of pairwise decorrelation scales among restricted contacts.
    """
    geom = build_box(N)
    m = desk_mass(N) if m is None else m
    u = desk_height(N, alpha) if u is None else u
    grid = kernels.scale_time_grid(m, min_scales=0)
    window = sub_box_mask(geom, 2.0)
    thresholds = EventThresholds(alpha=alpha)
    rng = rngmod.stream(master_seed, "ccs")
    L = np.zeros(samples)
    Lp = np.zeros(samples)
    margins = np.zeros(samples)
    j_hist: dict[int, int] = {}
    x1g, x2g = geom.coords
    for i in range(samples):
        s = fields.sample_scale_stack(geom, m, rng, grid=grid)
        contacts, restricted = pinning.restricted_contacts(s, u, window, barrier_offset)
        L[i] = contacts.sum()
        Lp[i] = restricted.sum()
        margins[i] = fields.stack_barrier_margin(s.stack, window, GAMMA)
        xs1 = x1g[restricted]
        xs2 = x2g[restricted]
        if len(xs1) >= 2:
            d = np.abs(xs1[:, None] - xs1[None, :]) + np.abs(xs2[:, None] - xs2[None, :])
            iu = np.triu_indices(len(xs1), k=1)
            for jv in pair_scale_index(grid.k, d[iu]):
                j_hist[int(jv)] = j_hist.get(int(jv), 0) + 1
    an = margins <= thresholds.barrier(N)
    few = L <= math.log(N) ** ((1.0 + alpha) / 2.0)
    cond = an & few
    out = {
        "k": grid.k, "m": m, "u": u, "samples": samples,
        "mean_L": float(L.mean()), "se_L": float(L.std(ddof=1) / math.sqrt(samples)),
        "mean_Lp": float(Lp.mean()), "se_Lp": float(Lp.std(ddof=1) / math.sqrt(samples)),
        "mean_Lp_sq": float((Lp ** 2).mean()),
        "an_frequency": float(an.mean()),
        "cond_frequency": float(cond.mean()),
        "mean_L_given_cond": float(L[cond].mean()) if cond.any() else float("nan"),
        "j_histogram": dict(sorted(j_hist.items())),
    }
    first = out["mean_Lp"]
    out["paley_zygmund_ratio"] = out["mean_Lp_sq"] / first ** 2 if first > 0 else float("inf")
    return out


# ---------------------------------------------------------------------------
# height-restriction probability (change-of-measure regime probe)
# ---------------------------------------------------------------------------

def height_restriction_logp(beta: float, h: float, N: int, master_seed: int,
                            spec: DisorderSpec | None = None, kappa_max: float = 12.0,
                            n_kappa: int = 10, sweeps: int = 200, burn_in: int = 150) -> dict:
    """(1/N^2) log of the Gibbs probability that all heights stay in
    [-|log h|^2, |log h|^2], by thermodynamic integration in a soft wall.

    With a wall of strength kappa on the complement band, -d/dkappa log of
    the wall-weighted partition function is the expected number of offending
    sites; integrating to large kappa and adding the exponential tail yields
    log P, far below anything a direct frequency count could see.
    """
    spec = spec or DisorderSpec("gaussian")
    geom = build_box(N)
    b = abs(math.log(h)) ** 2
    omega = sample_disorder(geom, spec, rngmod.stream(master_seed, "wall-omega"))
    params = pinning.PinningParams(beta=beta, h=h)
    rng = rngmod.stream(master_seed, "wall-chain")
    kappas = np.concatenate([np.linspace(0.0, 3.0, max(4, n_kappa - 4), endpoint=False),
                             np.linspace(3.0, kappa_max, 4)])
    counts, count_ses = [], []
    chain = None
    interior = geom.interior_mask

    for kappa in kappas:
        wall = pinning.Band(-b, b, float(kappa))
        if chain is None:
            chain = pinning.make_chain(geom, params, omega, rng, extra_bands=(wall,))
            bi = burn_in
        else:
            chain = pinning.GibbsChain(geom, params, omega, chain.field, rng,
                                       extra_bands=(wall,), sweeps_done=chain.sweeps_done)
            bi = burn_in // 2

        def outside(f: np.ndarray) -> float:
            return float(np.sum(np.abs(f[interior]) > b))

        rec = pinning.run_chain(geom, params, omega, rng, sweeps=sweeps, burn_in=bi,
                                thinning=2, chain=chain, observables={"out": outside})
        mean, se = rec.mean_se(rec.extra["out"])
        counts.append(mean)
        count_ses.append(se)
    counts = np.array(counts)
    integral = float(np.trapezoid(counts, kappas))
    tail = float(counts[-1])  # the count decays like e^-kappa beyond the grid
    logp = -(integral + tail) / (N * N)
    return {"h": h, "barrier": b, "kappa": kappas, "mean_outside": counts,
            "logp_per_site": logp}
