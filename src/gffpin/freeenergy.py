"""Free-energy estimators and the finite-volume positivity machinery.

Thermodynamic integration is the estimator of record, and every leg of it
runs on one warm-started ladder (integrate_ladder): a chain per grid point,
each started from the previous chain's field, with the recorded integrand
integrated by the trapezoid rule.  Three legs use it: the coupling constant
t at fixed parameters (Z(0) = 1 exactly), the reward h (the h-derivative of
log Z is the exact contact total) and the soft-wall strength of the height
restriction.  Free energies at a target h are anchored at h = 0: coupling
leg there, then one h-leg through 0 and every target.  On top sit the
replica-averaged free-energy curve (massless or massive, substrate at
height 0), the finite-volume criterion with its typical-density event and
the doubling (sub-additivity) check, which share one replica fan-out, the
laboratory-scale schedule and the copolymer critical point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import fields, kernels, pinning, rng as rngmod
from .disorder import GAUSSIAN, DisorderField, DisorderSpec, log_mgf, sample_disorder
from .errors import DomainError
from .lattice import BoxGeometry, build_box, pair_scale_index, sub_box_mask

GAMMA = 2.0 * math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass
class FreeEnergyCurve:
    """Per-site free energy along an h-grid."""

    h: np.ndarray
    value: np.ndarray
    se: np.ndarray

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


@dataclass
class Ladder:
    """One warm-started integration ladder.

    density[j] is the mean of the integrand at the j-th grid point;
    increments[j] is the trapezoid over the j-th segment, with variance
    increment_var[j] from the points' standard errors; log_z and log_z_se
    accumulate them from 0 at the first point.  records[j] is the chain
    record of point j (None where the integrand is exact and no chain ran).
    """

    density: np.ndarray
    increments: np.ndarray
    increment_var: np.ndarray
    log_z: np.ndarray
    log_z_se: np.ndarray
    records: list


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


def _ti_h_grid(targets) -> np.ndarray:
    """Integration grid through 0 and every target, spaced at most 0.03
    (coarsened to at most 40 steps on wide ranges)."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    pts = set(np.round(targets, 12))
    pts.add(0.0)
    lo = min(0.0, float(targets.min()))
    hi = max(0.0, float(targets.max()))
    if hi > lo:
        step = max(0.03, (hi - lo) / 40)
        n = max(2, int(math.ceil((hi - lo) / step)) + 1)
        pts.update(np.round(np.linspace(lo, hi, n), 12))
    return np.array(sorted(pts))


def boundary_contact_term(geom: BoxGeometry, params: pinning.PinningParams,
                          omega: DisorderField) -> float:
    """Deterministic part of the interaction from frame sites of the range.

    With the canonical {1..N}^2 range the two far edges sit on the boundary,
    so their contacts are functions of the boundary data alone and
    contribute sum s_x delta(bc_x) to log Z exactly.
    """
    mask = geom.tilde_mask & geom.boundary_mask
    bgrid = params.bc.grid(geom)
    delta = pinning.contact_indicators(bgrid, params.u)
    s = pinning.site_weights(params, omega)
    return float(np.sum(s[mask & delta]))


def integrate_ladder(chain_at, grid: np.ndarray, integrand, start: np.ndarray, sweeps: int,
                     burn_in: int, warm_burn: int, observables: list | None = None,
                     exact_first: float | None = None) -> Ladder:
    """Warm-started chains along `grid`, the integrand integrated by the trapezoid rule.

    chain_at(x, field) builds the chain at grid value x from a start field:
    a copy of `start` for the first chain, the previous chain's field after
    it.  The first chain burns in for `burn_in` sweeps, later ones for
    `warm_burn`; each then records every 2 sweeps over `sweeps` sweeps, the
    contacts counted on the interior, with observables[j] (if any) as the
    extra observables at point j.  integrand(record) is the series whose
    mean is the integrand.  With exact_first, the integrand at grid[0] is
    that value with zero error and no chain runs there.
    """
    n = len(grid)
    density, density_se = np.zeros(n), np.zeros(n)
    records = [None] * n
    first = 0 if exact_first is None else 1
    if exact_first is not None:
        density[0] = exact_first
    field = np.array(start, dtype=float)
    for j in range(first, n):
        chain = chain_at(float(grid[j]), field)
        rec = pinning.run_chain(chain.geom, chain.params, chain.omega, chain.rng, sweeps=sweeps,
                                burn_in=burn_in if j == first else warm_burn, thinning=2,
                                chain=chain, interaction="interior",
                                observables=observables[j] if observables else None)
        density[j], density_se[j] = rec.mean_se(integrand(rec))
        records[j] = rec
        field = chain.field
    half = 0.5 * np.diff(grid)
    increments = half * (density[:-1] + density[1:])
    increment_var = half ** 2 * (density_se[:-1] ** 2 + density_se[1:] ** 2)
    log_z = np.concatenate([[0.0], np.cumsum(increments)])
    log_z_se = np.sqrt(np.concatenate([[0.0], np.cumsum(increment_var)]))
    return Ladder(density, increments, increment_var, log_z, log_z_se, records)


def coupling_log_z(geom: BoxGeometry, params: pinning.PinningParams, omega: DisorderField,
                   rng: np.random.Generator, sweeps: int, burn_in: int, n_t: int = 12,
                   shift: np.ndarray | None = None) -> tuple[float, float]:
    """log Z at the parameters of `params` by coupling-constant integration.

    Z(t) = E[exp(t sum_x s_x delta_x)] interpolates from Z(0) = 1 (an exact
    anchor) to the target, and d/dt log Z(t) is the interaction energy under
    the partially coupled measure.  At t = 0 the integrand is the explicit
    Gaussian value sum_x s_x p_x; chains supply the rest of the t-grid.
    `shift` is the free field's mean, the harmonic extension of params.bc
    (solved here if not given); the first chain starts from it.
    """
    if shift is None:
        shift = fields.harmonic_extension(geom, params.m, params.bc).values
    mask = geom.interior_mask
    s_grid = pinning.site_weights(params, omega)
    p_grid = band_probability_grid(geom, params.m, params.u, shift=shift)

    def s_total(f: np.ndarray) -> float:
        return float(np.sum(s_grid[mask & (np.abs(f - params.u) <= 1.0)]))

    ladder = integrate_ladder(
        lambda t, f: pinning.GibbsChain(geom, params, omega, f, rng, coupling=t),
        np.linspace(0.0, 1.0, n_t), lambda rec: rec.extra["s_total"], shift, sweeps, burn_in,
        max(burn_in // 3, 20), observables=[{"s_total": s_total}] * n_t,
        exact_first=float(np.sum(s_grid[mask] * p_grid[mask])))
    return float(np.sum(ladder.increments)), math.sqrt(float(np.sum(ladder.increment_var)))


def ti_log_partition(geom: BoxGeometry, params: pinning.PinningParams, omega: DisorderField,
                     rng: np.random.Generator, h_grid: np.ndarray, sweeps: int, burn_in: int,
                     observables: dict | None = None, observe_at: float | None = None,
                     start: np.ndarray | None = None) -> Ladder:
    """Integrate the contact total along the h-grid with warm-started chains.

    log Z(h_j) - log Z(h_grid[0]) = int E_{h'}[sum delta] dh' (trapezoid);
    the boundary condition, mass and height live in params.  Only interior
    contacts are counted; frame contacts of the range are a deterministic
    additive term served by boundary_contact_term.  The extra observables
    are recorded at the grid point closest to observe_at (default: the last
    one).  The first chain starts from `start`, the harmonic extension of
    params.bc (solved here if not given).
    """
    if start is None:
        start = fields.harmonic_extension(geom, params.m, params.bc).values
    obs_j = len(h_grid) - 1
    if observe_at is not None:
        obs_j = int(np.argmin(np.abs(h_grid - observe_at)))
    return integrate_ladder(
        lambda h, f: pinning.GibbsChain(geom, replace(params, h=h), omega, f, rng),
        h_grid, lambda rec: rec.contacts_window, start, sweeps, burn_in, burn_in // 3,
        observables=[observables if j == obs_j else None for j in range(len(h_grid))])


def _anchored_log_z(geom: BoxGeometry, params: pinning.PinningParams, omega: DisorderField,
                    rng: np.random.Generator, targets, sweeps: int, burn_in: int,
                    coupling: bool, observables: dict | None = None):
    """log Z and its SE at each target h, anchored at h = 0.

    The coupling leg gives log Z(0) (taken as exactly 0 without it); one
    h-leg then runs through 0 and every target, and log Z(target) =
    leg(target) - leg(0) + log Z(0).  The observables are recorded at the
    last target.  The harmonic extension of params.bc is solved once, as
    the start field of both legs.  Returns the values, their SEs, the h-leg
    and the targets' positions on it.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    grid = _ti_h_grid(targets)
    zero = int(np.searchsorted(grid, 0.0))
    pos = np.searchsorted(grid, np.round(targets, 12))
    params0 = replace(params, h=0.0)
    shift = fields.harmonic_extension(geom, params.m, params.bc).values
    base, base_se = 0.0, 0.0
    if coupling:
        base, base_se = coupling_log_z(geom, params0, omega, rng, sweeps, burn_in, shift=shift)
    leg = ti_log_partition(geom, params0, omega, rng, grid, sweeps, burn_in,
                           observables=observables, observe_at=targets[-1], start=shift)
    log_z = leg.log_z[pos] - leg.log_z[zero] + base
    leg_var = np.abs(leg.log_z_se[pos] ** 2 - leg.log_z_se[zero] ** 2)
    return log_z, np.sqrt(leg_var + base_se ** 2), leg, pos


def free_energy_curve(geom: BoxGeometry, spec: DisorderSpec, beta: float, h_targets,
                      master_seed: int, sweeps: int, burn_in: int, m: float = 0.0,
                      replicas: int = 1, tag: str = "fe") -> FreeEnergyCurve:
    """Per-site free energy at each target h, replica-averaged over disorder,
    with the substrate at height 0.

    Anchoring: log Z(h=0) is 0 exactly for beta = 0 and comes from the
    coupling integration otherwise; the h-leg then sweeps every target in a
    single warm-started pass per replica.
    """
    if replicas < 1:
        raise DomainError(f"free_energy_curve needs replicas >= 1 (got {replicas})")
    targets = np.atleast_1d(np.asarray(h_targets, dtype=float))
    n2 = geom.N ** 2
    vals = np.zeros((replicas, len(targets)))
    ses = np.zeros((replicas, len(targets)))
    for r in range(replicas):
        rep_rng = rngmod.stream(master_seed, tag, "replica", r)
        if beta > 0:
            omega = sample_disorder(geom, spec, rngmod.stream(master_seed, tag, "omega", r))
        else:
            omega = DisorderField(geom, spec, np.zeros((geom.side, geom.side)))
        params0 = pinning.PinningParams(beta=beta, h=0.0, m=m)
        log_z, log_z_se, _, _ = _anchored_log_z(geom, params0, omega, rep_rng, targets,
                                                sweeps, burn_in, coupling=beta > 0)
        vals[r] = log_z / n2
        ses[r] = log_z_se / n2
    value = vals.mean(axis=0)
    if replicas > 1:
        se = np.sqrt(vals.var(ddof=1, axis=0) / replicas + (ses ** 2).mean(axis=0) / replicas)
    else:
        se = ses[0]
    return FreeEnergyCurve(targets, value, se)


# ---------------------------------------------------------------------------
# finite-volume criterion and doubling inequality
# ---------------------------------------------------------------------------

def density_event_threshold(N: int, m: float, K: float) -> float:
    """N^2 (2 f(m)/m^2 - K), the typical-density cutoff for sum phi^2."""
    return N * N * (2.0 * kernels.f_of_m(m) / (m * m) - K)


def _replica_log_z(geom: BoxGeometry, beta: float, h: float, m: float, u: float,
                   threshold: float, master_seed: int, tag: str, r: int, sweeps: int,
                   burn_in: int, boundary_cov: np.ndarray | None) -> tuple[float, float]:
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
    omega = sample_disorder(geom, GAUSSIAN, om_rng)
    params = pinning.PinningParams(beta=beta, h=h, m=m, u=u, bc=bc)
    tmask = geom.tilde_mask

    def density_stat(f: np.ndarray) -> float:
        return float(np.sum(f[tmask] ** 2))

    log_z, _, leg, pos = _anchored_log_z(geom, params, omega, ch_rng, [h], sweeps, burn_in,
                                         coupling=True, observables={"sumsq": density_stat})
    log_z = log_z[0] + boundary_contact_term(geom, params, omega)
    sumsq = leg.records[pos[0]].extra["sumsq"]
    freq = float(np.mean(sumsq >= threshold))
    log_event = math.log(max(freq, 0.5 / len(sumsq)))
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


def _box_replicas(beta: float, h: float, m: float, u: float, K: float, N: int,
                  master_seed: int, tag: str, replicas: int, sweeps: int, burn_in: int,
                  threads: int) -> tuple[np.ndarray, np.ndarray]:
    """log Z' and the D-event frequency of each (boundary, disorder) replica in the
    box of side N, streams keyed by tag."""
    geom = build_box(N)
    cov = fields.boundary_covariance(geom, m)
    thr = density_event_threshold(N, m, K)
    jobs = [(geom, beta, h, m, u, thr, master_seed, tag, r, sweeps, burn_in, cov)
            for r in range(replicas)]
    pairs = _map_replicas(jobs, threads)
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def finite_volume_criterion(beta: float, h: float, m: float, u: float, K: float, N: int,
                            master_seed: int, replicas: int, sweeps: int, burn_in: int,
                            threads: int = 1) -> CriterionReport:
    """Laboratory version of the finite-volume lower-bound certificate.

    Estimates (1/N^2) E_bc E_omega log E^{m,bc}[exp(sum (beta w - lambda + h)
    delta^u) 1_D] - K m^2; a positive margin beyond 3 standard errors
    certifies a positive free energy at these parameters, up to MC confidence.
    """
    if m <= 0:
        raise DomainError("criterion needs m > 0")
    if replicas < 1:
        raise DomainError(f"finite_volume_criterion needs replicas >= 1 (got {replicas})")
    vals, freqs = _box_replicas(beta, h, m, u, K, N, master_seed, "fvc", replicas, sweeps,
                                burn_in, threads)
    n2 = N * N
    est = float(vals.mean()) / n2
    se = float(vals.std(ddof=1)) / math.sqrt(replicas) / n2 if replicas > 1 else float("inf")
    penalty = K * m * m
    margin = est - penalty
    verdict = "positive" if margin > 3.0 * se else "negative"
    return CriterionReport(N, m, u, K, est, se, penalty, verdict, margin, float(freqs.mean()))


def doubling_gap(beta: float, h: float, m: float, u: float, K: float, N: int,
                 master_seed: int, replicas: int, sweeps: int, burn_in: int,
                 threads: int = 1) -> dict:
    """E log Z' at sizes N and 2N and the sub-additivity gap E_2N - 4 E_N.

    The exact finite-volume inequality is gap >= 0 in expectation over the
    boundary field and the disorder.
    """
    if replicas < 2:
        raise DomainError(f"doubling_gap needs replicas >= 2 for its standard error "
                          f"(got {replicas})")
    out = {}
    for label, size in (("small", N), ("large", 2 * N)):
        vals, _ = _box_replicas(beta, h, m, u, K, size, master_seed, f"dbl-{label}", replicas,
                                sweeps, burn_in, threads)
        out[label] = (float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(replicas))
    gap = out["large"][0] - 4.0 * out["small"][0]
    gap_se = math.sqrt(out["large"][1] ** 2 + 16.0 * out["small"][1] ** 2)
    return {"small": out["small"], "large": out["large"], "gap": gap, "gap_se": gap_se}


# ---------------------------------------------------------------------------
# laboratory schedule
# ---------------------------------------------------------------------------

def desk_mass(N: int) -> float:
    """Laboratory analogue m(N) = (log N)^{1/4} / N of the schedule's mass."""
    return math.log(N) ** 0.25 / N


_ALPHA = 0.75  # the schedule's exponent: u(N) and the few-contacts cutoff (log N)^((1+alpha)/2)


def desk_height(N: int) -> float:
    """Laboratory analogue of the substrate height u(N)."""
    return (math.sqrt(2.0 / math.pi) * math.log(N)
            - (2.0 + _ALPHA) / (2.0 * math.sqrt(2.0 * math.pi)) * math.log(math.log(N)))


# ---------------------------------------------------------------------------
# copolymer critical point
# ---------------------------------------------------------------------------

def copolymer_critical_point(spec: DisorderSpec, rho: float) -> float:
    """Critical bias of the co-membrane model: lambda(-2 rho) / (2 rho)."""
    if not 0.0 < rho < math.inf:
        raise DomainError(f"rho must be positive and finite (got {rho})")
    return log_mgf(spec, -2.0 * rho)[0] / (2.0 * rho)


# ---------------------------------------------------------------------------
# conditioned contact statistics
# ---------------------------------------------------------------------------

def conditioned_contact_statistics(N: int, master_seed: int, samples: int) -> dict:
    """Contact totals of the multiscale field near the extremal height.

    Zero-boundary scale stacks at the laboratory schedule (m = desk_mass(N),
    u = desk_height(N)); reports plain and trajectory-restricted contact
    totals, their conditional versions given the few-contacts event, the
    second-moment (Paley-Zygmund) ratio, and the histogram of pairwise
    decorrelation scales among restricted contacts.
    The barrier event relaxes the asymptotic 100 gamma loglog N slack of the
    extremal barrier to gamma loglog N.
    """
    geom = build_box(N)
    m = desk_mass(N)
    u = desk_height(N)
    grid = kernels.scale_time_grid(m, min_scales=0)
    window = sub_box_mask(geom, 2.0)
    rng = rngmod.stream(master_seed, "ccs")
    L = np.zeros(samples)
    Lp = np.zeros(samples)
    margins = np.zeros(samples)
    j_hist: dict[int, int] = {}
    x1g, x2g = geom.coords
    for i in range(samples):
        s = fields.sample_scale_stack(geom, m, rng, grid=grid)
        contacts, restricted = pinning.restricted_contacts(s, u, window)
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
    an = margins <= GAMMA * math.log(math.log(N))
    few = L <= math.log(N) ** ((1.0 + _ALPHA) / 2.0)
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
                            sweeps: int, burn_in: int) -> dict:
    """(1/N^2) log of the Gibbs probability that all heights stay in
    [-|log h|^2, |log h|^2], by thermodynamic integration in a soft wall.

    With a wall of strength kappa on the complement band, -d/dkappa log of
    the wall-weighted partition function is the expected number of offending
    sites; integrating to large kappa and adding the exponential tail yields
    log P, far below anything a direct frequency count could see.
    """
    geom = build_box(N)
    b = abs(math.log(h)) ** 2
    omega = sample_disorder(geom, GAUSSIAN, rngmod.stream(master_seed, "wall-omega"))
    params = pinning.PinningParams(beta=beta, h=h)
    rng = rngmod.stream(master_seed, "wall-chain")
    kappas = np.concatenate([np.linspace(0.0, 3.0, 6, endpoint=False),
                             np.linspace(3.0, 12.0, 4)])
    interior = geom.interior_mask

    def outside(f: np.ndarray) -> float:
        return float(np.sum(np.abs(f[interior]) > b))

    ladder = integrate_ladder(
        lambda kappa, f: pinning.GibbsChain(geom, params, omega, f, rng,
                                            extra_bands=(pinning.Band(-b, b, kappa),)),
        kappas, lambda rec: rec.extra["out"],
        fields.harmonic_extension(geom, params.m, params.bc).values, sweeps, burn_in,
        burn_in // 2, observables=[{"out": outside}] * len(kappas))
    counts = ladder.density
    # the trapezoid integral, plus the count's e^-kappa decay beyond the grid
    logp = -(float(np.sum(ladder.increments)) + float(counts[-1])) / (N * N)
    return {"h": h, "barrier": b, "kappa": kappas, "mean_outside": counts,
            "logp_per_site": logp}
