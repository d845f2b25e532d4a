"""Free-energy estimators and the finite-volume positivity machinery.

Thermodynamic integration is the estimator of record, and every leg of it
runs on one warm-started ladder (integrate_ladder): a chain per grid point,
each started from the previous chain's field, with the recorded integrand
integrated by the trapezoid rule (every ladder and curve SE by _map_cov).
Three legs use it: the coupling constant t at fixed parameters (Z(0) = 1
exactly, so one leg reaches any target), the reward h (the h-derivative of
log Z is the exact contact total) and the soft-wall strength of the height
restriction.  The free-energy curve is anchored at h = 0: coupling leg
there, then one h-leg through 0 and every target.  The curve, the
finite-volume criterion and the doubling check fan out by rng._fan_out,
serial outside an `rng.workers` block; the latter two share one mean-and-SE
rule, each replica one coupling leg at its target.  Also here: the
laboratory-scale schedule and the copolymer critical point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fields, kernels, pinning, rng as rngmod
from .disorder import GAUSSIAN, DisorderField, DisorderSpec, log_mgf, sample_disorder
from .errors import DomainError
from .lattice import BoxGeometry, build_box, pair_scale_index, sub_box_mask

GAMMA = 2.0 * math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

def _map_cov(a: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Covariance of a @ x, x of covariance cov.  A row weighing an x of infinite variance
    reads inf on the diagonal; only finite variances enter the products, so no 0 * inf (nan)."""
    finite = np.isfinite(np.diag(cov))
    out = a[:, finite] @ cov[np.ix_(finite, finite)] @ a[:, finite].T
    return out + np.diag(np.where((a[:, ~finite] != 0).any(axis=1), np.inf, 0.0))


@dataclass
class FreeEnergyCurve:
    """Per-site free energy along an h-grid, with the covariance of its values."""

    h: np.ndarray
    value: np.ndarray
    cov: np.ndarray

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    def combine(self, weights) -> tuple[np.ndarray, np.ndarray]:
        """w @ value and its SE for each row w of the matrix `weights`."""
        return weights @ self.value, np.sqrt(np.diag(_map_cov(weights, self.cov)))


def _trapezoid_rows(grid: np.ndarray) -> np.ndarray:
    """Row k: the trapezoid weights of the integral from grid[0] to grid[k]."""
    half = np.tril(np.ones((len(grid), len(grid) - 1)), -1) * (0.5 * np.diff(grid))
    return np.pad(half, ((0, 0), (0, 1))) + np.pad(half, ((0, 0), (1, 0)))


@dataclass
class Ladder:
    """One warm-started integration ladder.

    density[j] is the mean of the integrand at the j-th grid point, density_se[j]
    its SE; log_z[k] is the running sum of the trapezoids over the first k
    segments (log_z[-1] the ladder's log Z), log_z_se[k] the SE of
    _trapezoid_rows(grid)[k] @ density (independent points).  records[j] is the
    chain record of point j (None where the integrand is exact and no chain ran).
    """

    density: np.ndarray
    density_se: np.ndarray
    log_z: np.ndarray
    log_z_se: np.ndarray
    records: list


# ---------------------------------------------------------------------------
# thermodynamic integration core
# ---------------------------------------------------------------------------

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


def integrate_ladder(chain_at, grid: np.ndarray, integrand, start: np.ndarray, sweeps: int,
                     burn_in: int, warm_burn: int, observables: list | None = None,
                     exact_first: float | None = None) -> Ladder:
    """Warm-started chains along `grid`, the integrand integrated by the trapezoid rule.

    chain_at(x, field) builds the chain at grid value x from a start field:
    a copy of `start` for the first chain, the previous chain's field after
    it.  The first chain burns in for `burn_in` sweeps, later ones for
    `warm_burn`; each then records every 2 sweeps over `sweeps` sweeps, the
    contacts counted on the interior.  observables, if given, holds one entry
    per grid point: the extra observables of that point's chain (a dict of
    name -> callable, as run_chain takes), or None for none, so a statistic
    that only one point's record is read for is taken at that point alone.
    integrand(record) is the series whose mean is the integrand.  With
    exact_first, the integrand at grid[0] is that value with zero error and
    no chain runs there.
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
    increments = 0.5 * np.diff(grid) * (density[:-1] + density[1:])
    log_z_se = np.sqrt(np.diag(_map_cov(_trapezoid_rows(grid), np.diag(density_se ** 2))))
    return Ladder(density, density_se, np.concatenate([[0.0], np.cumsum(increments)]), log_z_se,
                  records)


def _coupling_ladder(geom: BoxGeometry, params: pinning.PinningParams, omega: DisorderField,
                     rng: np.random.Generator, sweeps: int, burn_in: int,
                     observables: dict | None = None) -> Ladder:
    """The coupling ladder t = 0 .. 1 at `params`; its last point is the target measure.

    The grid has max(12, len(_ti_h_grid([params.h]))) points, so at beta = 0
    it is the h-leg from 0 to h reparametrised by t h.  The first chain
    starts from the harmonic extension of params.bc, the free field's mean.
    The extra `observables`, if any, are recorded at the last point only,
    the target measure.
    """
    pinning._pinning_model_only(params, "the coupling ladder")
    shift = fields.harmonic_extension(geom, params.m, params.bc).values
    n_t = max(12, len(_ti_h_grid([params.h])))
    return integrate_ladder(
        lambda t, f: pinning.GibbsChain(geom, params, omega, f, rng, coupling=t),
        np.linspace(0.0, 1.0, n_t), lambda rec: rec.energy, shift, sweeps, burn_in,
        max(burn_in // 3, 20), observables=[None] * (n_t - 1) + [observables],
        exact_first=pinning.free_interaction_mean(geom, params, omega, shift))


def coupling_log_z(geom: BoxGeometry, params: pinning.PinningParams, omega: DisorderField,
                   rng: np.random.Generator, sweeps: int, burn_in: int) -> tuple[float, float]:
    """log Z at the parameters of `params` by coupling-constant integration.

    Z(t) = E[exp(t sum_x s_x delta_x)] interpolates from Z(0) = 1 (an exact
    anchor, whatever h) to the target, and d/dt log Z(t) is the interaction
    energy under the partially coupled measure.  At t = 0 the integrand is
    the explicit Gaussian value sum_x s_x p_x (pinning.free_interaction_mean);
    chains supply the rest of the t-grid, max(12, len(_ti_h_grid([params.h])))
    points from 0 to 1.  The co-membrane model is refused before any draw.
    """
    ladder = _coupling_ladder(geom, params, omega, rng, sweeps, burn_in)
    return float(ladder.log_z[-1]), float(ladder.log_z_se[-1])


def ti_log_partition(geom: BoxGeometry, params: pinning.PinningParams, omega: DisorderField,
                     rng: np.random.Generator, h_grid: np.ndarray, sweeps: int,
                     burn_in: int) -> Ladder:
    """Integrate the contact total along the h-grid with warm-started chains.

    log Z(h_j) - log Z(h_grid[0]) = int E_{h'}[sum delta] dh' (trapezoid);
    the boundary condition, mass and height live in params.  Only interior
    contacts are counted; frame contacts of the range are a deterministic
    additive term served by pinning.boundary_contact_term.  The first chain
    starts from the harmonic extension of params.bc.  The co-membrane model,
    whose h-derivative is not the contact total, is refused before any draw.
    """
    pinning._pinning_model_only(params, "the h-leg")
    start = fields.harmonic_extension(geom, params.m, params.bc).values
    return integrate_ladder(
        lambda h, f: pinning.GibbsChain(geom, replace(params, h=h), omega, f, rng),
        h_grid, lambda rec: rec.contacts_window, start, sweeps, burn_in, burn_in // 3)


# ---------------------------------------------------------------------------
# replica averages: free-energy curve, finite-volume criterion, doubling
# ---------------------------------------------------------------------------

def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Mean of independent values and its SE std(ddof=1)/sqrt(n), inf from one value."""
    return float(x.mean()), float(x.std(ddof=1)) / math.sqrt(len(x)) if len(x) > 1 else math.inf


def _curve_replica(geom: BoxGeometry, beta: float, m: float, targets: np.ndarray,
                   master_seed: int, tag: str, sweeps: int, burn_in: int, r: int) -> tuple:
    """One disorder replica of free_energy_curve: per-site log Z at the targets and its
    covariance, the h-leg's weights from 0 to each target plus the anchor."""
    grid = _ti_h_grid(targets)
    zero = int(np.searchsorted(grid, 0.0))
    pos = np.searchsorted(grid, np.round(targets, 12))
    n2 = geom.N ** 2
    rep_rng = rngmod.stream(master_seed, tag, "replica", r)
    if beta > 0:
        omega = sample_disorder(geom, GAUSSIAN, rngmod.stream(master_seed, tag, "omega", r))
    else:
        omega = DisorderField(geom, GAUSSIAN, np.zeros((geom.side, geom.side)))
    params0 = pinning.PinningParams(beta=beta, h=0.0, m=m)
    base, base_se = 0.0, 0.0
    if beta > 0:
        base, base_se = coupling_log_z(geom, params0, omega, rep_rng, sweeps, burn_in)
    leg = ti_log_partition(geom, params0, omega, rep_rng, grid, sweeps, burn_in)
    w = _trapezoid_rows(grid)
    span = np.column_stack([w[pos] - w[zero], np.ones(len(pos))]) / n2
    return ((leg.log_z[pos] - leg.log_z[zero] + base) / n2,
            _map_cov(span, np.diag(np.append(leg.density_se, base_se) ** 2)))


def free_energy_curve(geom: BoxGeometry, beta: float, h_targets, master_seed: int,
                      sweeps: int, burn_in: int, m: float = 0.0,
                      replicas: int = 1, tag: str = "fe") -> FreeEnergyCurve:
    """Per-site free energy at each target h, replica-averaged over Gaussian
    disorder, with the substrate at height 0.

    Anchoring: log Z(h=0) is 0 exactly for beta = 0 and comes from the
    coupling integration otherwise; one h-leg through 0 and every target then
    gives log Z(target) = leg(target) - leg(0) + log Z(0), in a single
    warm-started pass per replica.  The values' covariance is one replica's own,
    or the replicas' spread, chain noise included, over `replicas`; inf where one has no SE.
    """
    if replicas < 1:
        raise DomainError(f"free_energy_curve needs replicas >= 1 (got {replicas})")
    targets = np.atleast_1d(np.asarray(h_targets, dtype=float))
    if targets.size == 0:
        raise DomainError("free_energy_curve needs at least one target h")
    rows = rngmod._fan_out(functools.partial(_curve_replica, geom, beta, m, targets, master_seed,
                                             tag, sweeps, burn_in), replicas)
    vals, covs = (np.array(col) for col in zip(*rows))
    value = vals.mean(axis=0)
    if replicas == 1:
        return FreeEnergyCurve(targets, value, covs[0])
    blind = ~np.isfinite(np.diagonal(covs, axis1=1, axis2=2)).all(axis=0)
    return FreeEnergyCurve(targets, value, np.atleast_2d(np.cov(vals, rowvar=False)) / replicas
                           + np.diag(np.where(blind, np.inf, 0.0)))


def density_event_threshold(N: int, m: float, K: float) -> float:
    """N^2 (2 f(m)/m^2 - K), the typical-density cutoff for sum phi^2."""
    return N * N * (2.0 * kernels.f_of_m(m) / (m * m) - K)


def _replica_log_z(geom: BoxGeometry, params: pinning.PinningParams, K: float, master_seed: int,
                   tag: str, sweeps: int, burn_in: int, r: int) -> tuple[float, float]:
    """One (boundary, disorder) replica of log E^{m,bc}[e^{interaction} 1_D] at params,
    with the D-event frequency; the replica draws its own boundary data params.bc.

    D is the event sum phi^2 >= density_event_threshold(N, m, K) over the
    interaction range.

    log Z' = one coupling ladder at the target parameters + exact frame-contact
    term + log of the D-event frequency under the target measure, the
    ladder's last point.  The event factor is exact in the sampling limit and
    downward-biased at finite budgets, which is the conservative side for the
    positivity verdict.
    """
    # first: on a cold f(m) memo its integration buffers are freed before any chain allocates
    threshold = density_event_threshold(geom.N, params.m, K)
    bc_rng = rngmod.stream(master_seed, tag, "bc", r)
    om_rng = rngmod.stream(master_seed, tag, "omega", r)
    ch_rng = rngmod.stream(master_seed, tag, "chain", r)
    bc = fields.sample_boundary_infinite_massive(fields.boundary_covariance(geom, params.m),
                                                 bc_rng)
    omega = sample_disorder(geom, GAUSSIAN, om_rng)
    params = replace(params, bc=bc)
    tmask = geom.tilde_mask

    def density_stat(f: np.ndarray) -> float:
        return float(np.sum(f[tmask] ** 2))

    ladder = _coupling_ladder(geom, params, omega, ch_rng, sweeps, burn_in,
                              observables={"sumsq": density_stat})
    log_z = float(ladder.log_z[-1]) + pinning.boundary_contact_term(geom, params, omega)
    sumsq = ladder.records[-1].extra["sumsq"]
    freq = float(np.mean(sumsq >= threshold))
    return log_z + math.log(max(freq, 0.5 / len(sumsq))), freq


def _box_estimate(beta: float, h: float, m: float, u: float, K: float, N: int,
                  master_seed: int, tag: str, replicas: int, sweeps: int,
                  burn_in: int) -> tuple[float, float, float]:
    """Replica mean of log Z' in the box of side N, its SE and the mean D-event frequency;
    one (boundary, disorder) replica per job of the fan-out, streams keyed by tag."""
    job = functools.partial(_replica_log_z, build_box(N),
                            pinning.PinningParams(beta=beta, h=h, m=m, u=u), K, master_seed, tag,
                            sweeps, burn_in)
    vals, freqs = (np.array(col) for col in zip(*rngmod._fan_out(job, replicas)))
    return *_mean_se(vals), float(freqs.mean())


def finite_volume_criterion(beta: float, h: float, m: float, u: float, K: float, N: int,
                            master_seed: int, replicas: int, sweeps: int, burn_in: int) -> dict:
    """Laboratory version of the finite-volume lower-bound certificate.

    Estimates (1/N^2) E_bc E_omega log E^{m,bc}[exp(sum (beta w - lambda + h)
    delta^u) 1_D] - K m^2; a positive margin beyond 3 standard errors
    certifies a positive free energy at these parameters, up to MC confidence.
    """
    if m <= 0:
        raise DomainError("criterion needs m > 0")
    if replicas < 1:
        raise DomainError(f"finite_volume_criterion needs replicas >= 1 (got {replicas})")
    mean, mean_se, freq = _box_estimate(beta, h, m, u, K, N, master_seed, "fvc", replicas,
                                        sweeps, burn_in)
    n2 = N * N
    est, se = mean / n2, mean_se / n2
    penalty = K * m * m
    margin = est - penalty
    verdict = "positive" if margin > 3.0 * se else "negative"
    return {"N": N, "m": m, "u": u, "K": K, "estimate": est, "se": se, "penalty": penalty,
            "verdict": verdict, "margin": margin, "event_frequency": freq}


def doubling_gap(beta: float, h: float, m: float, u: float, K: float, N: int,
                 master_seed: int, replicas: int, sweeps: int, burn_in: int) -> dict:
    """E log Z' at sizes N and 2N and the sub-additivity gap E_2N - 4 E_N.

    The exact finite-volume inequality is gap >= 0 in expectation over the
    boundary field and the disorder.
    """
    if replicas < 2:
        raise DomainError(f"doubling_gap needs replicas >= 2 for its standard error "
                          f"(got {replicas})")
    out = {label: _box_estimate(beta, h, m, u, K, size, master_seed, f"dbl-{label}", replicas,
                                sweeps, burn_in)[:2]
           for label, size in (("small", N), ("large", 2 * N))}
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
    j_hist = np.zeros(grid.k + 1, dtype=np.int64)
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
            j_hist += np.bincount(pair_scale_index(grid.k, d[iu]), minlength=grid.k + 1)
    an = margins <= GAMMA * math.log(math.log(N))
    few = L <= math.log(N) ** ((1.0 + _ALPHA) / 2.0)
    cond = an & few
    (mean_L, se_L), (mean_Lp, se_Lp) = _mean_se(L), _mean_se(Lp)
    out = {
        "k": grid.k, "m": m, "u": u, "samples": samples,
        "mean_L": mean_L, "se_L": se_L, "mean_Lp": mean_Lp, "se_Lp": se_Lp,
        "mean_Lp_sq": float((Lp ** 2).mean()),
        "an_frequency": float(an.mean()),
        "cond_frequency": float(cond.mean()),
        "mean_L_given_cond": float(L[cond].mean()) if cond.any() else float("nan"),
        "j_histogram": {j: int(c) for j, c in enumerate(j_hist) if c},
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
                                            extra_bands=((-b, b, kappa),)),
        kappas, lambda rec: rec.extra["out"],
        fields.harmonic_extension(geom, params.m, params.bc).values, sweeps, burn_in,
        burn_in // 2, observables=[{"out": outside}] * len(kappas))
    counts = ladder.density
    # the trapezoid integral, plus the count's e^-kappa decay beyond the grid
    logp = -(float(ladder.log_z[-1]) + float(counts[-1])) / (N * N)
    return {"h": h, "barrier": b, "kappa": kappas, "mean_outside": counts,
            "logp_per_site": logp}
