"""The three benchmark workloads: inputs, passes of fixed work, output checks.

Each workload is a budget-cut slice of a call path of the acceptance gate:

- mixing:   K independent heat-bath chains on one disorder draw (N = 16,
            beta = 0.5, h = 0.1, a record every 2 sweeps).  It isolates the
            chain kernel and its mixing, where ESS per CPU second is
            measured.  A pass advances every chain by the same number of
            sweeps; the records of all passes form one long chain each.
- doubling: freeenergy.doubling_gap at criterion 12's parameters with fewer
            replicas and sweeps: the gate's most expensive path (warm-started
            ladders at two box sizes plus the input preparation).  Each pass
            is one call on replicas of its own; the verdict is taken on the
            replicas of all passes together.
- samplers: the exact, MCMC-free half of the gate (spectral and scale-stack
            samplers, bridges, Green tables, f(m), the disorder penalty).
            It never touches pinning.  Every pass repeats the same work.

A run repeats passes of equal cost and reports medians over them.  Budgets
scale with the run length and are the same on every commit; at the
reference speed the three workloads average about the run length, and
mixing takes the largest share because its IACT estimate needs the longest
chains.

The mixing chains all see one frozen disorder draw: the autocorrelation time
changes several-fold from one draw to another, so the draw is part of the
workload's definition, like N, beta and h, and the workload seed drives the
chain streams.  Every input is drawn from a stream whose purpose tag no chain
uses, so a change to how chains consume random numbers leaves the inputs as
they were.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from gffpin import disorder, experiments, fields, freeenergy, kernels, lattice, pinning
from gffpin import rng as rngmod

import ess

INPUT_TAGS = ("omega", "bc")  # stream purposes that carry inputs, never chain moves


@dataclass
class Check:
    """Outcome of one output check covering `ops` operations."""

    name: str
    ok: bool
    ops: int = 1
    detail: str = ""


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    streams: list = field(default_factory=list)
    error: str = ""
    speed_wall: float = 1.0  # reference speed around the pass (reference.py), wall and CPU
    speed_cpu: float = 1.0

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed_wall

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed_cpu


def digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def input_streams(streams) -> list[str]:
    return [s for s in streams if any(f"/{tag}" in s for tag in INPUT_TAGS)]


def timed_pass(wl, index: int, meter=None) -> PassResult:
    """Pass `index` of the workload, timed; an exception becomes the pass's error.

    With a reference.Speedometer, the loop is sampled before and after the
    pass and wherever the pass ticks; the ticks are not counted as pass time.
    """
    wl.meter = meter
    if meter:
        meter.sample(wl.ref_units)
        meter.in_pass = True
    with rngmod.audit_streams() as audit:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            wl.run(index)
            wl.passes_done += 1
            error = ""
        except Exception as exc:  # reported as failed ops, with its type and message
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    res = PassResult(wall, cpu, list(audit.consumed), error)
    if meter:
        meter.in_pass = False
        meter.sample(wl.ref_units)
        res.wall_s -= meter.inside_wall
        res.cpu_s -= meter.inside_cpu
        res.speed_wall, res.speed_cpu = meter.speed_wall, meter.speed_cpu
    wl.meter = None
    return res


@contextmanager
def captured_chain_records(after=None):
    """Collect every ChainRecord that pinning.run_chain returns while active,
    calling `after` once each call has returned."""
    records = []
    inner = pinning.run_chain

    def run_chain(*args, **kwargs):
        rec = inner(*args, **kwargs)
        records.append(rec)
        if after:
            after()
        return rec

    pinning.run_chain = run_chain
    try:
        yield records
    finally:
        pinning.run_chain = inner


def finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


class Workload:
    """Shared bookkeeping: `ops` per pass, output checks gathered as passes run."""

    thinning = 1
    ops = 1         # per pass
    extra_ops = 0   # checked once per run, outside the passes
    ref_units = 4   # reference-loop units sampled before and after each pass
    meter = None    # the pass's reference.Speedometer while a pass runs

    def __init__(self, seed: int):
        self.seed = seed
        self.checks: list[Check] = []
        self.passes_done = 0

    def check(self, name: str, ok: bool, ops: int, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), ops, detail))

    def tick(self) -> None:
        """Sample the machine's speed at this point of the pass."""
        if self.meter and self.meter.ticks:
            self.meter.sample(1)

    def prepare(self) -> None:
        """Per-run work before the first pass, outside every timing."""

    def pass_inputs(self, index: int) -> set:
        """Ids of the input streams pass `index` must draw (none by default)."""
        return set()

    def check_streams(self, index: int, consumed) -> None:
        """Inputs come only from their own streams, the same in every run with this seed."""
        drawn = set(input_streams(consumed))
        want = self.pass_inputs(index)
        self.check("pass inputs drawn from their own streams", drawn == want, self.ops,
                   "" if drawn == want else f"drew {sorted(drawn - want)}, missed {sorted(want - drawn)}")

    def after_pass(self) -> None:
        """Checks on the last pass's outputs, outside its timing."""

    def finish(self) -> None:
        """Checks that need every pass."""


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

class Mixing(Workload):
    name = "mixing"
    N, beta, h, thinning = 16, 0.5, 0.1, 2
    chains = 4
    burn_in = 300
    disorder_seed = 0         # the frozen disorder draw (see the module docstring)
    sweeps_per_pass = 1000    # per chain
    passes_per_second = 1.15  # about 1.1 s per pass at the reference speed; the IACT
                              # estimate needs the longest chains, so mixing runs longest

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed)
        self.passes = max(3, round(self.passes_per_second * seconds))
        self.ops = self.chains

    def setup(self) -> str:
        geom = lattice.build_box(self.N)
        omega = disorder.sample_disorder(
            geom, disorder.GAUSSIAN, rngmod.stream(self.disorder_seed, "perfbench-mixing", "omega"))
        params = pinning.PinningParams(beta=self.beta, h=self.h)
        warm = pinning.make_chain(geom, params, omega,
                                  rngmod.stream(self.seed, "perfbench-mixing", "warm-up"))
        pinning.heat_bath_sweep(warm, 2)
        self.geom, self.omega, self.params = geom, omega, params
        return digest(omega.values)

    def prepare(self) -> None:
        """Start every chain from the harmonic extension and burn it in."""
        self.state = []
        for k in range(self.chains):
            rng = rngmod.stream(self.seed, "perfbench-mixing", "chain", k)
            chain = pinning.make_chain(self.geom, self.params, self.omega, rng)
            pinning.heat_bath_sweep(chain, self.burn_in)
            self.state.append(chain)
        self.series = {k: {"L": [], "energy": []} for k in range(self.chains)}

    def run(self, index: int) -> None:
        for k, chain in enumerate(self.state):
            rec = pinning.run_chain(self.geom, self.params, self.omega, chain.rng,
                                    sweeps=self.sweeps_per_pass, thinning=self.thinning,
                                    chain=chain)
            n_rec = self.sweeps_per_pass // self.thinning
            ok = len(rec.contacts_window) == n_rec and finite(
                rec.contacts_window, rec.contact_fraction, rec.energy)
            self.check("mixing observables finite", ok, 1)
            self.series[k]["L"].append(rec.contacts_window)
            self.series[k]["energy"].append(rec.energy)
            self.tick()

    def _chain_series(self, key: str, chains=None):
        return [np.concatenate(self.series[k][key]) for k in (chains or self.series)]

    def iact(self, chains=None) -> dict:
        """Pooled Sokal IACT of L and of the energy, in records."""
        return {key: ess.sokal_iact(self._chain_series(key, chains)) for key in ("L", "energy")}

    def by_chain(self) -> dict:
        """Effective samples of each chain (one chain seed each) on the frozen disorder."""
        out = {"L": [], "energy": []}
        for k in self.series:
            est = self.iact([k])
            for key in out:
                out[key].append(est[key].ess)
        return out


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------

class Doubling(Workload):
    name = "doubling"
    N, beta, h, m, u, thinning = 16, 0.5, 0.3, 0.3, 0.0, 2  # thinning as in the ladders
    K = experiments.FROZEN_DENSITY_K
    sweeps, burn_in = 100, 50
    replicas = 2              # per pass and box size
    passes_per_second = 0.17  # about 5 s per pass at the reference speed
    extra_ops = 2             # the two routes checked on the exact small box
    ref_units = 8
    tick_every = 4            # chain segments between speed samples

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed)
        self.passes = max(3, round(self.passes_per_second * seconds))
        self.ops = 2 * self.replicas
        self.gaps, self.records = [], []

    def setup(self) -> str:
        for n in (self.N, 2 * self.N):
            geom = lattice.build_box(n)
            kernels.spectral_basis(n)
            fields.boundary_covariance(geom, self.m)
        return ""

    def pass_inputs(self, index: int) -> set:
        return {f"{self.seed * 1000 + index}/dbl-{label}/{kind}/{r}"
                for label in ("small", "large") for kind in ("bc", "omega")
                for r in range(self.replicas)}

    def _segment_done(self) -> None:
        self.segments += 1
        if self.segments % self.tick_every == 0:
            self.tick()

    def run(self, index: int) -> None:
        self.segments = 0
        with captured_chain_records(after=self._segment_done) as records:
            out = freeenergy.doubling_gap(self.beta, self.h, self.m, self.u, self.K, self.N,
                                          self.seed * 1000 + index, replicas=self.replicas,
                                          sweeps=self.sweeps, burn_in=self.burn_in)
        ok = finite(*out["small"], *out["large"]) and all(
            finite(r.contacts_window, r.energy, *r.extra.values()) for r in records)
        self.check("doubling estimates finite", ok, self.ops)
        self.gaps.append(out)
        self.records += [(r.contacts_window, r.energy) for r in records]

    def combined_gap(self) -> tuple[float, float]:
        """gap and its SE over the replicas of every pass, as doubling_gap forms them."""
        r = self.replicas
        stats = {}
        for label in ("small", "large"):
            means = np.array([g[label][0] for g in self.gaps])
            var_within = np.array([g[label][1] ** 2 * r for g in self.gaps])
            n = r * len(means)
            ss = float(np.sum((r - 1) * var_within) + r * np.sum((means - means.mean()) ** 2))
            stats[label] = (float(means.mean()), math.sqrt(ss / (n - 1) / n))
        gap = stats["large"][0] - 4.0 * stats["small"][0]
        return gap, math.sqrt(stats["large"][1] ** 2 + 16.0 * stats["small"][1] ** 2)

    def finish(self) -> None:
        gap, se = self.combined_gap()
        self.check("doubling gap >= -3 se over all replicas (criterion 12)", gap >= -3.0 * se,
                   self.ops * len(self.gaps),
                   f"gap {gap:.2f}, se {se:.2f}, {self.replicas * len(self.gaps)} replicas")
        self.check_exact_small_box()

    def check_exact_small_box(self) -> None:
        """coupling_log_z and ti_log_partition against the exact one-site log Z of
        criterion 1 (N = 2, beta = 0, h = 1), within 4 SE each."""
        geom = lattice.build_box(2)
        omega = disorder.DisorderField(geom, disorder.GAUSSIAN, np.zeros((geom.side, geom.side)))
        target = pinning.PinningParams(beta=0.0, h=1.0)
        exact = pinning.exact_partition_small(geom, target, omega)
        rng = rngmod.stream(self.seed, "perfbench-doubling", "exact-n2")
        coupling, coupling_se = freeenergy.coupling_log_z(geom, target, omega, rng,
                                                          sweeps=500, burn_in=50)
        ti = freeenergy.ti_log_partition(geom, pinning.PinningParams(beta=0.0, h=0.0), omega, rng,
                                         np.linspace(0.0, 1.0, 6), sweeps=500, burn_in=50)
        for name, value, se in (("coupling_log_z", coupling, coupling_se),
                                ("ti_log_partition", ti.log_z[-1], ti.log_z_se[-1])):
            self.check(f"{name} = exact log Z at N=2 within 4 se", abs(value - exact) <= 4.0 * se, 1,
                       f"{value:.5f} vs {exact:.5f}, se {se:.5f}")

    def iact(self) -> dict:
        """Pooled over every ladder segment, each centred on its own mean."""
        return {"L": ess.sokal_iact([L for L, _ in self.records]),
                "energy": ess.sokal_iact([e for _, e in self.records])}


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

class Samplers(Workload):
    name = "samplers"
    n32_m = 0.3
    bridge_ks, bridge_xs = (25, 100, 400), (1.0, 2.0, 5.0, 10.0)
    diag_sizes = (64, 128, 256)
    f_m = 0.5
    penalty_n1, penalty_beta = 4, 1.0
    n_dirichlet8, n_dirichlet32, n_stacks, n_bridges, n_penalty = 20_000, 4_000, 100, 10_000, 100
    passes_per_second = 0.45  # about 1.1 s per pass at the reference speed

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed)
        self.passes = max(3, round(self.passes_per_second * seconds))
        self.ops = (2 + 2 * self.n_stacks + len(self.bridge_ks) * len(self.bridge_xs)
                    + 2 + len(self.diag_sizes) + 2 + self.n_penalty)
        self.exact_samples = self.n_dirichlet8 + self.n_dirichlet32 + self.n_stacks
        self.outputs = set()

    def _stream(self, *tags):
        return rngmod.stream(self.seed, "perfbench-samplers", *tags)

    def pass_inputs(self, index: int) -> set:
        return {f"{self.seed}/perfbench-samplers/omega/penalty"}

    def setup(self) -> str:
        self.g8, self.g16, self.g32 = (lattice.build_box(n) for n in (8, 16, 32))
        self.g_diag = [lattice.build_box(n) for n in self.diag_sizes]
        self.g256 = self.g_diag[-1]
        self.m256 = freeenergy.desk_mass(256)
        self.grid256 = kernels.scale_time_grid(self.m256, min_scales=1)
        self.wide = lattice.sub_box_mask(self.g256, 2.0)
        self.tiling = lattice.cell_tiling(self.g16, self.penalty_n1)
        for n in (8, 32, *self.diag_sizes):
            kernels.spectral_basis(n)
        return digest(self.grid256.times, self.wide)

    def run(self, index: int) -> None:
        d8 = fields.sample_dirichlet_interior(self.g8, 0.0, self.n_dirichlet8,
                                              self._stream("dirichlet", 8))
        d32 = fields.sample_dirichlet_interior(self.g32, self.n32_m, self.n_dirichlet32,
                                               self._stream("dirichlet", 32))
        self.tick()
        r = self._stream("stack")
        margins = np.empty(self.n_stacks)
        for i in range(self.n_stacks):
            stack = fields.sample_scale_stack(self.g256, self.m256, r, grid=self.grid256)
            margins[i] = fields.stack_barrier_margin(stack.stack, self.wide, freeenergy.GAMMA)
            if i % 50 == 49:
                self.tick()
        bridges = []
        for k in self.bridge_ks:
            bridges += [(k, x, *fields.bridge_positivity_probability(
                            [1.0] * k, x, self.n_bridges, self._stream("bridge", k, x)))
                        for x in self.bridge_xs]
            self.tick()
        green = kernels.green_dirichlet(self.g32, self.n32_m).table
        green_solve = kernels.green_dirichlet_solve(self.g32, self.n32_m).table
        diags = [kernels.green_dirichlet_diag(g, 0.0) for g in self.g_diag]
        f, f_adaptive = kernels.f_of_m(self.f_m), kernels.f_of_m_adaptive(self.f_m)
        self.tick()
        r = self._stream("omega", "penalty")
        penalties = [disorder.penalty_f(disorder.sample_disorder(self.g16, disorder.GAUSSIAN, r),
                                        self.tiling, self.penalty_beta)
                     for _ in range(self.n_penalty)]
        self.pending = (d8, d32, margins, stack, bridges, green, green_solve, diags, f,
                        f_adaptive, penalties)

    def after_pass(self) -> None:
        """Check the last pass's outputs (outside its timing), then drop them."""
        (d8, d32, margins, stack, bridges, green, green_solve, diags, f, f_adaptive,
         penalties) = self.pending
        self.pending = None
        self.outputs.add(digest(d8, d32, margins, np.array([b[2:] for b in bridges]), *diags))
        # criterion 4: empirical covariance against the Green table, max z below 5
        x = d8.reshape(len(d8), -1)
        emp = x.T @ x / len(x)
        exact = kernels.green_dirichlet(self.g8, 0.0).table
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact ** 2) / len(x))
        z8 = float(np.max(np.abs(emp - exact) / se))
        target = kernels.green_dirichlet_diag(self.g32, self.n32_m)[1:-1, 1:-1]
        z32 = float(np.max(np.abs(d32.var(axis=0) - target)
                           / (target * math.sqrt(2.0 / len(d32)))))
        self.check("sampler covariance z < 5 (criterion 4)", z8 < 5.0 and z32 < 5.0, 2,
                   f"max z {z8:.2f} (N=8), {z32:.2f} (N=32 variances)")
        resid = float(np.max(np.abs(stack.values - stack.stack.xi.sum(axis=0))))
        self.check("scale stack sums to its field, finite margins",
                   finite(margins) and resid < 1e-9, 2 * self.n_stacks,
                   f"layer-sum residual {resid:.1e}")
        c = experiments.FROZEN_BRIDGE_C
        bad = [(k, x) for k, x, p, se in bridges
               if not (1.0 - math.exp(-x * x / k) - 4.0 * se <= p
                       <= min(c * (x + math.log(k)) ** 2 / k, 1.0) + 4.0 * se)]
        self.check("bridges inside the criterion-6 envelope", not bad, len(bridges),
                   f"outside: {bad}" if bad else "")
        gdiff = float(np.max(np.abs(green - green_solve)) / np.max(np.abs(green)))
        self.check("green_dirichlet = green_dirichlet_solve", gdiff < 1e-10, 2,
                   f"max relative difference {gdiff:.1e}")
        diag_ok = all(finite(d) and np.all(d[1:-1, 1:-1] > 0.0) and np.all(d[0] == 0.0)
                      and np.allclose(d, d.T, rtol=0.0, atol=1e-12) for d in diags)
        self.check("Dirichlet Green diagonals positive, symmetric, zero on the frame",
                   diag_ok, len(diags))
        self.check("f_of_m = f_of_m_adaptive to 1e-9", abs(f - f_adaptive) < 1e-9, 2,
                   f"difference {abs(f - f_adaptive):.1e}")
        n_cells = len(self.tiling.cells)
        self.check("penalty f = exp(-2 count)",
                   all(0 <= p.count <= n_cells and p.value == math.exp(-2.0 * p.count)
                       for p in penalties), len(penalties))

    def finish(self) -> None:
        self.check("every pass gives the same outputs", len(self.outputs) <= 1, self.ops,
                   f"{len(self.outputs)} distinct output digests")

    def iact(self) -> dict:
        """Exact draws are independent: every field sample is one effective sample."""
        exact = ess.IACT(1.0, 0, self.exact_samples * self.passes_done)
        return {"L": exact, "energy": exact}


WORKLOADS = {w.name: w for w in (Mixing, Doubling, Samplers)}
