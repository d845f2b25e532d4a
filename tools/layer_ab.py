"""In-process A/B timing of the chain and sampler layers: a parent revision
beside the working tree.

    python3 tools/layer_ab.py --parent HEAD
    python3 tools/layer_ab.py --parent HEAD~1 --repeats 41 --sweeps 100

The parent's committed files are exported (`git archive`, through
bench_pairs.export) into a temporary directory, and its src/gffpin is
imported as the package gffpin_parent beside the
working tree's gffpin (uncommitted changes included), so both run in one
process on inputs drawn from the same streams.  Every layer is timed in
process CPU time (time.process_time).  Within a repeat the layers run one
after the other, each on both sides back to back, and the side that goes
first alternates from repeat to repeat, so a drift in the machine's speed
falls on both.  Per layer the tool prints each side's median time per sweep
or call, the median of the per-repeat ratios tree / parent, their quartiles
and interquartile range, and the number of repeats the tree wins (a strictly
lower time).  The sweep layers also show the tree's median in ns per
interior site.  Where git cannot resolve or export the parent the tool exits
2 with one error: line.

Layers: a heat-bath sweep (heat_bath_sweep, the exact reference sweep
through the plain sample_banded_conditional; a run_chain cycle makes none,
so this layer times no sweep of run_chain), an independence sweep and a
reflection sweep (each one _alternating_sweeps(chain, 1) call, the chain's
phase set to 0 or to 1 before it), and a run_chain sweep (its cycle of one
independence sweep and max(1, N // 4) reflection sweeps) at N = 16 and
N = 32, on one disorder draw at beta = 0.5, h = 0.1, each timed over
--sweeps sweeps per repeat; one
spectral sample (sample_dirichlet_interior, N = 32, m = 0.3), timed over
--sweeps calls; one Green table by each route (green_dirichlet and
the block elimination green_dirichlet_solve, N = 32, m = 0.3); one f(m) by its
oracle route (f_of_m_adaptive at m = 0.5, as the samplers workload calls it),
timed over 20 calls; one harmonic extension (harmonic_extension at N = 32,
m = 0.3, on one boundary drawn from the infinite-volume massive law), timed
over 20 calls; one ladder point
(integrate_ladder on the 2-point coupling grid t = 0, 1 with an exact first
point, so one chain runs: N = 8, beta = 0.5, h = 0.1, 100 recorded sweeps after
20 burn-in); one coupling ladder at each of the doubling check's box
sizes N = 16 and 32 (its replica job, _replica_log_z, at criterion 12's
beta = 0.5, h = 0.3, m = 0.3, u = 0: a random massive boundary and disorder,
then chains at the 11 points past the exact first one of the 12-point t-grid,
100 recorded sweeps after 50 burn-in at both sizes, and the density statistic
D on the target measure); one bridge block (bridge_positivity_probability,
65 536 walks of 100 unit steps below x = 2); one stack margin
(sample_scale_stack at N = 256 and desk_mass(256), then stack_barrier_margin
over the sub_box_mask(g, 2.0) window at slope GAMMA), timed over 20 calls;
one penalty (penalty_f on the N1 = 4 tiling of N = 16 at beta = 1, as the
samplers workload runs it), timed over 100 calls on disorder drawn
beforehand.  The f(m) oracle, the extension, the ladder point, the coupling
ladders, the bridge block, the stack margin and the penalty run at these
fixed budgets whatever --sweeps says.

Run as a script, the tool sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy loads, as perfbench/run.py does, so the
Green-table layers count one BLAS thread's CPU; its header prints the setting.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # an import (a test's, say) leaves its process's environment alone
    for _var in BLAS_VARS:
        os.environ[_var] = "1"

import argparse
import functools
import importlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 32)
MASS = 0.3
MODULES = ("disorder", "experiments", "fields", "freeenergy", "kernels", "lattice", "pinning",
           "rng")
LADDER_N, LADDER_SWEEPS, LADDER_BURN = 8, 100, 20
COUPLING_SIZES, COUPLING_SWEEPS, COUPLING_BURN = (16, 32), 100, 50
BRIDGE_WALKS, BRIDGE_STEPS, BRIDGE_X = 1 << 16, 100, 2.0
STACK_N, STACK_CALLS = 256, 20
EXTENSION_N, EXTENSION_CALLS = 32, 20
F_ORACLE_M, F_ORACLE_CALLS = 0.5, 20
PENALTY_N, PENALTY_N1, PENALTY_BETA, PENALTY_CALLS = 16, 4, 1.0, 100


def _chain(pkg, N: int):
    g = pkg.lattice.build_box(N)
    om = pkg.disorder.sample_disorder(g, pkg.disorder.GAUSSIAN, pkg.rng.stream(1, "ab-om", N))
    params = pkg.pinning.PinningParams(beta=0.5, h=0.1)
    return pkg.pinning.make_chain(g, params, om, pkg.rng.stream(1, "ab-chain", N))


def _heat_bath(pkg, N: int, sweeps: int):
    chain = _chain(pkg, N)
    return lambda: pkg.pinning.heat_bath_sweep(chain, sweeps)


def _sweeps_at_phase(pkg, N: int, sweeps: int, phase: int):
    """Sweeps one at a time, each from the cycle's phase `phase`: 0 runs an independence
    sweep, 1 a reflection sweep."""
    chain = _chain(pkg, N)
    sweep = pkg.pinning._alternating_sweeps

    def run():
        for _ in range(sweeps):
            chain._phase = phase
            sweep(chain, 1)
    return run


def _run_chain(pkg, N: int, sweeps: int):
    chain = _chain(pkg, N)
    return lambda: pkg.pinning.run_chain(chain.geom, chain.params, chain.omega, chain.rng,
                                         sweeps=sweeps, chain=chain)


def _spectral(pkg, sweeps: int):
    g, r = pkg.lattice.build_box(32), pkg.rng.stream(1, "ab-spectral")

    def run():
        for _ in range(sweeps):
            pkg.fields.sample_dirichlet_interior(g, MASS, 1, r)
    return run


def _green(pkg):
    g = pkg.lattice.build_box(32)
    return lambda: pkg.kernels.green_dirichlet(g, MASS)


def _green_solve(pkg):
    g = pkg.lattice.build_box(32)
    return lambda: pkg.kernels.green_dirichlet_solve(g, MASS)


def _f_oracle(pkg):
    def run():
        for _ in range(F_ORACLE_CALLS):
            pkg.kernels.f_of_m_adaptive(F_ORACLE_M)
    return run


def _extension(pkg):
    g = pkg.lattice.build_box(EXTENSION_N)
    bc = pkg.fields.sample_boundary_infinite_massive(pkg.fields.boundary_covariance(g, MASS),
                                                     pkg.rng.stream(1, "ab-extension"))

    def run():
        for _ in range(EXTENSION_CALLS):
            pkg.fields.harmonic_extension(g, MASS, bc)
    return run


def _ladder_point(pkg):
    chain = _chain(pkg, LADDER_N)
    start = chain.field.copy()

    def chain_at(t, field):
        return pkg.pinning.GibbsChain(chain.geom, chain.params, chain.omega, field, chain.rng,
                                      coupling=t)
    return lambda: pkg.freeenergy.integrate_ladder(
        chain_at, np.array([0.0, 1.0]), lambda rec: rec.energy, start, LADDER_SWEEPS,
        LADDER_BURN, LADDER_BURN, exact_first=0.0)


def _coupling_ladder(pkg, N: int):
    beta, h, m, u = 0.5, 0.3, 0.3, 0.0
    g = pkg.lattice.build_box(N)
    params = pkg.pinning.PinningParams(beta=beta, h=h, m=m, u=u)
    return lambda: pkg.freeenergy._replica_log_z(g, params, pkg.experiments.FROZEN_DENSITY_K, 1,
                                                 "ab-coupling", COUPLING_SWEEPS, COUPLING_BURN, 0)


def _bridge_block(pkg):
    r = pkg.rng.stream(1, "ab-bridge")
    return lambda: pkg.fields.bridge_positivity_probability([1.0] * BRIDGE_STEPS, BRIDGE_X,
                                                            BRIDGE_WALKS, r)


def _stack_margin(pkg):
    g = pkg.lattice.build_box(STACK_N)
    m = pkg.freeenergy.desk_mass(STACK_N)
    grid = pkg.kernels.scale_time_grid(m, min_scales=1)
    window, r = pkg.lattice.sub_box_mask(g, 2.0), pkg.rng.stream(1, "ab-stack")

    def run():
        for _ in range(STACK_CALLS):
            s = pkg.fields.sample_scale_stack(g, m, r, grid)
            pkg.fields.stack_barrier_margin(s.stack, window, pkg.freeenergy.GAMMA)
    return run


def _penalty(pkg):
    g = pkg.lattice.build_box(PENALTY_N)
    tiling = pkg.lattice.cell_tiling(g, PENALTY_N1)
    r = pkg.rng.stream(1, "ab-penalty")
    omegas = [pkg.disorder.sample_disorder(g, pkg.disorder.GAUSSIAN, r)
              for _ in range(PENALTY_CALLS)]

    def run():
        for om in omegas:
            pkg.disorder.penalty_f(om, tiling, PENALTY_BETA)
    return run


def layers(sweeps: int) -> list[tuple[str, str, int, int | None, object]]:
    """(name, unit, units per repeat, interior sites per unit or None, pkg -> thunk)
    per layer."""
    out = []
    for kind, build in (("heat-bath sweep", _heat_bath),
                        ("independence sweep", functools.partial(_sweeps_at_phase, phase=0)),
                        ("reflection sweep", functools.partial(_sweeps_at_phase, phase=1)),
                        ("run_chain sweep", _run_chain)):
        out += [(f"{kind} N={N}", "sweep", sweeps, (N - 1) ** 2,
                 lambda pkg, N=N, build=build: build(pkg, N, sweeps)) for N in SIZES]
    out.append(("spectral sample N=32", "call", sweeps, None, lambda pkg: _spectral(pkg, sweeps)))
    out.append(("green table N=32", "call", 1, None, _green))
    out.append(("green solve N=32", "call", 1, None, _green_solve))
    out.append((f"f oracle m={F_ORACLE_M}", "call", F_ORACLE_CALLS, None, _f_oracle))
    out.append((f"harmonic extension N={EXTENSION_N}", "call", EXTENSION_CALLS, None, _extension))
    out.append((f"ladder point N={LADDER_N}", "call", 1, None, _ladder_point))
    out += [(f"coupling ladder N={N}", "call", 1, None, lambda pkg, N=N: _coupling_ladder(pkg, N))
            for N in COUPLING_SIZES]
    out.append(("bridge block", "call", 1, None, _bridge_block))
    out.append((f"stack margin N={STACK_N}", "call", STACK_CALLS, None, _stack_margin))
    out.append((f"penalty N={PENALTY_N}", "call", PENALTY_CALLS, None, _penalty))
    return out


def _cpu(thunk) -> float:
    start = time.process_time()
    thunk()
    return time.process_time() - start


def measure(parent, tree, repeats: int, sweeps: int) -> list[dict]:
    """Per layer, both sides' per-unit times over the repeats, interleaved."""
    specs = layers(sweeps)
    thunks = [(build(parent), build(tree)) for *_, build in specs]
    for pair in thunks:  # warm-up: first-call caches and set-up on both sides
        for thunk in pair:
            thunk()
    times = np.empty((len(specs), repeats, 2))
    for r in range(repeats):
        for i, pair in enumerate(thunks):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for side in order:
                times[i, r, side] = _cpu(pair[side])
    return [{"layer": name, "unit": unit, "sites": sites, "parent": times[i, :, 0] / units,
             "tree": times[i, :, 1] / units}
            for i, (name, unit, units, sites, _) in enumerate(specs)]


def summary_rows(results: list[dict]) -> list[str]:
    rows = [f"{'layer':<24} {'unit':>5} {'parent us':>10} {'tree us':>10} {'ns/site':>8} "
            f"{'ratio':>7} {'q25':>7} {'q75':>7} {'IQR':>7} {'wins':>6}"]
    for res in results:
        a, b = res["parent"], res["tree"]
        ratio = b / np.where(a > 0, a, np.nan)
        q25, q50, q75 = np.nanpercentile(ratio, [25, 50, 75])
        wins = int(np.sum(b < a))
        per_site = f"{1e9 * np.median(b) / res['sites']:.1f}" if res["sites"] else "-"
        rows.append(f"{res['layer']:<24} {res['unit']:>5} {1e6 * np.median(a):>10.1f} "
                    f"{1e6 * np.median(b):>10.1f} {per_site:>8} {q50:>7.3f} {q25:>7.3f} "
                    f"{q75:>7.3f} {q75 - q25:>7.3f} {f'{wins}/{len(a)}':>6}")
    return rows


def load(package: str):
    """The package with the modules the layers use imported (the parent's must be
    imported while its files exist)."""
    for name in MODULES:
        importlib.import_module(f"{package}.{name}")
    return importlib.import_module(package)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare against, e.g. HEAD")
    ap.add_argument("--repeats", type=int, default=21, help="interleaved repeats (default 21)")
    ap.add_argument("--sweeps", type=int, default=200,
                    help="sweeps (or spectral samples) per repeat of a layer (default 200)")
    args = ap.parse_args(argv)
    if args.repeats < 1 or args.sweeps < 1:
        ap.error("--repeats and --sweeps must be >= 1")
    from bench_pairs import export, git

    rev = git("rev-parse", "--short", args.parent)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="layer-ab-") as tmp:
        export(rev, Path(tmp) / "parent")
        (Path(tmp) / "parent" / "src" / "gffpin").rename(Path(tmp) / "gffpin_parent")
        sys.path.insert(0, tmp)
        try:
            parent = load("gffpin_parent")
        finally:
            sys.path.remove(tmp)
    tree = load("gffpin")
    if Path(tree.__file__).resolve().parent != ROOT / "src" / "gffpin":
        raise SystemExit(f"the tree's gffpin was not imported from {ROOT / 'src'}")
    results = measure(parent, tree, args.repeats, args.sweeps)
    print(f"parent {rev} against the working tree: process CPU, {args.repeats} interleaved "
          f"repeats, {args.sweeps} sweeps per repeat; ratio = tree / parent, median of the "
          f"repeats, with its quartiles")
    print("BLAS threads: " + ", ".join(f"{var}={os.environ.get(var, 'unset')}"
                                       for var in BLAS_VARS))
    print("\n".join(summary_rows(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
