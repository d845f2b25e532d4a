"""gffpin benchmark: one workload, one run, every metric with its unit.

    python3 perfbench/run.py --workload mixing --seed 1 --seconds 20 --trace 0
    python3 -m pytest perfbench/tests          # the benchmark's own tests

A run sets the workload up (imports, inputs, lazy caches), then repeats
passes of fixed work; the budget grows with --seconds and is the same on
every commit.  With --trace 0 it reports the end-to-end metrics, measured
with tracing off; set-up is timed in three fresh interpreters and reported
as their median.  With --trace 1 it makes half as many untraced passes, then
a quarter as many traced ones, and reports the per-layer metrics, including
the tracing overhead; the spans go to .perfbench_out/.

Times are in reference seconds (see reference.py): each pass is scaled by
the speed of a fixed loop timed right before and after it, which cancels the
slowdowns that other load on a shared machine imposes on both.  The raw
times are kept in the --out file, which also holds the checks, the stream
ids and the provenance.

Every output is checked; a failed check or an exception counts its
operations as failed.  The last line of standard output is the result as one
JSON object and the lines before it are a readable table.  The exit code is
0 whenever the run completed, also when a check failed ("correct": false).
The benchmark imports gffpin only from src/ beside this directory; without
it the run stops at once with exit code 2.
"""

from __future__ import annotations

import os

# one BLAS thread: every run is a plain single-threaded baseline
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3
SETUP_REF_UNITS = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("mixing", "doubling", "samplers"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the full result as JSON here")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 0 < args.seconds <= 600:
        ap.error("--seconds must lie in (0, 600]")
    return args


def import_library():
    """Put src/ first on the path and check gffpin really comes from there."""
    if not (SRC / "gffpin" / "__init__.py").is_file():
        print(f"error: no gffpin sources at {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import gffpin

    if not Path(gffpin.__file__).resolve().is_relative_to(SRC):
        print(f"error: gffpin was imported from {gffpin.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def probe_setup(args) -> None:
    """Fresh-interpreter set-up: imports, inputs and lazy caches, timed."""
    t0 = time.perf_counter()
    import_library()
    import workloads
    from gffpin import rng as rngmod

    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    with rngmod.audit_streams() as audit:
        inputs = wl.setup()
    setup_s = time.perf_counter() - t0
    import reference  # after the timing: numpy and scipy are loaded by now

    reference.warm_up()
    speed = reference.UNIT_S * SETUP_REF_UNITS / reference.measure(SETUP_REF_UNITS)[0]
    print(json.dumps({"setup_s": setup_s * speed, "raw_setup_s": setup_s, "inputs": inputs,
                      "streams": audit.consumed}))


def setup_probes(args) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, else the pinned setting."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_describe": git_describe(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(wall: float, cpu: float, setup_s: float, taus: dict,
                       passes: int) -> dict:
    """The untraced metrics; effective samples per pass over the median pass's CPU time,
    both times in reference seconds."""
    def ess_rate(key):
        return taus[key].ess / passes / cpu if key in taus else 0.0

    return {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ess_L_per_cpu_s": metric(ess_rate("L"), "1/s"),
        "ess_energy_per_cpu_s": metric(ess_rate("energy"), "1/s"),
    }


def layer_metrics(spans, traced: list, wall_untraced: float, taus: dict, thinning: int) -> dict:
    """Per-layer metrics of the traced passes, per pass."""
    st = spans.self_s()
    passes = len(traced)
    wall_traced = statistics.median(r.ref_wall_s for r in traced)

    def self_s(name):
        return metric(spans.total_self_s(name, st) / passes, "s")

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    hb = "pinning.heat_bath_sweep"
    sbc = "pinning.sample_banded_conditional"
    out = {
        "pinning.sweeps": metric(spans.count(hb, "sweeps") / passes, "count"),
        "pinning.site_update_ns": metric(ratio(spans.total_s(hb), spans.count(hb, "sites"), 1e9), "ns"),
    }
    for n in (16, 32):
        at_n = lambda c, n=n: c.get("N") == n  # noqa: E731
        t, sweeps = spans.total_s_where(hb, at_n), spans.count(hb, "sweeps", at_n)
        out[f"pinning.site_update_ns.N{n}"] = metric(ratio(t, spans.count(hb, "sites", at_n), 1e9), "ns")
        out[f"pinning.sweep_ms.N{n}"] = metric(ratio(t, sweeps, 1e3), "ms")
    out[f"{sbc}.self_s"] = self_s(sbc)
    out[f"{sbc}.calls"] = metric(spans.calls(sbc) / passes, "count")
    out["pinning.sites_per_call"] = metric(ratio(spans.count(sbc, "sites"), spans.calls(sbc)), "count")
    out["pinning.run_chain.calls"] = metric(spans.calls("pinning.run_chain") / passes, "count")
    out["pinning.run_chain.self_s"] = self_s("pinning.run_chain")
    for key in ("L", "energy"):  # 0 where the workload runs no chain
        tau = taus.get(key) if out["pinning.sweeps"]["value"] else None
        out[f"pinning.tau_{key}_sweeps"] = metric(tau.tau * thinning if tau else 0.0, "sweeps")
    for name in ("freeenergy.coupling_log_z", "freeenergy.ti_log_partition",
                 "freeenergy.doubling_gap", "fields.harmonic_extension",
                 "fields.sample_boundary_infinite_massive"):
        out[f"{name}.self_s"] = self_s(name)
    sdi = "fields.sample_dirichlet_interior"
    out[f"{sdi}.samples_per_s"] = metric(ratio(spans.count(sdi, "samples"), spans.total_s(sdi)), "1/s")
    for name, key in (("fields.sample_scale_stack", "ms_per_sample"),
                      ("fields.stack_barrier_margin", "ms_per_call")):
        out[f"{name}.{key}"] = metric(ratio(spans.total_s(name), spans.calls(name), 1e3), "ms")
    bpp = "fields.bridge_positivity_probability"
    out[f"{bpp}.steps_per_s"] = metric(ratio(spans.count(bpp, "steps"), spans.total_s(bpp)), "1/s")
    out["kernels.dst2.calls"] = metric(spans.calls("kernels.dst2") / passes, "count")
    out["kernels.dst2.self_s"] = self_s("kernels.dst2")
    out["kernels.dst2.bytes_computed"] = metric(spans.count("kernels.dst2", "bytes") / passes, "B")
    for name in ("kernels.slice_mode_weights", "lattice.scale_index", "kernels.green_dirichlet",
                 "kernels.green_dirichlet_solve", "kernels.green_dirichlet_diag",
                 "kernels.green_offset_table", "kernels.f_of_m", "disorder.penalty_f",
                 "disorder.sample_disorder", "lattice.build_box"):
        out[f"{name}.self_s"] = self_s(name)
    out["trace.coverage"] = metric(ratio(spans.top_level_s(), sum(r.wall_s for r in traced)),
                                   "fraction")
    out["trace.overhead_frac"] = metric(wall_traced / wall_untraced - 1.0, "fraction")
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def measure(wl, indices, ticks: bool = True) -> list:
    """Run the passes with these indices, checking each output after its timing.

    Every pass carries the machine's speed over it, from the reference loop;
    traced passes sample it only around the pass, so no span contains it.
    """
    import reference
    import workloads

    results = []
    for index in indices:
        res = workloads.timed_pass(wl, index, reference.Speedometer(ticks))
        if res.error:
            wl.check(f"pass raised {res.error}", False, wl.ops)
        else:
            wl.after_pass()
            wl.check_streams(index, res.streams)
        results.append(res)
    return results


def run(args) -> dict:
    import_library()
    import reference
    import tracing
    import workloads
    from gffpin import rng as rngmod

    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    probes = [] if args.trace else setup_probes(args)
    setup_tracer = tracing.Tracer()
    with rngmod.audit_streams() as audit:
        if args.trace:
            with tracing.instrument(setup_tracer):
                inputs = wl.setup()
        else:
            inputs = wl.setup()
    setup_streams = list(audit.consumed)
    reference.warm_up()
    t0 = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - t0

    # a traced run makes half the untraced passes, then a quarter as many traced ones
    n_untraced = max(2, wl.passes // 2) if args.trace else wl.passes
    untraced = measure(wl, range(n_untraced))
    traced, tracer = [], tracing.Tracer()
    if args.trace:
        with tracing.instrument(tracer):
            traced = measure(wl, range(n_untraced, n_untraced + max(1, wl.passes // 4)),
                             ticks=False)
    passes = untraced + traced
    ok_untraced = [r for r in untraced if not r.error]
    ok_traced = [r for r in traced if not r.error]
    if not ok_untraced or (args.trace and not ok_traced):
        sys.exit("error: every pass raised: " + "; ".join(r.error for r in passes if r.error))
    wl.finish()

    # inputs: identical in every set-up and pass, and drawn from their own streams
    input_ids = {tuple(workloads.input_streams(p["streams"])) for p in probes}
    input_ids.add(tuple(workloads.input_streams(setup_streams)))
    digests = {p["inputs"] for p in probes} | {inputs}
    wl.check("set-up inputs identical in every set-up", len(input_ids) == 1 and len(digests) == 1,
             wl.ops * len(passes), f"{len(input_ids)} input stream set(s), {len(digests)} digest(s)")
    try:
        taus = wl.iact()
    except ValueError as exc:  # no Sokal window: the chains are too short to judge
        wl.check(f"IACT estimate ({exc})", False, wl.ops * len(passes))
        taus = {}
    checks = wl.checks
    attempted = wl.ops * len(passes) + wl.extra_ops
    failed = min(attempted, sum(c.ops for c in checks if not c.ok))

    # times in reference seconds: each pass scaled by the machine's speed around it
    wall = statistics.median(r.ref_wall_s for r in ok_untraced)
    cpu = statistics.median(r.ref_cpu_s for r in ok_untraced)
    if args.trace:
        metrics = layer_metrics(tracer.spans(), ok_traced, wall, taus, wl.thinning)
        setup_spans = setup_tracer.spans()
        for name in ("lattice.build_box", "disorder.sample_disorder"):
            metrics[f"{name}.self_s"]["value"] += setup_spans.total_self_s(name)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans_{args.workload}.csv")
        setup_tracer.write(OUT_DIR / f"spans_{args.workload}_setup.csv")
    else:
        metrics = end_to_end_metrics(wall, cpu, statistics.median(p["setup_s"] for p in probes),
                                     taus, wl.passes_done)
    summary = {}
    for c in checks:
        ok, n, detail = summary.get(c.name, (True, 0, ""))
        summary[c.name] = (ok and c.ok, n + 1, detail if not ok else c.detail)
    by_chain = {}
    if hasattr(wl, "by_chain") and taus:
        by_chain = {k: [e / (wl.passes_done * cpu / wl.chains) for e in v]
                    for k, v in wl.by_chain().items()}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "pass_wall_s": [r.wall_s for r in untraced], "pass_cpu_s": [r.cpu_s for r in untraced],
        "pass_speed": [r.speed_wall for r in untraced],
        "traced_pass_wall_s": [r.wall_s for r in traced],
        "traced_pass_speed": [r.speed_wall for r in traced],
        "prepare_s": prepare_s,
        "setup_probe_s": [p["setup_s"] for p in probes],
        "raw_setup_probe_s": [p["raw_setup_s"] for p in probes],
        "iact_records": {k: {"tau": v.tau, "window": v.window, "samples": v.samples}
                         for k, v in taus.items()},
        "ess_per_cpu_s_by_chain_seed": by_chain,
        "input_streams": sorted({s for ids in input_ids for s in ids}),
        "pass_input_streams": sorted({s for r in passes for s in workloads.input_streams(r.streams)}),
        "checks": [{"name": k, "ok": ok, "times": n, "detail": d}
                   for k, (ok, n, d) in summary.items()],
        "wall_s_untraced": wall,
        "wall_s_traced": statistics.median(r.ref_wall_s for r in ok_traced) if traced else None,
        "spans": len(tracer.names),
        "provenance": provenance(),
    }
    return {"result": {"correct": all(c.ok for c in checks), "attempted": attempted,
                       "failed": failed, "metrics": metrics}, "info": info}


def report(res: dict) -> None:
    info, result = res["info"], res["result"]
    print(f"gffpin benchmark: workload {info['workload']}, seed {info['seed']}, "
          f"{info['seconds']:g} s, trace {info['trace']}, {info['passes']} pass(es)")
    for key, val in info["provenance"].items():
        print(f"  {key:<14} {val}")
    for c in info["checks"]:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']} (x{c['times']})"
              + (f": {c['detail']}" if c["detail"] else ""))
    for key, vals in info["ess_per_cpu_s_by_chain_seed"].items():
        print(f"  ess_{key}_per_cpu_s by chain seed: " + ", ".join(f"{v:.1f}" for v in vals))
    if info["wall_s_traced"] is not None:
        print(f"  wall_s untraced {info['wall_s_untraced']:.4f}, traced {info['wall_s_traced']:.4f} "
              "(reference s)")
    for name, m in result["metrics"].items():
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']}")
    print(f"  ops {result['attempted']}, failed {result['failed']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    res = run(args)
    report(res)
    if args.out:
        args.out.write_text(json.dumps(res, indent=1, default=str))
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
