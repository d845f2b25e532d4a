"""Paired benchmark runs of a parent revision and of the working tree.

    python3 tools/bench_pairs.py --parent HEAD --pr 3 --workload doubling --seeds 41-50
    python3 tools/bench_pairs.py --parent HEAD --pr 3 --workload doubling --seeds 3 --trace 1
    python3 tools/bench_pairs.py --parent HEAD --pr 4 --workload samplers,mixing --seeds 81-85

The parent's committed files are exported (`git archive`) into a temporary
directory; the working tree runs as it is, uncommitted changes included.
For each workload (a comma list runs them one after the other) and seed the
two sides run `perfbench/run.py` once each with the same arguments, and the
side that runs first alternates from seed to seed, so a drift in the
machine's speed falls on both.  The result goes to BENCH_<pr>.json at the
repository root, under the workload (suffixed "/trace1" for traced runs),
replacing an earlier entry of the same name: every run's result and run
information, and per metric each side's quartiles, the ratio of the medians,
the number of pairs the change wins (ties count for neither side; the
direction comes from BENCHMARK.json) and whether the medians differ by more
than the parent's interquartile range; per end-to-end metric also its
"bound" and the no-regression rule, under "worse_beyond_bound": "yes" where
the change's median is worse than the parent's by more than the metric's
bound in BENCHMARK.json (a fraction of the parent's median), "no" where it is
not, and "unresolved" where the parent's interquartile range is wider than
the bound, so the runs cannot tell, unless every run of the change reads
better than every run of the parent; under "failed_share", each side's failed
and attempted operations summed over its runs; under "raw", each side's
median over runs of every run's median raw pass wall time, pass CPU time,
reference speed factor and raw set-up time (these are not metrics: they tell
a change in the reference speed, which rescales every reference-second
metric, from a change in the code's own time).  The summary is also printed,
one row per metric (the no-regression rule under worse>bound), then the raw
rows.  Nothing under perfbench/ is written to.  Where git cannot resolve or
export the parent (no checkout, an unknown revision) the tool exits 2 with
one error: line, as tools/layer_ab.py and tools/same_results.py do through
git and export here.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'41-50' or '3,7,9' (or a mix) as a list of seeds; a range that runs backwards
    is refused, so the list is never empty."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        if int(hi or lo) < int(lo):
            raise argparse.ArgumentTypeError(f"seed range {part!r} runs backwards")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run_git(*args: str) -> bytes:
    """git's standard output, run on the repository; where git fails (no checkout,
    an unknown revision, no git at all) the tool exits 2 with one error: line."""
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        err = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()
        reason = err.splitlines()[-1] if err else str(exc)
        print(f"error: git {' '.join(args)} in {ROOT}: {reason}", file=sys.stderr)
        raise SystemExit(2) from None


def git(*args: str) -> str:
    return _run_git(*args).decode().strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of `rev`, unpacked into dest."""
    with tarfile.open(fileobj=io.BytesIO(_run_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def parse_workloads(text: str) -> list[str]:
    """'samplers,mixing' as a list of workload names declared in BENCHMARK.json."""
    known = [w["name"] for w in benchmark()["workloads"]]
    names = text.split(",")
    unknown = [n for n in names if n not in known]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown workload {unknown}; choose from {known}")
    return names


def run_once(root: Path, args, workload: str, seed: int, out: Path) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(out.read_text())


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def directions() -> dict[str, str]:
    bench = benchmark()
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def worse_beyond_bound(sign: float, parent: np.ndarray, change: np.ndarray,
                       bound: float) -> str:
    """The no-regression rule on the two sides' runs, sign +1 where higher is better
    and -1 where lower is: "yes" or "no" as the change's median is worse than the
    parent's by more than bound * |parent median|, or "unresolved" where the parent's
    interquartile range is wider than that, unless every run of the change reads
    better than every run of the parent ("no")."""
    q25, q50, q75 = np.percentile(parent, [25, 50, 75])
    allowed = bound * abs(q50)
    if q75 - q25 > allowed:
        return "no" if np.min(sign * change) > np.max(sign * parent) else "unresolved"
    return "yes" if sign * (q50 - np.median(change)) > allowed else "no"


def failed_share(runs: list[dict]) -> dict:
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    return {"failed": failed, "attempted": attempted,
            "share": failed / attempted if attempted else 0.0}


RAW = ("pass_wall_s", "pass_cpu_s", "pass_speed", "raw_setup_probe_s")


def raw_medians(runs: list[dict]) -> dict:
    """Per RAW key of the run information, the median over runs of each run's
    median; None where no run recorded a value (traced runs take no set-up probe)."""
    out = {}
    for key in RAW:
        per_run = [float(np.median(r["info"][key])) for r in runs if r["info"][key]]
        out[key] = float(np.median(per_run)) if per_run else None
    return out


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Per metric, the comparison of the two sides; under "failed_share", their op
    counts; under "raw", their raw_medians."""
    better = directions()
    bound = {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}
    out = {}
    for name in parent[0]["result"]["metrics"]:
        a = np.array([r["result"]["metrics"][name]["value"] for r in parent])
        b = np.array([r["result"]["metrics"][name]["value"] for r in change])
        qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        entry = {"parent_quartiles": qa.tolist(), "change_quartiles": qb.tolist(),
                 "change_over_parent_median": float(qb[1] / qa[1]) if qa[1] else None,
                 "pairs": len(a)}
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            entry["change_wins"] = int(np.sum(sign * (b - a) > 0))
            entry["parent_wins"] = int(np.sum(sign * (b - a) < 0))
            entry["median_gap_exceeds_parent_iqr"] = bool(abs(qb[1] - qa[1]) > qa[2] - qa[0])
            if name in bound:
                entry["bound"] = bound[name]
                entry["worse_beyond_bound"] = worse_beyond_bound(sign, a, b, bound[name])
        out[name] = entry
    out["failed_share"] = {"parent": failed_share(parent), "change": failed_share(change)}
    out["raw"] = {"parent": raw_medians(parent), "change": raw_medians(change)}
    return out


def summary_rows(summary: dict) -> list[str]:
    """The summary as text: a header, one row per metric, one per raw median, then the
    failed operations."""
    rows = [f"{'metric':<50} {'parent':>12} {'change':>12} {'ratio':>7} {'worse>bound':>11} "
            f"{'wins':>6}  gap>IQR"]
    for name, e in summary.items():
        if name in ("failed_share", "raw"):
            continue
        ratio = e["change_over_parent_median"]
        wins = f"{e['change_wins']}/{e['pairs']}" if "change_wins" in e else "-"
        gap = {True: "yes", False: "no"}.get(e.get("median_gap_exceeds_parent_iqr"), "-")
        rows.append(f"{name:<50} {e['parent_quartiles'][1]:>12.6g} {e['change_quartiles'][1]:>12.6g} "
                    f"{'-' if ratio is None else f'{ratio:.3f}':>7} "
                    f"{e.get('worse_beyond_bound', '-'):>11} {wins:>6}  {gap}")
    for key in RAW:
        a, b = summary["raw"]["parent"][key], summary["raw"]["change"][key]
        if a is not None and b is not None:
            rows.append(f"{f'raw {key} (not a metric)':<50} {a:>12.6g} {b:>12.6g} {b / a:>7.3f}")
    ops = {side: f"{s['failed']}/{s['attempted']}"
           for side, s in summary["failed_share"].items()}
    rows.append(f"{'failed/attempted ops':<50} {ops['parent']:>12} {ops['change']:>12}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare against, e.g. HEAD")
    ap.add_argument("--pr", required=True, help="suffix of the output file BENCH_<pr>.json")
    ap.add_argument("--workload", required=True, type=parse_workloads,
                    help="a workload of BENCHMARK.json, or a comma list of them")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 41-50 or 3,5")
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    parent_rev = git("rev-parse", "--short", args.parent)
    path = ROOT / f"BENCH_{args.pr}.json"
    tables = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = Path(tmp)
        export(parent_rev, tmp / "parent")
        sides = {"parent": tmp / "parent", "change": ROOT}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    res = run_once(sides[side], args, workload, seed,
                                   tmp / f"{side}_{workload}_{seed}.json")
                    runs[side].append(res)
                    wall = res["result"]["metrics"].get("wall_s", {}).get("value")
                    print(f"{workload} seed {seed} {side}: wall_s {wall}", flush=True)
            key = workload + ("/trace1" if args.trace else "")
            summary = summarize(runs["parent"], runs["change"])
            write_entry(path, key, parent_rev, args, summary, runs)
            tables.append((key, summary_rows(summary)))

    for key, rows in tables:
        print(f"\n[{key}] parent {parent_rev}, medians over {len(args.seeds)} pairs")
        print("\n".join(rows))
    print(f"wrote {path.name}")
    return 0


def write_entry(path: Path, key: str, parent_rev: str, args, summary: dict, runs: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["description"] = (
        "perfbench/run.py, paired runs of a parent revision (its committed files) and of this "
        "change, alternating which side runs first (tools/bench_pairs.py). Times are reference "
        "seconds (perfbench/reference.py).")
    doc["command"] = ("python3 perfbench/run.py --workload W --seed S --seconds X --trace T "
                      "--out FILE")
    doc.setdefault("workloads", {})[key] = {
        "parent": parent_rev, "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
        "first": ["parent" if i % 2 == 0 else "change" for i in range(len(args.seeds))],
        "summary": summary, "runs": runs}
    doc["provenance"] = {"python": platform.python_version(), "machine": platform.machine(),
                         "processor": platform.processor(),
                         "change": git("describe", "--always", "--dirty")}
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
