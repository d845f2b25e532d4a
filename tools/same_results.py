"""Check that a parent revision and the working tree write the same results.

    python3 tools/same_results.py --parent HEAD subadditivity --set replicas=2 --threads 2
    python3 tools/same_results.py --parent HEAD --all

--all runs every row of RUNS instead of one experiment: each registered
experiment, at its defaults where those are quick and at a small budget
otherwise, subadditivity and finite-volume-criterion also at --threads 2,
subadditivity also at N = 8, thermo-consistency also at replicas = 1 (its
beta = 0.5 curve then takes its SEs from one replica's ladders),
cluster-probability also at h = -0.2 (where the hit frequency lies strictly
between 0 and 1, so its SE is not 0).  It prints one line per run and exits 0 only
when every run matches.

The parent's committed files are exported (`git archive`, through
bench_pairs.export) into a temporary directory; the working tree runs as it
is, uncommitted changes included.  Both sides run `gffpin run EXPERIMENT`
with the same --set and --threads arguments, each into its own temporary
--out directory.  They must agree on every key of the first results.jsonl
line (the stamp: verdict, config, consumed random streams) except its wall
time and revision, which differ by nature; byte for byte on every later
results.jsonl line and every CSV table; on every printed line but the final
wall-time line; and on the exit status.  Both sides always run: a side that
exits with a status other than 0 or 1 was refused, and two refusals match
when their exit status and the last line of their standard error agree, while
a refusal on one side only is a difference.  Every difference is printed, one
DIFFERENT line each: the stamp's keys one by one, then the results.jsonl lines,
the tables, the printed lines and the exit status.  The exit status is 0 only
on a full match.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (experiment, --set items, --threads) per run of --all; every registered experiment
# appears, at defaults where those are quick
RUNS = [
    ("exact-small-box", [], None),
    ("green-asymptotics", [], None),
    ("f-asymptotics", [], None),
    ("harmonic-extension", [], None),
    ("penalty-cost", [], None),
    ("sampler-exactness", ["samples=20000", "stack_samples=5000"], None),
    ("bridge-lemma", ["bridges=20000"], None),
    ("thermo-consistency", ["N=16", "replicas=2", "sweeps=60", "burn_in=30"], None),
    ("thermo-consistency", ["N=16", "replicas=1", "sweeps=60", "burn_in=30"], None),
    ("massive-comparison", ["N=16", "sweeps=100", "burn_in=50"], None),
    ("density-typicality", ["samples=2000"], None),
    ("extremal-event", ["samples=100"], None),
    ("copolymer", ["N=16", "sweeps=200", "burn_in=50"], None),
    ("subadditivity", ["replicas=2", "sweeps=40", "burn_in=20"], None),
    ("subadditivity", ["replicas=2", "sweeps=40", "burn_in=20"], 2),
    ("subadditivity", ["N=8", "replicas=3", "sweeps=30", "burn_in=20"], None),
    ("pure-free-energy", ["N=16", "sweeps=60", "burn_in=30"], None),
    ("finite-volume-criterion", ["N=16", "replicas=2", "sweeps=40", "burn_in=20"], None),
    ("finite-volume-criterion", ["N=16", "replicas=2", "sweeps=40", "burn_in=20"], 2),
    ("density-calibrate", ["N=64", "samples=300"], None),
    ("wall-restriction", ["N=16", "sweeps=40", "burn_in=20"], None),
    ("contact-statistics", ["N=16", "samples=50"], None),
    ("cluster-probability", ["samples=50", "burn_in=50"], None),
    ("cluster-probability", ["h=-0.2", "samples=50", "burn_in=50"], None),
]


def _first_diff(a: str, b: str, width: int = 60) -> str:
    """Where two strings part, with a little context from each."""
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(0, i - width // 2)
    return (f"at character {i}:\n  parent: ...{a[lo:i + width]!r}\n"
            f"  change: ...{b[lo:i + width]!r}")


def _line_diffs(label: str, lines_p: list[str], lines_c: list[str], start: int) -> list[str]:
    """One difference per line the two sides write unlike, and one for the lines
    that only one side writes; the lines are numbered from start."""
    out = [f"{label} {n} differs " + _first_diff(lp, lc)
           for n, (lp, lc) in enumerate(zip(lines_p, lines_c), start=start) if lp != lc]
    side, extra = ("parent", lines_p) if len(lines_p) > len(lines_c) else ("change", lines_c)
    first, last = start + min(len(lines_p), len(lines_c)), start + len(extra) - 1
    if first == last:
        out.append(f"{label} {first} is only on the {side} side")
    elif first < last:
        out.append(f"{label}s {first}-{last} are only on the {side} side")
    return out


def compare(parent: Path, change: Path) -> list[str]:
    """Every difference between two `gffpin run --out` directories (none on a match):
    the stamp's keys one by one, then the later results.jsonl lines, then the tables."""
    lines_p = (parent / "results.jsonl").read_text(encoding="utf-8").splitlines()
    lines_c = (change / "results.jsonl").read_text(encoding="utf-8").splitlines()
    stamp_p, stamp_c = json.loads(lines_p[0]), json.loads(lines_c[0])
    diffs = []
    for key in sorted((stamp_p.keys() | stamp_c.keys()) - {"wall_time", "git"}):
        if key not in stamp_p or key not in stamp_c:
            side = "parent" if key in stamp_p else "change"
            diffs.append(f"stamp key {key} is only on the {side} side")
            continue
        vp, vc = stamp_p[key], stamp_c[key]
        if vp == vc:
            continue
        if key == "streams":
            k, (sp, sc) = next((k, pair) for k, pair in enumerate(zip_longest(vp, vc))
                               if pair[0] != pair[1])
            diffs.append(f"stamp streams differ at entry {k}: parent {sp!r}, change {sc!r}")
        else:
            diffs.append(f"stamp {key} differs: parent {vp!r}, change {vc!r}")
    diffs += _line_diffs("results.jsonl line", lines_p[1:], lines_c[1:], start=2)
    tables = sorted({p.name for p in parent.glob("*.csv")} | {p.name for p in change.glob("*.csv")})
    for name in tables:
        if not (parent / name).exists() or not (change / name).exists():
            side = "parent" if (parent / name).exists() else "change"
            diffs.append(f"table {name} is only on the {side} side")
            continue
        tp = (parent / name).read_text(encoding="utf-8")
        tc = (change / name).read_text(encoding="utf-8")
        if tp != tc:
            diffs.append(f"table {name} differs " + _first_diff(tp, tc))
    return diffs


def compare_printed(parent: str, change: str) -> list[str]:
    """Every difference between two runs' standard output (none on a match); the
    last line, the run's wall time, is left out."""
    return _line_diffs("printed line", parent.splitlines()[:-1], change.splitlines()[:-1],
                       start=1)


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def compare_refusals(parent: subprocess.CompletedProcess,
                     change: subprocess.CompletedProcess) -> str | None:
    """None when both runs were refused alike (the same exit status and the same
    last line of standard error), else the difference; for runs of which at
    least one was refused (exit status other than 0 or 1)."""
    exits = f"exit {parent.returncode} on the parent, {change.returncode} on the change"
    if parent.returncode in (0, 1) or change.returncode in (0, 1):
        side = "change" if parent.returncode in (0, 1) else "parent"
        return f"only the {side} side was refused: {exits}"
    if parent.returncode != change.returncode:
        return f"both refused, with {exits}"
    err_p, err_c = _last_line(parent.stderr), _last_line(change.stderr)
    if err_p != err_c:
        return f"refused with another message:\n  parent: {err_p!r}\n  change: {err_c!r}"
    return None


def run(root: Path, args, out: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "gffpin.cli", "run", args.experiment, "--out", str(out)]
    for item in args.set or []:
        cmd += ["--set", item]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)


def check(parent_root: Path, args, tmp: Path) -> tuple[bool, str]:
    """Run args.experiment on both sides into tmp; whether they match, and the
    IDENTICAL line or the DIFFERENT lines, one per difference, that say so."""
    procs = {side: run(root, args, tmp / f"out-{side}")
             for side, root in (("parent", parent_root), ("change", ROOT))}
    if any(proc.returncode not in (0, 1) for proc in procs.values()):
        diff = compare_refusals(procs["parent"], procs["change"])
        if diff:
            return False, f"DIFFERENT: {diff}"
        return True, (f"IDENTICAL: both refused with exit {procs['change'].returncode}: "
                      f"{_last_line(procs['change'].stderr)}")
    codes = {side: proc.returncode for side, proc in procs.items()}
    diffs = (compare(tmp / "out-parent", tmp / "out-change")
             + compare_printed(procs["parent"].stdout, procs["change"].stdout))
    if codes["parent"] != codes["change"]:
        diffs.append(f"exit status {codes['parent']} on the parent, "
                     f"{codes['change']} on the change")
    if diffs:
        return False, "\n".join(f"DIFFERENT: {diff}" for diff in diffs)
    out = tmp / "out-change"
    lines = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
    return True, (f"IDENTICAL: exit {codes['change']}, "
                  f"{len(procs['change'].stdout.splitlines()) - 1} printed lines, "
                  f"{len(lines) - 1} result lines, "
                  f"{len(json.loads(lines[0])['streams'])} streams, "
                  f"{len(list(out.glob('*.csv')))} tables")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("experiment", nargs="?")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--all", action="store_true", help="run every row of RUNS")
    args = parser.parse_args(argv)
    if args.all == (args.experiment is not None):
        parser.error("name one experiment or pass --all")
    if args.all and (args.set or args.threads is not None):
        parser.error("--all takes its settings from RUNS")

    from bench_pairs import export

    with tempfile.TemporaryDirectory(prefix="same-results-") as tmp:
        tmp = Path(tmp)
        export(args.parent, tmp / "parent")
        if not args.all:
            ok, line = check(tmp / "parent", args, tmp)
            print(line)
            return 0 if ok else 1
        results = []
        for k, (experiment, sets, threads) in enumerate(RUNS):
            label = " ".join([experiment] + [f"--set {item}" for item in sets]
                             + [f"--threads {threads}"] * (threads is not None))
            run_dir = tmp / f"run-{k}"
            run_dir.mkdir()
            ok, line = check(tmp / "parent", argparse.Namespace(
                experiment=experiment, set=sets, threads=threads), run_dir)
            results.append(ok)
            flat = "; ".join(part.strip() for part in line.splitlines())  # one line per run
            print(f"{label}: {flat}", flush=True)
        print(f"{sum(results)} of {len(results)} runs identical")
        return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
