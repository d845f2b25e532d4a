"""Check that a parent revision and the working tree write the same results.

    python3 tools/same_results.py --parent HEAD thermo-consistency --set replicas=2 --threads 2

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
a refusal on one side only is a difference.  The first difference is printed;
the exit status is 0 only on a full match.
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


def _first_diff(a: str, b: str, width: int = 60) -> str:
    """Where two strings part, with a little context from each."""
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(0, i - width // 2)
    return (f"at character {i}:\n  parent: ...{a[lo:i + width]!r}\n"
            f"  change: ...{b[lo:i + width]!r}")


def compare(parent: Path, change: Path) -> str | None:
    """The first difference between two `gffpin run --out` directories, or None."""
    lines_p = (parent / "results.jsonl").read_text(encoding="utf-8").splitlines()
    lines_c = (change / "results.jsonl").read_text(encoding="utf-8").splitlines()
    stamp_p, stamp_c = json.loads(lines_p[0]), json.loads(lines_c[0])
    for key in sorted((stamp_p.keys() | stamp_c.keys()) - {"wall_time", "git"}):
        if key not in stamp_p or key not in stamp_c:
            side = "parent" if key in stamp_p else "change"
            return f"stamp key {key} is only on the {side} side"
        vp, vc = stamp_p[key], stamp_c[key]
        if vp == vc:
            continue
        if key == "streams":
            k, (sp, sc) = next((k, pair) for k, pair in enumerate(zip_longest(vp, vc))
                               if pair[0] != pair[1])
            return f"stamp streams differ at entry {k}: parent {sp!r}, change {sc!r}"
        return f"stamp {key} differs: parent {vp!r}, change {vc!r}"
    for n, (lp, lc) in enumerate(zip_longest(lines_p[1:], lines_c[1:]), start=2):
        if lp is None or lc is None:
            side = "parent" if lc is None else "change"
            return f"results.jsonl line {n} is only on the {side} side"
        if lp != lc:
            return f"results.jsonl line {n} differs " + _first_diff(lp, lc)
    tables = sorted({p.name for p in parent.glob("*.csv")} | {p.name for p in change.glob("*.csv")})
    for name in tables:
        if not (parent / name).exists() or not (change / name).exists():
            side = "parent" if (parent / name).exists() else "change"
            return f"table {name} is only on the {side} side"
        tp = (parent / name).read_text(encoding="utf-8")
        tc = (change / name).read_text(encoding="utf-8")
        if tp != tc:
            return f"table {name} differs " + _first_diff(tp, tc)
    return None


def compare_printed(parent: str, change: str) -> str | None:
    """The first difference between two runs' standard output, or None; the
    last line, the run's wall time, is left out."""
    lines_p, lines_c = parent.splitlines()[:-1], change.splitlines()[:-1]
    for n, (lp, lc) in enumerate(zip_longest(lines_p, lines_c), start=1):
        if lp is None or lc is None:
            side = "parent" if lc is None else "change"
            return f"printed line {n} is only on the {side} side"
        if lp != lc:
            return f"printed line {n} differs " + _first_diff(lp, lc)
    return None


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("experiment")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE")
    parser.add_argument("--threads", type=int)
    args = parser.parse_args(argv)

    from bench_pairs import export

    with tempfile.TemporaryDirectory(prefix="same-results-") as tmp:
        tmp = Path(tmp)
        export(args.parent, tmp / "parent")
        procs = {}
        for side, root in (("parent", tmp / "parent"), ("change", ROOT)):
            proc = procs[side] = run(root, args, tmp / f"out-{side}")
            print(f"{side}: exit {proc.returncode}")
        if any(proc.returncode not in (0, 1) for proc in procs.values()):
            diff = compare_refusals(procs["parent"], procs["change"])
            if diff:
                print(f"DIFFERENT: {diff}")
                return 1
            print(f"IDENTICAL: both refused with exit {procs['change'].returncode}: "
                  f"{_last_line(procs['change'].stderr)}")
            return 0
        codes = {side: proc.returncode for side, proc in procs.items()}
        diff = (compare(tmp / "out-parent", tmp / "out-change")
                or compare_printed(procs["parent"].stdout, procs["change"].stdout))
        if diff is None and codes["parent"] != codes["change"]:
            diff = f"exit status {codes['parent']} on the parent, {codes['change']} on the change"
        if diff:
            print(f"DIFFERENT: {diff}")
            return 1
        out = tmp / "out-change"
        lines = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
        print(f"IDENTICAL: {len(procs['change'].stdout.splitlines()) - 1} printed lines, "
              f"{len(lines) - 1} result lines, "
              f"{len(json.loads(lines[0])['streams'])} streams, "
              f"{len(list(out.glob('*.csv')))} tables")
        return 0


if __name__ == "__main__":
    sys.exit(main())
