"""Command line entry point.

    gffpin run <experiment> [--config FILE] [--set key=value]... [--out DIR]
                            [--seed S] [--threads T] [--force]
    gffpin list
    gffpin verify [--out DIR] [--threads T]

`run` executes one registry experiment and persists the resolved config,
JSONL records and CSV tables; `verify` runs the whole acceptance suite and
prints one verdict line per criterion (with --out, each criterion's stamp,
which carries its config, records and tables).  --seed S is short for
--set seed=S, refused where the experiment has no seed.  Every `run` and
`verify` accepts --threads T, which opens an `rng.workers(T)` block: each
replica fan-out goes over T worker processes.  It changes no number and is
recorded nowhere; an experiment with nothing to fan out runs serially.
Before it writes its first result, each command removes the results.jsonl,
config.resolved and CSV tables an earlier command left in --out; a command
refused before that leaves --out as it was.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import config as cfgmod
from . import experiments, io, rng
from .errors import ConfigError, GffpinError


def _resolve_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        cfg.update(cfgmod.parse_config(Path(args.config).read_text(encoding="utf-8")))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        cfg[key.strip()] = cfgmod.parse_value(val)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _outdir(path: str | None, force: bool) -> Path | None:
    """The output directory, refused when nonempty without force; nothing is written."""
    if path is None:
        return None
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(f"output directory {out} is not empty (use --force to reuse)")
    return out


def _clear_outdir(out: Path) -> None:
    """Make the output directory if needed and remove the files an earlier command wrote."""
    out.mkdir(parents=True, exist_ok=True)
    for old in [out / "results.jsonl", out / "config.resolved", *out.glob("*.csv")]:
        old.unlink(missing_ok=True)


def _persist(result: experiments.ExperimentResult, out: Path) -> None:
    """Append the run's stamp and records to results.jsonl and write its tables."""
    stamp = {
        "experiment": result.name,
        "passed": result.passed,
        "wall_time": result.wall_time,
        "git": io.git_describe(),
        "config": result.config,
        "streams": result.streams,
    }
    for rec in [stamp] + list(result.records):
        io.append_jsonl(out / "results.jsonl", rec)
    for name, (header, rows) in result.tables.items():
        io.write_csv(out / f"{name}.csv", header, rows)


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    out = _outdir(args.out, args.force)
    result = experiments.run_experiment(args.experiment, cfg)
    for line in result.lines:
        print(line)
    print(f"{result.name}: wall time {result.wall_time:.1f} s")
    if out is not None:
        _clear_outdir(out)
        (out / "config.resolved").write_text(
            cfgmod.render_config(result.config, header=f"resolved config for {result.name}"),
            encoding="utf-8")
        _persist(result, out)
    return 1 if result.passed is False else 0


def _cmd_list(_args) -> int:
    rows = experiments.list_experiments()
    width = max(len(name) for name, _, _ in rows)
    for name, desc, statement in rows:
        print(f"{name:<{width}}  {desc}")
        print(f"{'':<{width}}  probes: {statement}")
    return 0


def _cmd_verify(args) -> int:
    out = _outdir(args.out, True)
    all_ok = True
    t0 = time.time()
    for k, name in enumerate(experiments.acceptance_names()):
        result = experiments.run_experiment(name)
        ok = bool(result.passed)
        all_ok &= ok
        print(f"criterion {experiments.REGISTRY[name].acceptance:2d} "
              f"[{'PASS' if ok else 'FAIL'}] {name} ({result.wall_time:.1f} s)")
        if not ok:
            for line in result.lines:
                print(f"    {line}")
        if out is not None:
            if k == 0:
                _clear_outdir(out)
            _persist(result, out)
    print(f"acceptance suite: {'PASS' if all_ok else 'FAIL'} "
          f"({time.time() - t0:.1f} s total)")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gffpin", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one named experiment")
    p_run.add_argument("experiment")
    p_run.add_argument("--config", help="flat key = value config file")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_run.add_argument("--out", help="output directory for records and tables")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--force", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.set_defaults(fn=_cmd_list)

    p_ver = sub.add_parser("verify", help="run the full acceptance suite")
    p_ver.add_argument("--out")
    p_ver.set_defaults(fn=_cmd_verify)
    for p in (p_run, p_ver):
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for each replica fan-out (default 1); changes no "
                            "number, is recorded nowhere; nothing to fan out runs serially")

    args = parser.parse_args(argv)
    try:
        with rng.workers(getattr(args, "threads", 1)):
            return args.fn(args)
    except GffpinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
