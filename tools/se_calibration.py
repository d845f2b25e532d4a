"""Check a stated standard error against the spread of its estimate over seeds.

    python3 tools/se_calibration.py h-leg --seeds 60
    python3 tools/se_calibration.py coupling --seeds 40 --set beta=0.5 --set h=2

ESTIMATOR names an entry of ESTIMATORS: a library call that returns, under one
chain seed, an estimate, its stated SE and the exact value it estimates.  Both
entries run at N = 2, the one box that pinning.exact_partition_small solves:

  h-leg     freeenergy.ti_log_partition on `points` evenly spaced points from
            h = 0 to h; the estimate is log Z(h) - log Z(0)
  coupling  freeenergy.coupling_log_z at (beta, h, m); the estimate is log Z

The disorder is one draw (stream omega_seed) for every seed, and seed s =
0 .. S-1 drives the chain alone.  --set key=value changes an entry's defaults.
One row is printed: the SD about 0 of z = (estimate - exact) / SE over the S
seeds, with its 90 % interval from the chi-square law of S sd(z)^2 / sd^2 on
S degrees of freedom; SD(estimates) / RMS(SE), the spread of the estimates
(ddof 1) over the spread their SEs state; the median SE; and "ok" when the
interval holds 1, "FLAG" when it does not.  The exit status is 0 on ok, 1 on
FLAG.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import stats

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gffpin import disorder, freeenergy, lattice, pinning, rng  # noqa: E402
from gffpin.config import parse_value  # noqa: E402


def _box(cfg: dict):
    """The N = 2 box, its disorder draw and the parameters at h = 0."""
    geom = lattice.build_box(2)
    omega = disorder.sample_disorder(geom, disorder.GAUSSIAN,
                                     rng.stream(cfg["omega_seed"], "se-calibration", "omega"))
    return geom, omega, pinning.PinningParams(beta=cfg["beta"], m=cfg["m"])


def h_leg(cfg: dict, seed: int) -> tuple[float, float, float]:
    geom, omega, params = _box(cfg)
    leg = freeenergy.ti_log_partition(geom, params, omega,
                                      rng.stream(seed, "se-calibration", "chain"),
                                      np.linspace(0.0, cfg["h"], cfg["points"]),
                                      cfg["sweeps"], cfg["burn_in"])
    exact = (pinning.exact_partition_small(geom, replace(params, h=cfg["h"]), omega)
             - pinning.exact_partition_small(geom, params, omega))
    return float(leg.log_z[-1]), float(leg.log_z_se[-1]), exact


def coupling(cfg: dict, seed: int) -> tuple[float, float, float]:
    geom, omega, params = _box(cfg)
    params = replace(params, h=cfg["h"])
    value, se = freeenergy.coupling_log_z(geom, params, omega,
                                          rng.stream(seed, "se-calibration", "chain"),
                                          cfg["sweeps"], cfg["burn_in"])
    return value, se, pinning.exact_partition_small(geom, params, omega)


# name -> (defaults, estimator(cfg, seed) -> (estimate, se, exact))
ESTIMATORS = {
    "h-leg": ({"beta": 0.0, "h": 1.0, "m": 0.0, "points": 11, "sweeps": 200, "burn_in": 50,
               "omega_seed": 0}, h_leg),
    "coupling": ({"beta": 0.5, "h": 0.3, "m": 0.0, "sweeps": 200, "burn_in": 50,
                  "omega_seed": 0}, coupling),
}


def calibrate(estimator, cfg: dict, seeds: int) -> dict:
    """The row's columns for `estimator` run at cfg under seeds 0 .. seeds-1."""
    value, se, exact = np.array([estimator(cfg, s) for s in range(seeds)]).T
    with np.errstate(divide="ignore"):  # an SE of 0 (a constant series) reads z = inf
        sd_z = math.sqrt(float(np.mean(((value - exact) / se) ** 2)))
    lo, hi = sd_z * np.sqrt(seeds / stats.chi2.ppf([0.95, 0.05], seeds))
    return {"sd_z": sd_z, "interval": (float(lo), float(hi)),
            "spread_ratio": float(value.std(ddof=1) / math.sqrt(float(np.mean(se ** 2)))),
            "median_se": float(np.median(se)), "ok": bool(lo <= 1.0 <= hi)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("estimator", choices=sorted(ESTIMATORS))
    parser.add_argument("--seeds", type=int, required=True, help="number of chain seeds, >= 2")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    defaults, estimator = ESTIMATORS[args.estimator]
    cfg = dict(defaults)
    for item in args.set:
        key, _, text = item.partition("=")
        if key not in defaults:
            parser.error(f"{args.estimator} has no setting {key!r} (settings: "
                         f"{', '.join(sorted(defaults))})")
        cfg[key] = parse_value(text)
    if args.seeds < 2:
        parser.error(f"--seeds must be >= 2 (got {args.seeds})")
    row = calibrate(estimator, cfg, args.seeds)
    print(f"{args.estimator} at N = 2, " + ", ".join(f"{k}={v}" for k, v in sorted(cfg.items())))
    print(f"{'seeds':>5}  {'sd(z)':>6}  {'90% interval':>14}  {'sd/rms(se)':>10}  "
          f"{'median se':>10}  verdict")
    print(f"{args.seeds:>5}  {row['sd_z']:>6.3f}  [{row['interval'][0]:5.3f}, "
          f"{row['interval'][1]:5.3f}]  {row['spread_ratio']:>10.3f}  {row['median_se']:>10.3g}  "
          f"{'ok' if row['ok'] else 'FLAG'}")
    return 0 if row["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
