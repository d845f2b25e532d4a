import importlib.util
import math
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "se_calibration.py"
_spec = importlib.util.spec_from_file_location("se_calibration", _PATH)
se_calibration = importlib.util.module_from_spec(_spec)
sys.modules["se_calibration"] = se_calibration  # so that worker processes find its estimators
_spec.loader.exec_module(se_calibration)

# h from 0 down to -1, where the contact varies: 22 of the 30 seeds state an SE, against 2 of
# 30 on the default h = 1, where a ladder point often holds a contact at every record
_CHEAP = ["--seeds", "30", "--set", "h=-1", "--set", "points=5", "--set", "sweeps=100",
          "--set", "burn_in=20"]


def test_h_leg_se_is_calibrated_against_the_exact_value():
    # 11 points over [0, 1] at N = 2: the trapezoid weights of interior points count twice
    # the weight of an end point, so an SE that sums segments as independent reads
    # sd(z) near 1.4 here
    defaults, h_leg = se_calibration.ESTIMATORS["h-leg"]
    assert (defaults["h"], defaults["points"], defaults["sweeps"]) == (1.0, 11, 200)
    row = se_calibration.calibrate(h_leg, defaults, 60)
    assert 0.8 <= row["sd_z"] <= 1.25, row


def test_a_ladder_that_never_varies_states_no_error_bar():
    # h = 60 on 3 points: at h = 30 and 60 a contact weighs e^30 and more, so once in the
    # band (the 20 warm-start sweeps make 10 independence proposals, each in the band with
    # probability 0.95) the site leaves it with probability below 1e-14 per sweep.  Those two
    # points' series never vary, and the ladder states se inf whatever the seed; its value
    # is the trapezoid 15 (p0 + 1) + 30, p0 the h = 0 point's contact fraction
    defaults, h_leg = se_calibration.ESTIMATORS["h-leg"]
    for seed in range(3):
        value, se, exact = h_leg({**defaults, "h": 60.0, "points": 3, "sweeps": 100,
                                  "burn_in": 60}, seed)
        assert se == math.inf and 45.0 <= value <= 60.0, (seed, value, se)
        assert exact == pytest.approx(60.0 + math.log(math.erf(2.0 / math.sqrt(2.0))), abs=1e-9)


def test_a_halved_se_is_flagged(monkeypatch, capsys):
    defaults, h_leg = se_calibration.ESTIMATORS["h-leg"]

    def halved(cfg, seed):
        value, se, exact = h_leg(cfg, seed)
        return value, se / 2, exact

    monkeypatch.setitem(se_calibration.ESTIMATORS, "halved", (defaults, halved))
    assert se_calibration.main(["h-leg"] + _CHEAP) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("  ok")
    assert se_calibration.main(["halved"] + _CHEAP) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("  FLAG")


def _columns(row: str) -> list[str]:
    return row.replace("[", "").replace(",", "").replace("]", "").split()


def test_a_tiny_budget_prints_every_column(capsys):
    # 10 records per ladder point: the one site's contact holds at every record of some point
    # in every seed, so every ladder states se inf, and no seed is left to check
    assert se_calibration.main(["coupling", "--seeds", "3", "--set", "sweeps=20",
                                "--set", "burn_in=4"]) == 1
    settings, header, row = capsys.readouterr().out.splitlines()
    assert settings.startswith("coupling at N = 2, beta=0.5, burn_in=4, h=0.3")
    assert settings.endswith("; 3 of 3 seeds state se inf, left out")
    assert header.split() == ["seeds", "sd(z)", "90%", "interval", "sd/rms(se)", "median",
                              "se", "verdict"]
    assert _columns(row) == ["0", "nan", "nan", "nan", "nan", "nan", "FLAG"]


def test_a_row_over_stated_ses_prints_every_column(capsys):
    # h from 0 down to -1: the contact varies at every point, so every seed states an SE
    se_calibration.main(["h-leg", "--seeds", "3", "--set", "h=-1", "--set", "points=3"])
    settings, header, row = capsys.readouterr().out.splitlines()
    assert settings == ("h-leg at N = 2, beta=0.0, burn_in=50, h=-1, m=0.0, omega_seed=0, "
                        "points=3, sweeps=200")
    seeds, sd_z, lo, hi, ratio, median_se, verdict = _columns(row)
    assert seeds == "3" and verdict in ("ok", "FLAG")
    assert all(float(x) > 0 for x in (sd_z, lo, hi, ratio, median_se))


def test_two_worker_processes_print_the_same_row(capsys):
    argv = ["coupling", "--seeds", "4", "--set", "sweeps=20", "--set", "burn_in=4"]
    rows = []
    for threads in ("1", "2"):
        se_calibration.main(argv + ["--threads", threads])
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1] and len(rows[0].splitlines()) == 3


# argv after the estimator, the refusal's message, and the chains run before it: a setting
# refused before any draw runs none, and run_chain refuses sweeps = 0 before it sweeps
_BAD = {
    "one-seed": (["--seeds", "1"], "--seeds must be >= 2 (got 1)", 0),
    "unknown-setting": (["--set", "replicas=2"], "unknown config key(s) replicas for 'h-leg'", 0),
    "threads-zero": (["--threads", "0"], "--threads must be >= 1 (got 0)", 0),
    "sweeps-text": (["--set", "sweeps=abc"], "sweeps = 'abc' (the default is 200)", 0),
    "sweeps-zero": (["--set", "sweeps=0"], "sweeps and thinning must be >= 1 (got 0, 2)", 1),
    "beta-negative": (["--set", "beta=-1"], "beta and m must be >= 0", 0),
    "omega-seed-negative": (["--set", "omega_seed=-1"],
                            "omega_seed must be an integer in [0, 2^64) (got -1)", 0),
    "omega-seed-too-large": (["--set", f"omega_seed={2 ** 64}"],
                             f"omega_seed must be an integer in [0, 2^64) (got {2 ** 64})", 0),
    "h-nan": (["--set", "h=nan"], "not finite for 'h-leg': h = nan", 0),
    "one-point": (["--set", "points=1"], "points must be an integer >= 2 (got 1)", 0),
}


@pytest.mark.parametrize("case", sorted(_BAD))
def test_bad_arguments_exit_2(case, monkeypatch, capsys):
    argv, message, chains = _BAD[case]
    calls = []
    run_chain = se_calibration.pinning.run_chain

    def counted(*args, **kwargs):
        calls.append(kwargs.get("sweeps"))
        return run_chain(*args, **kwargs)

    monkeypatch.setattr(se_calibration.pinning, "run_chain", counted)
    with pytest.raises(SystemExit) as exc:
        se_calibration.main(["h-leg", "--seeds", "3"] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0] and captured.out == ""
    assert len(calls) == chains
