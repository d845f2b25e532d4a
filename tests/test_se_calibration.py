import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "se_calibration.py"
_spec = importlib.util.spec_from_file_location("se_calibration", _PATH)
se_calibration = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(se_calibration)

_CHEAP = ["--seeds", "30", "--set", "points=5", "--set", "sweeps=100", "--set", "burn_in=20"]


def test_h_leg_se_is_calibrated_against_the_exact_value():
    # 11 points over [0, 1] at N = 2: the trapezoid weights of interior points count twice
    # the weight of an end point, so an SE that sums segments as independent reads
    # sd(z) near 1.4 here
    defaults, h_leg = se_calibration.ESTIMATORS["h-leg"]
    assert (defaults["h"], defaults["points"], defaults["sweeps"]) == (1.0, 11, 200)
    row = se_calibration.calibrate(h_leg, defaults, 60)
    assert 0.8 <= row["sd_z"] <= 1.25, row


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


def test_a_tiny_budget_prints_every_column(capsys):
    se_calibration.main(["coupling", "--seeds", "3", "--set", "sweeps=20", "--set", "burn_in=4"])
    settings, header, row = capsys.readouterr().out.splitlines()
    assert settings.startswith("coupling at N = 2, beta=0.5, burn_in=4, h=0.3")
    assert header.split() == ["seeds", "sd(z)", "90%", "interval", "sd/rms(se)", "median",
                              "se", "verdict"]
    seeds, sd_z, lo, hi, ratio, median_se, verdict = row.replace("[", "").replace(
        ",", "").replace("]", "").split()
    assert seeds == "3" and verdict in ("ok", "FLAG")
    assert all(float(x) > 0 for x in (sd_z, lo, hi, ratio, median_se))


@pytest.mark.parametrize("argv", [["h-leg", "--seeds", "1"], ["h-leg", "--seeds", "3",
                                                              "--set", "replicas=2"]],
                         ids=["one-seed", "unknown-setting"])
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        se_calibration.main(argv)
    assert exc.value.code == 2
