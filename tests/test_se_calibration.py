import json
import math

import pytest
from scipy import stats

from gffpin import cli, experiments, pinning

# h from 0 down to -1, where the contact varies: 22 of the 30 seeds state an SE, against 2 of
# 30 on the default h = 1, where a ladder point often holds a contact at every record
_CHEAP = ["--set", "seeds=30", "--set", "h=-1", "--set", "points=5", "--set", "sweeps=100",
          "--set", "burn_in=20"]

# the rows at two small budgets, every float exact; h from 0 down to -1 as in _CHEAP, and the
# coupling leg at its defaults, where 7 of the 8 seeds state an SE
_PINNED = {
    "h-leg": ({"h": -1.0, "points": 5, "sweeps": 100, "burn_in": 20}, 8,
              {"seeds": 5, "sd_z": 0.76323466500524,
               "interval": (0.5129316721896503, 1.5945937198532916),
               "spread_ratio": 0.5177549949804158, "median_se": 0.033026967954156765,
               "ok": True}),
    "coupling": ({}, 8,
                 {"seeds": 7, "sd_z": 0.6084892442780651,
                  "interval": (0.42923884166492726, 1.0935468905564176),
                  "spread_ratio": 0.5725245388759809, "median_se": 0.0028697168775341318,
                  "ok": True}),
}


def _row(estimator: str, settings: dict, seeds: int) -> dict:
    record, = experiments.run_experiment(f"se-calibration-{estimator}",
                                         {**settings, "seeds": seeds}).records
    return record


@pytest.mark.parametrize("estimator", sorted(_PINNED))
def test_rows_are_pinned(estimator):
    settings, seeds, row = _PINNED[estimator]
    assert _row(estimator, settings, seeds) == row


def test_h_leg_se_is_calibrated_against_the_exact_value():
    # 11 points over [0, 1] at N = 2: the trapezoid weights of interior points count twice
    # the weight of an end point, so an SE that sums segments as independent reads
    # sd(z) near 1.4 here
    defaults = experiments.REGISTRY["se-calibration-h-leg"].defaults
    assert (defaults["h"], defaults["points"], defaults["sweeps"], defaults["seeds"]) == (
        1.0, 11, 200, 60)
    row = _row("h-leg", {}, 60)
    assert 0.8 <= row["sd_z"] <= 1.25, row


def test_a_ladder_that_never_varies_states_no_error_bar(monkeypatch):
    # h = 60 on 3 points: at h = 30 and 60 a contact weighs e^30 and more, so once in the
    # band (the 20 warm-start sweeps make 10 independence proposals, each in the band with
    # probability 0.95) the site leaves it with probability below 1e-14 per sweep.  Those two
    # points' series never vary, and the ladder states se inf whatever the seed; its value
    # is the trapezoid 15 (p0 + 1) + 30, p0 the h = 0 point's contact fraction
    outputs, exacts = [], []
    job, calibration = experiments._se_h_leg, experiments._se_calibration

    def kept(*args):
        outputs.append(job(*args))
        return outputs[-1]

    def seen(job, exact, seeds):
        exacts.append(exact)
        return calibration(job, exact, seeds)

    monkeypatch.setattr(experiments, "_se_h_leg", kept)
    monkeypatch.setattr(experiments, "_se_calibration", seen)
    result = experiments.run_experiment("se-calibration-h-leg", {
        "h": 60.0, "points": 3, "sweeps": 100, "burn_in": 60, "seeds": 3})
    assert result.lines[0] == "[info] 3 of 3 seeds state se inf, left out"
    assert len(outputs) == 3
    for seed, (value, se) in enumerate(outputs):
        assert se == math.inf and 45.0 <= value <= 60.0, (seed, value, se)
    exact, = exacts
    assert exact == pytest.approx(60.0 + math.log(math.erf(2.0 / math.sqrt(2.0))), abs=1e-9)


def test_a_halved_se_is_flagged(monkeypatch, capsys):
    job = experiments._se_h_leg

    def halved(*args):
        value, se = job(*args)
        return value, se / 2

    assert cli.main(["run", "se-calibration-h-leg"] + _CHEAP) == 0
    assert capsys.readouterr().out.splitlines()[-2].startswith("[PASS] sd(z) = ")
    monkeypatch.setattr(experiments, "_se_h_leg", halved)
    assert cli.main(["run", "se-calibration-h-leg"] + _CHEAP) == 1
    assert capsys.readouterr().out.splitlines()[-2].startswith("[FAIL] sd(z) = ")


def _columns(line: str) -> list[str]:
    """The numbers and counts of a verdict line, in order (not the interval's 90%)."""
    words = line.replace("[", " ").replace(",", " ").replace("]", " ").replace(";", " ").split()
    return [w for w in words if w[0].isdigit() and not w.endswith("%") or w == "nan"]


def test_a_tiny_budget_prints_every_column(capsys, tmp_path):
    # 10 records per ladder point: the one site's contact holds at every record of some point
    # in every seed, so every ladder states se inf, and no seed is left to check
    assert cli.main(["run", "se-calibration-coupling", "--set", "seeds=3", "--set", "sweeps=20",
                     "--set", "burn_in=4", "--out", str(tmp_path)]) == 1
    left_out, verdict, _wall = capsys.readouterr().out.splitlines()
    assert left_out == "[info] 3 of 3 seeds state se inf, left out"
    assert verdict == ("[FAIL] sd(z) = nan, 90% interval [nan, nan] over 0 seeds; "
                       "sd/rms(se) = nan, median se nan")
    stamp, record = (json.loads(line) for line in
                     (tmp_path / "results.jsonl").read_text(encoding="utf-8").splitlines())
    assert stamp["config"] == {"beta": 0.5, "burn_in": 4, "h": 0.3, "m": 0.0, "seed": 0,
                               "seeds": 3, "sweeps": 20}
    assert record["seeds"] == 0 and record["ok"] is False and math.isnan(record["sd_z"])


def test_a_row_over_stated_ses_prints_every_column():
    # h from 0 down to -1: the contact varies at every point, so every seed states an SE
    result = experiments.run_experiment("se-calibration-h-leg",
                                        {"seeds": 3, "h": -1, "points": 3})
    assert result.config == {"beta": 0.0, "burn_in": 50, "h": -1, "m": 0.0, "points": 3,
                             "seed": 0, "seeds": 3, "sweeps": 200}
    left_out, verdict = result.lines
    assert left_out == "[info] 0 of 3 seeds state se inf, left out"
    sd_z, lo, hi, seeds, ratio, median_se = _columns(verdict)
    assert seeds == "3" and verdict.startswith(("[PASS] ", "[FAIL] "))
    assert all(float(x) > 0 for x in (sd_z, lo, hi, ratio, median_se))


def test_two_worker_processes_print_the_same_row(capsys, tmp_path):
    argv = ["run", "se-calibration-coupling", "--set", "seeds=4", "--set", "sweeps=20",
            "--set", "burn_in=4"]
    printed, written = [], []
    for threads in ("1", "2"):
        cli.main(argv + ["--threads", threads, "--out", str(tmp_path / threads)])
        printed.append(capsys.readouterr().out.splitlines()[:-1])  # less the wall time
        stamp, *records = (json.loads(line) for line in (tmp_path / threads / "results.jsonl")
                           .read_text(encoding="utf-8").splitlines())
        written.append(({k: v for k, v in stamp.items() if k != "wall_time"}, records))
    assert printed[0] == printed[1] and len(printed[0]) == 2
    assert written[0] == written[1]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("estimator", ["h-leg", "coupling"])
def test_a_run_draws_its_disorder_once(estimator, threads, capsys, tmp_path):
    # the box, its disorder field and the exact value belong to the run, not to a chain seed
    cli.main(["run", f"se-calibration-{estimator}", "--seed", "7", "--set", "seeds=4",
              "--set", "sweeps=20", "--set", "burn_in=4", "--threads", threads,
              "--out", str(tmp_path)])
    capsys.readouterr()
    stamp = json.loads((tmp_path / "results.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert stamp["streams"] == (["7/se-calibration/omega"]
                                + [f"{k}/se-calibration/chain" for k in range(4)])


def test_the_chi2_quantiles_are_scipy_stats_bit_for_bit():
    for n in range(2, 2001):
        ours = experiments._chi2_ppf([0.95, 0.05], n)
        assert ours.tobytes() == stats.chi2.ppf([0.95, 0.05], n).tobytes(), n


# argv after `run se-calibration-h-leg --set seeds=3`, the refusal's message, and the chains
# run before it: a setting refused before any draw runs none, and run_chain refuses
# sweeps = 0 before it sweeps
_BAD = {
    "one-seed": (["--set", "seeds=1"], "seeds must be an integer >= 2 (got 1)", 0),
    "unknown-setting": (["--set", "replicas=2"],
                        "unknown config key(s) replicas for 'se-calibration-h-leg'", 0),
    "threads-zero": (["--threads", "0"], "--threads must be an integer >= 1 (got 0)", 0),
    "sweeps-text": (["--set", "sweeps=abc"], "sweeps = 'abc' (the default is 200)", 0),
    "sweeps-zero": (["--set", "sweeps=0"], "sweeps and thinning must be >= 1 (got 0, 2)", 1),
    "beta-negative": (["--set", "beta=-1"], "beta and m must be >= 0", 0),
    "seed-negative": (["--set", "seed=-1"], "seed must be an integer in [0, 2^64) (got -1)", 0),
    "seed-too-large": (["--seed", str(2 ** 64)],
                       f"seed must be an integer in [0, 2^64) (got {2 ** 64})", 0),
    "h-nan": (["--set", "h=nan"], "not finite for 'se-calibration-h-leg': h = nan", 0),
    "one-point": (["--set", "points=1"], "points must be an integer >= 2 (got 1)", 0),
}


@pytest.mark.parametrize("case", sorted(_BAD))
def test_bad_arguments_exit_2(case, monkeypatch, capsys):
    argv, message, chains = _BAD[case]
    calls = []
    run_chain = pinning.run_chain

    def counted(*args, **kwargs):
        calls.append(kwargs.get("sweeps"))
        return run_chain(*args, **kwargs)

    monkeypatch.setattr(pinning, "run_chain", counted)
    assert cli.main(["run", "se-calibration-h-leg", "--set", "seeds=3"] + argv) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0] and captured.out == ""
    assert len(calls) == chains
