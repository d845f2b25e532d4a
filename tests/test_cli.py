import dataclasses
import json
import re

import pytest

from gffpin import cli, experiments, fields, freeenergy, lattice, pinning, rng as rngmod
from gffpin.errors import ConfigError, DomainError


def test_registry_contains_required_experiments():
    names = [name for name, _, _ in experiments.list_experiments()]
    assert "bridge-lemma" in names
    assert "finite-volume-criterion" in names
    assert names == sorted(names)  # stable, sorted listing
    # listing twice gives identical output
    assert experiments.list_experiments() == experiments.list_experiments()


def test_acceptance_names_cover_all_criteria():
    names = experiments.acceptance_names()
    assert len(names) == 12
    nums = sorted(experiments.REGISTRY[n].acceptance for n in names)
    assert nums == list(range(1, 13))


def test_unknown_experiment_exits_nonzero(capsys):
    rc = cli.main(["run", "does-not-exist"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "registry" in err and "bridge-lemma" in err


def test_list_command(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "exact-small-box" in out
    assert "probes:" in out


def test_run_persists_outputs(tmp_path, capsys):
    out = tmp_path / "run1"
    rc = cli.main(["run", "bridge-lemma", "--out", str(out), "--seed", "99",
                   "--set", "bridges=2000"])
    assert rc == 0
    resolved = (out / "config.resolved").read_text()
    assert "seed = 99" in resolved
    records = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert records[0]["experiment"] == "bridge-lemma"
    assert records[0]["passed"] is True
    assert "config" in records[0]


def test_run_refuses_nonempty_out(tmp_path, capsys):
    out = tmp_path / "run2"
    out.mkdir()
    (out / "existing.txt").write_text("x")
    rc = cli.main(["run", "exact-small-box", "--out", str(out)])
    assert rc == 2
    rc = cli.main(["run", "exact-small-box", "--out", str(out), "--force"])
    assert rc == 0


def _stamps(out):
    records = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    return [r for r in records if "experiment" in r]


def test_reused_out_holds_only_the_last_command(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    small = ["--set", "bridges=2000"]
    assert cli.main(["run", "bridge-lemma", "--out", str(out)] + small) == 0
    assert cli.main(["run", "bridge-lemma", "--out", str(out), "--force", "--seed", "5"]
                    + small) == 0
    assert [s["config"]["seed"] for s in _stamps(out)] == [5]
    assert "seed = 5" in (out / "config.resolved").read_text()
    monkeypatch.setattr(experiments, "acceptance_names", lambda: ["exact-small-box"])
    verify = tmp_path / "verify"
    for _ in range(2):
        assert cli.main(["verify", "--out", str(verify)]) == 0
    assert [s["experiment"] for s in _stamps(verify)] == ["exact-small-box"]
    assert not (verify / "config.resolved").exists()  # each stamp carries its config


def test_force_removes_what_an_earlier_run_wrote(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["run", "f-asymptotics", "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    assert cli.main(["run", "exact-small-box", "--out", str(out), "--force"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved", "notes.txt",
                                                    "results.jsonl"]
    assert [s["experiment"] for s in _stamps(out)] == ["exact-small-box"]


@pytest.mark.parametrize("argv", [
    ["verify", "--threads", "0"],
    ["run", "copolymer", "--force", "--set", "sweeps=1e3"],
    ["run", "copolymer", "--force", "--set", "sweeps=7", "--set", "burn_in=0"],
    ["run", "no-such-experiment", "--force"],
    ["run", "pure-free-energy", "--force", "--set", "h_step=0"],
    ["run", "pure-free-energy", "--force", "--set", "h_min=0.3", "--set", "h_max=0.05"],
    ["run", "pure-free-energy", "--force", "--set", "h_step=1e-300"],
    ["run", "pure-free-energy", "--force", "--set", "h_step=1e-7"],
    ["run", "subadditivity", "--force", "--set", "threads=2"],
    ["run", "harmonic-extension", "--force", "--threads", "0"],
    ["run", "density-calibrate", "--force", "--set", "N=2"],
], ids=["verify-threads-zero", "run-wrong-type", "run-refused-inside", "run-unknown",
        "h-step-zero", "h-range-reversed", "h-step-1e-300", "h-step-1e-7", "set-threads",
        "run-threads-zero", "calibrate-target-not-positive"])
def test_refused_command_leaves_out_untouched(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert cli.main(["run", "f-asymptotics", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    missing = tmp_path / "missing"
    assert cli.main(argv + ["--out", str(missing)]) == 2
    assert not missing.exists()


def _no_run(*args, **kwargs):
    raise AssertionError("an experiment ran before the command was refused")


@pytest.mark.parametrize("command", [["run", "exact-small-box"], ["verify"]], ids=["run", "verify"])
@pytest.mark.parametrize("below", [(), ("sub",), ("sub", "deeper")],
                         ids=["itself", "under-it", "two-under-it"])
@pytest.mark.parametrize("make", [lambda path: path.write_text("kept"),
                                  lambda path: path.symlink_to(path.with_name("gone"))],
                         ids=["file", "dangling-link"])
def test_out_that_is_not_a_directory_is_refused(tmp_path, monkeypatch, capsys, command, below,
                                                make):
    monkeypatch.setattr(experiments, "run_experiment", _no_run)
    blocker = tmp_path / "results"
    make(blocker)
    out = blocker.joinpath(*below)
    assert cli.main(command + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: output directory {out} cannot be used: "
                            f"{blocker} is not a directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["results"]
    assert blocker.is_symlink() or blocker.read_text() == "kept"


def _without_revision_and_time(out) -> list[dict]:
    records = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    return [{k: v for k, v in r.items() if k not in ("wall_time", "git")} for r in records]


def test_threads_flag_is_recorded_nowhere(tmp_path, capsys):
    # harmonic-extension has nothing to fan out; --threads 2 is accepted and stamps what a
    # serial run stamps
    printed = []
    for threads in ("1", "2"):
        assert cli.main(["run", "harmonic-extension", "--set", "walks=200", "--threads", threads,
                         "--out", str(tmp_path / threads)]) == 0
        printed.append(capsys.readouterr().out.splitlines()[:-1])  # the wall time goes
    serial, pooled = (tmp_path / t for t in ("1", "2"))
    assert _without_revision_and_time(pooled) == _without_revision_and_time(serial)
    assert _stamps(pooled)[0]["config"] == {"seed": 20260805, "walks": 200}
    assert (pooled / "config.resolved").read_text() == (serial / "config.resolved").read_text()
    assert printed[0] == printed[1]


def test_verify_writes_the_same_results_at_any_thread_count(tmp_path, monkeypatch, capsys):
    # every criterion but 6 runs a stand-in that keeps the worker count it ran at; criterion 6
    # runs for real at 2000 bridges per cell, over the pool at --threads 2
    seen = {}

    def keeping(name):
        def fn(**cfg):
            seen[name] = rngmod._WORKERS
            return [(True, "ok")], [{"cfg": cfg}], {}
        return fn

    for name in experiments.acceptance_names():
        exp = experiments.REGISTRY[name]
        fake = (dataclasses.replace(exp, defaults={**exp.defaults, "bridges": 2000})
                if name == "bridge-lemma" else dataclasses.replace(exp, fn=keeping(name)))
        monkeypatch.setitem(experiments.REGISTRY, name, fake)
    printed = {}
    for threads in ("1", "2"):
        assert cli.main(["verify", "--threads", threads, "--out", str(tmp_path / threads)]) == 0
        assert set(seen.values()) == {int(threads)} and len(seen) == 11
        printed[threads] = [re.sub(r"\([0-9.]+ s( total)?\)", "", line)
                            for line in capsys.readouterr().out.splitlines()]
    assert printed["1"] == printed["2"] and len(printed["1"]) == 13
    serial, pooled = (_without_revision_and_time(tmp_path / t) for t in ("1", "2"))
    assert pooled == serial
    assert all("threads" not in r["config"] for r in serial if "experiment" in r)
    assert rngmod._WORKERS == 1  # the count ends with the command


def test_bridge_lemma_over_two_processes_keeps_every_output():
    # the 12 cells are handed to the pool largest first; rows and streams keep (k, x) order
    runs = []
    for t in (1, 2):
        with rngmod.workers(t):
            runs.append(experiments.run_experiment("bridge-lemma", {"bridges": 2000}))
    serial, pooled = ((r.lines, r.records, r.tables, r.streams) for r in runs)
    assert pooled == serial
    assert [row[:2] for row in runs[1].records[0]["cells"]] == experiments._BRIDGE_CELLS
    assert runs[1].streams[-1] == "20260806/bridge/400/10.0"


@pytest.mark.parametrize("checks,passed,tags", [
    ([(True, "a"), (None, "b")], True, ["PASS", "info"]),
    ([(True, "a"), (False, "b")], False, ["PASS", "FAIL"]),
    ([(None, "a"), (None, "b")], None, ["info", "info"]),
], ids=["pass-and-info", "one-fail", "info-only"])
def test_runner_derives_lines_and_verdict_from_checks(monkeypatch, checks, passed, tags):
    exp = experiments.REGISTRY["bridge-lemma"]
    fake = dataclasses.replace(exp, fn=lambda **cfg: (checks, [{"n": 1}], {"t": (["x"], [(1,)])}))
    monkeypatch.setitem(experiments.REGISTRY, exp.name, fake)
    res = experiments.run_experiment(exp.name, {"seed": 3})
    assert res.passed is passed
    assert res.lines == [f"[{tag}] {text}" for tag, (_, text) in zip(tags, checks)]
    assert (res.name, res.records, res.tables) == (exp.name, [{"n": 1}], {"t": (["x"], [(1,)])})
    assert res.config == {"seed": 3, "bridges": 1_000_000}


def test_set_overrides(tmp_path, capsys):
    rc = cli.main(["run", "density-typicality", "--set", "samples=2000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_config_file_input(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# test config\nsamples = 1500\n")
    rc = cli.main(["run", "density-typicality", "--config", str(cfg)])
    assert rc == 0


@pytest.mark.parametrize("make,reason", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"samples = 1500\xff\n"), "can't decode byte 0xff"),
], ids=["missing", "directory", "not-utf-8"])
def test_unreadable_config_file_exits_2(tmp_path, monkeypatch, capsys, make, reason):
    monkeypatch.setattr(experiments, "run_experiment", _no_run)
    cfg = tmp_path / "exp.cfg"
    make(cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "density-typicality", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1
    assert reason in err
    assert not out.exists()


def test_unknown_config_key_exits_nonzero(capsys):
    rc = cli.main(["run", "exact-small-box", "--set", "sweepz=5"])
    assert rc == 2
    assert "sweepz" in capsys.readouterr().err


def test_bad_replica_count_exits_2(capsys):
    rc = cli.main(["run", "subadditivity", "--set", "replicas=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "replicas >= 2" in err and "got 1" in err


def test_bad_replica_count_fails_before_any_chain(monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before the replica count was checked")

    monkeypatch.setattr(pinning, "run_chain", no_chain)
    with pytest.raises(DomainError, match=r"replicas >= 1 \(got 0\)"):
        experiments.run_experiment("thermo-consistency", {"replicas": 0})


@pytest.mark.parametrize("argv,needle", [
    (["run", "copolymer", "--set", "sweeps=1e3"], "sweeps"),
    (["run", "copolymer", "--set", "burn_in=true"], "burn_in"),
    (["run", "copolymer", "--set", "seed=1.5"], "seed"),
    (["run", "penalty-cost", "--set", "samples=2.5"], "samples"),
    (["run", "sampler-exactness", "--set", "samples=1e3"], "samples"),
    (["run", "subadditivity", "--threads", "-3"], "threads must be an integer >= 1 (got -3)"),
    (["run", "harmonic-extension", "--set", "threads=2"],
     "unknown config key(s) threads for 'harmonic-extension'; known: seed, walks"),
    (["run", "exact-small-box", "--seed", "5"],
     "unknown config key(s) seed for 'exact-small-box'; it takes no settings"),
    (["verify", "--threads", "0"], "threads must be an integer >= 1 (got 0)"),
    (["run", "massive-comparison", "--set", "m=1.5"], "got 1.5"),
    (["run", "massive-comparison", "--set", "m=0"], "got 0"),
    (["run", "subadditivity", "--set", "threads=0"],
     "unknown config key(s) threads for 'subadditivity'"),
    (["run", "finite-volume-criterion", "--set", "threads=-4"],
     "unknown config key(s) threads for 'finite-volume-criterion'"),
    (["run", "harmonic-extension", "--seed", "-1"], "seed must be an integer in [0, 2^64) (got -1)"),
    (["run", "harmonic-extension", "--seed", str(2 ** 64)],
     f"seed must be an integer in [0, 2^64) (got {2 ** 64})"),
    (["run", "massive-comparison", "--set", "h=inf"], "not finite for 'massive-comparison': h = inf"),
    (["run", "massive-comparison", "--set", "h=nan"], "not finite for 'massive-comparison': h = nan"),
    (["run", "finite-volume-criterion", "--set", "h=nan"], "h = nan (the default is 2.0)"),
    (["run", "sampler-exactness", "--set", "samples=0"], "samples must be an integer >= 1 (got 0)"),
    (["run", "sampler-exactness", "--set", "stack_samples=1"],
     "stack_samples must be an integer >= 2 (got 1)"),
    (["run", "density-calibrate", "--set", "samples=0"], "samples must be an integer >= 1 (got 0)"),
    (["run", "density-calibrate", "--set", "N=2", "--set", "samples=2"],
     "N must be >= 3 (got 2): below that the target frequency 1 - 1/sqrt(log N) is not positive"),
    (["run", "density-typicality", "--set", "samples=0"], "samples must be an integer >= 1 (got 0)"),
    (["run", "harmonic-extension", "--set", "walks=1"], "walks must be an integer >= 2 (got 1)"),
    (["run", "pure-free-energy", "--set", "h_step=-0.05"], "h_step must be > 0 (got -0.05)"),
    (["run", "pure-free-energy", "--set", "h_min=0.3", "--set", "h_max=0.05"],
     "h_min must be <= h_max (got h_min = 0.3, h_max = 0.05)"),
    (["run", "pure-free-energy", "--set", "h_step=1e-300"],
     "h_step = 1e-300 gives more than 1000 grid points over [h_min, h_max] = [0.05, 0.3]"),
    (["run", "pure-free-energy", "--set", "h_step=1e-7"],
     "h_step = 1e-07 gives more than 1000 grid points over [h_min, h_max] = [0.05, 0.3]"),
    (["run", "se-calibration-h-leg", "--set", "h=0", "--set", "seeds=2", "--set", "sweeps=8",
      "--set", "burn_in=0"], "h must be nonzero: the leg integrates from 0 to h (got 0)"),
], ids=["int-as-float", "int-as-bool", "seed-as-float", "penalty-samples", "exactness-samples",
        "threads-negative", "threads-unknown", "seed-unknown", "verify-threads-zero",
        "mass-above-1", "mass-zero", "set-threads-zero", "set-threads-negative", "seed-negative",
        "seed-2-to-64", "h-inf", "h-nan", "criterion-h-nan", "exactness-samples-zero",
        "stack-samples-one", "calibrate-samples-zero", "calibrate-target-not-positive",
        "typicality-samples-zero", "walks-one", "h-step-negative", "h-range-reversed",
        "h-step-1e-300", "h-step-1e-7", "se-h-leg-h-zero"])
def test_bad_values_exit_2_before_any_chain(monkeypatch, capsys, argv, needle):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before the bad value was refused")

    def no_stream(*args, **kwargs):
        raise AssertionError("a stream was drawn before the bad value was refused")

    monkeypatch.setattr(pinning, "run_chain", no_chain)
    monkeypatch.setattr(rngmod, "stream", no_stream)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("name,overrides", [
    ("density-typicality", {"samples": 1}),
    ("sampler-exactness", {"samples": 1, "stack_samples": 2}),
    ("harmonic-extension", {"walks": 2}),
    ("extremal-event", {"N": 64, "samples": 1}),
], ids=["typicality-one-sample", "exactness-least", "two-walks", "extremal-one-slice"])
def test_least_budgets_reach_a_verdict(name, overrides):
    # one sample can put every draw of a mass in the density event (fitted C = 0); at N = 64
    # G^m(0,0) = 0.88 gives no whole unit scale, and criterion 10 samples on one slice
    result = experiments.run_experiment(name, overrides)
    assert result.passed is not None and all("nan" not in line for line in result.lines)


@pytest.mark.parametrize("sets", [
    ["N=2", "replicas=1", "sweeps=2", "burn_in=1"],
    ["N=8", "replicas=2", "sweeps=4", "burn_in=2"],
], ids=["thermo-one-site", "thermo-four-sweeps"])
def test_thermo_checks_fail_on_infinite_se(capsys, sets):
    # too few records for an SE: a check with 3 se of slack would hold whatever the estimates
    argv = ["run", "thermo-consistency"] + [a for s in sets for a in ("--set", s)]
    assert cli.main(argv) == 1
    checks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert checks.pop(4) == "[PASS] pure F(0) = 0 exactly"
    assert len(checks) == 5
    assert all(line.startswith("[FAIL]") and line.endswith("; se inf is not finite")
               for line in checks), checks


@pytest.mark.filterwarnings("error")
def test_far_substrate_runs_without_a_warning(capsys):
    # at u = 1e300 the band edges lie beyond every height: the exact t = 0 integrand's
    # quotients reach +-inf and its band probabilities 0, with no overflow warning
    argv = ["run", "finite-volume-criterion", "--set", "u=1e300", "--set", "N=8",
            "--set", "replicas=2", "--set", "sweeps=20", "--set", "burn_in=10"]
    assert cli.main(argv) == 0
    assert ("[info] verdict: negative (estimate 0.0000 +- 0.0000, penalty 0.9000, "
            "event freq 1.000)") in capsys.readouterr().out


def test_massive_comparison_fails_on_infinite_se(capsys):
    assert cli.main(["run", "massive-comparison", "--set", "N=2", "--set", "sweeps=2",
                     "--set", "burn_in=1"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] F(0,0.3,0.3,0)" in out and "(+3se = inf); se inf is not finite" in out


@pytest.mark.parametrize("name,se_keys", [
    pytest.param("contact-statistics", ("se_L", "se_Lp"), id="contact-statistics"),
    pytest.param("penalty-cost", ("se",), id="penalty-cost"),
    pytest.param("cluster-probability", ("se",), id="cluster-probability"),
])
def test_one_sample_contact_statistics_reads_se_inf(name, se_keys):
    # one draw reads as se inf (freeenergy._mean_se, or ChainRecord.mean_se below four
    # records), not as the nan of a one-sample std
    result = experiments.run_experiment(name, {"samples": 1})
    assert all(result.records[0][key] == float("inf") for key in se_keys)
    assert "(se inf)" in result.lines[0]


def test_cluster_probability_se_reads_the_chain_iact(monkeypatch):
    # the hit series is one autocorrelated chain's; its SE carries the series' own IACT
    chains = []
    run_chain = pinning.run_chain

    def kept(*args, **kwargs):
        chains.append(run_chain(*args, **kwargs))
        return chains[-1]

    monkeypatch.setattr(pinning, "run_chain", kept)
    result = experiments.run_experiment("cluster-probability",
                                        {"h": -0.2, "samples": 100, "burn_in": 50})
    (rec,) = chains
    hits = rec.extra["hit"]
    assert 0.0 < hits.mean() < 1.0
    se = result.records[0]["se"]
    assert se == rec.mean_se(hits)[1]
    assert se > freeenergy._mean_se(hits)[1]


def test_slice_telescoping_is_an_info_line():
    # the per-mode slice weights telescope in closed form, so the line decides nothing
    result = experiments.run_experiment("sampler-exactness",
                                        {"samples": 200, "stack_samples": 200})
    (line,) = [line for line in result.lines if "slice telescoping" in line]
    assert line.startswith("[info] ")
    assert result.passed is True
    assert result.records[0]["telescoping"] < 1e-12


def test_solver_residual_is_an_info_line():
    # fields.harmonic_extension refuses a residual above 1e-10, so the line decides nothing
    result = experiments.run_experiment("harmonic-extension", {"walks": 200})
    (line,) = [line for line in result.lines if "solver residual" in line]
    assert line.startswith("[info] ")
    assert result.passed is True


def test_stack_samples_draws_the_last_partial_batch(monkeypatch):
    # 700 is one whole batch of 500 and a partial one of 200; all 700 are drawn
    drawn = []
    sample = fields.sample_dirichlet_interior

    def counted(geom, m, n, r):
        if geom.N == 32:
            drawn.append(n)
        return sample(geom, m, n, r)

    monkeypatch.setattr(fields, "sample_dirichlet_interior", counted)
    experiments.run_experiment("sampler-exactness", {"samples": 10, "stack_samples": 700})
    assert drawn == [500, 200]


def test_density_sums_do_not_depend_on_the_block():
    # criterion 9 sums phi^2 250 samples at a time; the sums equal those of one batch
    g = lattice.build_box(27)
    chunked = experiments._sums_of_squares(g, 0.05, 600, rngmod.stream(9, "density-block"))
    batch = fields.sample_dirichlet_interior(g, 0.05, 600, rngmod.stream(9, "density-block"))
    assert chunked.tolist() == (batch ** 2).sum(axis=(1, 2)).tolist()


def test_float_default_takes_an_int(monkeypatch):
    # m = 1 passes the type check and f(m)'s domain, so the first chain is reached
    def first_chain(*args, **kwargs):
        raise RuntimeError("first chain")

    monkeypatch.setattr(pinning, "run_chain", first_chain)
    with pytest.raises(RuntimeError, match="first chain"):
        experiments.run_experiment("massive-comparison", {"m": 1, "seed": 1})


def test_run_experiment_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="sweepz"):
        experiments.run_experiment("copolymer", {"sweepz": 5, "seed": 1})


def test_run_reproducibility(tmp_path):
    a = experiments.run_experiment("density-typicality", {"samples": 1200})
    b = experiments.run_experiment("density-typicality", {"samples": 1200})
    assert a.records[0]["rows"] == b.records[0]["rows"]


def test_stream_audit_recorded():
    res = experiments.run_experiment("density-typicality", {"samples": 800})
    assert len(res.streams) == 3  # one stream per family mass
    assert all(s.startswith(str(res.config["seed"])) for s in res.streams)
