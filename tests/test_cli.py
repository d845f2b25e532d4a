import json

import pytest

from gffpin import cli, experiments, pinning
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
    rc = cli.main(["run", "exact-small-box", "--out", str(out), "--seed", "99"])
    assert rc == 0
    resolved = (out / "config.resolved").read_text()
    assert "seed = 99" in resolved
    records = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert records[0]["experiment"] == "exact-small-box"
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


def test_set_overrides(tmp_path, capsys):
    rc = cli.main(["run", "density-typicality", "--set", "samples=2000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("GFFPIN_THREADS", "3")

    class Args:
        threads = None

    assert cli._threads(Args()) == 3
    Args.threads = 2
    assert cli._threads(Args()) == 2


def test_config_file_input(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# test config\nsamples = 1500\n")
    rc = cli.main(["run", "density-typicality", "--config", str(cfg)])
    assert rc == 0


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


@pytest.mark.parametrize("argv,env,needle", [
    (["run", "copolymer", "--set", "sweeps=1e3"], None, "sweeps"),
    (["run", "copolymer", "--set", "burn_in=true"], None, "burn_in"),
    (["run", "copolymer", "--set", "seed=1.5"], None, "seed"),
    (["run", "penalty-cost", "--set", "samples=2.5"], None, "samples"),
    (["run", "sampler-exactness", "--set", "samples=1e3"], None, "samples"),
    (["run", "copolymer"], "two", "GFFPIN_THREADS"),
    (["run", "copolymer"], "0", "GFFPIN_THREADS"),
    (["run", "copolymer", "--threads", "-3"], None, "--threads"),
    (["verify", "--threads", "0"], None, "--threads"),
    (["run", "massive-comparison", "--set", "m=1.5"], None, "got 1.5"),
    (["run", "massive-comparison", "--set", "m=0"], None, "got 0"),
    (["run", "subadditivity", "--set", "threads=0"], None, "threads"),
    (["run", "finite-volume-criterion", "--set", "threads=-4"], None, "threads"),
], ids=["int-as-float", "int-as-bool", "seed-as-float", "penalty-samples", "exactness-samples",
        "env-not-int", "env-zero", "threads-negative", "verify-threads-zero", "mass-above-1",
        "mass-zero", "set-threads-zero", "set-threads-negative"])
def test_bad_values_exit_2_before_any_chain(monkeypatch, capsys, argv, env, needle):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before the bad value was refused")

    monkeypatch.setattr(pinning, "run_chain", no_chain)
    if env is None:
        monkeypatch.delenv("GFFPIN_THREADS", raising=False)
    else:
        monkeypatch.setenv("GFFPIN_THREADS", env)
    assert cli.main(argv) == 2
    assert needle in capsys.readouterr().err


def test_float_default_takes_an_int(monkeypatch):
    # m = 1 passes the type check and f(m)'s domain, so the first chain is reached
    def first_chain(*args, **kwargs):
        raise RuntimeError("first chain")

    monkeypatch.setattr(pinning, "run_chain", first_chain)
    with pytest.raises(RuntimeError, match="first chain"):
        experiments.run_experiment("massive-comparison", {"m": 1, "threads": 1})


def test_run_experiment_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="sweepz"):
        experiments.run_experiment("exact-small-box", {"sweepz": 5, "seed": 1})


def test_run_reproducibility(tmp_path):
    a = experiments.run_experiment("density-typicality", {"samples": 1200})
    b = experiments.run_experiment("density-typicality", {"samples": 1200})
    assert a.records[0]["rows"] == b.records[0]["rows"]


def test_stream_audit_recorded():
    res = experiments.run_experiment("density-typicality", {"samples": 800})
    assert len(res.streams) == 3  # one stream per family mass
    assert all(s.startswith(str(res.config["seed"])) for s in res.streams)
