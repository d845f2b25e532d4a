import numpy as np

from gffpin import experiments, io


def test_jsonl_and_csv(tmp_path):
    path = tmp_path / "records.jsonl"
    io.append_jsonl(path, {"a": 1, "b": np.float64(2.5)})
    io.append_jsonl(path, {"c": np.arange(3)})
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert '"a": 1' in lines[0]
    csv = tmp_path / "t.csv"
    io.write_csv(csv, ["h", "value"], [(0.1, 0.25), (0.2, 1.0 / 3.0)])
    text = csv.read_text()
    assert text.startswith("h,value\n")
    assert "0.333333333333" in text
    assert "\r" not in text


def test_git_describe_returns_string():
    assert isinstance(io.git_describe(), str)


def test_git_describe_ignores_the_callers_directory(tmp_path, monkeypatch):
    here = io.git_describe()
    monkeypatch.chdir(tmp_path)
    assert io.git_describe() == here


def test_estimate_record_shape():
    # massive-comparison's pure and massive estimate records
    res = experiments.run_experiment("massive-comparison",
                                     {"N": 4, "sweeps": 4, "burn_in": 2, "seed": 42})
    summary, pure, massive = res.records
    # no revision or timing key: the run's stamp line carries both
    for rec in (pure, massive):
        assert set(rec) == {"params", "N", "method", "value", "se", "replicas", "seed"}
        assert rec["N"] == 4 and rec["replicas"] == 1 and rec["seed"] == 42
    assert pure["params"] == {"beta": 0.0, "h": 0.3}
    assert massive["params"] == {"beta": 0.0, "h": 0.3, "m": 0.3, "u": 0.0}
    assert (pure["value"], massive["value"]) == (summary["pure"], summary["massive"])
