import numpy as np

from gffpin import io


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
    from gffpin.freeenergy import FreeEnergyEstimate

    est = FreeEnergyEstimate(0.1, 0.01, 16, "thermodynamic-integration",
                             {"beta": 0.0, "h": 0.2}, 3, 42)
    rec = io.estimate_record(est)
    # no revision or timing key: the run's stamp line carries both
    assert set(rec) == {"params", "N", "method", "value", "se", "replicas", "seed"}
    assert rec["N"] == 16 and rec["replicas"] == 3
