import numpy as np
import pytest

from gffpin import io, kernels, lattice
from gffpin.errors import ConfigError


def test_field_binary_roundtrip(tmp_path):
    rs = np.random.default_rng(0)
    vals = rs.standard_normal((9, 9))
    path = tmp_path / "field.bin"
    io.save_field_binary(path, vals, 8, 0.3, 12345)
    back = io.load_field_binary(path)
    assert back["N"] == 8
    assert back["m"] == 0.3
    assert back["seed"] == 12345
    assert back["kind"] == "field"
    assert np.array_equal(back["values"], vals)


def test_field_binary_disorder_tag(tmp_path):
    vals = np.zeros((5, 5))
    path = tmp_path / "omega.bin"
    io.save_field_binary(path, vals, 4, 0.0, 7, kind="disorder")
    assert io.load_field_binary(path)["kind"] == "disorder"
    with pytest.raises(ConfigError):
        io.save_field_binary(tmp_path / "x.bin", vals, 4, 0.0, 7, kind="unknown")


def test_field_binary_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not a snapshot at all")
    with pytest.raises(ConfigError):
        io.load_field_binary(p)


def test_field_csv(tmp_path):
    vals = np.arange(9.0).reshape(3, 3)
    path = tmp_path / "field.csv"
    io.save_field_csv(path, vals)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 10
    assert "\r" not in text


def test_green_cache_roundtrip(tmp_path):
    g = lattice.build_box(6)
    table = kernels.green_dirichlet(g, 0.2)
    path = io.green_cache_path(tmp_path, 6, 0.2, "dirichlet")
    io.save_green_table(path, table)
    back = io.load_green_table(path)
    assert back.N == 6 and back.m == 0.2 and back.kind == "dirichlet"
    assert np.array_equal(back.sites, table.sites)
    assert np.array_equal(back.table, table.table)


def test_green_cache_checksum_detects_corruption(tmp_path):
    g = lattice.build_box(4)
    table = kernels.green_dirichlet(g, 0.0)
    path = tmp_path / "green.bin"
    io.save_green_table(path, table)
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError):
        io.load_green_table(path)


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


def test_chain_csv_and_checkpoint(tmp_path):
    from gffpin import disorder, pinning, rng

    g = lattice.build_box(6)
    om = disorder.sample_disorder(g, disorder.GAUSSIAN, rng.stream(501, "om"))
    params = pinning.PinningParams(beta=0.3, h=0.2)
    rec = pinning.run_chain(g, params, om, rng.stream(502, "run"), sweeps=20, burn_in=5)
    path = tmp_path / "stream.csv"
    io.write_chain_csv(path, rec)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "sweep,L_N,contact_fraction,energy"
    assert len(lines) == len(rec.sweeps) + 1

    chain = pinning.make_chain(g, params, om, rng.stream(503, "ck"))
    pinning.heat_bath_sweep(chain, 7)
    ck = tmp_path / "chain.bin"
    io.save_chain_checkpoint(ck, chain, seed=503)
    back = io.load_chain_checkpoint(ck)
    assert np.array_equal(back["values"], chain.field)
    assert back["sidecar"]["sweep"] == 7
    assert back["sidecar"]["beta"] == 0.3
    assert back["sidecar"]["model"] == "pinning"


def test_estimate_record_shape():
    from gffpin.freeenergy import FreeEnergyEstimate

    est = FreeEnergyEstimate(0.1, 0.01, 16, "thermodynamic-integration",
                             {"beta": 0.0, "h": 0.2}, 3, 42)
    rec = io.estimate_record(est, 1.5)
    assert set(rec) == {"params", "N", "method", "value", "se", "replicas",
                        "seed", "git-describe", "wall-time"}
    assert rec["N"] == 16 and rec["replicas"] == 3
