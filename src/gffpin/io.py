"""File formats: flat binary snapshots, Green-table cache, CSV and JSONL.

Binary layout is little-endian with an eight-byte magic and a version byte;
the Green cache appends a SHA-256 of the payload that is verified on load,
so a cache produced under an identical floating-point environment round-trips
bit-exactly or fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import struct
import subprocess
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .kernels import GreenTable

_FIELD_MAGIC = b"GFFFLD1\x00"
_GREEN_MAGIC = b"GFFGRN1\x00"
_KINDS = {"field": 0, "disorder": 1}
_KINDS_REV = {v: k for k, v in _KINDS.items()}


def save_field_binary(path, values: np.ndarray, N: int, m: float, seed: int,
                      kind: str = "field") -> None:
    """Row-major float64 grid with (kind, N, m, seed) header."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown snapshot kind {kind!r}")
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.shape != (N + 1, N + 1):
        raise ConfigError(f"grid shape {values.shape} does not match N={N}")
    header = _FIELD_MAGIC + struct.pack("<BBIdQ", 1, _KINDS[kind], N, float(m), seed & (2**64 - 1))
    Path(path).write_bytes(header + values.tobytes())


def load_field_binary(path) -> dict:
    raw = Path(path).read_bytes()
    if raw[:8] != _FIELD_MAGIC:
        raise ConfigError(f"{path}: not a field snapshot")
    version, kind, N, m, seed = struct.unpack("<BBIdQ", raw[8 : 8 + 22])
    if version != 1:
        raise ConfigError(f"{path}: unsupported snapshot version {version}")
    payload = np.frombuffer(raw[30:], dtype="<f8")
    side = N + 1
    if payload.size != side * side:
        raise ConfigError(f"{path}: truncated payload")
    return {"kind": _KINDS_REV[kind], "N": int(N), "m": float(m), "seed": int(seed),
            "values": payload.reshape(side, side).copy()}


def save_field_csv(path, values: np.ndarray) -> None:
    """x1,x2,value rows for small grids (LF endings, '.' decimal)."""
    side = values.shape[0]
    lines = ["x1,x2,value"]
    for i in range(side):
        for j in range(side):
            lines.append(f"{i},{j},{values[i, j]!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_green_table(path, table: GreenTable) -> None:
    kind_bytes = table.kind.encode("utf-8")[:24].ljust(24, b"\x00")
    sites = np.ascontiguousarray(table.sites, dtype="<i8")
    mat = np.ascontiguousarray(table.table, dtype="<f8")
    payload = sites.tobytes() + mat.tobytes()
    header = (_GREEN_MAGIC + struct.pack("<BId", 1, table.N, table.m) + kind_bytes
              + struct.pack("<II", len(sites), mat.shape[0]))
    digest = hashlib.sha256(payload).digest()
    Path(path).write_bytes(header + payload + digest)


def load_green_table(path) -> GreenTable:
    raw = Path(path).read_bytes()
    if raw[:8] != _GREEN_MAGIC:
        raise ConfigError(f"{path}: not a Green-table cache")
    off = 8
    version, N, m = struct.unpack_from("<BId", raw, off)
    off += struct.calcsize("<BId")
    kind = raw[off : off + 24].rstrip(b"\x00").decode("utf-8")
    off += 24
    n_sites, dim = struct.unpack_from("<II", raw, off)
    off += 8
    payload = raw[off:-32]
    if hashlib.sha256(payload).digest() != raw[-32:]:
        raise ConfigError(f"{path}: checksum mismatch, cache is corrupt")
    sites = np.frombuffer(payload[: 8 * n_sites], dtype="<i8").copy()
    mat = np.frombuffer(payload[8 * n_sites :], dtype="<f8").reshape(dim, dim).copy()
    return GreenTable(int(N), float(m), kind, sites, mat)


def green_cache_path(cache_dir, N: int, m: float, kind: str) -> Path:
    return Path(cache_dir) / f"green_{kind}_N{N}_m{m!r}.bin"


def append_jsonl(path, record: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_csv(path, header, rows) -> None:
    """Comma separator, '.' decimal point, header row, LF endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_cell(c) -> str:
    if isinstance(c, float):
        return format(c, ".12g")
    return str(c)


def write_chain_csv(path, record, include_restricted: bool = False) -> None:
    """Observable stream of a chain run: sweep, contacts, fraction, energy."""
    header = ["sweep", "L_N", "contact_fraction", "energy"]
    cols = [record.sweeps, record.contacts_window, record.contact_fraction, record.energy]
    if include_restricted and "L_prime" in record.extra:
        header.append("L_N_prime")
        cols.append(record.extra["L_prime"])
    write_csv(path, header, list(zip(*cols)))


def save_chain_checkpoint(path, chain, seed: int) -> None:
    """Field snapshot plus a JSON sidecar carrying the chain parameters."""
    path = Path(path)
    save_field_binary(path, chain.field, chain.geom.N, chain.params.m, seed)
    p = chain.params
    sidecar = {
        "beta": p.beta, "h": p.h, "m": p.m, "u": p.u, "model": p.model, "rho": p.rho,
        "seed": seed, "sweep": chain.sweeps_done, "N": chain.geom.N,
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True) + "\n", encoding="utf-8")


def load_chain_checkpoint(path) -> dict:
    path = Path(path)
    out = load_field_binary(path)
    out["sidecar"] = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    return out


def estimate_record(est, wall_time: float) -> dict:
    """Canonical JSON record for a free-energy estimate."""
    return {
        "params": est.params,
        "N": est.N,
        "method": est.method,
        "value": est.value,
        "se": est.se,
        "replicas": est.replicas,
        "seed": est.seed,
        "git-describe": git_describe(),
        "wall-time": wall_time,
    }


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"
