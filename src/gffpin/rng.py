"""Counter-based random streams.

Every stochastic routine in the package draws from a stream derived from
(master seed, tag strings) by hashing, backed by the Philox counter-based
bit generator.  Streams with distinct tags are statistically independent
and reproducible regardless of thread scheduling or call order, which is
what makes replica-parallel experiments bit-reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_key(master_seed: int, *tags) -> tuple[int, int]:
    """128-bit Philox key derived from the master seed and a tag tuple."""
    h = hashlib.blake2b(digest_size=16)
    h.update(int(master_seed).to_bytes(8, "little", signed=False))
    for tag in tags:
        h.update(b"\x1f")
        h.update(str(tag).encode("utf-8"))
    d = h.digest()
    return (int.from_bytes(d[:8], "little"), int.from_bytes(d[8:], "little"))


_AUDIT: list | None = None


def stream(master_seed: int, *tags) -> np.random.Generator:
    """Independent Generator for (master_seed, *tags)."""
    if _AUDIT is not None:
        _AUDIT.append(f"{master_seed}/" + "/".join(str(t) for t in tags))
    key = stream_key(master_seed, *tags)
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def record_streams(ids) -> None:
    """Append stream ids consumed elsewhere (a worker process) to the active audit."""
    if _AUDIT is not None:
        _AUDIT.extend(ids)


class audit_streams:
    """Context manager recording every stream id consumed inside it."""

    def __init__(self):
        self.consumed: list[str] = []

    def __enter__(self):
        global _AUDIT
        self._prev = _AUDIT
        _AUDIT = self.consumed
        return self

    def __exit__(self, *exc):
        global _AUDIT
        _AUDIT = self._prev
        return False
