"""Counter-based random streams and the replica fan-out.

Every stochastic routine draws from a stream derived from (master seed, tag
strings) by hashing, backed by the Philox counter-based bit generator, so
distinct tags give independent streams, reproducible in any call order.  The
replica fan-out (_fan_out) runs jobs serially, or over a process pool inside
an `rng.workers(T)` block (which `--threads T` opens), and adds their stream
ids to the active audit in replica order: same numbers and audit at any count.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib

import numpy as np

from .errors import DomainError


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


_WORKERS = 1  # worker processes of each replica fan-out; 1 outside a `workers` block


@contextlib.contextmanager
def workers(count: int):
    """Every replica fan-out inside the block runs over `count` worker processes.  It says
    how a run executes, not what it computes: the outputs and stream ids are the same at any
    count.  Each job of a fan-out runs at a count of 1, so no pool nests inside another."""
    global _WORKERS
    if count < 1:
        raise DomainError(f"--threads must be an integer >= 1 (got {count})")
    prev, _WORKERS = _WORKERS, count
    try:
        yield
    finally:
        _WORKERS = prev


def _fan_out(job, replicas: int, order=None) -> list:
    """job(r) for each replica r in its own stream audit, over a pool of at most _WORKERS
    processes (no more than there are jobs) when that count is above 1; returns the outputs
    and adds the stream ids to the audit in replica order.

    order, a permutation of the replica indices, is the order in which the pool is handed
    the jobs (the longest first, say); the outputs and ids come back in replica order.
    """
    if _WORKERS <= 1 or replicas <= 1:
        done = [_audited(job, r) for r in range(replicas)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        order = list(range(replicas) if order is None else order)
        with ProcessPoolExecutor(max_workers=min(_WORKERS, replicas)) as pool:
            ran = dict(zip(order, pool.map(functools.partial(_audited, job), order)))
        done = [ran[r] for r in range(replicas)]
    if _AUDIT is not None:
        for _, ids in done:
            _AUDIT.extend(ids)
    return [out for out, _ in done]


def _audited(job, r: int) -> tuple:
    """job(r), run at a worker count of 1, and the ids of the streams it drew."""
    with audit_streams() as audit, workers(1):
        return job(r), audit.consumed
