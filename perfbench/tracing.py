"""Spans around calls into the library, recorded from the benchmark's side.

While `instrument` is active, every public module-level function of the
traced gffpin modules is replaced, in every gffpin module that binds it, by a
wrapper that opens a span on entry and closes it on exit.  A span holds its
name, start, end (perf_counter_ns) and the index of the span that was open
when it started.  Counts are taken from call arguments at the same boundary
(sweeps from n_sweeps, sites from the masks and array shapes).  Spans stay
in memory until the traced pass ends; `Tracer.write` then saves them.

The library itself is not modified: the wrappers are removed on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

TRACED_MODULES = ("pinning", "freeenergy", "fields", "kernels", "disorder", "lattice")


def _interior_sites(geom) -> int:
    return int(geom.interior_mask.sum())


# counts taken from the arguments of a call; each takes the call's arguments
COUNTERS = {
    "pinning.heat_bath_sweep":
        lambda chain, n_sweeps=1: {"sweeps": n_sweeps, "N": chain.geom.N,
                                   "sites": n_sweeps * _interior_sites(chain.geom)},
    "pinning.sample_banded_conditional":
        lambda rng, mu, sigma, bands: {"sites": int(mu.shape[0])},
    "fields.sample_dirichlet_interior":
        lambda geom, m, n, rng, batch=2000: {"samples": int(n)},
    "fields.bridge_positivity_probability":
        lambda variances, x, n_samples, rng, batch=20000: {"steps": int(n_samples) * len(variances)},
    # bytes computed from array sizes: the float64 input read plus the output written
    "kernels.dst2": lambda a: {"bytes": 2 * int(np.asarray(a).size) * 8},
}


class Tracer:
    """In-memory span store for one traced pass (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.counts: dict[int, dict] = {}
        self._open: list[int] = []

    def open(self, name: str, counts: dict | None = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(-1)
        if counts:
            self.counts[idx] = counts
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, counter(*args, **kwargs) if counter else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def spans(self) -> "SpanTable":
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return SpanTable(np.array(self.names, dtype=object), np.array(self.start, dtype=np.int64),
                         np.array(self.end, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                         self.counts)

    def write(self, path) -> None:
        """name,start_ns,end_ns,parent per line, in opening order."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            fh.writelines(f"{n},{s},{e},{p}\n"
                          for n, s, e, p in zip(self.names, self.start, self.end, self.parent))


@dataclass
class SpanTable:
    names: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    counts: dict

    @property
    def duration_s(self) -> np.ndarray:
        return (self.end - self.start) * 1e-9

    def self_s(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = self.duration_s
        child = np.zeros(len(dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        return dur - child

    def top_level_s(self) -> float:
        return float(self.duration_s[self.parent < 0].sum())

    def select(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.names == name)

    def calls(self, name: str) -> int:
        return int(len(self.select(name)))

    def total_s(self, name: str) -> float:
        return float(self.duration_s[self.select(name)].sum())

    def total_self_s(self, name: str, self_times: np.ndarray | None = None) -> float:
        st = self.self_s() if self_times is None else self_times
        return float(st[self.select(name)].sum())

    def count(self, name: str, key: str, where=None) -> float:
        """Sum of one argument count over the spans of `name` (optionally filtered)."""
        total = 0
        for i in self.select(name):
            c = self.counts.get(int(i), {})
            if where is None or where(c):
                total += c.get(key, 0)
        return total

    def total_s_where(self, name: str, where) -> float:
        idx = [int(i) for i in self.select(name) if where(self.counts.get(int(i), {}))]
        return float(self.duration_s[idx].sum()) if idx else 0.0


@contextmanager
def instrument(tracer: Tracer):
    """Route every public function of the traced modules through `tracer`."""
    wrapped: dict[int, tuple] = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"gffpin.{short}")
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    patched = []
    for mod in [m for name, m in list(sys.modules.items()) if name.startswith("gffpin")]:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))
    try:
        yield tracer
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)
