"""Traced-pass integrity: self times add up and the top-level spans cover the pass.

The coverage test runs one pass of each workload (about 15 s in all).
Run with: python3 -m pytest perfbench/tests
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from gffpin import disorder, lattice, pinning  # noqa: E402


def test_self_times_sum_to_span_durations():
    tracer = tracing.Tracer()
    a = tracer.open("a")
    time.sleep(0.002)
    b = tracer.open("b")
    time.sleep(0.003)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(b)
    d = tracer.open("d")
    time.sleep(0.001)
    tracer.close(d)
    tracer.close(a)
    spans = tracer.spans()
    self_s = spans.self_s()
    assert list(spans.parent) == [-1, 0, 1, 0]
    assert np.all(self_s >= 0.0)
    # every span's self time plus its children's durations is its own duration
    for i in range(len(self_s)):
        children = spans.duration_s[spans.parent == i].sum()
        assert self_s[i] + children == pytest.approx(spans.duration_s[i], abs=1e-12)
    # so the self times of a tree add up to the duration of its root
    assert self_s.sum() == pytest.approx(spans.top_level_s(), abs=1e-12)


def test_instrument_wraps_and_restores_library_functions():
    original = pinning.heat_bath_sweep
    tracer = tracing.Tracer()
    geom = lattice.build_box(6)
    with tracing.instrument(tracer):
        assert pinning.heat_bath_sweep is not original
        omega = disorder.sample_disorder(geom, disorder.GAUSSIAN, np.random.default_rng(0))
        chain = pinning.make_chain(geom, pinning.PinningParams(beta=0.5, h=0.1), omega,
                                   np.random.default_rng(1))
        pinning.heat_bath_sweep(chain, 3)
    assert pinning.heat_bath_sweep is original
    spans = tracer.spans()
    assert spans.count("pinning.heat_bath_sweep", "sweeps") == 3
    assert spans.count("pinning.heat_bath_sweep", "sites") == 3 * 25
    assert spans.calls("pinning.sample_banded_conditional") == 6
    assert spans.count("pinning.sample_banded_conditional", "sites") == 3 * 25
    # make_chain reaches the extension through the name pinning imported
    assert spans.calls("fields.harmonic_extension") == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_top_level_spans_cover_the_pass(name):
    wl = workloads.WORKLOADS[name](seed=3, seconds=1.0)
    wl.setup()
    wl.prepare()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        res = workloads.timed_pass(wl, 0)
    wl.after_pass()
    assert not res.error
    assert wl.checks and all(c.ok for c in wl.checks)
    spans = tracer.spans()
    assert spans.top_level_s() / res.wall_s >= 0.95
    self_s = spans.self_s()
    assert self_s.min() >= -1e-9
    assert self_s.sum() == pytest.approx(spans.top_level_s(), rel=1e-9)
