"""BENCHMARK.json names exactly the metrics the benchmark reports.

Run with: python3 -m pytest perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_metrics_match_spec():
    tracer = tracing.Tracer()
    tracer.close(tracer.open("pinning.run_chain"))
    traced = [workloads.PassResult(wall_s=1.0, cpu_s=1.0)]
    out = run.layer_metrics(tracer.spans(), traced, 1.0, {}, 2)
    assert {k: v["unit"] for k, v in out.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_end_to_end_metrics_match_spec():
    taus = {"L": workloads.ess.IACT(2.0, 10, 100), "energy": workloads.ess.IACT(1.0, 5, 100)}
    out = run.end_to_end_metrics(2.0, 2.0, 0.5, taus, passes=5)
    assert {k: v["unit"] for k, v in out.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert out["ess_L_per_cpu_s"]["value"] == 100 / 2.0 / 5 / 2.0
