import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("41-44") == [41, 42, 43, 44]
    assert bench_pairs.parse_seeds("3,7-8,9") == [3, 7, 8, 9]


def _runs(metric, values):
    return [{"result": {"metrics": {metric: {"value": v, "unit": "s"}}}} for v in values]


def test_summary_counts_wins_in_the_metric_direction():
    # wall_s is lower-better and ess_L_per_cpu_s higher-better in BENCHMARK.json; ties count
    # for neither side
    wall = bench_pairs.summarize(_runs("wall_s", [2.0, 2.1, 2.0, 1.9]),
                                 _runs("wall_s", [1.5, 2.1, 1.6, 2.0]))["wall_s"]
    assert (wall["change_wins"], wall["parent_wins"], wall["pairs"]) == (2, 1, 4)
    assert wall["parent_quartiles"][1] == pytest.approx(2.0)
    assert wall["change_over_parent_median"] == pytest.approx(1.8 / 2.0)
    ess = bench_pairs.summarize(_runs("ess_L_per_cpu_s", [10.0, 11.0, 12.0]),
                                _runs("ess_L_per_cpu_s", [20.0, 21.0, 22.0]))["ess_L_per_cpu_s"]
    assert ess["change_wins"] == 3 and ess["median_gap_exceeds_parent_iqr"]
