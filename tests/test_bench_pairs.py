import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("41-44") == [41, 42, 43, 44]
    assert bench_pairs.parse_seeds("3,7-8,9") == [3, 7, 8, 9]


def test_a_backward_seed_range_exits_2_before_any_export(monkeypatch, capsys):
    # "5-3" used to give no seeds: the parent was exported anyway and summarize died on
    # parent[0]
    monkeypatch.setattr(bench_pairs, "export", lambda *a: pytest.fail("exported"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--pr", "0", "--workload", "mixing",
                          "--seeds", "5-3"])
    assert exc.value.code == 2
    assert "seed range '5-3' runs backwards" in capsys.readouterr().err


# each tool that reads a parent revision, with the arguments of a run that would otherwise go on
_TOOLS = {
    "bench_pairs": ["--pr", "0", "--workload", "mixing", "--seeds", "1"],
    "layer_ab": ["--repeats", "1", "--sweeps", "1"],
    "same_results": ["exact-small-box"],
    "size_report": [],
}


@pytest.mark.parametrize("tool", sorted(_TOOLS))
def test_outside_a_git_checkout_each_tool_exits_2(tmp_path, tool):
    # a copy of tools/ and src/ (and the benchmark declaration bench_pairs reads) with no
    # .git: the parent revision cannot be resolved or exported, so the tool says so in one
    # error: line and exits 2, where it used to end in a CalledProcessError traceback
    for name in ("tools", "src"):
        shutil.copytree(bench_pairs.ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_pairs.ROOT / "BENCHMARK.json", tmp_path)
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(tmp_path.parent)}
    env.pop("GIT_DIR", None)
    proc = subprocess.run([sys.executable, f"tools/{tool}.py", "--parent", "HEAD",
                           *_TOOLS[tool]], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: git ") and "HEAD" in lines[0], lines
    assert not (tmp_path / "BENCH_0.json").exists()


@pytest.mark.parametrize("tool", sorted(_TOOLS))
def test_an_unknown_revision_exits_2(tmp_path, tool):
    # git names the revision it cannot resolve in the one error: line; nothing is printed or
    # written before it
    proc = subprocess.run([sys.executable, str(bench_pairs.ROOT / "tools" / f"{tool}.py"),
                           "--parent", "nonexistent-rev", *_TOOLS[tool]], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert (len(lines) == 1 and lines[0].startswith("error: git ")
            and "nonexistent-rev" in lines[0]), lines
    assert not (bench_pairs.ROOT / "BENCH_0.json").exists()


_NO_RAW = {key: [] for key in bench_pairs.RAW}  # as in a traced run without untraced passes


def _runs(metric, values, failed=0, attempted=10):
    return [{"result": {"metrics": {metric: {"value": v, "unit": "s"}}, "failed": failed,
                        "attempted": attempted}, "info": _NO_RAW} for v in values]


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


def test_parse_workloads_takes_a_comma_list_of_declared_workloads():
    assert bench_pairs.parse_workloads("samplers") == ["samplers"]
    assert bench_pairs.parse_workloads("samplers,mixing,doubling") == ["samplers", "mixing",
                                                                        "doubling"]
    with pytest.raises(argparse.ArgumentTypeError, match="sampler"):
        bench_pairs.parse_workloads("samplers,sampler")


def test_summary_records_each_sides_failed_share():
    summary = bench_pairs.summarize(_runs("wall_s", [1.0, 1.0], failed=0, attempted=18),
                                    _runs("wall_s", [1.0, 1.0], failed=3, attempted=18))
    assert summary["failed_share"] == {
        "parent": {"failed": 0, "attempted": 36, "share": 0.0},
        "change": {"failed": 6, "attempted": 36, "share": pytest.approx(6 / 36)}}


def test_summary_rows_one_per_metric():
    parent = [{"result": {"metrics": {"wall_s": {"value": w}, "info_only": {"value": 1.0}},
                          "failed": 0, "attempted": 4}, "info": _NO_RAW} for w in (2.0, 2.2)]
    change = [{"result": {"metrics": {"wall_s": {"value": w}, "info_only": {"value": 1.0}},
                          "failed": 1, "attempted": 4}, "info": _NO_RAW} for w in (1.5, 1.6)]
    rows = bench_pairs.summary_rows(bench_pairs.summarize(parent, change))
    assert len(rows) == 1 + 2 + 1  # header, two metrics, the failed operations
    assert rows[1].split()[0] == "wall_s" and rows[1].split()[-2:] == ["2/2", "yes"]
    assert rows[2].split()[0] == "info_only" and rows[2].split()[-2:] == ["-", "-"]
    assert rows[3].split()[-2:] == ["0/8", "2/8"]


def test_summary_records_raw_medians_of_run_medians():
    def side(walls, speed):
        runs = _runs("wall_s", [1.0] * len(walls))
        for run, w in zip(runs, walls):
            run["info"] = {"pass_wall_s": w, "pass_cpu_s": [x - 0.01 for x in w],
                           "pass_speed": [speed] * len(w), "raw_setup_probe_s": []}
        return runs

    # run medians 2.0, 3.0 and 10.0 on the parent, 2.0, 2.0 and 4.0 on the change
    summary = bench_pairs.summarize(side([[1.0, 2.0, 9.0], [3.0], [10.0, 10.0]], 0.5),
                                    side([[2.0], [1.0, 2.0, 3.0], [4.0, 5.0, 3.0]], 0.6))
    assert summary["raw"] == {
        "parent": {"pass_wall_s": 3.0, "pass_cpu_s": pytest.approx(2.99), "pass_speed": 0.5,
                   "raw_setup_probe_s": None},
        "change": {"pass_wall_s": 2.0, "pass_cpu_s": pytest.approx(1.99), "pass_speed": 0.6,
                   "raw_setup_probe_s": None}}
    rows = bench_pairs.summary_rows(summary)
    raw = [r for r in rows if r.startswith("raw ")]
    assert [r.split()[1] for r in raw] == ["pass_wall_s", "pass_cpu_s", "pass_speed"]
    assert all("not a metric" in r for r in raw)
    assert raw[0].split()[-3:] == ["3", "2", "0.667"]
    assert rows[-1].startswith("failed/attempted ops")


def test_summary_applies_each_end_to_end_bound():
    # wall_s may be 20 % worse (lower-better) and ess_L_per_cpu_s 25 % (higher-better), as
    # BENCHMARK.json bounds them; a parent IQR wider than the bound leaves the rule unresolved
    def verdict(metric, parent, change):
        entry = bench_pairs.summarize(_runs(metric, parent), _runs(metric, change))[metric]
        return entry["bound"], entry["worse_beyond_bound"]

    assert verdict("wall_s", [1.0, 1.0, 1.0], [1.3, 1.3, 1.3]) == (0.2, "yes")
    assert verdict("wall_s", [1.0, 1.0, 1.0], [1.15, 1.15, 1.15]) == (0.2, "no")
    assert verdict("wall_s", [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]) == (0.2, "no")
    assert verdict("wall_s", [0.7, 1.0, 1.3], [2.0, 2.0, 2.0]) == (0.2, "unresolved")
    assert verdict("wall_s", [0.7, 1.0, 1.3], [0.9, 0.9, 0.9]) == (0.2, "unresolved")
    # a wide parent spread is resolved when every run of the change beats every parent run
    assert verdict("wall_s", [0.7, 1.0, 1.3], [0.6, 0.65, 0.69]) == (0.2, "no")
    assert verdict("ess_L_per_cpu_s", [100.0] * 3, [70.0] * 3) == (0.25, "yes")
    assert verdict("ess_L_per_cpu_s", [100.0] * 3, [80.0] * 3) == (0.25, "no")
    assert verdict("ess_L_per_cpu_s", [100.0] * 3, [300.0] * 3) == (0.25, "no")
    # per-layer metrics carry no bound, nor do metrics BENCHMARK.json does not declare
    summary = bench_pairs.summarize(_runs("pinning.sweeps", [1.0, 2.0]),
                                    _runs("pinning.sweeps", [1.0, 2.0]))
    assert "worse_beyond_bound" not in summary["pinning.sweeps"]
    rows = bench_pairs.summary_rows(bench_pairs.summarize(_runs("wall_s", [1.0, 1.0]),
                                                          _runs("wall_s", [1.3, 1.3])))
    assert rows[0].split()[4] == "worse>bound" and rows[1].split()[4] == "yes"
