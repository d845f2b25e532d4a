import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from gffpin import experiments

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_results.py"
_spec = importlib.util.spec_from_file_location("same_results", _PATH)
same_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_results)


def _run_dir(path: Path, records, streams, wall_time=1.0, table="h,value\n0.1,0.25\n",
             passed=None, config=None):
    path.mkdir()
    stamp = {"experiment": "x", "wall_time": wall_time, "git": f"rev-{wall_time}",
             "streams": streams, "passed": passed, "config": config or {"seed": 1, "threads": 1}}
    lines = [json.dumps(r, sort_keys=True) for r in [stamp] + records]
    (path / "results.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (path / "curve.csv").write_text(table, encoding="utf-8")
    return path


@pytest.fixture
def parent(tmp_path):
    return _run_dir(tmp_path / "parent", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"])


def test_runs_cover_every_registered_experiment():
    # --all promises every registered experiment, so a bit-for-bit check misses none
    assert {name for name, _, _ in same_results.RUNS} == set(experiments.REGISTRY)


def test_same_output_matches_despite_stamp_time_and_revision(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"],
                      wall_time=2.0)
    assert same_results.compare(parent, change) == []


def test_changed_record_is_reported(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.12500000000000003]}, {"gap": -1.5}],
                      ["a", "b"])
    diff, = same_results.compare(parent, change)
    assert diff.startswith("results.jsonl line 2 differs")


def test_changed_stream_list_is_reported(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "c"])
    assert same_results.compare(parent, change) == [
        "stamp streams differ at entry 1: parent 'b', change 'c' (parent 2 ids, change 2)"]


def test_a_shorter_stream_list_is_reported_with_both_lengths(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a"])
    assert same_results.compare(parent, change) == [
        "stamp streams differ at entry 1: parent 'b', change None (parent 2 ids, change 1)"]


def test_changed_table_is_reported(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"],
                      table="h,value\n0.1,0.26\n")
    diff, = same_results.compare(parent, change)
    assert diff.startswith("table curve.csv differs")


def test_changed_verdict_is_reported(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"],
                      passed=True)
    assert same_results.compare(parent, change) == [
        "stamp passed differs: parent None, change True"]


def test_changed_config_is_reported(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"],
                      config={"seed": 1, "threads": 2})
    diff, = same_results.compare(parent, change)
    assert diff == "stamp config differs at threads: parent 1, change 2"
    assert same_results.config_notes(parent, change) == []


@pytest.mark.parametrize("config,note", [
    ({"seed": 1, "threads": 1, "sweeps": 4}, "setting sweeps is only on the change side"),
    ({"seed": 1}, "setting threads is only on the parent side"),
], ids=["added", "dropped"])
def test_a_setting_on_one_side_only_is_a_note(parent, tmp_path, config, note):
    # a change that adds or drops a setting can still show that it kept its outputs
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"],
                      config=config)
    assert same_results.compare(parent, change) == []
    assert same_results.config_notes(parent, change) == [note]


def test_a_dropped_setting_beside_a_changed_value(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"],
                      config={"seed": 2})
    assert same_results.compare(parent, change) == [
        "stamp config differs at seed: parent 1, change 2"]
    assert same_results.config_notes(parent, change) == [
        "setting threads is only on the parent side"]


def test_check_prints_notes_after_the_verdict(tmp_path, monkeypatch):
    # both sides stand in for a run that wrote its --out directory and printed two lines
    def fake_run(root, args, out):
        _run_dir(out, [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"],
                 config={"seed": 1} if root == same_results.ROOT else None)
        return subprocess.CompletedProcess([], 0, stdout="[PASS] a\nx: wall time 1 s\n",
                                           stderr="")

    monkeypatch.setattr(same_results, "run", fake_run)
    ok, text = same_results.check(tmp_path / "parent-root", None, tmp_path)
    assert ok and text.splitlines() == [
        "IDENTICAL: exit 0, 1 printed lines, 2 result lines, 2 streams, 1 tables",
        "note: setting threads is only on the parent side"]


def test_every_difference_is_reported(parent, tmp_path):
    # the config differs and so does a later record: both are named, stamp first
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -2.5}, {"n": 1}],
                      ["a", "b"], passed=True, config={"seed": 1, "threads": 3})
    diffs = same_results.compare(parent, change)
    assert diffs[:2] == ["stamp config differs at threads: parent 1, change 3",
                         "stamp passed differs: parent None, change True"]
    assert diffs[2].startswith("results.jsonl line 3 differs")
    assert diffs[3:] == ["results.jsonl line 4 is only on the change side"]


def test_printed_lines_compare_all_but_the_wall_time():
    parent = "[PASS] gap 1.00\nx: wall time 3.0 s\n"
    assert same_results.compare_printed(parent, "[PASS] gap 1.00\nx: wall time 9.1 s\n") == []
    diff, = same_results.compare_printed(parent, "[FAIL] gap 1.00\nx: wall time 3.0 s\n")
    assert diff.startswith("printed line 1 differs")
    assert same_results.compare_printed(parent, "x: wall time 3.0 s\n") == [
        "printed line 1 is only on the parent side"]
    assert same_results.compare_printed("a\nb\nc\nx: wall time 1 s\n", "b\nx: wall time 1 s\n") == [
        "printed line 1 differs " + same_results._first_diff("a", "b"),
        "printed lines 2-3 are only on the parent side"]


def _proc(code, stderr=""):
    return subprocess.CompletedProcess([], code, stdout="", stderr=stderr)


def test_two_alike_refusals_match():
    err = "Traceback line\nerror: too few scales at N=64\n"
    assert same_results.compare_refusals(_proc(2, err), _proc(2, err + "\n")) is None


@pytest.mark.parametrize("parent,change,start", [
    (_proc(2, "error: a\n"), _proc(0), "only the parent side was refused: exit 2 on the parent"),
    (_proc(1), _proc(2, "error: a\n"), "only the change side was refused: exit 1 on the parent"),
    (_proc(2, "error: a\n"), _proc(3, "error: a\n"), "both refused, with exit 2 on the parent"),
    (_proc(2, "error: a\n"), _proc(2, "error: b\n"), "refused with another message"),
], ids=["parent-only", "change-only", "other-status", "other-message"])
def test_other_refusal_pairings_differ(parent, change, start):
    assert same_results.compare_refusals(parent, change).startswith(start)


def test_both_sides_run_when_the_parent_refuses(monkeypatch, tmp_path, capsys):
    # the parent's refusal no longer stops the comparison before the change side runs
    ran = []

    def fake_run(root, args, out):
        ran.append(root)
        return _proc(2, "error: refused\n")

    monkeypatch.setattr(same_results, "run", fake_run)
    monkeypatch.setitem(sys.modules, "bench_pairs",
                        types.SimpleNamespace(export=lambda rev, dest: dest.mkdir()))
    assert same_results.main(["--parent", "HEAD", "extremal-event"]) == 0
    assert len(ran) == 2 and ran[1] == same_results.ROOT
    assert "IDENTICAL: both refused with exit 2: error: refused" in capsys.readouterr().out


def test_all_runs_cover_every_registered_experiment():
    # a new experiment cannot be left out of --all
    assert sorted({name for name, _, _ in same_results.RUNS}) == sorted(experiments.REGISTRY)
    assert all(experiments.REGISTRY[name].defaults.keys() >= {item.split("=")[0] for item in sets}
               for name, sets, _ in same_results.RUNS)


def test_all_prints_one_line_per_run_and_fails_on_any_difference(monkeypatch, capsys):
    ran = []

    def fake_run(root, args, out):
        ran.append((args.experiment, tuple(args.set), args.threads))
        message = "error: b" if root == same_results.ROOT and args.threads == 2 else "error: a"
        return _proc(2, message)

    monkeypatch.setattr(same_results, "run", fake_run)
    monkeypatch.setitem(sys.modules, "bench_pairs",
                        types.SimpleNamespace(export=lambda rev, dest: dest.mkdir()))
    assert same_results.main(["--parent", "HEAD", "--all"]) == 1
    assert ran[::2] == ran[1::2] == [(e, tuple(s), t) for e, s, t in same_results.RUNS]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(same_results.RUNS) + 1
    threaded = [line for line in lines if "--threads 2" in line]
    assert len(threaded) == 5 and all("DIFFERENT: refused with another message" in line
                                      for line in threaded)
    assert lines[-1] == f"{len(same_results.RUNS) - 5} of {len(same_results.RUNS)} runs identical"


@pytest.mark.parametrize("argv", [[], ["x", "--all"], ["--all", "--threads", "2"]],
                         ids=["neither", "both", "all-with-threads"])
def test_all_or_one_experiment(argv):
    with pytest.raises(SystemExit) as exc:
        same_results.main(["--parent", "HEAD"] + argv)
    assert exc.value.code == 2
