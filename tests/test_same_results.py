import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_results.py"
_spec = importlib.util.spec_from_file_location("same_results", _PATH)
same_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_results)


def _run_dir(path: Path, records, streams, wall_time=1.0, table="h,value\n0.1,0.25\n"):
    path.mkdir()
    stamp = {"experiment": "x", "wall_time": wall_time, "git": f"rev-{wall_time}",
             "streams": streams}
    lines = [json.dumps(r, sort_keys=True) for r in [stamp] + records]
    (path / "results.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (path / "curve.csv").write_text(table, encoding="utf-8")
    return path


@pytest.fixture
def parent(tmp_path):
    return _run_dir(tmp_path / "parent", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"])


def test_same_output_matches_despite_stamp_time_and_revision(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"],
                      wall_time=2.0)
    assert same_results.compare(parent, change) is None


def test_changed_record_is_reported(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.12500000000000003]}, {"gap": -1.5}],
                      ["a", "b"])
    diff = same_results.compare(parent, change)
    assert diff.startswith("results.jsonl line 2 differs")


def test_changed_stream_list_is_reported(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "c"])
    assert same_results.compare(parent, change) == (
        "stamp streams differ at entry 1: parent 'b', change 'c'")


def test_changed_table_is_reported(parent, tmp_path):
    change = _run_dir(tmp_path / "change", [{"F": [0.0, 0.125]}, {"gap": -1.5}], ["a", "b"],
                      table="h,value\n0.1,0.26\n")
    assert same_results.compare(parent, change).startswith("table curve.csv differs")
