"""File formats of a run: JSON-lines records and CSV tables.

Records are one JSON object per line with sorted keys; numpy scalars and
arrays are written as plain numbers and lists.  Tables have a header row,
comma separators, '.' decimals and LF line endings.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import numpy as np


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
