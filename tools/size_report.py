"""Size of the gffpin package: src lines, public names and settable values.

    python3 tools/size_report.py [--parent REV]

src lines: physical lines of src/gffpin/*.py.  Public names: module-level `def` and
`class` names without a leading underscore.  Settable values: the positional and keyword-only
parameters of public module-level functions, plus the constructor fields of public
dataclasses (init=False fields excluded), plus the `__init__` parameters (self excluded) of
the other public classes.  --parent counts the committed files of REV too."""

from __future__ import annotations

import argparse
import ast
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _init_field(node: ast.AST) -> bool:
    """An annotated field that the constructor takes (not `= field(init=False)`)."""
    value = getattr(node, "value", None)
    return isinstance(node, ast.AnnAssign) and not (isinstance(value, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", None) is False for k in value.keywords))


def _parameters(node: ast.FunctionDef) -> int:
    """The positional and keyword-only parameters of a function (not *args, **kwargs)."""
    a = node.args
    return len(a.posonlyargs + a.args + a.kwonlyargs)


def count(sources: list[str]) -> dict[str, int]:
    """The three counts over the given module sources."""
    out = {"src lines": 0, "public names": 0, "settable values": 0}
    for text in sources:
        out["src lines"] += len(text.splitlines())
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                out["public names"] += 1
                if isinstance(node, ast.FunctionDef):
                    out["settable values"] += _parameters(node)
                elif any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    out["settable values"] += sum(map(_init_field, node.body))
                else:
                    out["settable values"] += sum(_parameters(f) - 1 for f in node.body if
                                                  isinstance(f, ast.FunctionDef)
                                                  and f.name == "__init__")
    return out


def sources(rev: str | None) -> list[str]:
    if rev is None:
        return [p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("src/gffpin/*.py"))]
    git = ["git", "-C", str(ROOT)]
    paths = subprocess.run(git + ["ls-tree", "--name-only", rev, "src/gffpin/"], check=True,
                           capture_output=True, text=True).stdout.split()
    return [subprocess.run(git + ["show", f"{rev}:{p}"], check=True, capture_output=True,
                           text=True).stdout for p in paths if p.endswith(".py")]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="git revision to count as well")
    args = parser.parse_args()
    for label, rev in [("working tree", None)] + [(args.parent, args.parent)] * bool(args.parent):
        print(f"{label}: " + ", ".join(f"{k} {v}" for k, v in count(sources(rev)).items()))
