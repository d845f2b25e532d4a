"""Size of the gffpin package: src lines, public names and settable values.

    python3 tools/size_report.py [--parent REV]

src lines: physical lines of src/gffpin/*.py.  Public names: module-level `def` and
`class` names without a leading underscore.  Settable values: the positional and keyword-only
parameters of public module-level functions, plus the constructor fields of public
dataclasses (init=False fields excluded), plus the `__init__` parameters (self excluded) of
the other public classes.  --parent counts the committed files of REV too, exported as
tools/bench_pairs.py exports a parent: where git cannot resolve or export REV (no checkout, an
unknown revision) the tool exits 2 with one error: line and prints no count."""

from __future__ import annotations

import argparse
import ast
import tempfile
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


def sources(root: Path) -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted(root.glob("src/gffpin/*.py"))]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="git revision to count as well")
    args = parser.parse_args()
    rows = [("working tree", count(sources(ROOT)))]
    if args.parent:
        from bench_pairs import export

        with tempfile.TemporaryDirectory(prefix="size-report-") as tmp:
            export(args.parent, Path(tmp))
            rows.append((args.parent, count(sources(Path(tmp)))))
    for label, row in rows:
        print(f"{label}: " + ", ".join(f"{k} {v}" for k, v in row.items()))
