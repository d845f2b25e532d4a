"""Every public module-level function and class of gffpin is reached.

A name is reached when library code outside its own definition, the
benchmark (perfbench/) or the tools (tools/) refers to it, or when it is the
console script.  The only other public names allowed are oracle routes:
independent second computations that a named test uses as the reference for
code that is reached.  References are found by parsing, not by text search:
import aliases (`from . import config as cfgmod`, `from .disorder import
penalty_f`) are resolved, and only names read (Load context) count, so a
dataclass field or keyword argument spelled like a function is not a use.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gffpin"
OUTSIDE = (ROOT / "perfbench", ROOT / "tools")

ENTRY_POINTS = {"cli.main"}  # the `gffpin` console script (pyproject.toml)

# oracle route -> the test that uses it as the reference for reached code
ORACLES = {
    "kernels.green_massive_infinite_time":
        "tests/test_kernels.py::test_green_infinite_dual_route",
    "fields.bridge_positivity_transfer":
        "tests/test_fields.py::test_bridge_sampler_matches_transfer_on_gate_cells",
    "pinning.energy":
        "tests/test_pinning.py::test_energy_bookkeeping_matches_recompute",
}


def _module_defs(tree: ast.Module) -> dict[str, ast.AST]:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _aliases(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """(local name -> gffpin module, local name -> 'module.attr') bound by imports."""
    modules: dict[str, str] = {}
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gffpin.") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix("gffpin.")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module  # None for `from . import x`
            elif node.level == 0 and (node.module or "").split(".")[0] == "gffpin":
                source = node.module.removeprefix("gffpin").removeprefix(".") or None
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source is None:
                    modules[local] = alias.name
                else:
                    names[local] = f"{source}.{alias.name}"
    return modules, names


def _references(tree: ast.Module, module: str | None) -> set[tuple[str, ast.AST]]:
    """('module.attr', node) for every read of a gffpin name in the tree."""
    modules, names = _aliases(tree)
    own = _module_defs(tree) if module else {}
    out = set()
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                out.add((f"{modules[node.value.id]}.{node.attr}", node))
        elif isinstance(node, ast.Name):
            if node.id in names:
                out.add((names[node.id], node))
            elif node.id in own:
                out.add((f"{module}.{node.id}", node))
    return out


def _inside(node: ast.AST, definition: ast.AST) -> bool:
    return definition.lineno <= node.lineno <= definition.end_lineno


def reached_and_public() -> tuple[set[str], set[str]]:
    """The package's public names, and the names read outside their own definition."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    defs = {f"{module}.{name}": node for module, tree in trees.items()
            for name, node in _module_defs(tree).items()}
    reached = set()
    for module, tree in trees.items():
        for ref, node in _references(tree, module):
            if ref not in defs or not ref.startswith(f"{module}.") or not _inside(node, defs[ref]):
                reached.add(ref)
    for root in OUTSIDE:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reached |= {ref for ref, _ in _references(tree, None)}
    return set(defs), reached


def test_every_public_name_is_reached_or_an_oracle():
    public, reached = reached_and_public()
    unreached = sorted(public - reached - ENTRY_POINTS - set(ORACLES))
    assert not unreached, f"public names nothing reaches: {', '.join(unreached)}"


def test_every_oracle_is_public_unreached_and_used_by_its_test():
    public, reached = reached_and_public()
    for name, test_id in ORACLES.items():
        assert name in public, f"oracle {name} is not a public name"
        assert name not in reached, f"oracle {name} is reached; drop it from ORACLES"
        path, _, func = test_id.partition("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        helpers = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert func in helpers, f"{test_id} does not exist"
        # the test's own body and the module-level helpers it calls
        bodies = [helpers[func]] + [helpers[n.func.id] for n in ast.walk(helpers[func])
                                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                                    and n.func.id in helpers]
        attr = name.split(".")[-1]
        used = any(isinstance(n, ast.Attribute) and n.attr == attr
                   or isinstance(n, ast.Name) and n.id == attr
                   for body in bodies for n in ast.walk(body))
        assert used, f"{test_id} does not use {name}"
