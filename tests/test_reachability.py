"""Every public module-level function and class of gffpin is reached, and so
is every member of a public class.

A name is reached when library code outside its own definition refers to
it, or when it is the console script; a reference from the benchmark
(perfbench/), the tools (tools/) or the tests does not count.  The only other
public names allowed are oracle routes: independent second computations that
a named test uses as the reference for code that is reached.  References are
found by parsing, not by text search: the library's relative import aliases
(`from . import config as cfgmod`, `from .disorder import penalty_f`) are
resolved, and only names read (Load context) count, so a dataclass field or
keyword argument spelled like a function is not a use.

The members of a public class are its fields (annotated assignments), its
properties and its public methods.  A member is reached when an attribute
read of its name exists in the library outside its own definition.  Types
are not inferred, so a member that shares its name with a reached one passes
unseen.  The members allowed
beside those are listed below with their reasons: oracle members (with the
test that uses each) and stored fault records.

Every setting does something: the config keys that run_experiment accepts for
a registry entry are exactly the `cfg[...]` keys its experiment function reads,
found by parsing the function.

One module owns the replica fan-out and the stream audit it extends: only
rng.py names the process pool or the active audit.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from gffpin import experiments

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gffpin"

ENTRY_POINTS = {"cli.main"}  # the `gffpin` console script (pyproject.toml)

# oracle route -> the test that uses it as the reference for reached code
ORACLES = {
    "kernels.green_massive_infinite_time":
        "tests/test_kernels.py::test_green_infinite_dual_route",
    "fields.bridge_positivity_transfer":
        "tests/test_fields.py::test_bridge_sampler_matches_transfer_on_gate_cells",
    "pinning.energy":
        "tests/test_pinning.py::test_energy_bookkeeping_matches_recompute",
    "disorder.event_E_cell":
        "tests/test_disorder.py::test_penalty_counts_the_cells_where_the_event_fires",
    "pinning.heat_bath_sweep":
        "tests/test_pinning.py::test_cycle_keeps_the_heat_bath_law",
    "kernels.green_dirichlet_solve":
        "tests/test_kernels.py::test_green_dirichlet_two_routes",
}

# oracle member -> the test that uses it as the reference for reached code
MEMBER_ORACLES = {
    "kernels.ScaleTimeGrid.slice_mass":
        "tests/test_kernels.py::test_scale_grid_slices",
}

# member kept as a record of a numerical fault -> the function that stores it
FAULT_RECORDS = {
    "fields.BoundaryCondition.jitter": "fields.sample_boundary_infinite_massive",
}


def _parse_package() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _module_defs(tree: ast.Module) -> dict[str, ast.AST]:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _aliases(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """(local name -> gffpin module, local name -> 'module.attr') bound by the
    relative imports of a package module."""
    modules: dict[str, str] = {}
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:  # `from . import x`
                    modules[local] = alias.name
                else:
                    names[local] = f"{node.module}.{alias.name}"
    return modules, names


def _references(tree: ast.Module, module: str) -> set[tuple[str, ast.AST]]:
    """('module.attr', node) for every read of a gffpin name in the package module."""
    modules, names = _aliases(tree)
    own = _module_defs(tree)
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
    trees = _parse_package()
    defs = {f"{module}.{name}": node for module, tree in trees.items()
            for name, node in _module_defs(tree).items()}
    reached = set()
    for module, tree in trees.items():
        for ref, node in _references(tree, module):
            if ref not in defs or not ref.startswith(f"{module}.") or not _inside(node, defs[ref]):
                reached.add(ref)
    return set(defs), reached


def _members(trees: dict[str, ast.Module]) -> dict[str, ast.AST]:
    """'module.Class.member' -> definition, over the public classes' fields,
    properties and public methods."""
    out = {}
    for module, tree in trees.items():
        for cls in _module_defs(tree).values():
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                elif isinstance(node, ast.FunctionDef):
                    name = node.name
                else:
                    continue
                if not name.startswith("_"):
                    out[f"{module}.{cls.name}.{name}"] = node
    return out


def _attribute_reads(tree: ast.AST) -> list[ast.Attribute]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


def members_and_reached() -> tuple[set[str], set[str]]:
    """The public classes' members, and those whose name some attribute read reaches."""
    trees = _parse_package()
    members = _members(trees)
    library = {module: _attribute_reads(tree) for module, tree in trees.items()}
    reached = set()
    for member, definition in members.items():
        attr = member.split(".")[-1]
        home = member.split(".")[0]
        if any(
                node.attr == attr and not (module == home and _inside(node, definition))
                for module, reads in library.items() for node in reads):
            reached.add(member)
    return set(members), reached


def _function(dotted: str) -> ast.FunctionDef | None:
    module, _, name = dotted.partition(".")
    tree = _parse_package()[module]
    return next((n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name),
                None)


def _test_uses(test_id: str, attr: str) -> bool:
    """Whether the test, or a module-level helper it calls, refers to attr."""
    path, _, func = test_id.partition("::")
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    helpers = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert func in helpers, f"{test_id} does not exist"
    bodies = [helpers[func]] + [helpers[n.func.id] for n in ast.walk(helpers[func])
                                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                                and n.func.id in helpers]
    return any(isinstance(n, ast.Attribute) and n.attr == attr
               or isinstance(n, ast.Name) and n.id == attr
               for body in bodies for n in ast.walk(body))


def test_every_public_name_is_reached_or_an_oracle():
    public, reached = reached_and_public()
    unreached = sorted(public - reached - ENTRY_POINTS - set(ORACLES))
    assert not unreached, f"public names nothing reaches: {', '.join(unreached)}"


def test_every_oracle_is_public_unreached_and_used_by_its_test():
    public, reached = reached_and_public()
    for name, test_id in ORACLES.items():
        assert name in public, f"oracle {name} is not a public name"
        assert name not in reached, f"oracle {name} is reached; drop it from ORACLES"
        assert _test_uses(test_id, name.split(".")[-1]), f"{test_id} does not use {name}"


def test_every_member_is_reached_or_allowed():
    members, reached = members_and_reached()
    unreached = sorted(members - reached - set(MEMBER_ORACLES) - set(FAULT_RECORDS))
    assert not unreached, f"class members nothing reaches: {', '.join(unreached)}"


def test_every_member_oracle_is_unreached_and_used_by_its_test():
    members, reached = members_and_reached()
    for name, test_id in MEMBER_ORACLES.items():
        assert name in members, f"oracle member {name} does not exist"
        assert name not in reached, f"oracle member {name} is reached; drop it from MEMBER_ORACLES"
        assert _test_uses(test_id, name.split(".")[-1]), f"{test_id} does not use {name}"


def test_every_fault_record_is_stored_and_unread():
    members, reached = members_and_reached()
    for name, writer in FAULT_RECORDS.items():
        assert name in members, f"fault record {name} does not exist"
        assert name not in reached, f"fault record {name} is read; drop it from FAULT_RECORDS"
        fn = _function(writer)
        assert fn is not None, f"{writer} does not exist"
        attr = name.split(".")[-1]
        assert any(isinstance(n, ast.keyword) and n.arg == attr for n in ast.walk(fn)), \
            f"{writer} does not store {name}"


def _config_reads(fn: ast.FunctionDef) -> set[str]:
    """The keys an experiment function reads from its config, its first parameter;
    every read of the config must be a subscript by a string literal."""
    cfg = fn.args.args[0].arg
    names = [n for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == cfg]
    reads = [n.slice for n in ast.walk(fn) if isinstance(n, ast.Subscript)
             and isinstance(n.value, ast.Name) and n.value.id == cfg]
    assert len(reads) == len(names) and all(isinstance(k, ast.Constant) for k in reads), \
        f"{fn.name} uses its config other than as cfg['key']"
    return {k.value for k in reads}


def test_every_accepted_setting_is_read(monkeypatch):
    functions = {n.name: n for n in _parse_package()["experiments"].body
                 if isinstance(n, ast.FunctionDef)}
    mismatched = {}
    for name, exp in sorted(experiments.REGISTRY.items()):
        accepted = {}

        def keep(cfg, accepted=accepted):
            accepted.update(cfg)
            return [], [], {}

        monkeypatch.setitem(experiments.REGISTRY, name, dataclasses.replace(exp, fn=keep))
        experiments.run_experiment(name)  # the config it resolves holds every accepted key
        reads = _config_reads(functions[exp.fn.__name__])
        if set(accepted) != reads:
            mismatched[name] = (sorted(set(accepted) - reads), sorted(reads - set(accepted)))
    unread = sum(len(extra) for extra, _ in mismatched.values())
    assert not mismatched, (f"{unread} accepted values unread; per experiment "
                            f"(accepted but unread, read but not accepted): {mismatched}")


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name a module spells: names, attributes, imports, globals and definitions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(filter(None, (node.name.split(".")[-1], node.asname)))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            out.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def test_only_rng_owns_the_process_pool_and_the_stream_audit():
    owners = {name: sorted(module for module, tree in _parse_package().items()
                           if name in _identifiers(tree))
              for name in ("ProcessPoolExecutor", "_AUDIT")}
    assert owners == {"ProcessPoolExecutor": ["rng"], "_AUDIT": ["rng"]}
