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

Every setting does something: an experiment function takes its settings as
keyword-only parameters, each with a default (the keys run_experiment accepts
for its registry entry), and reads every one of them without rebinding it,
found by parsing the function.

Every experiment is declared once: each module-level `_run_*` function of
experiments.py is the function of exactly one registry entry, and every entry's
function is one of them, so a function left without its `@_experiment` and a
name declared twice (the later declaration replaces the earlier) both fail.

One module owns the replica fan-out and the stream audit it extends: only
rng.py names the process pool or the active audit.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from pathlib import Path

import pytest

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


def _unread_settings(fn: ast.FunctionDef) -> list[str]:
    """The keyword-only settings of an experiment function that it never reads or that it
    rebinds; a positional, starred or default-less parameter fails the rule outright."""
    a = fn.args
    assert not (a.posonlyargs or a.args or a.vararg or a.kwarg), \
        f"{fn.name} takes a parameter other than a keyword-only setting"
    assert None not in a.kw_defaults, f"{fn.name} has a setting without a default"
    names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
    read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    bound = {n.id for n in names if not isinstance(n.ctx, ast.Load)}
    return [arg.arg for arg in a.kwonlyargs if arg.arg not in read or arg.arg in bound]


def _parsed_function(source: str) -> ast.FunctionDef:
    (fn,) = ast.parse(source).body
    return fn


def test_settings_rule_reports_unread_and_rebound_settings():
    assert _unread_settings(_parsed_function("def f():\n    return 1")) == []
    assert _unread_settings(_parsed_function(
        "def f(*, seed=1, walks=2):\n    return seed + walks")) == []
    assert _unread_settings(_parsed_function(
        "def f(*, seed=1, spare=3):\n    return seed")) == ["spare"]
    assert _unread_settings(_parsed_function(
        "def f(*, seed=1, K=0.35):\n    for K in range(3):\n        seed += K\n"
        "    return seed")) == ["seed", "K"]


def test_settings_rule_refuses_other_parameters():
    for source in ("def f(cfg):\n    return cfg['seed']", "def f(*cfg):\n    return cfg",
                   "def f(**cfg):\n    return cfg", "def f(*, seed):\n    return seed"):
        with pytest.raises(AssertionError):
            _unread_settings(_parsed_function(source))


def _experiment_functions() -> dict[str, ast.FunctionDef]:
    return {n.name: n for n in _parse_package()["experiments"].body
            if isinstance(n, ast.FunctionDef)}


def test_settings_rule_reports_a_planted_setting():
    bridge = _experiment_functions()["_run_bridge"]
    bridge.args.kwonlyargs.append(ast.arg("spare"))
    bridge.args.kw_defaults.append(ast.Constant(3))
    assert _unread_settings(bridge) == ["spare"]


def test_every_accepted_setting_is_read():
    functions = _experiment_functions()
    unread = {}
    for name, exp in sorted(experiments.REGISTRY.items()):
        fn = functions[exp.fn.__name__]
        assert list(exp.defaults) == [arg.arg for arg in fn.args.kwonlyargs], name
        assert exp.defaults == dict(exp.fn.__kwdefaults__ or {}), name
        if names := _unread_settings(fn):
            unread[name] = names
    assert not unread, f"accepted settings not read as given, per experiment: {unread}"


def _declaration_faults(registry: dict) -> list[str]:
    """Each module-level `_run_*` function of experiments.py that is not the function of
    exactly one registry entry, and each entry whose function is not one of them."""
    functions = [getattr(experiments, name) for name in _experiment_functions()
                 if name.startswith("_run_")]
    counts = [(fn.__name__, sum(exp.fn is fn for exp in registry.values())) for fn in functions]
    return ([f"{name}: {count} entries" for name, count in counts if count != 1]
            + [f"{name}: {exp.fn.__name__} is not a _run_ function"
               for name, exp in sorted(registry.items()) if exp.fn not in functions])


def test_declaration_rule_reports_a_missing_or_repeated_declaration():
    registry = dict(experiments.REGISTRY)
    del registry["copolymer"]  # _run_copolymer without its decorator
    assert _declaration_faults(registry) == ["_run_copolymer: 0 entries"]
    # "bridge-lemma" declared again on _run_thermo: the later declaration replaces the earlier
    registry = {**experiments.REGISTRY,
                "bridge-lemma": replace(experiments.REGISTRY["bridge-lemma"],
                                        fn=experiments._run_thermo)}
    assert _declaration_faults(registry) == ["_run_bridge: 0 entries", "_run_thermo: 2 entries"]
    registry = {**experiments.REGISTRY,
                "bridge-lemma": replace(experiments.REGISTRY["bridge-lemma"],
                                        fn=experiments._bridge_cell)}
    assert _declaration_faults(registry) == [
        "_run_bridge: 0 entries", "bridge-lemma: _bridge_cell is not a _run_ function"]


def test_every_experiment_function_is_declared_once():
    assert _declaration_faults(experiments.REGISTRY) == []


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
