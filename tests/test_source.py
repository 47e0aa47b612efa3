"""Checks on the package's source text."""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "specgraph"


def test_no_runtime_assert():
    """python -O strips assert statements, so no check in the package is one."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


LAYERS = ("errors", "finite_field", "groups", "characters", "graph_core", "graph_families",
          "corpus", "spectra", "bounds", "cli")


def _imported(node):
    """The names that one import statement takes from the package: its modules
    and, from `from . import`, its attributes such as __version__."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("specgraph.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0 and (node.module or "").startswith("specgraph"):
        base = node.module.removeprefix("specgraph").lstrip(".")
    elif node.level == 1:
        base = node.module or ""
    else:
        return []
    return [base.split(".")[0]] if base else [a.name for a in node.names]


def test_modules_import_only_earlier_layers():
    """Each module imports, at module level or inside a function, only modules
    earlier in LAYERS, so a graph's facts never reach up to the layers that
    read them (its spectra are kept by `spectra`, not `graph_core`)."""
    assert sorted(LAYERS) == sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    found = [f"{module} imports {name}" for i, module in enumerate(LAYERS)
             for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
             for name in _imported(node)
             if name in LAYERS[i:]]
    assert found == []


def _calls(names):
    """(module, top-level definition, callee) for every call in the package of
    a function in names, by its bare name or as an attribute."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in names:
                    found.add((path.stem, getattr(top, "name", "<module>"), name))
    return found


def test_coordinates_enter_only_through_cayley_and_bi_cayley():
    """Every family builder hands its connection set to the group
    constructors as indices; coordinates come only from the raw cayley and
    bi_cayley sources and the three graphs written as coordinate literals,
    and only cayley and bi_cayley reduce them."""
    assert _calls({"_reduced", "cayley", "bi_cayley"}) == {
        ("graph_families", "cayley", "_reduced"),
        ("graph_families", "bi_cayley", "_reduced"),
        ("graph_families", "shrikhande", "cayley"),
        ("graph_families", "rook_twin", "cayley"),
        ("graph_families", "heawood", "bi_cayley"),
        ("graph_families", "_cayley", "cayley"),
        ("graph_families", "_bi_cayley", "bi_cayley"),
    }


def test_audit_records_come_only_from_the_record_builder_and_skip():
    """Every statement of the bound audit is an entry of its table: only
    `_record`, which decides each relation, and `_skip` construct an audit
    record in `bounds`, and only `audit_bounds` calls them, so that no
    statement grows its own gate or record path."""
    assert {call for call in _calls({"BoundRecord", "_record", "_skip"})
            if call[0] == "bounds"} == {
        ("bounds", "_record", "BoundRecord"),
        ("bounds", "_skip", "BoundRecord"),
        ("bounds", "audit_bounds", "_record"),
        ("bounds", "audit_bounds", "_skip"),
    }


def test_only_characters_reads_the_magnitude_tolerance():
    """The character-sum laws are stated once, in `characters`: no other
    module names MAGNITUDE_TOL, by attribute, by name or by import."""
    found = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "characters"
             for node in ast.walk(ast.parse(path.read_text()))
             if "MAGNITUDE_TOL" in (getattr(node, "id", None), getattr(node, "attr", None),
                                    getattr(node, "name", None))]
    assert found == []


def test_no_module_imports_dataclasses():
    """The records are written out: `dataclasses` would build their methods
    from source text with exec at every import of the package."""
    found = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert found == []


def test_importing_the_cli_leaves_dataclasses_unloaded():
    """numpy does not load `dataclasses` and neither does the package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, numpy, specgraph.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"
