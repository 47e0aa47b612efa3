"""Checks on the package's source text."""

import ast
import pathlib

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
