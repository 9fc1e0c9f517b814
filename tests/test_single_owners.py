"""Each price is decided in one module of `src/`.

- A rate is a number of bytes/s. `devices` works it out (`fleet_rate`,
  `resource_rate`) and `estimators` takes it, importing nothing from
  `devices`.
- A table's tolerance is read from `refdata` by `reports` alone, which
  sets it on the `Report` it builds; `report_failures` reads it there.
- A machine's step price is its `information`, in bytes: `game` has no
  description object and no flat price to override it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "workfunc"


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _imports_from(tree: ast.Module, module: str) -> list[str]:
    """The names `tree` imports from the package's `module`, or the module itself."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if source in (module, f"workfunc.{module}"):
                names += [alias.name for alias in node.names]
            elif source in ("", "workfunc"):
                names += [alias.name for alias in node.names if alias.name == module]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name == f"workfunc.{module}"]
    return names


def _tolerances_read(tree: ast.Module) -> set[str]:
    """The `refdata` names ending in TOLERANCE that `tree` reads."""
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "refdata"
    }
    read.update(_imports_from(tree, "refdata"))
    return {name for name in read if name.endswith("TOLERANCE")}


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name, attribute, parameter, keyword, import and definition in
    `tree`, and every word of its strings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.replace("`", " ").split())
    return found


def test_estimators_take_a_rate_and_import_nothing_from_devices():
    assert _imports_from(_tree("estimators"), "devices") == []


def test_only_reports_reads_a_table_tolerance():
    readers = {
        path.stem: _tolerances_read(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {module for module, names in readers.items() if names} == {"reports"}
    assert readers["reports"] == {
        "TABLE1_TOLERANCE", "TABLE2_TOLERANCE", "TABLE3_TIME_TOLERANCE", "BREAK_SUITE_TOLERANCE",
    }


def test_the_game_prices_a_step_by_information_alone():
    names = _identifiers(_tree("game"))
    assert names.isdisjoint({"MachineSpec", "per_step_information"})
    assert "information" in names
