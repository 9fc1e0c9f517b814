"""`src/` holds what a command or the benchmark runs.

Every public top-level function and class of `src/workfunc`, and every
public method of such a class, must be referenced somewhere in `src/` or
`perfbench/` outside its own definition. A reference is a name, an
attribute or an imported name; in `perfbench/` a string naming it counts
too, since the benchmark tracer pins functions by name. A string in
`src/` is data (an operation label, a column title), not a reference.
Every annotated field of a public class, and every public attribute that
a public class sets on `self` in `__init__`, must be read as an attribute
(`x.field`) somewhere in `src/` or `perfbench/`: a field that is only
ever set, by keyword, by default or by `+=`, holds nothing a command
uses, and a local variable of the same name is no read of it. A helper
that only tests call fails here: port the tests to the behaviour it
served and delete it, or list it below with the reason it stays.
"""

import ast
from pathlib import Path

import workfunc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "workfunc"

# name -> why it stays although only tests reach it
ALLOWED_TEST_ONLY: dict[str, str] = {}

# field name -> why it stays although nothing in `src/` or `perfbench/` reads it
ALLOWED_UNREAD_FIELDS = {
    "charges_total": "the second computation of the ledger identity "
    "config.budget - budget_remaining == charges_total",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name) of each public top-level def, class and method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _self_attributes(init: ast.FunctionDef):
    """Public attribute names that `init` sets on `self`."""
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for part in ast.walk(target):
                if (
                    isinstance(part, ast.Attribute)
                    and isinstance(part.value, ast.Name)
                    and part.value.id == "self"
                    and not part.attr.startswith("_")
                ):
                    yield part.attr


def _fields(tree: ast.Module):
    """(qualified name, bare name) of each annotated field of a public class
    and each public attribute its `__init__` sets on `self`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id
                elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    for name in _self_attributes(item):
                        yield f"{node.name}.{name}", name


def _references(node: ast.AST, enclosing: frozenset, found: set, strings: bool) -> None:
    """Add to `found` each name `node` refers to outside a definition of
    that name; string constants count only if `strings`."""
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.alias):
        names = [node.name.rsplit(".", 1)[-1]]
    elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        names = [node.value]
    else:
        names = []
    found.update(name for name in names if name not in enclosing)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    for child in ast.iter_child_nodes(node):
        _references(child, enclosing, found, strings)


def _trees():
    """(tree, whether its strings are references) of each file in `src/` and `perfbench/`."""
    for root, strings in (("src", False), ("perfbench", True)):
        for path in sorted((ROOT / root).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8")), strings


def _unreferenced(definitions, referenced: set[str]) -> set[str]:
    """Qualified names of the `definitions(tree)` of `src/workfunc` not in `referenced`."""
    unreferenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name in definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in referenced:
                unreferenced.add(f"{path.stem}.{qualified}")
    return unreferenced


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    referenced: set[str] = set()
    for tree, strings in _trees():
        _references(tree, frozenset(), referenced, strings)
    unreferenced = _unreferenced(_public_definitions, referenced)
    allowed = {name for name in unreferenced if name.rsplit(".", 1)[-1] in ALLOWED_TEST_ONLY}
    assert unreferenced - allowed == set()
    # an entry whose name gained a caller leaves the list
    assert {name.rsplit(".", 1)[-1] for name in allowed} == set(ALLOWED_TEST_ONLY)


def test_every_field_of_a_public_class_is_read_outside_the_tests():
    read = {
        node.attr
        for tree, _ in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = _unreferenced(_fields, read)
    allowed = {name for name in unread if name.rsplit(".", 1)[-1] in ALLOWED_UNREAD_FIELDS}
    assert unread - allowed == set()
    # an entry whose field gained a read leaves the list
    assert {name.rsplit(".", 1)[-1] for name in allowed} == set(ALLOWED_UNREAD_FIELDS)


def test_package_defines_only_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    docstring, *statements = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(s) for s in statements] == [f"__version__ = {workfunc.__version__!r}"]
