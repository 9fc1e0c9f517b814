"""`src/` holds what a command or the benchmark runs.

Every public top-level function and class of `src/workfunc`, and every
public method of such a class, must be referenced somewhere in `src/` or
`perfbench/` outside its own definition. A reference is a name, an
attribute, an imported name, or a string naming it (the benchmark tracer
pins functions by name). A helper that only tests call fails here: port
the tests to the behaviour it served and delete it, or list it below
with the reason it stays.
"""

import ast
from pathlib import Path

import workfunc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "workfunc"

# name -> why it stays although only tests reach it
ALLOWED_TEST_ONLY = {
    "scan_mean_words": "the scan-wait fit of full `validate` is to call it (ROADMAP item 2)",
    "scan_for_zero": "the scalar reference that the lockstep scan_mean_words is tested against",
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


def _references(node: ast.AST, enclosing: frozenset, found: set) -> None:
    """Add to `found` each name `node` refers to outside a definition of that name."""
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.alias):
        names = [node.name.rsplit(".", 1)[-1]]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        names = [node.value]
    else:
        names = []
    found.update(name for name in names if name not in enclosing)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    for child in ast.iter_child_nodes(node):
        _references(child, enclosing, found)


def _unreferenced() -> set[str]:
    referenced: set[str] = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        _references(ast.parse(path.read_text(encoding="utf-8")), frozenset(), referenced)
    unreferenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name in _public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in referenced:
                unreferenced.add(f"{path.stem}.{qualified}")
    return unreferenced


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    unreferenced = _unreferenced()
    allowed = {name for name in unreferenced if name.rsplit(".", 1)[-1] in ALLOWED_TEST_ONLY}
    assert unreferenced - allowed == set()
    # an entry whose name gained a caller leaves the list
    assert {name.rsplit(".", 1)[-1] for name in allowed} == set(ALLOWED_TEST_ONLY)


def test_package_defines_only_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    docstring, *statements = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(s) for s in statements] == [f"__version__ = {workfunc.__version__!r}"]
