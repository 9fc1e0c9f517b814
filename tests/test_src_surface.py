"""`src/` holds what a command or the benchmark runs.

Every public top-level function and class of `src/workfunc`, and every
public method of such a class, must be referenced somewhere in `src/` or
`perfbench/` outside its own definition. A reference is a name, an
attribute or an imported name. A string is data (an operation label, a
column title), not a reference, but for the names in `TRACER_ONLY`: the
benchmark tracer pins those by a string in `perfbench/` and nothing else
calls them.
Every annotated field of a public class, and every public attribute that
a public class sets on `self` in `__init__`, must be read as an attribute
(`x.field`) somewhere in `src/` or `perfbench/`: a field that is only
ever set, by keyword, by default or by `+=`, holds nothing a command
uses, and a local variable of the same name is no read of it. A read is
matched to its class: it counts only in a file where no other class has
a field of that name (perfbench's `workload.bias` reads its own
`Workload`), and a field whose name another `src/` class shares is read
only by the function that `SHARED_FIELD_READERS` names for it. Every
public module-level constant must be read in `src/` or `perfbench/`
too, and every defaulted parameter of a public function, method or class
set by some call there. A helper, or an option, that only tests use fails
here: port the tests to the behaviour it served and delete it, or list it
below with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

import workfunc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "workfunc"

# name -> why it stays although only tests reach it
ALLOWED_TEST_ONLY: dict[str, str] = {}

# public name that only a string in `perfbench/` reaches -> why the tracer
# needs it; each goes once the bench reads the program's own metrics
# (ROADMAP item 4)
TRACER_ONLY = {
    "game.wins_challenge": "the tracer times adjudication by this name; `play` calls `_adjudicate`",
    "toycrypto.KeystreamGen.next_bytes": "the tracer wraps it with `next_bits` as the keystream layer; "
    "no command draws bytes",
}

# defaulted parameter ("module.function.parameter") that no call in `src/`
# or `perfbench/` sets -> the test that sets it
TEST_SET_DEFAULTS = {
    "experiments.keystream_bias_experiment.bias": "the keystream twin's lockstep test counts the ones "
    "of one call at biases 0 to 1",
    "experiments.keystream_bias_experiment.seed": "the keystream twin's lockstep test reaches the "
    "undecided top byte at seed 'tie'",
    "experiments.state_search_candidates_tested.window": "the tie tests leave states unpinned with a "
    "one-word window",
    "toycrypto.ToyCipher.block_bits": "acceptance criterion 8 enumerates every block of a 16-bit cipher",
}

# field name -> why it stays although nothing in `src/` or `perfbench/` reads it
ALLOWED_UNREAD_FIELDS = {
    "charges_total": "the second computation of the ledger identity "
    "config.budget - budget_remaining == charges_total",
}

# a field whose name another `src/` class's field shares -> the function
# ("module.function" or "module.Class.method", in `src/` or `perfbench/`)
# that reads it
SHARED_FIELD_READERS = {
    "devices.DeviceSpec.name": "devices.find_device",
    "devices.Fleet.unit_count": "devices.fleet_rate",
    "estimators.AttackEstimate.expected_seconds": "reports.build_break_suite_report",
    "estimators.DictionaryStats.entries": "cli._estimate_dictionary",
    "estimators.Tf1Estimate.expected_seconds": "reports.build_state_search_report",
    "experiments.KeySearchResult.cost": "experiments.meter_ledger_experiment",
    "experiments.StateSearchResult.cost": "experiments.meter_ledger_experiment",
    "game.GameTranscript.entries": "game.export_transcript",
    "game.Move.kind": "game.play",
    "refdata.Table2Cell.unit_count": "reports.build_cost_per_bit_report",
    "refdata.Table3Row.expected_seconds": "reports.build_state_search_report",
    "refdata.Table3Row.word_bits": "reports.table3_estimate",
    "reports.Check.name": "cli.cmd_validate",
    "reports.Check.tolerance": "reports.Check.passed",
    "reports.Report.tolerance": "reports.report_failures",
    "scenarios.Scenario.kind": "cli.cmd_estimate",
    "toycrypto.StandInPrng.word_bits": "toycrypto.StandInPrng.next_word",
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


def _fields(tree: ast.Module, private: bool = False):
    """(qualified name, bare name) of each annotated field of a public class,
    or of any class if `private`, and each public attribute its `__init__`
    sets on `self`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (private or not node.name.startswith("_")):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id
                elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    for name in _self_attributes(item):
                        yield f"{node.name}.{name}", name


def _references(node: ast.AST, enclosing: frozenset, found: set) -> None:
    """Add to `found` each name `node` refers to outside a definition of
    that name."""
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.alias):
        names = [node.name.rsplit(".", 1)[-1]]
    else:
        names = []
    found.update(name for name in names if name not in enclosing)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    for child in ast.iter_child_nodes(node):
        _references(child, enclosing, found)


def _trees():
    """(file stem, tree, whether it is in `perfbench/`) of each file in `src/` and `perfbench/`."""
    for root in ("src", "perfbench"):
        for path in sorted((ROOT / root).rglob("*.py")):
            yield path.stem, ast.parse(path.read_text(encoding="utf-8")), root == "perfbench"


def _strings(tree: ast.AST) -> set[str]:
    return {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _attributes_read(node: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level def and class of `tree` and each of their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{node.name}.{item.name}", item


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
    strings: set[str] = set()  # the strings of `perfbench/`
    for _, tree, bench in _trees():
        _references(tree, frozenset(), referenced)
        if bench:
            strings |= _strings(tree)
    unreferenced = _unreferenced(_public_definitions, referenced)
    tracer_only = {name for name in unreferenced if name.rsplit(".", 1)[-1] in strings}
    allowed = {name for name in unreferenced if name.rsplit(".", 1)[-1] in ALLOWED_TEST_ONLY}
    assert unreferenced - tracer_only - allowed == set()
    # a name that gained a caller leaves its list, and a new tracer-only name joins `TRACER_ONLY`
    assert {name.rsplit(".", 1)[-1] for name in allowed} == set(ALLOWED_TEST_ONLY)
    assert tracer_only == set(TRACER_ONLY)


def test_every_field_of_a_public_class_is_read_outside_the_tests():
    fields = {  # qualified name -> bare name
        f"{path.stem}.{qualified}": name
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in _fields(ast.parse(path.read_text(encoding="utf-8")))
    }
    counts = Counter(fields.values())
    shared = {field for field, name in fields.items() if counts[name] > 1}
    readers, read = {}, set()
    for stem, tree, _ in _trees():
        readers.update((f"{stem}.{qualified}", _attributes_read(node)) for qualified, node in _definitions(tree))
        owners: dict[str, set[str]] = {}  # field name -> the classes of this file that have it
        for qualified, name in _fields(tree, private=True):
            owners.setdefault(name, set()).add(f"{stem}.{qualified}")
        names = _attributes_read(tree)
        read.update(field for field, name in fields.items()
                    if field not in shared and name in names and owners.get(name, {field}) == {field})
    for field in shared:
        if fields[field] in readers.get(SHARED_FIELD_READERS.get(field, ""), ()):
            read.add(field)
    unread = set(fields) - read
    allowed = {name for name in unread if name.rsplit(".", 1)[-1] in ALLOWED_UNREAD_FIELDS}
    assert unread - allowed == set()
    # an entry whose field gained a read leaves the list
    assert {name.rsplit(".", 1)[-1] for name in allowed} == set(ALLOWED_UNREAD_FIELDS)
    # every shared field, and no other, has its reader named
    assert set(SHARED_FIELD_READERS) == shared


def _constants(tree: ast.Module):
    """(name, name) of each public module-level constant: a name that a
    top-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for part in ast.walk(target):
                    if isinstance(part, ast.Name) and not part.id.startswith("_"):
                        yield part.id, part.id


def test_every_public_constant_in_src_is_read_outside_the_tests():
    read: set[str] = set()
    for _, tree, _ in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert _unreferenced(_constants, read) == set()


def _parameters(function: ast.FunctionDef, skip: int):
    """(position or None, name, defaulted) of each parameter of `function`
    after its first `skip`; a keyword-only parameter has no position."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[skip:], skip):
        yield i - skip, arg.arg, i >= first_default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        yield None, arg.arg, default is not None


def _callables(tree: ast.Module):
    """(qualified name, name a call uses, parameters) of each public
    function, class and method, the parameters as `_parameters` gives
    them: a class's are its `__init__`'s, or its annotated fields."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, list(_parameters(node, 0))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            yield node.name, node.name, [(i, f.target.id, f.value is not None) for i, f in enumerate(fields)]
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    call = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", call, list(_parameters(item, 0 if static else 1))


def _set_by(call: ast.Call, position, name: str) -> bool:
    """Does `call` set the parameter at `position` (None: keyword-only) named `name`?"""
    if name in {keyword.arg for keyword in call.keywords} or any(k.arg is None for k in call.keywords):
        return True
    if position is None:
        return False
    return position < len(call.args) or any(isinstance(arg, ast.Starred) for arg in call.args)


def test_every_defaulted_parameter_is_set_by_a_call_outside_the_tests():
    calls: dict[str, list[ast.Call]] = {}  # callee name -> the calls of it
    for _, tree, _ in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unset = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, callee, parameters in _callables(ast.parse(path.read_text(encoding="utf-8"))):
            for position, name, defaulted in parameters:
                if defaulted and not any(_set_by(call, position, name) for call in calls.get(callee, ())):
                    unset.add(f"{path.stem}.{qualified.removesuffix('.__init__')}.{name}")
    # a parameter that gained a caller leaves the list
    assert unset == set(TEST_SET_DEFAULTS)


def test_package_defines_only_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    docstring, *statements = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(s) for s in statements] == [f"__version__ = {workfunc.__version__!r}"]
