"""Each price, and each rule, is decided in one module of `src/`.

- A rate is a number of bytes/s. `devices` works it out (`fleet_rate`,
  `resource_rate`) and `estimators` takes it, importing nothing from
  `devices`.
- A tolerance is read from `refdata` by `reports` alone: a table's is set
  on the `Report` it builds, where `report_failures` reads it, and a printed
  figure's on its `Check` (`printed_figure_checks`).
- A machine's step price is its `information`, in bytes: `game` has no
  description object and no flat price to override it.
- The frame's 4-byte length prefix, the 2**53 budget limit and the default
  win threshold are `game`'s (`frame_prefix`, `BUDGET_LIMIT`,
  `DEFAULT_WIN_THRESHOLD`); the trial cap is `scenarios`' (`MAX_GAME_TRIALS`).
- The reference GPU is named in `devices` (`REFERENCE_GPU`), the time units
  are `estimators`' (`SECONDS_PER_*`, `DAYS_PER_YEAR`), and the keystream's
  threshold is read in `toycrypto` alone (`KeystreamGen.threshold_byte`).
- What a class or module keeps private (an `_` name) is read on `self`
  alone: `experiments` asks `KeystreamGen.twister_state` for the twister,
  not the stream's `_rng`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "workfunc"


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _modules() -> dict[str, ast.Module]:
    return {path.stem: _tree(path.stem) for path in sorted(PACKAGE.glob("*.py"))}


def _literals(tree: ast.AST, *values) -> list[ast.Constant]:
    """The literals in `tree` equal to one of `values` (a bool is no number here)."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and not isinstance(node.value, bool) and node.value in values
    ]


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
        "TIANHE_TOLERANCE", "SCAN_WAIT_TOLERANCE", "DICTIONARY_TOLERANCE",
    }


def test_the_game_prices_a_step_by_information_alone():
    names = _identifiers(_tree("game"))
    assert names.isdisjoint({"MachineSpec", "per_step_information"})
    assert "information" in names


def test_only_game_writes_a_frame_prefix():
    def four_byte_prefixes(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "to_bytes" and node.args and _literals(node.args[0], 4)
        ]

    written = {module: len(four_byte_prefixes(tree)) for module, tree in _modules().items()}
    assert {module for module, count in written.items() if count} == {"game"}
    assert written["game"] == 1  # `frame_prefix`, which `frame` calls


def test_scenarios_take_the_budget_limit_from_game():
    def powers_of_two_53(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and _literals(node.left, 2) and _literals(node.right, 53)
        ] + _literals(tree, 2**53)

    assert powers_of_two_53(_tree("scenarios")) == []
    assert "BUDGET_LIMIT" in _imports_from(_tree("scenarios"), "game")
    assert len(powers_of_two_53(_tree("game"))) == 1


def test_the_win_threshold_has_one_default():
    """No parameter defaults to a literal 0.01: both `win_threshold`
    parameters default to `game.DEFAULT_WIN_THRESHOLD`."""
    defaults = {}  # (module, function, parameter) -> default
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = zip(positional[len(positional) - len(args.defaults):] + args.kwonlyargs,
                            args.defaults + args.kw_defaults)
                defaults.update({(module, node.name, arg.arg): d for arg, d in pairs if d is not None})
    assert [key for key, default in defaults.items() if _literals(default, 0.01)] == []
    assert {key: ast.unparse(d) for key, d in defaults.items() if key[2] == "win_threshold"} == {
        ("game", "__init__", "win_threshold"): "DEFAULT_WIN_THRESHOLD",
        ("otp", "run_otp_challenge", "win_threshold"): "DEFAULT_WIN_THRESHOLD",
    }
    assert "DEFAULT_WIN_THRESHOLD" in _imports_from(_tree("otp"), "game")


def test_the_trial_cap_is_written_once():
    scenarios = _tree("scenarios")
    assert len(_literals(scenarios, 1_000_000)) == 1  # MAX_GAME_TRIALS
    assert all(_literals(tree, 32_000_000) == [] for tree in _modules().values())
    (bound,) = [
        node.value
        for node in scenarios.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "MAX_GAME_PLAINTEXT_BYTES"
    ]
    assert {name.id for name in ast.walk(bound) if isinstance(name, ast.Name)} == {
        "MAX_GAME_TRIALS", "DEFAULT_PLAINTEXT_BYTES",
    }


def test_the_reference_gpu_is_named_once():
    named = {module: len(_literals(tree, "ati-radeon-5870")) for module, tree in _modules().items()}
    assert {module: count for module, count in named.items() if count} == {"devices": 1}
    # the break suite's fleets are described in refdata, not restated by reports
    reports = _tree("reports")
    assert _literals(reports, 65536) == []
    assert not any(
        isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("gpu fleet")
        for node in ast.walk(reports)
    )


def test_time_units_are_written_in_estimators_alone():
    written = {module: _literals(tree, 3600, 86400, 365) for module, tree in _modules().items()}
    assert {module for module, found in written.items() if found} == {"estimators"}


def test_only_toycrypto_reads_the_keystream_threshold():
    readers = {
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_threshold"
    }
    assert readers == {"toycrypto"}


def test_a_private_attribute_is_read_through_self_alone():
    """A module reads an `_` attribute only on `self`: what another class or
    module keeps private it asks for through a public name."""
    reads = [
        f"{module}.py:{node.lineno}: {ast.unparse(node)}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert reads == []
