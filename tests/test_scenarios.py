from pathlib import Path

import pytest

from workfunc.devices import default_catalog
from workfunc.scenarios import (
    KINDS,
    SCHEMA,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_fleet_spec,
    parse_scenario,
    scenario_fleet,
)

BRUTE = "[brute_force]\nkey_bits = 84\nfleet = 65536 x ati-radeon-5870\n"
GAME = "[game_otp]\nseed = 1\nbias = 0.5\ntrials = 100\nbudget = 1\n"
MINIMAL = {
    "brute_force": "key_bits = 56",
    "dictionary": "key_bits = 56\nepsilon = 6",
    "tf1": "word_bits = 32",
    "game_otp": "seed = 1\nbias = 0.6\ntrials = 200\nbudget = 1e9",
}


def test_parse_minimal_scenarios():
    for kind, body in MINIMAL.items():
        scenario = parse_scenario(f"[{kind}]\n{body}\n")
        assert scenario.kind == kind
        assert scenario.kind in KINDS


def test_unknown_kind_and_key():
    with pytest.raises(ScenarioError, match="unknown scenario kind"):
        parse_scenario("[password_guessing]\nkey_bits = 1\n")
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario("[brute_force]\nkey_bits = 56\ncolor = red\n")


def test_missing_required_key():
    with pytest.raises(ScenarioError, match="requires key 'epsilon'"):
        parse_scenario("[dictionary]\nkey_bits = 56\n")
    with pytest.raises(ScenarioError, match="requires key 'seed'"):
        parse_scenario("[game_otp]\nbias = 0.6\ntrials = 10\nbudget = 1\n")


def test_section_count_and_syntax_errors():
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario("[brute_force]\nkey_bits = 1\n[tf1]\nword_bits = 8\n")
    with pytest.raises(ScenarioError, match="unparseable"):
        parse_scenario("key_bits = 1\n")
    with pytest.raises(ScenarioError, match="unparseable"):
        parse_scenario("[brute_force\nkey_bits = 1\n")


def test_keys_are_case_sensitive():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario("[brute_force]\nKEY_BITS = 56\n")


def test_typed_getters():
    scenario = parse_scenario(
        "[game_otp]\nseed = 0x10\nbias = 0.5\ntrials = 100\nbudget = 0\n"
    )
    assert scenario.params == {"seed": 16, "bias": 0.5, "trials": 100, "budget": 0.0}
    assert type(scenario.params["budget"]) is float
    with pytest.raises(ScenarioError, match=r"per_step_information must be in \(0, inf\), got 0.0"):
        parse_scenario(GAME + "per_step_information = 0\n")
    with pytest.raises(ScenarioError, match=r"trials must be in \[1, 1000000\], got 0"):
        parse_scenario(GAME.replace("trials = 100", "trials = 0"))
    with pytest.raises(ScenarioError, match="seed must be an integer"):
        parse_scenario(GAME.replace("seed = 1", "seed = x"))
    with pytest.raises(ScenarioError, match="bias must be a number"):
        parse_scenario(GAME.replace("bias = 0.5", "bias = y"))


def test_bool_getter():
    def triple(value):
        return parse_scenario(f"[brute_force]\nkey_bits = 56\ntriple = {value}\n").params["triple"]

    for raw in ("true", "Yes", "1", "on"):
        assert triple(raw) is True
    for raw in ("false", "No", "0", "off"):
        assert triple(raw) is False
    with pytest.raises(ScenarioError, match="triple must be a boolean"):
        triple("maybe")


@pytest.mark.parametrize(
    "line, message",
    [
        ("bias = 1.5", r"bias must be in \[0, 1\], got 1.5"),
        pytest.param("budget = -1", r"budget must be in \[0, 9007199254740992\), got -1.0",
                     id="budget = -1"),
        ("win_threshold = 1", r"win_threshold must be in \(0, 1\), got 1.0"),
        ("plaintext_bytes = 65537", r"plaintext_bytes must be in \[1, 65536\]"),
    ],
)
def test_schema_bounds(line, message):
    key = line.split(" = ")[0]
    text = "\n".join(l for l in GAME.splitlines() if not l.startswith(key + " ")) + "\n"
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(text + line + "\n")


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind, keys in SCHEMA.items() for key, spec in keys.items() if spec.type is float],
)
def test_non_finite_numbers_are_refused_naming_the_key(kind, key):
    body = "".join(
        f"{line}\n" for line in MINIMAL[kind].splitlines() if not line.startswith(f"{key} ")
    )
    for raw in ("nan", "inf", "-inf", "Infinity", "1e400"):
        with pytest.raises(ScenarioError, match=f"^{key} must be a finite number, got '{raw}'"):
            parse_scenario(f"[{kind}]\n{body}{key} = {raw}\n")


def test_rules_that_involve_two_keys():
    with pytest.raises(ScenarioError, match="epsilon must be less than key_bits = 56, got 56"):
        parse_scenario("[dictionary]\nkey_bits = 56\nepsilon = 56\n")
    with pytest.raises(ScenarioError, match="bytes_per_key_bit or triple, not both"):
        parse_scenario("[brute_force]\nkey_bits = 56\nbytes_per_key_bit = 9\ntriple = yes\n")
    relaxed = parse_scenario("[brute_force]\nkey_bits = 56\nbytes_per_key_bit = 9\ntriple = no\n")
    assert relaxed.params == {"key_bits": 56, "bytes_per_key_bit": 9.0, "triple": False}


@pytest.mark.parametrize(
    "trials, plaintext, accepted",
    [
        (1_000_000, "", True),  # the default 32 bytes at the trial cap
        (1_000_000, "plaintext_bytes = 32\n", True),
        (1_000_000, "plaintext_bytes = 33\n", False),
        (488, "plaintext_bytes = 65536\n", True),
        (489, "plaintext_bytes = 65536\n", False),
    ],
)
def test_game_plaintext_over_all_trials_is_bounded(trials, plaintext, accepted):
    text = f"[game_otp]\nseed = 1\nbias = 0.5\ntrials = {trials}\nbudget = 1\n{plaintext}"
    if accepted:
        assert parse_scenario(text).params["trials"] == trials
    else:
        message = r"^trials \* plaintext_bytes must be at most 32000000, got "
        with pytest.raises(ScenarioError, match=message + f"{trials} \\* "):
            parse_scenario(text)


def test_schema_declares_every_kind():
    assert KINDS == tuple(SCHEMA) == ("brute_force", "dictionary", "tf1", "game_otp")
    assert "fleet" not in SCHEMA["dictionary"]
    assert parse_scenario(
        "[dictionary]\nkey_bits = 8\nepsilon = 1\ncomparison_bound = Upper\n"
    ).params["comparison_bound"] == "upper"


def test_fleet_spec_parsing():
    catalog = default_catalog()
    fleets = parse_fleet_spec("65536 x ati-radeon-5870", catalog)
    assert len(fleets) == 1
    assert fleets[0].unit_count == 65536
    assert fleets[0].device.name == "ati-radeon-5870"
    mixed = parse_fleet_spec("2 x intel-core-duo + 1 x virtex-5-xc5vlx30-3", catalog)
    assert [f.unit_count for f in mixed] == [2, 1]
    with pytest.raises(ScenarioError, match="not of the form"):
        parse_fleet_spec("many gpus", catalog)
    with pytest.raises(ScenarioError, match="count must be positive"):
        parse_fleet_spec("0 x intel-core-duo", catalog)
    with pytest.raises(ScenarioError, match="unknown device"):
        parse_fleet_spec("3 x cray-1", catalog)
    # a count is priced as a float, so it must be below 2**53
    assert parse_fleet_spec(f"{2**53 - 1} x intel-core-duo", catalog)[0].unit_count == 2**53 - 1
    assert parse_fleet_spec("0" * 5000 + "7 x intel-core-duo", catalog)[0].unit_count == 7
    for count in (str(2**53), "0" * 5000 + str(2**53), "9" * 17, "9" * 400, "9" * 5000):
        with pytest.raises(ScenarioError, match=r"^fleet count for 'intel-core-duo' must be below 2\*\*53$"):
            parse_fleet_spec(f"{count} x intel-core-duo", catalog)


def test_scenario_fleet_dispatch():
    catalog = default_catalog()
    named = parse_scenario(BRUTE)
    fleets = scenario_fleet(named, catalog)
    assert isinstance(fleets, list) and fleets[0].unit_count == 65536

    raw_rate = parse_scenario("[brute_force]\nkey_bits = 84\nfleet_rate_bytes_per_s = 1.3e22\n")
    assert scenario_fleet(raw_rate, catalog) == 1.3e22

    neither = parse_scenario("[brute_force]\nkey_bits = 84\n")
    assert scenario_fleet(neither, catalog) is None

    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario(
            "[brute_force]\nkey_bits = 84\nfleet = 1 x intel-core-duo\n"
            "fleet_rate_bytes_per_s = 1e9\n"
        )


def test_load_scenario_reads_files(tmp_path):
    path = tmp_path / "fleet.scenario"
    path.write_text(BRUTE)
    scenario = load_scenario(str(path))
    assert scenario.kind == "brute_force"
    assert scenario.params["key_bits"] == 84
    assert scenario.params["fleet"] == "65536 x ati-radeon-5870"


def test_scenario_is_value_like():
    a = Scenario("tf1", {"word_bits": 32})
    b = Scenario("tf1", {"word_bits": 32})
    assert a == b
    assert parse_scenario("[tf1]\nword_bits = 32\n") == a


def test_readme_table_matches_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [
        [cell.strip().strip("`") for cell in line.split("|")[1:-1]]
        for line in readme.splitlines()
        if line.startswith("| `")
    ]
    assert [(kind, key) for kind, key, *_ in rows] == [
        (kind, key) for kind, keys in SCHEMA.items() for key in keys
    ]
    for kind, key, type_name, bounds, required in rows:
        spec = SCHEMA[kind][key]
        assert type_name == spec.type.__name__
        assert required == ("yes" if spec.required else "no")
        if spec.type in (int, float):
            assert bounds == f"{spec.ends[0]}{spec.lo}, {spec.hi}{spec.ends[1]}"
        for choice in spec.choices:
            assert choice in bounds
