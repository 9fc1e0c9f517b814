import pytest

from workfunc.devices import default_catalog
from workfunc.scenarios import (
    KINDS,
    Scenario,
    ScenarioError,
    dump_scenario,
    load_scenario,
    parse_fleet_spec,
    parse_scenario,
    scenario_bool,
    scenario_fleet,
    scenario_float,
    scenario_int,
)

BRUTE = "[brute_force]\nkey_bits = 84\nfleet = 65536 x ati-radeon-5870\n"


def test_parse_minimal_scenarios():
    for kind, body in [
        ("brute_force", "key_bits = 56"),
        ("dictionary", "key_bits = 56\nepsilon = 6"),
        ("tf1", "word_bits = 32"),
        ("game_otp", "seed = 1\nbias = 0.6\ntrials = 200\nbudget = 1e9"),
    ]:
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
    assert scenario_int(scenario, "seed", 0, 100) == 16
    assert scenario_float(scenario, "budget", 0.0, allow_equal=True) == 0.0
    with pytest.raises(ScenarioError, match="greater than"):
        scenario_float(scenario, "budget", 0.0)
    with pytest.raises(ScenarioError, match="in \\[0, 10\\]"):
        scenario_int(scenario, "trials", 0, 10)
    bad = parse_scenario("[game_otp]\nseed = x\nbias = y\ntrials = 1\nbudget = 1\n")
    with pytest.raises(ScenarioError, match="must be an integer"):
        scenario_int(bad, "seed", 0, 10)
    with pytest.raises(ScenarioError, match="must be a number"):
        scenario_float(bad, "bias")


def test_bool_getter():
    def scen(value):
        return parse_scenario(f"[brute_force]\nkey_bits = 56\ntriple = {value}\n")

    for raw in ("true", "Yes", "1", "on"):
        assert scenario_bool(scen(raw), "triple") is True
    for raw in ("false", "No", "0", "off"):
        assert scenario_bool(scen(raw), "triple") is False
    with pytest.raises(ScenarioError, match="boolean"):
        scenario_bool(scen("maybe"), "triple")


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


def test_scenario_fleet_dispatch():
    catalog = default_catalog()
    named = parse_scenario(BRUTE)
    fleets = scenario_fleet(named, catalog)
    assert isinstance(fleets, list) and fleets[0].unit_count == 65536

    raw_rate = parse_scenario("[brute_force]\nkey_bits = 84\nfleet_rate_bytes_per_s = 1.3e22\n")
    assert scenario_fleet(raw_rate, catalog) == 1.3e22

    neither = parse_scenario("[brute_force]\nkey_bits = 84\n")
    assert scenario_fleet(neither, catalog) is None

    both = parse_scenario(
        "[brute_force]\nkey_bits = 84\nfleet = 1 x intel-core-duo\n"
        "fleet_rate_bytes_per_s = 1e9\n"
    )
    with pytest.raises(ScenarioError, match="not both"):
        scenario_fleet(both, catalog)


def test_dump_parse_roundtrip():
    scenario = parse_scenario(BRUTE)
    again = parse_scenario(dump_scenario(scenario))
    assert again == scenario


def test_load_scenario_reads_files(tmp_path):
    path = tmp_path / "fleet.scenario"
    path.write_text(BRUTE)
    scenario = load_scenario(str(path))
    assert scenario.kind == "brute_force"
    assert scenario.get("key_bits") == "84"
    assert scenario.get("missing", "fallback") == "fallback"


def test_scenario_is_value_like():
    a = Scenario("tf1", {"word_bits": "32"})
    b = Scenario("tf1", {"word_bits": "32"})
    assert a == b
