"""Scenario files: one `[kind]` section of key = value lines.

Example::

    [brute_force]
    key_bits = 84
    fleet = 65536 x ati-radeon-5870

A `[game_otp]` scenario must carry an explicit seed so every game is
replayable.
"""

from __future__ import annotations

import configparser
import io
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .devices import DeviceSpec, Fleet, find_device

KINDS = ("brute_force", "dictionary", "tf1", "game_otp")

_ALLOWED_KEYS: dict[str, frozenset[str]] = {
    "brute_force": frozenset(
        {"key_bits", "bytes_per_key_bit", "triple", "fleet",
         "fleet_rate_bytes_per_s", "target_years", "annual_factor"}
    ),
    "dictionary": frozenset(
        {"key_bits", "epsilon", "plaintext_blocks", "steps_per_comparison",
         "comparison_bound", "fleet", "fleet_rate_bytes_per_s"}
    ),
    "tf1": frozenset(
        {"word_bits", "bytes_per_strength_bit", "scan_words_per_second",
         "fleet", "fleet_rate_bytes_per_s"}
    ),
    "game_otp": frozenset(
        {"seed", "bias", "trials", "budget", "plaintext_bytes",
         "win_threshold", "per_step_information"}
    ),
}

_REQUIRED_KEYS: dict[str, frozenset[str]] = {
    "brute_force": frozenset({"key_bits"}),
    "dictionary": frozenset({"key_bits", "epsilon"}),
    "tf1": frozenset({"word_bits"}),
    "game_otp": frozenset({"seed", "bias", "trials", "budget"}),
}


class ScenarioError(ValueError):
    """Malformed scenario content; message names the offending key."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    params: Mapping[str, str]

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.params.get(key, default)


def parse_scenario(text: str) -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"unparseable scenario: {exc}") from exc
    sections = parser.sections()
    if len(sections) != 1:
        raise ScenarioError(
            f"expected exactly one [kind] section, found {len(sections)}"
        )
    kind = sections[0]
    if kind not in KINDS:
        raise ScenarioError(
            f"unknown scenario kind [{kind}]; expected one of {', '.join(KINDS)}"
        )
    params = dict(parser[kind])
    allowed = _ALLOWED_KEYS[kind]
    for key in params:
        if key not in allowed:
            raise ScenarioError(f"unknown key {key!r} for [{kind}]")
    for key in sorted(_REQUIRED_KEYS[kind]):
        if key not in params:
            raise ScenarioError(f"[{kind}] requires key {key!r}")
    return Scenario(kind=kind, params=params)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def scenario_int(scenario: Scenario, key: str, lo: int, hi: int) -> int:
    raw = scenario.params[key]
    try:
        value = int(raw, 0)
    except ValueError as exc:
        raise ScenarioError(f"{key} must be an integer, got {raw!r}") from exc
    if not lo <= value <= hi:
        raise ScenarioError(f"{key} must be in [{lo}, {hi}], got {value}")
    return value


def scenario_float(
    scenario: Scenario, key: str, lo: float = 0.0, allow_equal: bool = False
) -> float:
    raw = scenario.params[key]
    try:
        value = float(raw)
    except ValueError as exc:
        raise ScenarioError(f"{key} must be a number, got {raw!r}") from exc
    if value < lo or (value == lo and not allow_equal):
        raise ScenarioError(f"{key} must be greater than {lo}, got {value}")
    return value


def scenario_bool(scenario: Scenario, key: str) -> bool:
    raw = scenario.params[key].strip().lower()
    if raw in ("true", "yes", "1", "on"):
        return True
    if raw in ("false", "no", "0", "off"):
        return False
    raise ScenarioError(f"{key} must be a boolean, got {raw!r}")


_FLEET_TERM = re.compile(r"(\d+)\s*x\s*([A-Za-z0-9.-]+)\Z")


def parse_fleet_spec(
    text: str, catalog: Iterable[DeviceSpec]
) -> list[Fleet]:
    """`N x device-name` terms joined by `+`, resolved against a catalog."""
    fleets = []
    for term in text.split("+"):
        term = term.strip()
        match = _FLEET_TERM.match(term)
        if match is None:
            raise ScenarioError(
                f"fleet term {term!r} is not of the form 'N x device-name'"
            )
        count = int(match.group(1))
        if count < 1:
            raise ScenarioError(f"fleet count must be positive in {term!r}")
        name = match.group(2)
        try:
            device = find_device(name, catalog)
        except KeyError as exc:
            raise ScenarioError(f"unknown device {name!r} in fleet spec") from exc
        fleets.append(Fleet(device, count))
    return fleets


def scenario_fleet(
    scenario: Scenario, catalog: Iterable[DeviceSpec]
) -> list[Fleet] | float | None:
    """Fleet from either syntax, or None when the scenario names no fleet."""
    if "fleet" in scenario.params and "fleet_rate_bytes_per_s" in scenario.params:
        raise ScenarioError("give fleet or fleet_rate_bytes_per_s, not both")
    if "fleet" in scenario.params:
        return parse_fleet_spec(scenario.params["fleet"], catalog)
    if "fleet_rate_bytes_per_s" in scenario.params:
        return scenario_float(scenario, "fleet_rate_bytes_per_s")
    return None


def dump_scenario(scenario: Scenario) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser[scenario.kind] = dict(scenario.params)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
