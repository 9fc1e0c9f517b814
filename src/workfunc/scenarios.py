"""Scenario files: one `[kind]` section of key = value lines.

Example::

    [brute_force]
    key_bits = 84
    fleet = 65536 x ati-radeon-5870

`SCHEMA` is the input contract: each kind's keys, with each key's type,
bounds and whether it is required. `parse_scenario` checks a scenario
against it once, so a `Scenario` holds typed, in-range, finite values.
An absent optional key takes the default of the model it configures.

A `[game_otp]` scenario must carry an explicit seed so every game is
replayable.
"""

from __future__ import annotations

import configparser
import math
import re
from typing import Iterable, Mapping, NamedTuple

from .devices import EXACT_COUNT_LIMIT, DeviceSpec, Fleet, find_device, fleet_rate
from .otp import DEFAULT_PLAINTEXT_BYTES


class ScenarioError(ValueError):
    """Malformed scenario content; message names the offending key."""


def scenario_int(key: str, raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError as exc:
        raise ScenarioError(f"{key} must be an integer, got {raw!r}") from exc


def scenario_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ScenarioError(f"{key} must be a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ScenarioError(f"{key} must be a finite number, got {raw!r}")
    return value


def scenario_bool(key: str, raw: str) -> bool:
    raw = raw.strip().lower()
    if raw in ("true", "yes", "1", "on"):
        return True
    if raw in ("false", "no", "0", "off"):
        return False
    raise ScenarioError(f"{key} must be a boolean, got {raw!r}")


_PARSERS = {int: scenario_int, float: scenario_float, bool: scenario_bool}


class Key(NamedTuple):
    """One scenario key: its type, its bounds and whether it is required.

    A number lies between `lo` and `hi`; `ends` marks each end closed with
    a bracket or open with a parenthesis, as in "[0, 1)". A string key
    with `choices` takes one of them, in any letter case.
    """

    type: type
    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "[]"
    required: bool = False
    choices: tuple[str, ...] = ()

    def check(self, key: str, raw: str) -> object:
        """The typed value of `raw`, or a ScenarioError naming `key`."""
        value = raw if self.type is str else _PARSERS[self.type](key, raw)
        if self.choices:
            value = value.lower()
            if value not in self.choices:
                raise ScenarioError(f"{key} must be {' or '.join(self.choices)}, got {value!r}")
        elif self.type in (int, float):
            above_lo = self.lo < value if self.ends[0] == "(" else self.lo <= value
            below_hi = value < self.hi if self.ends[1] == ")" else value <= self.hi
            if not (above_lo and below_hi):
                interval = f"{self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}"
                raise ScenarioError(f"{key} must be in {interval}, got {value}")
        return value


# A game's plaintext bytes over all its trials: the default plaintext at the
# trial cap. Each one is encrypted and written to the transcript, so this
# bounds a game's run time and transcript size.
MAX_GAME_PLAINTEXT_BYTES = 32_000_000

_POSITIVE = Key(float, 0, math.inf, "()")
_FLEET = Key(str)  # `N x device-name` terms, resolved by scenario_fleet

SCHEMA: dict[str, dict[str, Key]] = {
    "brute_force": {
        "key_bits": Key(int, 1, 1024, required=True),
        "bytes_per_key_bit": _POSITIVE,
        "triple": Key(bool),
        "fleet": _FLEET,
        "fleet_rate_bytes_per_s": _POSITIVE,
        "target_years": _POSITIVE,
        "annual_factor": Key(float, 1, math.inf, "()"),
    },
    "dictionary": {
        "key_bits": Key(int, 1, 1024, required=True),
        "epsilon": Key(int, 0, 1023, required=True),
        "plaintext_blocks": Key(int, 1, 64),
        "steps_per_comparison": Key(int, 1, 64),
        "comparison_bound": Key(str, choices=("conservative", "upper")),
    },
    "tf1": {
        "word_bits": Key(int, 1, 256, required=True),
        "bytes_per_strength_bit": _POSITIVE,
        "scan_words_per_second": _POSITIVE,
        "fleet": _FLEET,
        "fleet_rate_bytes_per_s": _POSITIVE,
    },
    "game_otp": {
        "seed": Key(int, -(2**63), 2**63 - 1, required=True),
        "bias": Key(float, 0, 1, required=True),
        "trials": Key(int, 1, 1_000_000, required=True),
        # zero is a legal budget: the game then opens already depleted; from
        # 2**53 up a whole-byte charge no longer registers in the float budget
        "budget": Key(float, 0, 2**53, "[)", required=True),
        "plaintext_bytes": Key(int, 1, 65536),
        "win_threshold": Key(float, 0, 1, "()"),
        "per_step_information": _POSITIVE,
    },
}

KINDS = tuple(SCHEMA)


class Scenario(NamedTuple):
    kind: str
    params: Mapping[str, object]


def parse_scenario(text: str) -> Scenario:
    # no default section: a [DEFAULT] section is a second section, not one
    # merged into the kind's
    parser = configparser.ConfigParser(interpolation=None, default_section="")
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
    raw = dict(parser[kind])
    schema = SCHEMA[kind]
    for key in raw:
        if key not in schema:
            raise ScenarioError(f"unknown key {key!r} for [{kind}]")
    for key, spec in schema.items():
        if spec.required and key not in raw:
            raise ScenarioError(f"[{kind}] requires key {key!r}")
    params = {key: schema[key].check(key, text) for key, text in raw.items()}
    step_price = params.get("per_step_information", 1.0)
    if not step_price.is_integer():  # a fraction of a byte may not register in the float budget
        raise ScenarioError(f"per_step_information must be a whole number of bytes, got {step_price}")
    # the rules that involve two keys
    if "fleet" in params and "fleet_rate_bytes_per_s" in params:
        raise ScenarioError("give fleet or fleet_rate_bytes_per_s, not both")
    if "bytes_per_key_bit" in params and params.get("triple"):
        raise ScenarioError("give bytes_per_key_bit or triple, not both")
    # a target is priced against a fleet, and a progress rate against a target
    if "target_years" in params and not ("fleet" in params or "fleet_rate_bytes_per_s" in params):
        raise ScenarioError("target_years needs fleet or fleet_rate_bytes_per_s")
    if "annual_factor" in params and "target_years" not in params:
        raise ScenarioError("annual_factor needs target_years")
    if "epsilon" in params and params["epsilon"] >= params["key_bits"]:
        raise ScenarioError(
            f"epsilon must be less than key_bits = {params['key_bits']}, "
            f"got {params['epsilon']}"
        )
    if "trials" in params:
        plaintext_bytes = params.get("plaintext_bytes", DEFAULT_PLAINTEXT_BYTES)
        if params["trials"] * plaintext_bytes > MAX_GAME_PLAINTEXT_BYTES:
            raise ScenarioError(
                f"trials * plaintext_bytes must be at most {MAX_GAME_PLAINTEXT_BYTES}, "
                f"got {params['trials']} * {plaintext_bytes}"
            )
    return Scenario(kind=kind, params=params)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


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
        digits, name = match.groups()
        digits = digits.lstrip("0") or "0"
        # 2**53 has 16 digits; int() refuses strings of over 4,300
        count = int(digits) if len(digits) <= 16 else EXACT_COUNT_LIMIT
        if count >= EXACT_COUNT_LIMIT:
            raise ScenarioError(f"fleet count for {name!r} must be below 2**53")
        if count < 1:
            raise ScenarioError(f"fleet count must be positive in {term!r}")
        try:
            device = find_device(name, catalog)
        except KeyError as exc:
            raise ScenarioError(f"unknown device {name!r} in fleet spec") from exc
        fleets.append(Fleet(device, count))
    return fleets


def scenario_fleet(scenario: Scenario, catalog: Iterable[DeviceSpec]) -> float | None:
    """The fleet's rate in bytes/s from either syntax, or None when the
    scenario names no fleet."""
    if "fleet" in scenario.params:
        return fleet_rate(parse_fleet_spec(scenario.params["fleet"], catalog))
    return scenario.params.get("fleet_rate_bytes_per_s")
