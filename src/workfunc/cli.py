"""Command line front end.

Subcommands: table, estimate, game, validate, catalog.

Exit codes: 0 success (or game won), 1 reproduction or validation
failure, 2 usage error (including an output or transcript path that
cannot be opened for writing), 3 game lost, 4 protocol fault in a game.

`game` opens its transcript before the first move and writes each move's
line as the move is played, so its memory does not grow with `trials`;
the summary trailer follows the last move.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from . import refdata
from .cost import Budget
from .devices import CatalogError, Fleet, default_catalog, find_device, load_catalog, resource_rate
from .estimators import (
    TRIPLE_BYTES_PER_KEY_BIT,
    BruteForceModel,
    DictionaryModel,
    Tf1Model,
    break_time,
    brute_force_cost,
    dictionary_stats,
    progress_years,
    tf1_estimate,
)
from .game import GameResult, ProtocolFault, TranscriptWriter, transcript_trailer
# the benchmark tracer wraps export_transcript by this name in this module
from .game import export_transcript  # noqa: F401
from .otp import run_otp_challenge
from .reports import (
    Report,
    build_break_suite_report,
    build_cost_per_bit_report,
    build_device_rate_report,
    build_state_search_report,
    format_duration,
    render_csv,
    render_text,
    report_failures,
)
from .scenarios import Scenario, ScenarioError, load_scenario, scenario_fleet
# the benchmark tracer wraps the typed converters by these names in this module
from .scenarios import scenario_bool, scenario_float, scenario_int  # noqa: F401
from .toycrypto import KeystreamGen

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_GAME_LOST = 3
EXIT_PROTOCOL_FAULT = 4


class _Unwritable(Exception):
    """An output path that cannot be opened for writing; `main` reports it."""


def _output(path: Optional[str]):
    """The text file at `path`, opened for writing, or stdout when there is
    none; either way for use in a `with` block."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc.strerror or exc}") from None


def _write(text: str, path: Optional[str]) -> None:
    """Write `text` to the file at `path`, or to stdout when there is none."""
    with _output(path) as handle:
        handle.write(text)


def _emit(report: Report, as_csv: bool, output: Optional[str]) -> None:
    _write(render_csv(report) if as_csv else render_text(report), output)


def _table_report(number: int) -> tuple[Report, list[str]]:
    if number == 1:
        report = build_device_rate_report()
        bad = report_failures(report, "deviation", refdata.TABLE1_TOLERANCE)
    elif number == 2:
        report = build_cost_per_bit_report()
        bad = report_failures(report, "deviation", refdata.TABLE2_TOLERANCE)
    else:
        report = build_state_search_report()
        bad = report_failures(report, "deviation", refdata.TABLE3_TIME_TOLERANCE)
    return report, bad


def cmd_table(args: argparse.Namespace) -> int:
    report, bad = _table_report(args.number)
    _emit(report, args.csv, args.output)
    for line in bad:
        print(f"reproduction failure: {line}", file=sys.stderr)
    return EXIT_FAILURE if bad else EXIT_OK


def _given(scenario: Scenario, *keys: str) -> dict:
    """The scenario's values for those of `keys` it holds, by key."""
    return {key: scenario.params[key] for key in keys if key in scenario.params}


def _numbers(scenario: Scenario) -> str:
    """`key = value` for each number the scenario gives, as it gives them."""
    numbers = {k: v for k, v in scenario.params.items() if not isinstance(v, (bool, str))}
    return ", ".join(f"{key} = {value!r}" for key, value in numbers.items())


def _computed_report(title: str, rows: list[tuple], scenario: Scenario) -> Report:
    """An estimator's answer: one (quantity, value, note) row per figure.

    A figure that overflows a float is no answer, so the scenario is
    rejected instead, naming the numbers it gives.
    """
    for quantity, value, _ in rows:
        if not math.isfinite(value):
            raise ScenarioError(f"{quantity} overflows a float at {_numbers(scenario)}")
    return Report(
        title=title,
        columns=("quantity", "value", "note"),
        rows=tuple(rows),
        provenance=tuple(("computed", "") for _ in rows),
    )


def _estimate_brute_force(scenario: Scenario) -> Report:
    params = scenario.params
    key_bits = params["key_bits"]
    if params.get("triple"):
        model = BruteForceModel(key_bits, TRIPLE_BYTES_PER_KEY_BIT)
    else:
        model = BruteForceModel(key_bits, **_given(scenario, "bytes_per_key_bit"))
    cost = brute_force_cost(model)
    fleet = scenario_fleet(scenario, default_catalog())
    rows = [
        ("key_bits", float(key_bits), "key size searched"),
        ("bytes_per_key_bit", model.bytes_per_key_bit, "per-candidate price"),
        ("total_cost_bytes", cost, "average over the keyspace"),
    ]
    if fleet is not None:
        est = break_time(cost, fleet)
        rows.extend(
            [
                ("fleet_rate_bytes_per_s", est.fleet_rate, ""),
                ("expected_seconds", est.expected_seconds, format_duration(est.expected_seconds)),
                ("worst_case_seconds", est.worst_case_seconds, format_duration(est.worst_case_seconds)),
            ]
        )
        if "target_years" in params:
            target = params["target_years"]
            speedup = est.expected_seconds / (target * 365.0 * 86400.0)
            rows.append(("required_speedup", speedup, f"to reach {target:g} years"))
            if speedup >= 1.0:
                years = progress_years(speedup, **_given(scenario, "annual_factor"))
                rows.append(("progress_years", years, "hardware progress wait"))
    return _computed_report(f"Exhaustive search, {key_bits}-bit key", rows, scenario)


def _estimate_dictionary(scenario: Scenario) -> Report:
    key_bits, epsilon = scenario.params["key_bits"], scenario.params["epsilon"]
    kwargs = _given(scenario, "plaintext_blocks", "steps_per_comparison")
    if "comparison_bound" in scenario.params:
        kwargs["upper_bound"] = scenario.params["comparison_bound"] == "upper"
    try:
        stats = dictionary_stats(DictionaryModel(key_bits, epsilon, **kwargs))
    except OverflowError:  # raised by the 2**(key_bits - epsilon) entry count
        raise ScenarioError(f"entries overflows a float at {_numbers(scenario)}") from None
    rows = [
        ("entries", stats.entries, "2**(key_bits - epsilon)"),
        ("entry_bits", float(stats.entry_bits), ""),
        ("dictionary_bytes", stats.dictionary_bytes, "storage held while searching"),
        ("expected_comparisons", float(stats.expected_comparisons), ""),
        ("steps_per_lookup", float(stats.steps_per_lookup), ""),
        ("lookup_cost_bytes", stats.lookup_cost, "one lookup leases the storage"),
        ("per_key_cost_bytes", stats.per_key_cost, "2**epsilon lookups per key"),
        ("construction_cost_bytes", stats.construction_cost, "search bound, not tight"),
    ]
    return _computed_report(f"Dictionary attack, {key_bits}-bit key, epsilon {epsilon}", rows, scenario)


def _estimate_tf1(scenario: Scenario) -> Report:
    catalog = default_catalog()
    word_bits = scenario.params["word_bits"]
    fleet = scenario_fleet(scenario, catalog)
    if fleet is None:
        # price on one reference GPU unless the scenario says otherwise
        fleet = Fleet(find_device("ati-radeon-5870", catalog), 1)
    model = Tf1Model(word_bits, **_given(scenario, "bytes_per_strength_bit", "scan_words_per_second"))
    est = tf1_estimate(model, fleet)
    rows = [
        ("word_bits", float(word_bits), ""),
        ("intended_strength_bits", float(est.intended_strength_bits), "2w by design"),
        ("effective_strength_bits", est.effective_strength_bits, "1.5w after reduction"),
        ("state_search_cost_bytes", est.state_search_cost, ""),
        ("fleet_rate_bytes_per_s", est.fleet_rate, ""),
        ("expected_seconds", est.expected_seconds, format_duration(est.expected_seconds)),
        ("expected_scan_words", est.expected_scan_words, "wait for a zero word"),
        ("scan_seconds", est.scan_seconds, format_duration(est.scan_seconds)),
    ]
    title = f"Stream generator state search, {word_bits}-bit words"
    return _computed_report(title, rows, scenario)


_ESTIMATORS = {
    "brute_force": _estimate_brute_force,
    "dictionary": _estimate_dictionary,
    "tf1": _estimate_tf1,
}


def _read_scenario(path: str, kinds: Sequence[str], role: str) -> tuple[Optional[Scenario], int]:
    """The scenario in `path` if it has one of `kinds`, or None and the exit code for why not."""
    try:
        scenario = load_scenario(path)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except ScenarioError as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return None, EXIT_FAILURE
    if scenario.kind not in kinds:
        print(
            f"scenario kind [{scenario.kind}] is not {role}; expected one of {', '.join(kinds)}",
            file=sys.stderr,
        )
        return None, EXIT_USAGE
    return scenario, EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    scenario, code = _read_scenario(args.scenario, sorted(_ESTIMATORS), "an estimator")
    if scenario is None:
        return code
    try:
        report = _ESTIMATORS[scenario.kind](scenario)
    except ScenarioError as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _emit(report, args.csv, args.output)
    return EXIT_OK


def cmd_game(args: argparse.Namespace) -> int:
    scenario, code = _read_scenario(args.scenario, ("game_otp",), "a game")
    if scenario is None:
        return code
    params = scenario.params
    keystream = KeystreamGen(params["bias"], f"{params['seed']}:keystream")
    with _output(args.transcript) as handle:
        try:
            outcome = run_otp_challenge(
                keystream,
                params["trials"],
                rng_seed=params["seed"],
                budget=Budget.fresh(params["budget"]),
                entries=TranscriptWriter(handle.write),
                **_given(scenario, "plaintext_bytes", "win_threshold", "per_step_information"),
            )
        except ProtocolFault as fault:
            print(f"protocol fault: {fault}", file=sys.stderr)
            handle.write("result ProtocolFault\n")  # after the moves already written
            return EXIT_PROTOCOL_FAULT
        handle.write(transcript_trailer(outcome))
    print(f"result {outcome.result.value}")
    print(f"challenges {outcome.successes}/{outcome.trials}")
    print(f"total_cost {outcome.total_cost!r}")
    print(f"budget_remaining {outcome.final_budget.remaining!r}")
    if outcome.p_value is not None:
        print(f"p_value {float(outcome.p_value):.6g}")
    print(f"transcript {args.transcript}")
    return EXIT_OK if outcome.result is GameResult.WON else EXIT_GAME_LOST


def cmd_validate(args: argparse.Namespace) -> int:
    from .experiments import run_validation

    failures = 0
    lines = []
    for number in (1, 2, 3):
        report, bad = _table_report(number)
        status = "PASS" if not bad else "FAIL"
        failures += len(bad)
        lines.append(f"{status} {report.title}")
        lines.extend(f"     {b}" for b in bad)
    suite = build_break_suite_report()
    lines.append(f"PASS {suite.title} (printed figures attached)")
    for result in run_validation(quick=args.quick, seed=args.seed):
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        lines.append(
            f"{status} {result.name}: {result.statistic:.6g} "
            f"(expected {result.expected:.6g} within {result.tolerance:.3g})"
        )
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                catalog = load_catalog(handle)
        except OSError as exc:
            print(f"cannot read catalog: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except CatalogError as exc:
            print(f"bad catalog: {exc}", file=sys.stderr)
            return EXIT_FAILURE
    else:
        catalog = default_catalog()
    rows = []
    for device in catalog:
        rows.append(
            (
                device.name,
                device.transistor_count,
                device.clock_hz,
                device.component_count,
                resource_rate(device),
            )
        )
    report = Report(
        title="Device catalog",
        columns=("device", "transistors", "clock_hz", "components", "rate_bytes_per_s"),
        rows=tuple(rows),
        provenance=tuple(("catalog", "") for _ in rows),
    )
    _emit(report, args.csv, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="workfunc",
        description="Cost-of-attack calculator over a byte-step price model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="rebuild a published table and self-check it")
    p_table.add_argument("number", type=int, choices=(1, 2, 3))
    p_table.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p_table.add_argument("--output", help="write to a file instead of stdout")
    p_table.set_defaults(func=cmd_table)

    p_est = sub.add_parser("estimate", help="run a closed-form estimator scenario")
    p_est.add_argument("scenario", help="scenario file path")
    p_est.add_argument("--csv", action="store_true")
    p_est.add_argument("--output", help="write to a file instead of stdout")
    p_est.set_defaults(func=cmd_estimate)

    p_game = sub.add_parser("game", help="play a budgeted distinguishing game")
    p_game.add_argument("scenario", help="scenario file path")
    p_game.add_argument("--transcript", required=True, help="transcript output path")
    p_game.set_defaults(func=cmd_game)

    p_val = sub.add_parser("validate", help="desk-scale reproduction experiments")
    p_val.add_argument("--quick", action="store_true", help="smaller trial counts")
    p_val.add_argument("--seed", type=int, default=11)
    p_val.add_argument("--output", help="write to a file instead of stdout")
    p_val.set_defaults(func=cmd_validate)

    p_cat = sub.add_parser("catalog", help="show a device catalog with rates")
    p_cat.add_argument("--file", help="catalog CSV path (default: built in)")
    p_cat.add_argument("--csv", action="store_true")
    p_cat.add_argument("--output", help="write to a file instead of stdout")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Unwritable as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
