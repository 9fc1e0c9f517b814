"""Command line front end.

Subcommands: table, estimate, game, validate, catalog.
numpy loads with OPENBLAS_NUM_THREADS=1 unless it is set, since no command calls BLAS.

Exit codes: 0 success (or game won), 1 reproduction or validation
failure, 2 usage error (including any output that cannot be written:
an output or transcript path, or stdout), 3 game lost, 4 protocol fault
in a game.  A command stops on a failure by raising it, and `main`
reports every failure: one line or more on stderr, then the exit code.

`game` opens its transcript before the first move and writes the lines a
block of `game.RECORD_BLOCK` moves at a time, so its memory does not grow
with `trials`; a killed game leaves its moves up to the last block, and a
finished one the summary trailer after the last move.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager, suppress
from typing import Optional, Sequence

# No command calls BLAS (`experiments` uses elementwise ops, sort, searchsorted, unique and
# numpy.random), and without this OpenBLAS starts a worker thread as numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .devices import REFERENCE_GPU, CatalogError, default_catalog, find_device, load_catalog, resource_rate
from .estimators import (
    DAYS_PER_YEAR,
    DEFAULT_BYTES_PER_KEY_BIT,
    SECONDS_PER_DAY,
    TRIPLE_BYTES_PER_KEY_BIT,
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


class _Failure(Exception):
    """`_Failure(code, message)` ends a command; `main` prints the message to
    stderr and exits with the code."""


@contextmanager
def _output(path: Optional[str]):
    """The text file at `path`, opened for writing, or stdout when there is
    none, flushed at the end.  An `OSError` in opening, in the `with` block
    or in closing or flushing is a failed write, exit 2: the blocks that
    use it only compute and write."""
    try:
        if not path:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as handle:
                yield handle
    except OSError as exc:
        if not path:
            with suppress(OSError):  # closed, so the flush at exit does not fail again
                sys.stdout.close()
        raise _Failure(EXIT_USAGE, f"cannot write {path or 'stdout'}: {exc.strerror or exc}") from None


@contextmanager
def _reading(what: str):
    """The `with` block loads the `what` file: one that cannot be read exits 2,
    and one that is not UTF-8 text exits 1 naming its first bad byte and offset."""
    try:
        yield
    except OSError as exc:
        raise _Failure(EXIT_USAGE, f"cannot read {what}: {exc}") from None
    except UnicodeDecodeError as exc:
        bad = f"byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        raise _Failure(EXIT_FAILURE, f"bad {what}: not UTF-8 text: {bad}") from None


def _emit(report: Report, as_csv: bool, output: Optional[str]) -> None:
    with _output(output) as handle:
        handle.write(render_csv(report) if as_csv else render_text(report))


def _table_report(number: int) -> tuple[Report, list[str]]:
    """Table `number` (4: the break-time suite, only `validate` checks it) and its rows out of tolerance."""
    # the builders are looked up at each call, where the benchmark tracer wraps them
    report = (build_device_rate_report, build_cost_per_bit_report, build_state_search_report,
              build_break_suite_report)[number - 1]()
    return report, report_failures(report)


def cmd_table(args: argparse.Namespace) -> int:
    report, bad = _table_report(args.number)
    _emit(report, args.csv, args.output)
    if bad:
        raise _Failure(EXIT_FAILURE, "\n".join(f"reproduction failure: {line}" for line in bad))
    return EXIT_OK


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
        provenance=("computed", ""),
    )


def _estimate_brute_force(scenario: Scenario) -> Report:
    params = scenario.params
    key_bits = params["key_bits"]
    triple = params.get("triple")
    price = TRIPLE_BYTES_PER_KEY_BIT if triple else params.get("bytes_per_key_bit", DEFAULT_BYTES_PER_KEY_BIT)
    cost = brute_force_cost(key_bits, price)
    rate = scenario_fleet(scenario, default_catalog())
    rows = [
        ("key_bits", float(key_bits), "key size searched"),
        ("bytes_per_key_bit", price, "per-candidate price"),
        ("total_cost_bytes", cost, "average over the keyspace"),
    ]
    if rate is not None:
        est = break_time(cost, rate)
        rows.extend(
            [
                ("fleet_rate_bytes_per_s", rate, ""),
                ("expected_seconds", est.expected_seconds, format_duration(est.expected_seconds)),
                ("worst_case_seconds", est.worst_case_seconds, format_duration(est.worst_case_seconds)),
            ]
        )
        if "target_years" in params:
            target = params["target_years"]
            speedup = est.expected_seconds / (target * DAYS_PER_YEAR * SECONDS_PER_DAY)
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
        stats = dictionary_stats(key_bits, epsilon, **kwargs)
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
    rate = scenario_fleet(scenario, catalog)
    if rate is None:
        rate = resource_rate(find_device(REFERENCE_GPU, catalog))
    est = tf1_estimate(word_bits, rate, **_given(scenario, "bytes_per_strength_bit", "scan_words_per_second"))
    rows = [
        ("word_bits", float(word_bits), ""),
        ("intended_strength_bits", float(est.intended_strength_bits), "2w by design"),
        ("effective_strength_bits", est.effective_strength_bits, "1.5w after reduction"),
        ("state_search_cost_bytes", est.state_search_cost, ""),
        ("fleet_rate_bytes_per_s", rate, ""),
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


def _read_scenario(path: str, kinds: Sequence[str], role: str) -> Scenario:
    """The scenario in `path`, which must have one of `kinds`."""
    with _reading("scenario"):
        scenario = load_scenario(path)
    if scenario.kind not in kinds:
        expected = ", ".join(kinds)
        raise _Failure(EXIT_USAGE, f"scenario kind [{scenario.kind}] is not {role}; expected one of {expected}")
    return scenario


def cmd_estimate(args: argparse.Namespace) -> int:
    scenario = _read_scenario(args.scenario, sorted(_ESTIMATORS), "an estimator")
    _emit(_ESTIMATORS[scenario.kind](scenario), args.csv, args.output)
    return EXIT_OK


def cmd_game(args: argparse.Namespace) -> int:
    scenario = _read_scenario(args.scenario, ("game_otp",), "a game")
    params = scenario.params
    keystream = KeystreamGen(params["bias"], f"{params['seed']}:keystream")
    with _output(args.transcript) as handle:
        try:
            outcome = run_otp_challenge(
                keystream,
                params["trials"],
                rng_seed=params["seed"],
                budget=params["budget"],
                entries=TranscriptWriter(handle.write),
                **_given(scenario, "plaintext_bytes", "win_threshold", "per_step_information"),
            )
        except ProtocolFault as fault:
            handle.write("result ProtocolFault\n")  # after the moves already written
            raise _Failure(EXIT_PROTOCOL_FAULT, f"protocol fault: {fault}") from None
        handle.write(transcript_trailer(outcome))
    with _output(None) as out:
        out.write(f"result {outcome.result.value}\n")
        out.write(f"challenges {outcome.successes}/{outcome.trials}\n")
        out.write(f"total_cost {outcome.total_cost!r}\n")
        out.write(f"budget_remaining {outcome.budget_remaining!r}\n")
        if outcome.p_value is not None:
            out.write(f"p_value {float(outcome.p_value):.6g}\n")
        out.write(f"transcript {args.transcript}\n")
    return EXIT_OK if outcome.result is GameResult.WON else EXIT_GAME_LOST


def cmd_validate(args: argparse.Namespace) -> int:
    from .experiments import run_validation

    failures = 0
    lines = []
    with _output(args.output) as handle:  # an unwritable path fails before the work
        for number in (1, 2, 3, 4):
            report, bad = _table_report(number)
            status = "PASS" if not bad else "FAIL"
            failures += len(bad)
            lines.append(f"{status} {report.title}")
            lines.extend(f"     {b}" for b in bad)
        for result in run_validation(quick=args.quick, seed=args.seed):
            status = "PASS" if result.passed else "FAIL"
            if not result.passed:
                failures += 1
            lines.append(
                f"{status} {result.name}: {result.statistic:.6g} "
                f"(expected {result.expected:.6g} within {result.tolerance:.3g})"
            )
        handle.write("\n".join(lines) + "\n")
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.file is not None:
        # read whole, so a decoding error's offset counts from the start of the file
        with _reading("catalog"), open(args.file, "r", encoding="utf-8") as handle:
            catalog = load_catalog(handle.read())
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
        provenance=("catalog", ""),
    )
    _emit(report, args.csv, args.output)
    return EXIT_OK


def _seed(text: str) -> int:
    """A `--seed` value: the search experiments derive their seeds from it, and none may be negative."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


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
    p_val.add_argument("--seed", type=_seed, default=11, help="seeds the key-search and state-search "
                       "lines (default 11); the keystream and meter-ledger lines use fixed seeds 20 and 5")
    p_val.add_argument("--output", help="write to a file instead of stdout")
    p_val.set_defaults(func=cmd_validate)

    p_cat = sub.add_parser("catalog", help="show a device catalog with rates")
    p_cat.add_argument("--file", help="catalog CSV path (default: built in)")
    p_cat.add_argument("--csv", action="store_true")
    p_cat.add_argument("--output", help="write to a file instead of stdout")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as exc:
        code, message = exc.args
        print(message, file=sys.stderr)
        return code
    except ScenarioError as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except CatalogError as exc:
        print(f"bad catalog: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
