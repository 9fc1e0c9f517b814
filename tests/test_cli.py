import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import workfunc
from workfunc import cli
from workfunc.cli import main
from workfunc.cost import Budget
from workfunc.devices import CATALOG_HEADER
from workfunc.game import Move, MoveClass, ProtocolFault, export_transcript
from workfunc.otp import run_otp_challenge
from workfunc.reports import report_from_csv
from workfunc.toycrypto import KeystreamGen


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GAME_WON = "[game_otp]\nseed = 1\nbias = 1.0\ntrials = 200\nbudget = 1e6\n"


def test_table_commands_succeed(capsys):
    for number, fragment in [(1, "resource rates"), (2, "prices"), (3, "state search")]:
        assert main(["table", str(number)]) == 0
        out = capsys.readouterr().out
        assert fragment in out
        assert "deviation" in out


def test_table_csv_is_parseable(capsys):
    assert main(["table", "1", "--csv"]) == 0
    report = report_from_csv(capsys.readouterr().out)
    assert len(report.rows) == 5
    assert report.provenance[0] == ("printed", "Table 1")


def test_table_output_file(tmp_path, capsys):
    target = tmp_path / "t3.csv"
    assert main(["table", "3", "--csv", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert len(report_from_csv(target.read_text()).rows) == 5


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["table", "4"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["game", "whatever"])  # --transcript is required
    assert info.value.code == 2


def test_estimate_brute_force_with_fleet(tmp_path, capsys):
    scenario = write(
        tmp_path,
        "bf.scenario",
        "[brute_force]\nkey_bits = 56\nfleet = 1 x ati-radeon-5870\n",
    )
    assert main(["estimate", scenario]) == 0
    out = capsys.readouterr().out
    assert "total_cost_bytes" in out
    assert "132.5 s" in out


def test_estimate_progress_years(tmp_path, capsys):
    scenario = write(
        tmp_path,
        "bf2.scenario",
        "[brute_force]\nkey_bits = 96\nfleet = 65536 x ati-radeon-5870\n"
        "target_years = 2\n",
    )
    assert main(["estimate", scenario]) == 0
    out = capsys.readouterr().out
    assert "required_speedup" in out
    assert "progress_years" in out


def test_estimate_triple_pricing(tmp_path, capsys):
    scenario = write(tmp_path, "t.scenario", "[brute_force]\nkey_bits = 56\ntriple = yes\n")
    assert main(["estimate", scenario]) == 0
    assert "360" in capsys.readouterr().out


def test_estimate_dictionary(tmp_path, capsys):
    scenario = write(
        tmp_path,
        "d.scenario",
        "[dictionary]\nkey_bits = 56\nepsilon = 6\ncomparison_bound = conservative\n",
    )
    assert main(["estimate", scenario]) == 0
    out = capsys.readouterr().out
    assert "per_key_cost_bytes" in out
    assert "3.15252e+16" in out


def test_estimate_tf1(tmp_path, capsys):
    scenario = write(tmp_path, "s.scenario", "[tf1]\nword_bits = 32\n")
    assert main(["estimate", scenario]) == 0
    out = capsys.readouterr().out
    assert "expected_scan_words" in out
    assert "0.4436 s" in out


def test_estimate_rejects_bad_scenarios(tmp_path, capsys):
    bad_key = write(tmp_path, "bad.scenario", "[brute_force]\nkey_bits = 56\ncolor = red\n")
    assert main(["estimate", bad_key]) == 1
    assert "bad scenario" in capsys.readouterr().err

    bad_bound = write(
        tmp_path,
        "bound.scenario",
        "[dictionary]\nkey_bits = 56\nepsilon = 6\ncomparison_bound = exact\n",
    )
    assert main(["estimate", bad_bound]) == 1

    ignored_key = write(
        tmp_path, "tf1.scenario", "[tf1]\nword_bits = 32\nchecker_ops = 4096\n"
    )
    capsys.readouterr()
    assert main(["estimate", ignored_key]) == 1
    assert "'checker_ops'" in capsys.readouterr().err

    no_command = write(tmp_path, "desk.scenario", "[desk_validation]\nseed = 1\n")
    assert main(["estimate", no_command]) == 1
    assert "unknown scenario kind" in capsys.readouterr().err

    not_estimator = write(tmp_path, "g.scenario", GAME_WON)
    assert main(["estimate", not_estimator]) == 2
    assert "not an estimator" in capsys.readouterr().err

    assert main(["estimate", str(tmp_path / "absent.scenario")]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "[dictionary]\nkey_bits = 1024\nepsilon = 0\n",  # 2**1024 entries
        "[brute_force]\nkey_bits = 1024\n",  # the cost rounds to inf
        # a tiny target, not the keyspace, overflows the required speedup
        "[brute_force]\nkey_bits = 56\nfleet = 1 x ati-radeon-5870\ntarget_years = 1e-320\n",
    ],
)
def test_estimate_rejects_keyspaces_that_overflow(tmp_path, capsys, text):
    assert main(["estimate", write(tmp_path, "huge.scenario", text)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("bad scenario:")
    numbers = [line for line in text.splitlines()[1:] if not line.startswith("fleet")]
    assert ", ".join(numbers) in captured.err  # every number the scenario gives
    assert "inf" not in captured.out


@pytest.mark.parametrize(
    "text, key",
    [
        ("[game_otp]\nseed = 1\nbias = 0.5\ntrials = 10\nbudget = nan\n", "budget"),
        ("[game_otp]\nseed = 1\nbias = 0.5\ntrials = 10\nbudget = inf\n", "budget"),
        ("[game_otp]\nseed = 1\nbias = nan\ntrials = 10\nbudget = 1\n", "bias"),
        ("[game_otp]\nseed = 1\nbias = 0.5\ntrials = 10\nbudget = 1\n"
         "per_step_information = nan\n", "per_step_information"),
        ("[brute_force]\nkey_bits = 96\nfleet = 65536 x ati-radeon-5870\ntarget_years = 2\n"
         "annual_factor = 1\n", "annual_factor"),
        ("[brute_force]\nkey_bits = 90\nannual_factor = 0.5\n", "annual_factor"),
        ("[brute_force]\nkey_bits = 90\nannual_factor = nan\n", "annual_factor"),
        # accepted and then ignored before these two-key rules
        ("[brute_force]\nkey_bits = 56\ntarget_years = 2\nannual_factor = 3\n", "target_years"),
        ("[brute_force]\nkey_bits = 56\nfleet = 1 x ati-radeon-5870\nannual_factor = 3\n",
         "annual_factor"),
        ("[tf1]\nword_bits = 32\nfleet_rate_bytes_per_s = inf\n", "fleet_rate_bytes_per_s"),
        ("[tf1]\nword_bits = 32\nscan_words_per_second = inf\n", "scan_words_per_second"),
        ("[dictionary]\nkey_bits = 56\nepsilon = 6\nfleet = 1 x ati-radeon-5870\n", "'fleet'"),
        ("[dictionary]\nkey_bits = 56\nepsilon = 6\nfleet_rate_bytes_per_s = 1e9\n",
         "'fleet_rate_bytes_per_s'"),
        # every plaintext byte of every trial is encrypted and exported
        ("[game_otp]\nseed = 1\nbias = 0.5\ntrials = 489\nbudget = 1\nplaintext_bytes = 65536\n",
         "trials * plaintext_bytes"),
    ],
)
def test_out_of_contract_scenarios_exit_one_naming_the_key(tmp_path, capsys, text, key):
    scenario = write(tmp_path, "bad.scenario", text)
    if text.startswith("[game_otp]"):
        assert main(["game", scenario, "--transcript", str(tmp_path / "t")]) == 1
    else:
        assert main(["estimate", scenario]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("bad scenario:")
    assert key in captured.err
    assert captured.out == ""


def test_game_win_writes_transcript(tmp_path, capsys):
    scenario = write(tmp_path, "won.scenario", GAME_WON)
    transcript = tmp_path / "won.transcript"
    assert main(["game", scenario, "--transcript", str(transcript)]) == 0
    out = capsys.readouterr().out
    assert "result Won" in out
    assert "challenges 200/200" in out
    lines = transcript.read_text().splitlines()
    # 200 trials x (request, response, challenge, verdict), then the trailer
    assert len(lines) == 800 + 3
    assert [line.split(" ")[0] for line in lines[:800]] == [str(i) for i in range(800)]
    assert [line.split(" ", 3)[1:3] for line in lines[:4]] == [
        ["Attacker", "EncryptionRequest"],
        ["Environment", "Response"],
        ["Attacker", "Challenge"],
        ["Environment", "Response"],
    ]
    assert lines[800].startswith("total_cost ")
    assert lines[801:] == ["result Won", "challenges 200/200"]


def test_game_runs_are_reproducible(tmp_path):
    scenario = write(tmp_path, "won.scenario", GAME_WON)
    first, second = tmp_path / "a.transcript", tmp_path / "b.transcript"
    assert main(["game", scenario, "--transcript", str(first)]) == 0
    assert main(["game", scenario, "--transcript", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_game_chance_level_loses(tmp_path, capsys):
    scenario = write(
        tmp_path,
        "chance.scenario",
        "[game_otp]\nseed = 2\nbias = 0.5\ntrials = 200\nbudget = 1e6\n",
    )
    transcript = tmp_path / "chance.transcript"
    assert main(["game", scenario, "--transcript", str(transcript)]) == 3
    assert "result LostChallengeFailed" in capsys.readouterr().out


def test_game_zero_budget_is_a_loss_not_a_fault(tmp_path, capsys):
    scenario = write(
        tmp_path,
        "broke.scenario",
        "[game_otp]\nseed = 1\nbias = 1.0\ntrials = 10\nbudget = 0\n",
    )
    transcript = tmp_path / "broke.transcript"
    assert main(["game", scenario, "--transcript", str(transcript)]) == 3
    out = capsys.readouterr().out
    assert "result LostBudgetDepleted" in out
    assert transcript.exists()


def test_game_validates_parameters(tmp_path, capsys):
    bad_bias = write(
        tmp_path,
        "bias.scenario",
        "[game_otp]\nseed = 1\nbias = 1.5\ntrials = 10\nbudget = 1\n",
    )
    assert main(["game", bad_bias, "--transcript", str(tmp_path / "x")]) == 1
    assert "bias" in capsys.readouterr().err

    not_game = write(tmp_path, "bf.scenario", "[brute_force]\nkey_bits = 8\n")
    assert main(["game", not_game, "--transcript", str(tmp_path / "y")]) == 2
    assert "not a game" in capsys.readouterr().err


def game_scenario(seed, bias, trials, budget, plaintext_bytes=32):
    return (
        f"[game_otp]\nseed = {seed}\nbias = {bias}\ntrials = {trials}\n"
        f"budget = {budget!r}\nplaintext_bytes = {plaintext_bytes}\n"
    )


@pytest.mark.parametrize("bias", [0.5, 0.6, 1.0])
@pytest.mark.parametrize("plaintext_bytes", [1, 5, 32, 33])
@pytest.mark.parametrize("seed, budget", [(1, 1e6), (2, 1000.0)])  # 1000 runs out mid-game
def test_streamed_transcript_equals_in_memory_export(tmp_path, capsys, bias, plaintext_bytes,
                                                     seed, budget):
    trials = 60
    outcome = run_otp_challenge(
        KeystreamGen(bias, f"{seed}:keystream"),
        trials,
        rng_seed=seed,
        budget=Budget.fresh(budget),
        plaintext_bytes=plaintext_bytes,
    )
    expected = export_transcript(outcome)
    text = game_scenario(seed, bias, trials, budget, plaintext_bytes)
    scenario = write(tmp_path, "g.scenario", text)
    transcript = tmp_path / "g.transcript"
    code = main(["game", scenario, "--transcript", str(transcript)])
    assert transcript.read_text() == expected
    summary = capsys.readouterr().out
    assert summary.startswith(f"result {outcome.result.value}\n")

    assert main(["game", scenario, "--transcript", ""]) == code
    assert capsys.readouterr().out == expected + summary.replace(str(transcript), "")


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "1", "--output", "{missing}"],
        ["table", "2", "--output", "{directory}"],
        ["validate", "--quick", "--output", "{missing}"],
        ["catalog", "--output", "{missing}"],
        ["estimate", "{estimate}", "--output", "{missing}"],
    ],
)
def test_unwritable_output_exits_two(tmp_path, capsys, argv):
    paths = {
        "missing": str(tmp_path / "absent" / "out.txt"),
        "directory": str(tmp_path),
        "estimate": write(tmp_path, "bf.scenario", "[brute_force]\nkey_bits = 56\n"),
    }
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {argv[-1]}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "target, reason",
    [("absent/t.transcript", "No such file or directory"), (".", "Is a directory")],
)
def test_unwritable_transcript_exits_two_before_the_first_move(tmp_path, capsys, monkeypatch,
                                                               target, reason):
    def refuse(*args, **kwargs):
        raise AssertionError("the game was played")

    monkeypatch.setattr(cli, "run_otp_challenge", refuse)
    scenario = write(tmp_path, "won.scenario", GAME_WON)
    path = str(tmp_path / target)
    assert main(["game", scenario, "--transcript", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot write {path}: {reason}\n"


def test_unwritable_validate_output_exits_two_before_the_experiments(tmp_path, capsys,
                                                                     monkeypatch):
    import workfunc.experiments as experiments

    calls = []
    monkeypatch.setattr(experiments, "run_validation", lambda **kw: calls.append(kw) or [])
    path = str(tmp_path / "absent" / "out.txt")
    assert main(["validate", "--quick", "--output", path]) == 2
    assert calls == []
    assert capsys.readouterr().err == f"cannot write {path}: No such file or directory\n"


def test_unwritable_transcript_leaves_no_traceback(tmp_path):
    scenario = write(tmp_path, "won.scenario", GAME_WON)
    env = {**os.environ, "PYTHONPATH": str(Path(workfunc.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "workfunc.cli", "game", scenario,
         "--transcript", str(tmp_path / "absent" / "t")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot write ")
    assert "Traceback" not in proc.stderr


def test_game_protocol_fault_ends_the_streamed_transcript(tmp_path, capsys, monkeypatch):
    def faulty(keystream, trials, entries, **kwargs):
        entries.append(Move(MoveClass.CHALLENGE, b"0"))
        raise ProtocolFault("bad reply")

    monkeypatch.setattr(cli, "run_otp_challenge", faulty)
    scenario = write(tmp_path, "won.scenario", GAME_WON)
    transcript = tmp_path / "fault.transcript"
    assert main(["game", scenario, "--transcript", str(transcript)]) == 4
    assert transcript.read_text() == "0 Attacker Challenge 0000000130\nresult ProtocolFault\n"
    captured = capsys.readouterr()
    assert captured.err == "protocol fault: bad reply\n"
    assert captured.out == ""


def test_game_memory_does_not_grow_with_trials(tmp_path, capsys):
    """The transcript is written as the game runs, so the traced peak of a
    null game is the same at 1,000 and 5,000 trials."""
    peaks = []
    for trials in (20, 1000, 5000):  # the 20-trial game only warms caches
        scenario = write(tmp_path, f"n{trials}.scenario", game_scenario(1, 0.5, trials, 1e15))
        tracemalloc.start()
        try:
            code = main(["game", scenario, "--transcript", str(tmp_path / "t")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code in (0, 3)
        assert "challenges " in capsys.readouterr().out
    small, large = peaks[1:]
    assert small < 256 * 1024 and large < 256 * 1024, peaks
    assert abs(large - small) < 64 * 1024, peaks


def test_validate_quick_passes(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line and not line.startswith(" ")]
    assert all(line.startswith("PASS") for line in lines)
    assert any("brute-force mean" in line for line in lines)
    assert any("meter ledger" in line for line in lines)


def test_catalog_listing(capsys, tmp_path):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "ati-radeon-5870" in out
    assert out.count("\n") >= 7

    bad = tmp_path / "bad.csv"
    bad.write_text("name,transistor_count\n")
    assert main(["catalog", "--file", str(bad)]) == 1
    assert "bad catalog" in capsys.readouterr().err
    assert main(["catalog", "--file", str(tmp_path / "nope.csv")]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "[DEFAULT]\nkey_bits = 40\n[brute_force]\n",
        "[brute_force]\n[DEFAULT]\nkey_bits = 40\n",
        "[DEFAULT]\nkey_bits = 40\n[brute_force]\nkey_bits = 56\n",
        "[brute_force]\nkey_bits = 56\n[DEFAULT]\nkey_bits = 40\n",
    ],
)
def test_default_section_is_a_second_section(tmp_path, capsys, text):
    assert main(["estimate", write(tmp_path, "bf.scenario", text)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "bad scenario: expected exactly one [kind] section, found 2\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "row, column",
    [
        ("gpu,1e9,1e9,1,abc", "bits_per_transistor"),
        ("gpu,inf,1e9,1,8", "transistor_count"),
        ("gpu,1e9,nan,1,8", "clock_hz"),
        ("gpu,1e9,inf,1,nan", "clock_hz"),
    ],
)
def test_catalog_numeric_cells_are_checked(tmp_path, capsys, row, column):
    path = write(tmp_path, "cat.csv", f"{CATALOG_HEADER}\n{row}\n")
    assert main(["catalog", "--file", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"bad catalog: line 2: column {column!r}: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "row, column",
    [
        ("gpu,12345678901234567890,1,1,8", "transistor_count"),  # was listed as ...7168
        ("gpu,1e300,1,1,8", "transistor_count"),  # was listed with 301 digits
        ("gpu,1e9,1,9007199254740993,8", "component_count"),  # float() reads 2**53
    ],
)
def test_catalog_counts_not_below_2_53_are_refused(tmp_path, capsys, row, column):
    path = write(tmp_path, "cat.csv", f"{CATALOG_HEADER}\n{row}\n")
    assert main(["catalog", "--file", path]) == 1
    captured = capsys.readouterr()
    cell = row.split(",")[CATALOG_HEADER.split(",").index(column)]
    assert captured.err == f"bad catalog: line 2: column {column!r}: not below 2**53, so not read exactly: {cell!r}\n"
    assert captured.out == ""


def test_catalog_count_below_2_53_is_listed_exactly(tmp_path, capsys):
    path = write(tmp_path, "cat.csv", f"{CATALOG_HEADER}\ngpu,9007199254740991,1,1,8\n")
    assert main(["catalog", "--file", path, "--csv"]) == 0
    assert "gpu,9007199254740991," in capsys.readouterr().out


def test_catalog_row_whose_rate_overflows_is_refused(tmp_path, capsys):
    path = write(tmp_path, "cat.csv", f"{CATALOG_HEADER}\ngpu,1e300,1e300,1,8\n")
    assert main(["catalog", "--file", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "bad catalog: line 2: rate_bytes_per_s overflows a float\n"
    assert captured.out == ""


def test_console_script_entry_point():
    proc = subprocess.run(["workfunc", "table", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "resource rates" in proc.stdout
