import ast
import csv
import errno
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import workfunc
from workfunc import cli, refdata
from workfunc.cli import main
from workfunc.devices import CATALOG_HEADER
from workfunc.game import Move, MoveClass, ProtocolFault, export_transcript
from workfunc.otp import run_otp_challenge
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
    header, *rows = csv.reader(capsys.readouterr().out.splitlines())
    assert header[-2:] == ["provenance_tag", "provenance_source"]
    assert len(rows) == 5
    assert rows[0][-2:] == ["printed", "Table 1"]


def test_table_output_file(tmp_path, capsys):
    target = tmp_path / "t3.csv"
    assert main(["table", "3", "--csv", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    header, *rows = csv.reader(target.read_text().splitlines())
    assert header[-2:] == ["provenance_tag", "provenance_source"]
    assert len(rows) == 5


# SHA-256 of every rendered report, text and CSV: a change to a table, the
# catalog or an estimator's output, down to a float's last digit or a
# column's padding, shows here
RENDERED_REPORTS = {
    ("table", "1"): "6c4dad41d38f8f4190adc06375189ee7a94605e577d0117890b2a80d54f70a4f",
    ("table", "1", "--csv"): "090fb2ca2b1843b71c5c871b804acfbd7edfc4f277d1d0a4839e714a346583b7",
    ("table", "2"): "b11c0d61dc9ecb8735d11fa316335c1315caffdebb13b6096b0a29af14a1fee0",
    ("table", "2", "--csv"): "075f2b67159fe2c757a1256ff8efbf4c89b8d66b00a1e81e21bf78f121f90ccd",
    ("table", "3"): "feca5b92db98eabfbf98995699e8d8154086f9aecfcae87efefe259bbb432334",
    ("table", "3", "--csv"): "58e43a797594150608af60c57fc96abed744f98bd40f19f192782c084b2366c9",
    ("catalog",): "5176fb055867b5a15cddbc4f92a4bbef5bd192345a5deca714f5dbef05337828",
    ("catalog", "--csv"): "d51a5984c2c82377c08e083a98937185cbd67b9d3b50ff8c035629ec4bb39ca5",
    ("brute_force",): "8064225265eb6738b48e222f19a51d34e1468a59af06fd2fd60846987dd211a1",
    ("brute_force", "--csv"): "3333c10134562ac4bbaef953fbb5d5b80db61422f0377c15cfcd37f904e1729b",
    ("dictionary",): "56b6ded4adbd33a94f4cb5a4c64f734b39e58bdcee8d1bbd6dbeab7f9cb8f433",
    ("dictionary", "--csv"): "7eb87c870ff49940f797cc51478bf39ef45ccd700e6a248ad1d0a2e1e489291f",
    ("tf1",): "388153bab6d83c5f150c5adb608212814ef0ee4adc87c91617ee3364a322192c",
    ("tf1", "--csv"): "05dc92dbae8f20f4aef4a1e35b06810617fb603869795e439ebe914ccfb0e879",
    ("brute_force_triple",): "41a8ded074f65abffce122e6bd9646aec8ee276badcc29ab5206d393f8f12ca6",
    ("brute_force_triple", "--csv"): "6667ec2a9e7c8b8135824a8cfd1ef29d0a08f36cb33740783287f36c98efec0d",
    ("brute_force_priced",): "67b79a7e067693924a556cfc5fa22ed4f623f4623c16d4571c61f9746e124b27",
    ("brute_force_priced", "--csv"): "5e8b603c01471b227303f0570df32e77eb3d9b131d9654bd6e6a2b94ae4a0cdf",
    ("dictionary_upper",): "e6a594497abfa866ed7a1307f3b04a11be06efb635c653c5db4f912b77430f0e",
    ("dictionary_upper", "--csv"): "ad3620543facde1623616d4fe6cbfec42ee81a2296b98b37cb2307f3d7960672",
    ("tf1_fleet",): "f0e6f06418c6a3e605dde0b8eea679e17d69b36c2ab41a25aab55b3c110b0394",
    ("tf1_fleet", "--csv"): "b09efdb220b9127365660610900e1982cb90c79f262f3fb3fb918aed01c6fad7",
}
ESTIMATE_SCENARIOS = {
    "brute_force": "[brute_force]\nkey_bits = 96\nfleet = 65536 x ati-radeon-5870\ntarget_years = 2\n",
    "dictionary": "[dictionary]\nkey_bits = 56\nepsilon = 6\n",
    "tf1": "[tf1]\nword_bits = 32\n",
    # every price and rate key the estimators take, so the defaulting in `cli` is pinned too
    "brute_force_triple": "[brute_force]\nkey_bits = 56\ntriple = yes\n",
    "brute_force_priced": "[brute_force]\nkey_bits = 80\nbytes_per_key_bit = 240\n"
    "fleet_rate_bytes_per_s = 3.5e18\ntarget_years = 0.5\nannual_factor = 1.5\n",
    "dictionary_upper": "[dictionary]\nkey_bits = 64\nepsilon = 10\nplaintext_blocks = 2\n"
    "steps_per_comparison = 4\ncomparison_bound = upper\n",
    "tf1_fleet": "[tf1]\nword_bits = 40\nfleet = 1024 x ati-radeon-5870 + 16 x virtex-5-xc5vlx30-3\n"
    "bytes_per_strength_bit = 96\nscan_words_per_second = 2.5e8\n",
}


@pytest.mark.parametrize("report", list(RENDERED_REPORTS), ids=" ".join)
def test_rendered_reports_are_byte_identical(tmp_path, capsys, report):
    argv = list(report)
    if report[0] in ESTIMATE_SCENARIOS:
        argv[0] = write(tmp_path, "s.scenario", ESTIMATE_SCENARIOS[report[0]])
        argv.insert(0, "estimate")
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == RENDERED_REPORTS[report]


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


def test_game_budget_is_below_2_53(tmp_path, capsys):
    # from 2**53 up a byte's charge would not register: 1e17 read total_cost
    # 6400.0 against 4800.0 charged, and 1e300 read 0.0
    for budget in (1e17, 2.0**53, 1e300):
        scenario = write(tmp_path, "rich.scenario", game_scenario(1, 0.6, 100, budget))
        assert main(["game", scenario, "--transcript", str(tmp_path / "rich.t")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad scenario: budget must be in [0, 9007199254740992)"), err
    scenario = write(tmp_path, "rich.scenario", game_scenario(1, 0.6, 100, 2.0**53 - 1))
    assert main(["game", scenario, "--transcript", str(tmp_path / "rich.t")]) == 0
    assert "total_cost 4800.0\n" in capsys.readouterr().out


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
@pytest.mark.parametrize(
    "seed, budget, trials",
    [
        pytest.param(1, 1e6, 60, id="1-1000000.0"),
        pytest.param(2, 1000.0, 60, id="2-1000.0"),  # runs out mid-game, within the first block
        pytest.param(3, 1e6, 150, id="3-1000000.0-150"),  # two full blocks of moves and 88 more
        pytest.param(4, 5000.0, 150, id="4-5000.0-150"),  # runs out mid-way through the second block
    ],
)
def test_streamed_transcript_equals_in_memory_export(tmp_path, capsys, bias, plaintext_bytes,
                                                     seed, budget, trials):
    outcome = run_otp_challenge(
        KeystreamGen(bias, f"{seed}:keystream"),
        trials,
        rng_seed=seed,
        budget=budget,
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


class _FullDisk:
    """A file on a full disk: `write` or `close`, as `failing` says, raises
    ENOSPC, as a buffered write to /dev/full does at its flush."""

    def __init__(self, failing):
        self.failing = failing

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def close(self):
        if self.failing == "close":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "close"])
@pytest.mark.parametrize("command", ["table", "game"])
def test_a_failed_write_exits_two(tmp_path, capsys, monkeypatch, command, failing):
    path = str(tmp_path / "out")
    argv = {
        "table": ["table", "1", "--output", path],
        "game": ["game", write(tmp_path, "won.scenario", GAME_WON), "--transcript", path],
    }[command]
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullDisk(failing), raising=False)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot write {path}: No space left on device\n"


def _run_cli(argv, **kwargs):
    """`workfunc argv` in a fresh interpreter, as `subprocess.Popen(**kwargs)`, with
    stdout buffered as by default, so a write can fail in the interpreter's exit flush."""
    env = {**os.environ, "PYTHONPATH": str(Path(workfunc.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "workfunc.cli", *argv], env=env, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["table", "1"],
        ["catalog"],
        ["validate", "--quick"],
        ["game", "{scenario}", "--transcript", ""],
        ["game", "{scenario}", "--transcript", "{transcript}"],  # the summary fails
    ],
    ids=["table", "catalog", "validate", "game-transcript", "game-summary"],
)
def test_a_full_stdout_exits_two(tmp_path, argv):
    paths = {"scenario": write(tmp_path, "won.scenario", GAME_WON), "transcript": str(tmp_path / "t")}
    with open("/dev/full", "w") as full, _run_cli([arg.format(**paths) for arg in argv], stdout=full,
                                                  stderr=subprocess.PIPE, text=True) as proc:
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == f"cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_a_closed_stdout_pipe_exits_two(tmp_path):
    # the transcript, about 180 kB, overfills the pipe, so the game is still
    # writing when the pipe closes
    scenario = write(tmp_path, "null.scenario", game_scenario(1, 0.5, 500, 1e15))
    with _run_cli(["game", scenario, "--transcript", ""], stdout=subprocess.PIPE,
                  stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.read(10) == "0 Attacker"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert err == f"cannot write stdout: {os.strerror(errno.EPIPE)}\n"


def test_only_main_reports_and_only_output_writes():
    """`print` and `sys.stderr` appear only in `main`, and `sys.stdout` only in
    `_output`: a command ends a failure by raising it and writes through `_output`."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    allowed = {"print": "main", "stderr": "main", "stdout": "_output"}
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "print":
                found.add(("print", owner))
            elif (isinstance(node, ast.Attribute) and node.attr in ("stderr", "stdout")
                  and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                found.add((node.attr, owner))
    assert found == set(allowed.items())


def test_game_protocol_fault_ends_the_streamed_transcript(tmp_path, capsys, monkeypatch):
    def faulty(keystream, trials, entries, **kwargs):
        entries.extend([Move(MoveClass.CHALLENGE, b"0")])
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
    assert "PASS Exhaustive search wall times (printed figures attached)" in lines


# SHA-256 of `validate` stdout: every count, cost and draw the experiments
# print, so a change to how a sweep or search runs must leave these alone
VALIDATE_STDOUT = {
    ("--quick", "--seed", "0"): "d18559c51b9b98a4c3144116a185f365823c9412e20bae29953ca0595d1d1589",
    ("--quick", "--seed", "3"): "5bd04b6233daefdd2a2731ca98bf101043c98f05609a02d330f3fba3679256e4",
    ("--quick", "--seed", "11"): "b5a65380a12ba53720696ca7c1fb8ce93f9918db3f5014652e1c41f15ba6be62",
    ("--quick", "--seed", "31"): "629bf02230bae52339288b02ed3852a9bdc3e75f1745145cf39319828f64ce0d",
    ("--seed", "11"): "ed5c1503dcf77fe858edf302cb32a578db39621fad2c47ede8408a6f71e382a3",
}


@pytest.mark.parametrize("args", list(VALIDATE_STDOUT), ids=" ".join)
def test_validate_output_is_byte_identical(capsys, args):
    assert main(["validate", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VALIDATE_STDOUT[args]


def test_validate_imports_neither_statistics_nor_fractions_nor_decimal():
    # `import statistics` alone (which loads fractions and decimal) takes
    # milliseconds of a start-up that `validate` pays on every run
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import workfunc.cli, workfunc.experiments\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(workfunc.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "workfunc.experiments" in added
    assert added.isdisjoint({"statistics", "fractions", "decimal"}), added


def test_validate_fails_on_a_break_time_far_from_its_printed_figure(capsys, monkeypatch):
    # the 56-bit single-gpu time is 132.5 s; print it ten times too long
    monkeypatch.setitem(refdata.BREAK_SUITE_PRINTED, ("one gpu", 56), 1325.0)
    assert main(["validate", "--quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL Exhaustive search wall times (printed figures attached)" in lines
    assert "     one gpu: deviation 0.9 exceeds 0.1" in lines


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


def test_catalog_with_an_empty_file_path_is_not_the_built_in_one(capsys):
    assert main(["catalog", "--file", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "cannot read catalog: [Errno 2] No such file or directory: ''\n"
    assert captured.out == ""


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


def test_catalog_row_whose_rate_underflows_is_refused(tmp_path, capsys):
    # 1 transistor of 1e-320 bits at 1e-320 Hz: each factor is a positive
    # float, and their product rounds to zero
    path = write(tmp_path, "cat.csv", f"{CATALOG_HEADER}\nx,1,1e-320,1,1e-320\n")
    assert main(["catalog", "--file", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "bad catalog: line 2: rate_bytes_per_s underflows to zero\n"
    assert captured.out == ""
    # a rate that is small but not zero is listed
    path = write(tmp_path, "cat.csv", f"{CATALOG_HEADER}\nx,1,1e-300,1,8\n")
    assert main(["catalog", "--file", path, "--csv"]) == 0
    assert "\nx,1,1e-300,1,1e-300,catalog,\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, data, offset",
    [
        ("estimate {path}", b"[brute_force]\nkey_bits = 8\n# caf\xe9\n", 32),
        ("game {path} --transcript {dir}/t", b"[game_otp]\nseed = 1\xff\n", 19),
        ("catalog --file {path}", CATALOG_HEADER.encode() + b"\ngpu\xc3,1e9,1e9,1,8\n", 70),
    ],
    ids=["estimate", "game", "catalog"],
)
def test_input_that_is_not_utf8_is_refused_naming_the_byte(tmp_path, capsys, command, data, offset):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert main(command.format(path=path, dir=tmp_path).split()) == 1
    captured = capsys.readouterr()
    role = "catalog" if command.startswith("catalog") else "scenario"
    assert captured.err == f"bad {role}: not UTF-8 text: byte {data[offset]:#04x} at offset {offset}\n"
    assert data[offset] >= 0x80
    assert captured.out == ""
    assert not (tmp_path / "t").exists()  # a game is refused before its transcript opens


@pytest.mark.parametrize("kind, size_key", [("brute_force", "key_bits"), ("tf1", "word_bits")])
@pytest.mark.parametrize("digits", [400, 5000])  # past a float, and past int()'s digit limit
def test_fleet_counts_not_below_2_53_are_refused(tmp_path, capsys, kind, size_key, digits):
    text = f"[{kind}]\n{size_key} = 8\nfleet = {'9' * digits} x intel-core-duo\n"
    assert main(["estimate", write(tmp_path, "fleet.scenario", text)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "bad scenario: fleet count for 'intel-core-duo' must be below 2**53\n"
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["-1", "-9", "-100", "ten"])
def test_validate_refuses_a_seed_that_is_not_a_non_negative_integer(capsys, seed):
    with pytest.raises(SystemExit) as info:
        main(["validate", "--quick", "--seed", seed])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be a non-negative integer, got {seed!r}" in err


def test_validate_seed_help_names_the_lines_it_seeds(capsys):
    with pytest.raises(SystemExit) as info:
        main(["validate", "--help"])
    assert info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--seed SEED seeds the key-search and state-search lines (default 11)" in help_text
    assert "keystream and meter-ledger lines use fixed seeds 20 and 5" in help_text


def _quick_validation_in_a_fresh_interpreter(openblas_threads):
    """Run `validate --quick` through `cli.main` in a fresh interpreter whose
    OPENBLAS_NUM_THREADS is `openblas_threads` (None: unset); return what it
    saw of that variable and the count of its threads, after the run."""
    script = (
        "import os\n"
        "from workfunc import cli\n"
        "assert cli.main(['validate', '--quick']) == 0\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        "print(repr((os.environ.get('OPENBLAS_NUM_THREADS'), tasks)))\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    env["PYTHONPATH"] = str(Path(workfunc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_numpy_loads_without_openblas_worker_threads():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    assert _quick_validation_in_a_fresh_interpreter(None) == ("1", 1)


def test_a_preset_openblas_thread_count_is_kept():
    assert _quick_validation_in_a_fresh_interpreter("2")[0] == "2"


BLAS_ATTRIBUTES = {"dot", "matmul", "linalg", "einsum", "tensordot", "inner", "outer", "vdot"}


def test_src_calls_no_blas():
    """The CLI loads numpy with one OpenBLAS thread because nothing in `src/`
    calls BLAS; a BLAS call added later must revisit that default."""
    found = []
    for path in sorted(Path(workfunc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
                found.append((path.name, node.lineno, node.attr))
    assert found == []


def test_console_script_entry_point():
    proc = subprocess.run(["workfunc", "table", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "resource rates" in proc.stdout
