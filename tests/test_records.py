"""The record classes and the estimators: the records and the estimators
refuse bad numbers with their own messages, the results are immutable, and
importing the CLI builds them without `dataclasses` (whose import also
loads `inspect`)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import workfunc
from workfunc.devices import DeviceSpec, Fleet, ThroughputRecord
from workfunc.estimators import brute_force_cost, dictionary_stats, tf1_estimate
from workfunc.experiments import ExperimentResult
from workfunc.game import GameConfig, GameOutcome, GameResult, GameTranscript, Move, MoveClass
from workfunc.otp import run_otp_challenge
from workfunc.reports import Report
from workfunc.toycrypto import KeystreamGen

def refuses(build, message, name):
    return pytest.param(build, ValueError, message, id=name)


def frozen(record, field, name):
    assign = lambda: setattr(record, field, getattr(record, field))  # noqa: E731
    return pytest.param(assign, AttributeError, None, id=name)


RECORD_CHECKS = [
    refuses(lambda: DeviceSpec("d", 0, 1e9), "d: transistor_count must be positive", "device-transistors"),
    refuses(lambda: DeviceSpec("d", 1, 0.0), "d: clock_hz must be positive", "device-clock"),
    refuses(lambda: DeviceSpec("d", 1, 1e9, component_count=0), "d: component_count must be positive",
            "device-components"),
    refuses(lambda: DeviceSpec("d", 1, 1e9, bits_per_transistor=0),
            "d: bits_per_transistor must be positive", "device-bits"),
    refuses(lambda: Fleet(DeviceSpec("gpu", 100, 1e9), 0), "unit_count must be at least 1", "fleet-units"),
    refuses(lambda: ThroughputRecord("gpu", "aes", "encrypt", 0), "throughput must be positive",
            "throughput-zero"),
    refuses(lambda: ThroughputRecord("gpu", "aes", "encrypt", 1e9, core_fraction=0),
            "core_fraction must be in (0, 1]", "throughput-core-zero"),
    refuses(lambda: ThroughputRecord("gpu", "aes", "encrypt", 1e9, core_fraction=1.5),
            "core_fraction must be in (0, 1]", "throughput-core-above-one"),
    refuses(lambda: brute_force_cost(0), "key_bits must be at least 1", "brute-key-bits"),
    refuses(lambda: brute_force_cost(8, 0), "bytes_per_key_bit must be positive", "brute-bytes-per-bit"),
    refuses(lambda: dictionary_stats(0, 0), "key_bits must be at least 1", "dictionary-key-bits"),
    refuses(lambda: dictionary_stats(8, -1), "epsilon must be in [0, key_bits)", "dictionary-epsilon-negative"),
    refuses(lambda: dictionary_stats(8, 8), "epsilon must be in [0, key_bits)", "dictionary-epsilon-key-bits"),
    refuses(lambda: dictionary_stats(8, 1, plaintext_blocks=0), "plaintext_blocks must be at least 1",
            "dictionary-blocks"),
    refuses(lambda: dictionary_stats(8, 1, steps_per_comparison=0),
            "steps_per_comparison must be at least 1", "dictionary-steps"),
    refuses(lambda: tf1_estimate(0, 1e12), "word_bits must be at least 1", "tf1-word-bits"),
    refuses(lambda: tf1_estimate(8, 1e12, bytes_per_strength_bit=0), "bytes_per_strength_bit must be positive",
            "tf1-bytes-per-bit"),
    refuses(lambda: tf1_estimate(8, 1e12, scan_words_per_second=0), "scan rate must be positive",
            "tf1-scan-rate"),
    refuses(lambda: GameConfig(-1.0), "budget must be non-negative", "config-budget-negative"),
    refuses(lambda: GameConfig(math.nan), "budget must be non-negative", "config-budget-nan"),
    refuses(lambda: GameConfig(math.inf), "budget must be below 2**53", "config-budget-inf"),
    refuses(lambda: GameConfig(2.0**53), "budget must be below 2**53", "config-budget-2-53"),
    refuses(lambda: GameConfig(1.0, challenge_trials=-1), "challenge_trials must be non-negative",
            "config-trials"),
    refuses(lambda: GameConfig(1.0, win_threshold=0), "win_threshold must be in (0, 1)",
            "config-threshold-zero"),
    refuses(lambda: GameConfig(1.0, win_threshold=1), "win_threshold must be in (0, 1)",
            "config-threshold-one"),
    refuses(lambda: run_otp_challenge(KeystreamGen(0.5, seed=0), 1, per_step_information=-1.0),
            "information must be non-negative", "config-step-price-negative"),
    refuses(lambda: run_otp_challenge(KeystreamGen(0.5, seed=0), 1, per_step_information=math.nan),
            "information must be non-negative", "config-step-price-nan"),
    refuses(lambda: Report("t", ("a", "b"), (("x",),), ("tag", "here")), "row width must match columns",
            "report-row-width"),
    frozen(Move(MoveClass.CHALLENGE, b"0"), "payload", "move-frozen"),
    frozen(GameOutcome(GameResult.WON, GameTranscript(), 0.0, 0, 0, 0.0), "total_cost", "outcome-frozen"),
    frozen(ExperimentResult("line", 1.0, 1.0, 0.0), "statistic", "result-frozen"),
]


@pytest.mark.parametrize("build, error, message", RECORD_CHECKS)
def test_record_refuses(build, error, message):
    """Each check of a validated record or an estimator raises its ValueError and message;
    assigning a field of a result record raises AttributeError."""
    with pytest.raises(error) as caught:
        build()
    if message is not None:
        assert str(caught.value) == message


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import workfunc.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(workfunc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "workfunc.cli" in added
    # numpy is for `validate` alone: the game's import path, `toycrypto`
    # included, must not pay its import
    assert added.isdisjoint({"dataclasses", "inspect", "numpy"}), added
