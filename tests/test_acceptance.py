"""Acceptance gate: the package's reproduction and property contract.

One test per criterion, each enforcing its tolerance and runtime bound,
so the verbose pytest report carries exactly one pass/fail line per
criterion.  Statistical criteria run on frozen seeds; the sampled values
they produce are deterministic.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from workfunc import refdata
from workfunc.devices import Fleet, default_catalog, find_device, resource_rate
from workfunc.estimators import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_YEAR,
    BruteForceModel,
    DictionaryModel,
    Tf1Model,
    break_time,
    brute_force_cost,
    dictionary_stats,
    progress_years,
    tf1_estimate,
)
from workfunc.game import GameResult, export_transcript
from workfunc.otp import run_otp_challenge
from workfunc.reports import relative_deviation, table3_estimate
from workfunc.toycrypto import KeystreamGen, ToyCipher
from workfunc.experiments import run_validation

KAT_PATH = Path(__file__).parent / "data" / "toy_cipher_kat.txt"


@contextmanager
def runtime_bound(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f} s exceeds the {seconds:.0f} s bound"


def one_gpu():
    return Fleet(find_device("ati-radeon-5870", default_catalog()), 1)


def gpu_fleet(units):
    return Fleet(find_device("ati-radeon-5870", default_catalog()), units)


def two_significant(value):
    return float(f"{value:.1e}")


def test_criterion_1_device_rates_within_half_percent():
    with runtime_bound(1.0):
        for device in default_catalog():
            computed = resource_rate(device)
            printed = refdata.TABLE1_PRINTED[device.name]
            dev = relative_deviation(computed, printed)
            assert dev <= 0.005, f"{device.name}: {dev:.4%}"


def test_criterion_2_break_time_suite():
    with runtime_bound(1.0):
        s56 = break_time(brute_force_cost(BruteForceModel(56)), one_gpu()).expected_seconds
        assert abs(s56 - 133.0) / 133.0 <= 0.01

        h64 = break_time(brute_force_cost(BruteForceModel(64)), one_gpu()).expected_seconds / SECONDS_PER_HOUR
        assert abs(h64 - 11.0) / 11.0 <= 0.05

        d84 = (
            break_time(brute_force_cost(BruteForceModel(84)), gpu_fleet(65536)).expected_seconds
            / SECONDS_PER_DAY
        )
        assert abs(d84 - 10.1) / 10.1 <= 0.10

        y96 = (
            break_time(brute_force_cost(BruteForceModel(96)), gpu_fleet(65536)).expected_seconds
            / SECONDS_PER_YEAR
        )
        assert abs(y96 - 120.8) / 120.8 <= 0.02

        tianhe = (
            break_time(brute_force_cost(BruteForceModel(84)), refdata.TIANHE_PRINTED_RATE).expected_seconds
            / SECONDS_PER_DAY
        )
        assert abs(tianhe - 87.0) / 87.0 <= 0.02

        assert abs(progress_years(60.0) - 6.8) <= 0.5


def test_criterion_3_encryption_prices_within_1_5_percent():
    from workfunc.reports import build_cost_per_bit_report

    with runtime_bound(1.0):
        report = build_cost_per_bit_report()
        assert len(report.rows) == 9
        dev_idx = report.columns.index("deviation")
        for row in report.rows:
            assert row[dev_idx] <= 0.015, f"{row[0]}: {row[dev_idx]:.4%}"


def test_criterion_4_dictionary_suite():
    with runtime_bound(1.0):
        stats = dictionary_stats(DictionaryModel(56, 6))
        printed = refdata.DICTIONARY_PRINTED
        assert relative_deviation(stats.dictionary_bytes, printed["dictionary_bytes"]) <= 0.02
        assert stats.expected_comparisons == printed["expected_comparisons"]
        assert relative_deviation(stats.lookup_cost, printed["lookup_cost"]) <= 0.02
        assert relative_deviation(stats.per_key_cost, printed["per_key_cost"]) <= 0.05


def test_criterion_5_state_search_table_and_scan_waits():
    with runtime_bound(1.0):
        for row in refdata.TABLE3_ROWS:
            estimate = table3_estimate(row)
            assert two_significant(estimate.expected_scan_words) == row.printed_values
            assert (
                relative_deviation(estimate.expected_seconds, row.expected_seconds) <= 0.01
            ), f"w={row.word_bits}"
        for word_bits, wait_seconds, label in refdata.SCAN_WAITS:
            scan = tf1_estimate(Tf1Model(word_bits), one_gpu()).scan_seconds
            dev = relative_deviation(scan, wait_seconds)
            assert dev <= refdata.SCAN_WAIT_TOLERANCE, f"{label}: {dev:.4%}"


def test_criterion_6_empirical_cost_model_validation():
    with runtime_bound(240.0):
        results = {r.name: r for r in run_validation(quick=False, seed=11)}
        means = [r for name, r in results.items() if name.startswith("brute-force mean")]
        assert len(means) == 3
        for result in means:
            assert result.tolerance == 0.05 * result.expected
            assert result.passed, f"{result.name}: {result.statistic} vs {result.expected}"
        slope = results["state-search cost exponent over w=(8, 10, 12)"]
        assert slope.expected == 1.5 and slope.tolerance == 0.1
        assert slope.passed, f"slope {slope.statistic}"
        ledger = results["meter ledger identities"]
        assert ledger.tolerance == 0.0
        assert ledger.statistic == 0.0


def test_criterion_7_game_engine_properties():
    with runtime_bound(60.0):
        # determinism: same seed, bit-identical transcripts
        def transcript_hash(seed):
            outcome = run_otp_challenge(KeystreamGen(0.6, seed="det"), 50, rng_seed=seed)
            return hashlib.sha256(export_transcript(outcome).encode()).hexdigest()

        assert transcript_hash(3) == transcript_hash(3)

        # budget ledger exactness on a full game
        outcome = run_otp_challenge(KeystreamGen(0.6, seed="ledger"), 100, rng_seed=5)
        assert outcome.transcript.charges_total == outcome.total_cost
        assert outcome.budget_remaining == 1e15 - outcome.total_cost

        # power and size at alpha = 0.01, 20 frozen seeds per bias
        biased_wins = sum(
            run_otp_challenge(KeystreamGen(0.6, seed=f"accept:{i}"), 1000, rng_seed=i).result
            is GameResult.WON
            for i in range(20)
        )
        assert biased_wins == 20, f"bias 0.6 won only {biased_wins}/20"
        false_positives = sum(
            run_otp_challenge(KeystreamGen(0.5, seed=f"accept:{i}"), 1000, rng_seed=i).result
            is GameResult.WON
            for i in range(20)
        )
        assert false_positives <= 1, f"bias 0.5 won {false_positives}/20"


def test_criterion_8_toy_cipher_bijectivity_and_vectors():
    with runtime_bound(60.0):
        rng = random.Random(2718)
        cipher = ToyCipher(28, block_bits=16)
        blocks = np.arange(1 << 16, dtype=np.uint32)
        for _ in range(100):
            subkeys = cipher.subkeys(rng.randrange(1 << 28))
            images = cipher.encrypt_with_subkeys(subkeys, blocks)
            assert len(np.unique(images)) == 1 << 16
            assert int(images.max()) < 1 << 16

        # one `k key_hex block_hex cipher_hex` vector per line
        lines = KAT_PATH.read_text().splitlines()
        vectors = [line.split() for line in lines if line and not line.startswith("#")]
        assert len(vectors) == 17
        for key_bits, key, block, expected in vectors:
            assert ToyCipher(int(key_bits)).encrypt(int(key, 16), int(block, 16)) == int(expected, 16)
