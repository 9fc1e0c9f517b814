import math
import random

import numpy as np
import pytest

from workfunc.experiments import (
    TRIAL_PLAINTEXTS,
    ExperimentResult,
    _confirm_window,
    _first_rank,
    _packed_pairs,
    _vector_first_outputs,
    brute_force_keys_tested,
    brute_force_mean_experiment,
    cipher_table,
    keystream_bias_experiment,
    meter_ledger_experiment,
    run_validation,
    scan_mean_words,
    state_search_candidates_tested,
    state_search_slope_experiment,
)
from workfunc.toycrypto import (
    StandInPrng,
    ToyCipher,
    brute_force_search,
    reduction_hint,
    reduction_unknown_bits,
    state_search,
)


def test_cipher_table_matches_scalar_cipher():
    for key_bits in (1, 8, 12):
        tc = ToyCipher(key_bits)
        keys = range(1 << key_bits)
        schedule = tc.schedule(np.arange(1 << key_bits, dtype=np.uint64))
        assert [tuple(int(s[key]) for s in schedule) for key in keys] == [
            tc.subkeys(key) for key in keys
        ]
        for block in (*TRIAL_PLAINTEXTS, 0xFFFFFFFF):
            table = cipher_table(key_bits, block)
            assert table.tolist() == [tc.encrypt(key, block) for key in keys]


def test_vector_first_outputs_match_scalar_generator():
    rng = random.Random(2)
    for w in (*range(1, 9), 12, 16):
        unknown = reduction_unknown_bits(w)
        # every candidate up to w = 8, a sample of 1000 above
        lows = range(1 << unknown) if w <= 8 else rng.sample(range(1 << unknown), 1000)
        for high in (0, 1, (1 << (4 * w - unknown)) - 1):
            vector = _vector_first_outputs(w, high)
            for low in lows:
                packed = (high << unknown) | low
                assert int(vector[low]) == StandInPrng.from_packed(w, packed).next_word()


def test_first_rank_has_the_exact_first_target_distribution():
    # the first of m targets in a uniform scan order of `size` candidates
    # lies beyond rank t with probability C(size - t, m) / C(size, m); with
    # 10000 draws each empirical tail has a standard error of at most
    # 0.005, and the bound 0.02 is four of them
    draws, tolerance = 10_000, 0.02
    rng = np.random.default_rng(3)
    for size in (7, 16):
        for m in (1, 2, 5):
            counts = np.array([_first_rank(rng, size, m) for _ in range(draws)])
            assert counts.min() >= 1 and counts.max() <= size - m + 1
            for t in range(size + 1):
                exact = math.comb(size - t, m) / math.comb(size, m)
                assert abs(np.mean(counts > t) - exact) <= tolerance, (size, m, t)


def test_lockstep_window_keeps_the_scalar_window_survivors():
    rng = random.Random(5)
    for w in (6, 8):
        unknown = reduction_unknown_bits(w)
        lows = np.arange(1 << unknown)
        for high in (0, rng.randrange(1 << (4 * w - unknown)), (1 << (4 * w - unknown)) - 1):
            truth = (high << unknown) | rng.randrange(1 << unknown)
            # a short window keeps many candidates, a long one only the truth
            for window in (1, 2, 8):
                observed = StandInPrng.from_packed(w, truth).next_words(window)
                scalar = [
                    low
                    for low in lows.tolist()
                    if StandInPrng.from_packed(w, (high << unknown) | low).next_words(window)
                    == observed
                ]
                assert _confirm_window(w, high, lows, observed).tolist() == scalar


def test_experiment_result_pass_boundary():
    assert ExperimentResult("x", 10.5, 10.0, 0.5).passed
    assert not ExperimentResult("x", 10.51, 10.0, 0.5).passed


def test_vector_key_count_matches_scalar_search():
    # replay trial 0 of the vectorized experiment through the scalar path:
    # re-draw its secret and its consistent keys' ranks, and scan a full
    # order that puts those keys at those ranks
    key_bits, seed = 10, 42
    counts = brute_force_keys_tested(key_bits, 1, seed)
    size = 1 << key_bits
    rng = np.random.default_rng(seed)
    secret = int(rng.integers(size))
    table = _packed_pairs(key_bits)
    consistent = np.flatnonzero(table == table[secret]).tolist()
    ranks = rng.choice(size, size=len(consistent), replace=False).tolist()
    order = [key for key in range(size) if key not in consistent]
    for rank, key in sorted(zip(ranks, consistent)):
        order.insert(rank, key)
    assert sorted(order) == list(range(size))
    assert [order[rank] for rank in ranks] == consistent
    tc = ToyCipher(key_bits)
    pairs = [(p, tc.encrypt(secret, p)) for p in TRIAL_PLAINTEXTS]
    scalar = brute_force_search(tc, pairs, per_key_cost=1.0, order=order)
    assert counts == [scalar.keys_tested]
    # the scalar cipher finds the same consistent keys as the packed table
    assert [
        key for key in range(size) if all(tc.encrypt(key, p) == c for p, c in pairs)
    ] == consistent


def test_brute_force_mean_experiment_passes():
    result = brute_force_mean_experiment(12, 1000, seed=23)
    assert result.passed
    assert result.expected == 2048.0
    assert "k=12" in result.name


def test_vector_and_scalar_state_search_agree_on_average():
    vector_counts = state_search_candidates_tested(8, 300, seed=6)
    rng = random.Random(6)
    scalar_counts = []
    for i in range(60):
        truth = StandInPrng.from_seed(8, f"scalar:{i}")
        observed = truth.clone().next_words(16)
        hint = reduction_hint(truth.packed_state(), 8)
        found = state_search(8, observed, hint, rng_seed=rng.random())
        assert found.state_packed == truth.packed_state()
        scalar_counts.append(found.candidates_tested)
    expected = 2.0**11  # half of the 2**12 reduced space
    assert np.mean(vector_counts) == pytest.approx(expected, rel=0.15)
    assert np.mean(scalar_counts) == pytest.approx(expected, rel=0.30)


def test_state_search_slope_experiment():
    result, means = state_search_slope_experiment(trials_list=(100, 60, 40), seed=11)
    assert result.passed
    assert set(means) == {8, 10, 12}
    assert means[8] == pytest.approx(16 * 2.0**11, rel=0.25)
    assert means[12] == pytest.approx(16 * 2.0**17, rel=0.25)


def test_keystream_bias_experiment():
    result = keystream_bias_experiment()
    assert result.passed
    assert result.statistic == pytest.approx(0.6, abs=0.002)


def test_scan_mean_words_frozen_points():
    mean10, capped10 = scan_mean_words(10, 400, seed=3)
    assert capped10 == 0
    assert mean10 == pytest.approx(969.63, abs=0.05)
    assert mean10 == pytest.approx(2.0**10, rel=0.10)
    mean12, capped12 = scan_mean_words(12, 250, seed=3)
    assert capped12 == 0
    assert mean12 == pytest.approx(4093.33, abs=0.05)
    assert mean12 == pytest.approx(2.0**12, rel=0.10)


def test_meter_ledger_identities_exact():
    result = meter_ledger_experiment()
    assert result.statistic == 0.0
    assert result.tolerance == 0.0
    assert result.passed


def test_quick_validation_is_all_green():
    results = run_validation(quick=True, seed=11)
    assert len(results) == 5
    for result in results:
        assert result.passed, f"{result.name}: {result.statistic} vs {result.expected}"
