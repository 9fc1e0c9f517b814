import math
import random
import statistics

import numpy as np
import pytest

from workfunc import experiments, toycrypto
from workfunc.cli import main
from workfunc.experiments import (
    TRIAL_PLAINTEXTS,
    ExperimentResult,
    _confirm_window,
    _first_rank,
    _first_word_survivors,
    _lockstep_outputs,
    _packed_pairs,
    brute_force_keys_tested,
    brute_force_mean_experiment,
    cipher_table,
    keystream_bias_experiment,
    meter_ledger_experiment,
    run_validation,
    scan_mean_words,
    state_search,
    state_search_candidates_tested,
    state_search_slope_experiment,
)
from workfunc.toycrypto import (
    MAX_WORD_BITS,
    KeystreamGen,
    ScanLimitError,
    StandInPrng,
    ToyCipher,
    reduction_hint,
    reduction_unknown_bits,
    scan_for_zero,
    unpack_state,
)


def _prng(word_bits, packed):
    return StandInPrng(word_bits, unpack_state(packed, word_bits))


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


def test_first_word_survivors_match_scalar_generator():
    rng = random.Random(2)
    for w in range(1, 9):
        # every candidate and every output word: the listed lows are
        # exactly the candidates whose scalar first output is the word
        unknown = reduction_unknown_bits(w)
        top = (1 << (4 * w - unknown)) - 1
        for high in (0, 1, top, rng.randrange(top + 1)):
            firsts = [
                _prng(w, (high << unknown) | low).next_word()
                for low in range(1 << unknown)
            ]
            words = range(1 << w)
            listed = _first_word_survivors(w, [high] * len(words), words)
            for word, row in zip(words, listed.tolist()):
                assert row == [low for low, first in enumerate(firsts) if first == word]
    for w in (12, 16):
        # sampled hints and words: each listed low emits the word, and a
        # sampled candidate is listed under the word it emits
        unknown = reduction_unknown_bits(w)
        top = (1 << (4 * w - unknown)) - 1
        for high in (0, 1, top, *(rng.randrange(top + 1) for _ in range(5))):
            lows = [rng.randrange(1 << unknown) for _ in range(40)]
            firsts = [
                _prng(w, (high << unknown) | low).next_word() for low in lows
            ]
            words = [*firsts, rng.randrange(1 << w)]
            listed = _first_word_survivors(w, [high] * len(words), words).tolist()
            for low, word, row in zip(lows, firsts, listed):
                assert low in row
            for word, row in zip(words, listed):
                assert len(row) == 1 << (unknown - w) and row == sorted(set(row))
                for low in row:
                    packed = (high << unknown) | low
                    assert _prng(w, packed).next_word() == word


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


@pytest.mark.parametrize("n", [2, 4096, 65536, 2**20, 2**33])
def test_numpy_draw_identities_the_key_search_relies_on(n):
    # a one-member subset is one integers(n) draw, and a block of integers
    # draws is the same run of scalar draws; both leave equal generator
    # states, so the block sampler replays the trial-by-trial draws
    for seed in range(3):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            assert _first_rank(fast, n, 1) == int(slow.choice(n, 1, replace=False).min()) + 1
            assert fast.bit_generator.state == slow.bit_generator.state
        for count in (1, 2, 7, 500):
            block = fast.integers(n, size=count).tolist()
            assert block == [int(slow.integers(n)) for _ in range(count)]
            assert fast.bit_generator.state == slow.bit_generator.state


def _per_trial_keys_tested(key_bits, trials, seed):
    """The key search one trial at a time: a secret, its m consistent
    keys, and the first of m distinct ranks drawn by `choice`."""
    pairs = experiments._packed_pairs(key_bits)
    table = np.sort(pairs)
    rng = np.random.default_rng(seed)
    size = 1 << key_bits
    counts = []
    for _ in range(trials):
        target = pairs[int(rng.integers(size))]
        m = int(np.searchsorted(table, target, "right") - np.searchsorted(table, target, "left"))
        counts.append(int(rng.choice(size, size=m, replace=False).min()) + 1)
    return counts


@pytest.mark.parametrize("grouping", ["every key tied", "a few keys tied"])
def test_block_key_search_replays_the_per_trial_loop_on_tied_tables(monkeypatch, grouping):
    # keys // 3 ties almost every key in threes; the other table ties only
    # keys below 64, in fours, so tied trials fall between untied runs
    def tied_pairs(key_bits):
        keys = np.arange(1 << key_bits, dtype=np.uint64)
        if grouping == "every key tied":
            return keys // 3
        return np.where(keys < 64, keys // 4, keys)

    monkeypatch.setattr(experiments, "_packed_pairs", tied_pairs)
    for seed in range(6):
        expected = _per_trial_keys_tested(10, 200, seed)
        assert brute_force_keys_tested(10, 200, seed) == expected


def test_block_key_search_replays_the_per_trial_loop_on_real_ties():
    # at k = 19, 24 keys share their pairs with a twin; seed 287 draws
    # one of them as trial 11's secret, and seed 72 as trial 44's
    pairs = _packed_pairs(19)
    _, inverse, multiplicity = np.unique(pairs, return_inverse=True, return_counts=True)
    for seed, trial in ((287, 11), (72, 44)):
        secret = np.random.default_rng(seed).integers(1 << 19, size=(trial + 1, 2))[trial, 0]
        assert multiplicity[inverse[secret]] == 2
        assert brute_force_keys_tested(19, 300, seed) == _per_trial_keys_tested(19, 300, seed)


def _scalar_window_survivors(w, high, lows, observed):
    unknown = reduction_unknown_bits(w)
    return [
        low
        for low in lows
        if _prng(w, (high << unknown) | low).next_words(len(observed))
        == observed
    ]


def test_lockstep_window_keeps_the_scalar_window_survivors():
    rng = random.Random(5)
    for w in (6, 8):
        unknown = reduction_unknown_bits(w)
        lows = np.arange(1 << unknown)
        top = (1 << (4 * w - unknown)) - 1
        highs = [0, rng.randrange(top + 1), top, rng.randrange(top + 1)]
        truths = [(high << unknown) | rng.randrange(1 << unknown) for high in highs]
        # a short window keeps many candidates, a long one only the truth
        for window in (1, 2, 8):
            windows = [_prng(w, truth).next_words(window) for truth in truths]
            scalar = [
                _scalar_window_survivors(w, high, lows.tolist(), observed)
                for high, observed in zip(highs, windows)
            ]
            for high, observed, expected in zip(highs, windows, scalar):
                assert lows[_confirm_window(w, high, lows, observed)].tolist() == expected
            # every trial in one call: one hint, row of lows and window each
            rows = np.tile(lows, (len(highs), 1))
            kept = _confirm_window(w, highs, rows, windows)
            assert [row[keep].tolist() for row, keep in zip(rows, kept)] == scalar


def test_lockstep_windows_equal_the_scalar_generator():
    rng = random.Random(9)
    for w in range(1, MAX_WORD_BITS + 1):
        top = (1 << w) - 1
        states = [(0, 0, 0, 0), (top, top, top, top)]
        states += [tuple(rng.randrange(top + 1) for _ in range(4)) for _ in range(30)]
        words = tuple(np.array(states, dtype=np.uint32).T)
        windows = [StandInPrng(w, state).next_words(20) for state in states]
        assert np.stack([*_lockstep_outputs(w, words, 20)], -1).tolist() == windows


def test_state_search_uniqueness_check_stays_live():
    # a one-word window leaves 2**(ceil(1.5w) - w) candidates per trial
    with pytest.raises(AssertionError, match="does not pin the state uniquely"):
        state_search_candidates_tested(8, 3, seed=0, window=1)
    # at w = 3 the default window cannot tell two states apart
    with pytest.raises(AssertionError, match=r"uniquely: \[0, 22\]$"):
        state_search_candidates_tested(3, 50, seed=1)


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
    scalar = next(
        tested for tested, key in enumerate(order, 1)
        if all(tc.encrypt(key, p) == c for p, c in pairs)
    )
    assert counts == [scalar]
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
        observed = StandInPrng(8, truth.state).next_words(16)
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


def test_scan_mean_words_matches_the_scalar_scan_with_capped_starts():
    # the lockstep scan against scan_for_zero start by start, at points
    # where some starts hit the cap
    for w, starts, seed in ((2, 30, 4), (8, 300, 2)):
        found, capped = [], 0
        for i in range(starts):
            try:
                found.append(scan_for_zero(StandInPrng.from_seed(w, f"{seed}:{i}")))
            except ScanLimitError:
                capped += 1
        assert capped > 0
        assert scan_mean_words(w, starts, seed) == (statistics.fmean(found), capped)


def test_meter_ledger_identities_exact():
    result = meter_ledger_experiment()
    assert result.statistic == 0.0
    assert result.tolerance == 0.0
    assert result.passed


def test_meter_ledger_search_counts_are_frozen_at_seed_5(monkeypatch):
    # the printed statistic is 0 for any scan order, so the counts pin it
    found = {}
    for name in ("brute_force_search", "state_search"):
        search = getattr(experiments, name)

        def recorded(*args, _name=name, _search=search, **kwargs):
            found[_name] = _search(*args, **kwargs)
            return found[_name]

        monkeypatch.setattr(experiments, name, recorded)
    assert meter_ledger_experiment().statistic == 0.0
    key = found["brute_force_search"]
    assert (key.key, key.keys_tested, key.cost) == (0x5A5, 878, 878 * 1440.0)
    state = found["state_search"]
    assert (state.candidates_tested, state.cost) == (1826, 1826 * 16.0)
    assert state.state_packed == StandInPrng.from_seed(8, 5).packed_state()


# the match ranks 878 (key) and 1826 (state) at seed 5 fall first, last and
# inside a chunk across these sizes, and in a later chunk than the first
@pytest.mark.parametrize("chunk", [1, 97, 877, 878, 1825, 1826, 4096])
def test_search_results_do_not_depend_on_the_scan_chunk(monkeypatch, chunk):
    cipher = ToyCipher(key_bits=12)
    pairs = [(p, cipher.encrypt(0x5A5, p)) for p in TRIAL_PLAINTEXTS]
    prng = StandInPrng.from_seed(8, 5)
    hint = reduction_hint(prng.packed_state(), 8)
    observed = prng.next_words(16)
    monkeypatch.setattr(experiments, "SCAN_CHUNK", chunk)
    key = experiments.brute_force_search(cipher, pairs, 1440.0, rng_seed=5)
    assert (key.key, key.keys_tested, key.cost) == (0x5A5, 878, 878 * 1440.0)
    state = state_search(8, observed, hint, rng_seed=5)
    assert (state.candidates_tested, state.cost) == (1826, 1826 * 16.0)
    assert state.state_packed == StandInPrng.from_seed(8, 5).packed_state()


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("brute_force_search", {"key": 0x5A4}),
        ("state_search", {"state_packed": 0}),
    ],
)
def test_meter_ledger_counts_a_wrong_answer(monkeypatch, capsys, name, wrong):
    # a search that recovers the wrong key or state, at an exact charge sum,
    # fails the ledger line: the identities alone would not see it
    search = getattr(experiments, name)
    monkeypatch.setattr(
        experiments, name, lambda *args, **kwargs: search(*args, **kwargs)._replace(**wrong)
    )
    result = meter_ledger_experiment()
    assert result.statistic == 1.0
    assert not result.passed
    assert main(["validate", "--quick"]) == 1
    assert "FAIL meter ledger identities: 1 (expected 0 within 0)" in capsys.readouterr().out


def test_validation_figures_are_frozen_at_seed_11():
    # every printed figure (.6g) at the default seed, in both modes: a
    # drift in any sampler shows here, not only in a far-off band
    frozen = {
        True: ["2053.84", "33126.6", "1.43166", "0.598455", "0"],
        False: ["2053.84", "33126.6", "525215", "1.43307", "0.600267", "0"],
    }
    for quick, printed in frozen.items():
        results = run_validation(quick=quick, seed=11)
        assert [f"{r.statistic:.6g}" for r in results] == printed


def test_quick_validation_is_all_green():
    results = run_validation(quick=True, seed=11)
    assert len(results) == 5
    for result in results:
        assert result.passed, f"{result.name}: {result.statistic} vs {result.expected}"


def _search_twice_the_space(monkeypatch):
    counts = experiments.brute_force_keys_tested
    monkeypatch.setattr(experiments, "brute_force_keys_tested", lambda k, n, seed: counts(k + 1, n, seed))


def _schedule_ignoring_key_bit_0(monkeypatch):
    schedule = ToyCipher.schedule
    monkeypatch.setattr(ToyCipher, "schedule", lambda self, key: schedule(self, key & 0xFFFFFFFE))


def _state_space_of_2w_bits(monkeypatch):
    for module in (toycrypto, experiments):
        monkeypatch.setattr(module, "reduction_unknown_bits", lambda word_bits: 2 * word_bits)


def _keystream_at_bias_half(monkeypatch):
    monkeypatch.setattr(experiments, "KeystreamGen", lambda bias, seed: KeystreamGen(0.5, seed))


def _slope(seed):
    return state_search_slope_experiment(trials_list=(100, 60, 40), seed=seed)[0]


@pytest.mark.parametrize(
    "misprice, line, statistic",
    [
        (_search_twice_the_space, lambda: brute_force_mean_experiment(12, 1000, 23), 4107),
        (_schedule_ignoring_key_bit_0, lambda: brute_force_mean_experiment(12, 1000, 23), 1345),
        (_schedule_ignoring_key_bit_0, lambda: brute_force_mean_experiment(16, 1000, 27), 21773),
        (_state_space_of_2w_bits, lambda: _slope(11), 1.93),
        (_keystream_at_bias_half, lambda: keystream_bias_experiment(nbits=200_000), 0.498),
    ],
    ids=["key-space-doubled", "twin-keys-k12", "twin-keys-k16", "state-space-2w", "keystream-unbiased"],
)
def test_each_misprice_fails_its_line(monkeypatch, misprice, line, statistic):
    """Power: each line passes on the model as built and fails at the same
    seed, band and trial count when the model is wrong in a named way."""
    assert line().passed
    misprice(monkeypatch)
    result = line()
    assert result.statistic == pytest.approx(statistic, rel=0.005)
    assert result.passed is False
