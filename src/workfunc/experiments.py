"""Desk-scale validation experiments.

Each experiment replays a cost-model claim against the toy systems and
returns a pass/fail record.  The sweeps are vectorized with numpy: they
run the toy cipher's own key schedule and rounds, and the generator's own
step, on arrays of keys or candidate states, so there is one
implementation of each primitive.

A scalar search scans its candidates in a uniformly random order and
stops at the first target.  The targets' positions in such an order are
a uniformly random subset of the ranks, so a trial draws that subset
(`_first_rank`) instead of shuffling the whole candidate space: the
count has exactly the scalar search's distribution, at a cost per trial
that does not grow with the space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean
from typing import Sequence

import numpy as np

from .toycrypto import (
    CHECKER_OPS,
    KeystreamGen,
    ScanLimitError,
    StandInPrng,
    ToyCipher,
    arx_step,
    brute_force_search,
    pack_state,
    reduction_unknown_bits,
    scan_for_zero,
    state_search,
    unpack_state,
)

# fixed known plaintexts for key-search trials; two blocks pin the key
TRIAL_PLAINTEXTS = (0x00000000, 0x00000001)


def cipher_table(key_bits: int, block: int) -> np.ndarray:
    """Ciphertext of `block` under every key, as one vectorized sweep."""
    cipher = ToyCipher(key_bits)
    keys = np.arange(1 << key_bits, dtype=np.uint64)
    return cipher.encrypt_with_subkeys(cipher.schedule(keys), block)


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    statistic: float
    expected: float
    tolerance: float  # absolute bound on |statistic - expected|
    detail: str = ""

    @property
    def passed(self) -> bool:
        return abs(self.statistic - self.expected) <= self.tolerance


def _first_rank(rng: np.random.Generator, size: int, m: int) -> int:
    """Candidates a search tests when it scans [0, size) in a uniformly
    random order and stops at the first of m targets.

    In a uniformly random scan order the targets' positions are a
    uniformly random m-subset of [0, size), so the count is that subset's
    smallest member plus one.  numpy draws a small subset of a large range
    without touching the rest of it.
    """
    return int(rng.choice(size, size=m, replace=False).min()) + 1


def _packed_pairs(key_bits: int) -> np.ndarray:
    """Each key's ciphertexts of the two trial plaintexts, packed into one
    uint64 as `t1 << 32 | t2`: keys with equal entries are the keys that
    no known pair tells apart."""
    t1 = cipher_table(key_bits, TRIAL_PLAINTEXTS[0])
    t2 = cipher_table(key_bits, TRIAL_PLAINTEXTS[1])
    return t1 << np.uint64(32) | t2


def brute_force_keys_tested(key_bits: int, trials: int, seed: int) -> list[int]:
    """keys_tested per trial for random secrets under random scan orders.

    The packed ciphertext pairs of the whole keyspace are sorted once, so
    a trial counts the m keys consistent with its secret's pairs by
    binary search, then draws where the first of them falls in a uniform
    scan order (`_first_rank`): the scalar search's count, in
    distribution.
    """
    pairs = _packed_pairs(key_bits)
    table = np.sort(pairs)
    rng = np.random.default_rng(seed)
    size = 1 << key_bits
    counts = []
    for _ in range(trials):
        secret = int(rng.integers(size))
        target = pairs[secret]
        m = int(np.searchsorted(table, target, "right") - np.searchsorted(table, target, "left"))
        counts.append(_first_rank(rng, size, m))
    return counts


def brute_force_mean_experiment(key_bits: int, trials: int, seed: int) -> ExperimentResult:
    counts = brute_force_keys_tested(key_bits, trials, seed)
    expected = 2.0 ** (key_bits - 1)
    return ExperimentResult(
        name=f"brute-force mean keys tested, k={key_bits}",
        statistic=fmean(counts),
        expected=expected,
        tolerance=0.05 * expected,
        detail=f"{trials} random secrets, drawn scan ranks",
    )


def _candidate_states(word_bits: int, high_bits: int, lows: np.ndarray) -> tuple:
    """The generator states with the hinted high bits and the given low bits.

    The ceil(1.5w) unknown low bits cover d and the low part of c but
    never reach a or b, since w <= ceil(1.5w) <= 2w; uint32 holds every
    word sum because w <= MAX_WORD_BITS = 16.
    """
    w = word_bits
    a, b, c_high, _ = unpack_state(high_bits << reduction_unknown_bits(w), w)
    return (a, b, c_high | (lows >> w), lows & ((1 << w) - 1))


def _vector_first_outputs(word_bits: int, high_bits: int) -> np.ndarray:
    """First output word of every candidate state sharing the hinted bits."""
    lows = np.arange(1 << reduction_unknown_bits(word_bits), dtype=np.uint32)
    return arx_step(_candidate_states(word_bits, high_bits, lows), word_bits)[1]


def _confirm_window(
    word_bits: int, high_bits: int, lows: np.ndarray, observed: Sequence[int]
) -> np.ndarray:
    """The `lows` whose candidate states emit the whole observed window.

    All candidates step in lockstep, one `arx_step` on uint32 arrays per
    observed word.
    """
    lows = np.asarray(lows, dtype=np.uint32)
    state = _candidate_states(word_bits, high_bits, lows)
    keep = np.ones(len(lows), dtype=bool)
    for word in observed:
        state, output = arx_step(state, word_bits)
        keep &= output == word
    return lows[keep]


def state_search_candidates_tested(
    word_bits: int, trials: int, seed: int, window: int = 16
) -> list[int]:
    """candidates_tested per trial of the reduced state search.

    Every candidate's first output is evaluated vectorized, and the few
    that match the first observed word are stepped in lockstep through
    the rest of the window (`_confirm_window`), which must pin the state
    uniquely.  The count is then where the one true candidate falls in a
    uniform scan order (`_first_rank`): the scalar search's count, in
    distribution.
    """
    rng = np.random.default_rng(seed)
    unknown = reduction_unknown_bits(word_bits)
    size = 1 << unknown
    counts = []
    for _ in range(trials):
        truth = tuple(int(rng.integers(1 << word_bits)) for _ in range(4))
        packed = pack_state(truth, word_bits)
        high = packed >> unknown
        observed = StandInPrng.from_packed(word_bits, packed).next_words(window)
        survivors = np.flatnonzero(
            _vector_first_outputs(word_bits, high) == observed[0]
        )
        full = _confirm_window(word_bits, high, survivors, observed).tolist()
        if full != [packed & (size - 1)]:
            raise AssertionError(f"window does not pin the state uniquely: {full}")
        counts.append(_first_rank(rng, size, 1))
    return counts


def state_search_slope_experiment(
    word_bits_list: Sequence[int] = (8, 10, 12),
    trials_list: Sequence[int] = (300, 200, 120),
    seed: int = 0,
) -> tuple[ExperimentResult, dict[int, float]]:
    """Fit the cost-vs-word-size exponent; the reduction predicts 1.5."""
    means = {}
    for w, trials in zip(word_bits_list, trials_list):
        counts = state_search_candidates_tested(w, trials, seed + w)
        means[w] = CHECKER_OPS * fmean(counts)
    xs = list(word_bits_list)
    ys = [math.log2(means[w]) for w in xs]
    xbar = fmean(xs)
    ybar = fmean(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    result = ExperimentResult(
        name=f"state-search cost exponent over w={tuple(xs)}",
        statistic=slope,
        expected=1.5,
        tolerance=0.1,
        detail="log2(mean cost) per state word bit",
    )
    return result, means


def keystream_bias_experiment(
    bias: float = 0.6, nbits: int = 1_000_000, seed: int = 20
) -> ExperimentResult:
    ones = KeystreamGen(bias, seed).next_bits(nbits).bit_count()
    return ExperimentResult(
        name=f"keystream ones fraction at bias {bias}",
        statistic=ones / nbits,
        expected=bias,
        tolerance=0.002,
        detail=f"{nbits} bits",
    )


def scan_mean_words(
    word_bits: int, starts: int, seed: int
) -> tuple[float, int]:
    """Mean words to the first zero output over random starts.

    Starts that hit the scan cap (orbits trapped in zero-free cycles) are
    excluded and counted separately; they are rare.
    """
    found = []
    capped = 0
    for i in range(starts):
        prng = StandInPrng.from_seed(word_bits, f"{seed}:{i}")
        try:
            found.append(scan_for_zero(prng))
        except ScanLimitError:
            capped += 1
    return fmean(found), capped


def meter_ledger_experiment(seed: int = 5) -> ExperimentResult:
    """Charge-sum identities on real searches; zero tolerance."""
    cipher = ToyCipher(key_bits=12)
    per_key = 120.0 * 12
    secret = 0x5A5
    pairs = [(p, cipher.encrypt(secret, p)) for p in TRIAL_PLAINTEXTS]
    found = brute_force_search(cipher, pairs, per_key, rng_seed=seed)
    key_gap = found.meter.accumulated_cost - found.keys_tested * per_key
    step_gap = found.meter.step_count - found.keys_tested

    prng = StandInPrng.from_seed(8, seed)
    packed = prng.packed_state()
    observed = prng.next_words(16)
    res = state_search(8, observed, packed >> reduction_unknown_bits(8), rng_seed=seed)
    search_gap = res.meter.accumulated_cost - CHECKER_OPS * res.candidates_tested

    return ExperimentResult(
        name="meter ledger identities",
        statistic=abs(key_gap) + abs(step_gap) + abs(search_gap),
        expected=0.0,
        tolerance=0.0,
        detail="accumulated cost equals steps times per-step cost, exactly",
    )


def run_validation(quick: bool = False, seed: int = 11) -> list[ExperimentResult]:
    results = []
    # quick mode drops the large keyspace, not the trial count: the
    # means need ~1000 trials to sit inside their 5% band
    ks = (12, 16) if quick else (12, 16, 20)
    for k in ks:
        results.append(brute_force_mean_experiment(k, 1000, seed + k))
    slope_trials = (100, 60, 40) if quick else (300, 200, 120)
    slope_result, _ = state_search_slope_experiment(trials_list=slope_trials, seed=seed)
    results.append(slope_result)
    results.append(
        keystream_bias_experiment(nbits=200_000 if quick else 1_000_000)
    )
    results.append(meter_ledger_experiment())
    return results
