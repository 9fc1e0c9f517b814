"""Closed-form attack cost estimators.

All costs are byte-steps: one byte of machinery held for one step costs
one byte.  The exhaustive-search baseline prices one key test at
bytes_per_key_bit * key_bits (120 bytes per key bit for a DES-scale
check; one extra encryption layer triples it).  A wall time is a cost
over a rate in bytes/s, such as `devices.fleet_rate` of a fleet.
"""

from __future__ import annotations

import math
from typing import NamedTuple

DEFAULT_BYTES_PER_KEY_BIT = 120.0
TRIPLE_BYTES_PER_KEY_BIT = 360.0

# Hardware progress: 2.6 dB/year, i.e. about a factor 1.82 each year.
HARDWARE_PROGRESS_PER_YEAR = 1.82

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_MONTH = 30.5 * SECONDS_PER_DAY
SECONDS_PER_YEAR = 365.0 * SECONDS_PER_DAY


class BruteForceModel:
    __slots__ = ("key_bits", "bytes_per_key_bit")

    def __init__(self, key_bits: int, bytes_per_key_bit: float = DEFAULT_BYTES_PER_KEY_BIT):
        if key_bits < 1:
            raise ValueError("key_bits must be at least 1")
        if bytes_per_key_bit <= 0:
            raise ValueError("bytes_per_key_bit must be positive")
        self.key_bits = key_bits
        self.bytes_per_key_bit = bytes_per_key_bit


def brute_force_cost(model: BruteForceModel) -> float:
    """Average exhaustive-search cost: b * k * 2**(k-1) bytes.

    Half the keyspace is searched on average; the worst case doubles it.
    """
    return model.bytes_per_key_bit * model.key_bits * 2.0 ** (model.key_bits - 1)


class AttackEstimate(NamedTuple):
    total_cost: float
    fleet_rate: float
    expected_seconds: float
    worst_case_seconds: float


def break_time(cost: float, rate: float) -> AttackEstimate:
    """Time to spend `cost` bytes at `rate` bytes/s; worst case is twice the mean."""
    if cost <= 0:
        raise ValueError("cost must be positive")
    if rate <= 0:
        raise ValueError("aggregate rate must be positive")
    expected = cost / rate
    return AttackEstimate(
        total_cost=cost,
        fleet_rate=rate,
        expected_seconds=expected,
        worst_case_seconds=2.0 * expected,
    )


def progress_years(speedup: float, annual_factor: float = HARDWARE_PROGRESS_PER_YEAR) -> float:
    """Years of hardware progress needed for a given speedup factor."""
    if speedup < 1:
        raise ValueError("speedup must be at least 1")
    if annual_factor <= 1:
        raise ValueError("annual_factor must exceed 1")
    return math.log(speedup) / math.log(annual_factor)


class DictionaryModel:
    """Precomputed-dictionary attack sizing.

    The dictionary holds 2**(key_bits - epsilon) entries; each entry stores
    plaintext_blocks blocks of ciphertext plus the key, so entry_bits is
    (plaintext_blocks + 1) * key_bits.  A lookup walks key_bits - epsilon
    comparisons (binary search depth, the conservative count); the
    upper_bound flag switches to the 3k(k - epsilon) bit-comparison bound.
    """

    __slots__ = ("key_bits", "epsilon", "plaintext_blocks", "steps_per_comparison", "upper_bound")

    def __init__(self, key_bits: int, epsilon: int, plaintext_blocks: int = 3,
                 steps_per_comparison: int = 2, upper_bound: bool = False):
        if key_bits < 1:
            raise ValueError("key_bits must be at least 1")
        if not 0 <= epsilon < key_bits:
            raise ValueError("epsilon must be in [0, key_bits)")
        if plaintext_blocks < 1:
            raise ValueError("plaintext_blocks must be at least 1")
        if steps_per_comparison < 1:
            raise ValueError("steps_per_comparison must be at least 1")
        self.key_bits = key_bits
        self.epsilon = epsilon
        self.plaintext_blocks = plaintext_blocks
        self.steps_per_comparison = steps_per_comparison
        self.upper_bound = upper_bound


class DictionaryStats(NamedTuple):
    entries: float
    entry_bits: int
    dictionary_bytes: float
    expected_comparisons: int
    steps_per_lookup: int
    lookup_cost: float
    per_key_cost: float
    construction_cost: float


def dictionary_stats(model: DictionaryModel) -> DictionaryStats:
    """Size and cost figures for the dictionary attack.

    The lookup is priced under a lease model: every step of the lookup
    keeps the whole dictionary allocated, so one lookup costs
    steps_per_lookup * dictionary_bytes.  Construction is priced at the
    exhaustive-search average: a search bound, not a tight dictionary
    build cost.
    """
    k = model.key_bits
    entries = 2.0 ** (k - model.epsilon)
    entry_bits = (model.plaintext_blocks + 1) * k
    dictionary_bytes = entry_bits * entries / 8.0
    if model.upper_bound:
        comparisons = model.plaintext_blocks * k * (k - model.epsilon)
    else:
        comparisons = k - model.epsilon
    steps = model.steps_per_comparison * comparisons
    lookup_cost = steps * dictionary_bytes
    per_key_cost = 2.0**model.epsilon * lookup_cost
    construction = brute_force_cost(BruteForceModel(k))
    return DictionaryStats(
        entries=entries,
        entry_bits=entry_bits,
        dictionary_bytes=dictionary_bytes,
        expected_comparisons=comparisons,
        steps_per_lookup=steps,
        lookup_cost=lookup_cost,
        per_key_cost=per_key_cost,
        construction_cost=construction,
    )


class Tf1Model:
    """Word-based stream generator with a 4w-bit state.

    The design intends 2w bits of strength but state recovery needs only
    about 2**(1.5w) candidate states once a zero output word has been
    observed, so the effective strength is 1.5w bits.  Finding the zero
    word first takes an expected 2**(w-1) scanned words (the published
    convention; the geometric mean from a random start is 2**w).  The toy
    stand-in generator's mean wait from random starts measured 1.01,
    0.987, 0.991 and 0.987 times 2**w at w = 8, 10, 12 and 14.
    """

    __slots__ = ("word_bits", "bytes_per_strength_bit", "scan_words_per_second")

    def __init__(self, word_bits: int, bytes_per_strength_bit: float = DEFAULT_BYTES_PER_KEY_BIT,
                 scan_words_per_second: float = 1e9):
        if word_bits < 1:
            raise ValueError("word_bits must be at least 1")
        if bytes_per_strength_bit <= 0:
            raise ValueError("bytes_per_strength_bit must be positive")
        if scan_words_per_second <= 0:
            raise ValueError("scan rate must be positive")
        self.word_bits = word_bits
        self.bytes_per_strength_bit = bytes_per_strength_bit
        self.scan_words_per_second = scan_words_per_second


class Tf1Estimate(NamedTuple):
    word_bits: int
    intended_strength_bits: int
    effective_strength_bits: float
    state_search_cost: float
    fleet_rate: float
    expected_seconds: float
    worst_case_seconds: float
    expected_scan_words: float
    scan_seconds: float


def tf1_estimate(model: Tf1Model, rate: float) -> Tf1Estimate:
    """State-search cost and zero-word scan wait for the generator at
    `rate` bytes/s."""
    w = model.word_bits
    strength = 1.5 * w
    cost = model.bytes_per_strength_bit * strength * 2.0 ** (strength - 1)
    timing = break_time(cost, rate)
    scan_words = 2.0 ** (w - 1)
    return Tf1Estimate(
        word_bits=w,
        intended_strength_bits=2 * w,
        effective_strength_bits=strength,
        state_search_cost=cost,
        fleet_rate=timing.fleet_rate,
        expected_seconds=timing.expected_seconds,
        worst_case_seconds=timing.worst_case_seconds,
        expected_scan_words=scan_words,
        scan_seconds=scan_words / model.scan_words_per_second,
    )
