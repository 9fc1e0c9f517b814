"""Closed-form attack cost estimators.

All costs are byte-steps: one byte of machinery held for one step costs
one byte.  The exhaustive-search baseline prices one key test at
bytes_per_key_bit * key_bits (120 bytes per key bit for a DES-scale
check; one extra encryption layer triples it).  A wall time is a cost
over a rate in bytes/s, such as `devices.fleet_rate` of a fleet.

Each estimator is a function of plain numbers that checks them itself,
raising ValueError on the first bad one, and returns only what it works
out, not its arguments.
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
DAYS_PER_YEAR = 365.0
SECONDS_PER_YEAR = DAYS_PER_YEAR * SECONDS_PER_DAY


def brute_force_cost(key_bits: int, bytes_per_key_bit: float = DEFAULT_BYTES_PER_KEY_BIT) -> float:
    """Average exhaustive-search cost: b * k * 2**(k-1) bytes.

    Half the keyspace is searched on average; the worst case doubles it.
    """
    if key_bits < 1:
        raise ValueError("key_bits must be at least 1")
    if bytes_per_key_bit <= 0:
        raise ValueError("bytes_per_key_bit must be positive")
    return bytes_per_key_bit * key_bits * 2.0 ** (key_bits - 1)


class AttackEstimate(NamedTuple):
    expected_seconds: float
    worst_case_seconds: float


def break_time(cost: float, rate: float) -> AttackEstimate:
    """Time to spend `cost` bytes at `rate` bytes/s; worst case is twice the mean."""
    if cost <= 0:
        raise ValueError("cost must be positive")
    if rate <= 0:
        raise ValueError("aggregate rate must be positive")
    expected = cost / rate
    return AttackEstimate(expected_seconds=expected, worst_case_seconds=2.0 * expected)


def progress_years(speedup: float, annual_factor: float = HARDWARE_PROGRESS_PER_YEAR) -> float:
    """Years of hardware progress needed for a given speedup factor."""
    if speedup < 1:
        raise ValueError("speedup must be at least 1")
    if annual_factor <= 1:
        raise ValueError("annual_factor must exceed 1")
    return math.log(speedup) / math.log(annual_factor)


class DictionaryStats(NamedTuple):
    entries: float
    entry_bits: int
    dictionary_bytes: float
    expected_comparisons: int
    steps_per_lookup: int
    lookup_cost: float
    per_key_cost: float
    construction_cost: float


def dictionary_stats(key_bits: int, epsilon: int, plaintext_blocks: int = 3,
                     steps_per_comparison: int = 2, upper_bound: bool = False) -> DictionaryStats:
    """Precomputed-dictionary attack sizing.

    The dictionary holds 2**(key_bits - epsilon) entries; each entry stores
    plaintext_blocks blocks of ciphertext plus the key, so entry_bits is
    (plaintext_blocks + 1) * key_bits.  A lookup walks key_bits - epsilon
    comparisons (binary search depth, the conservative count); the
    upper_bound flag switches to the 3k(k - epsilon) bit-comparison bound.

    The lookup is priced under a lease model: every step of the lookup
    keeps the whole dictionary allocated, so one lookup costs
    steps_per_lookup * dictionary_bytes.  Construction is priced at the
    exhaustive-search average: a search bound, not a tight dictionary
    build cost.
    """
    if key_bits < 1:
        raise ValueError("key_bits must be at least 1")
    if not 0 <= epsilon < key_bits:
        raise ValueError("epsilon must be in [0, key_bits)")
    if plaintext_blocks < 1:
        raise ValueError("plaintext_blocks must be at least 1")
    if steps_per_comparison < 1:
        raise ValueError("steps_per_comparison must be at least 1")
    k = key_bits
    entries = 2.0 ** (k - epsilon)
    entry_bits = (plaintext_blocks + 1) * k
    dictionary_bytes = entry_bits * entries / 8.0
    if upper_bound:
        comparisons = plaintext_blocks * k * (k - epsilon)
    else:
        comparisons = k - epsilon
    steps = steps_per_comparison * comparisons
    lookup_cost = steps * dictionary_bytes
    return DictionaryStats(
        entries=entries,
        entry_bits=entry_bits,
        dictionary_bytes=dictionary_bytes,
        expected_comparisons=comparisons,
        steps_per_lookup=steps,
        lookup_cost=lookup_cost,
        per_key_cost=2.0**epsilon * lookup_cost,
        construction_cost=brute_force_cost(k),
    )


class Tf1Estimate(NamedTuple):
    intended_strength_bits: int
    effective_strength_bits: float
    state_search_cost: float
    expected_seconds: float
    expected_scan_words: float
    scan_seconds: float


def tf1_estimate(word_bits: int, rate: float, bytes_per_strength_bit: float = DEFAULT_BYTES_PER_KEY_BIT,
                 scan_words_per_second: float = 1e9) -> Tf1Estimate:
    """State-search cost and zero-word scan wait for a word-based stream
    generator with a 4w-bit state, at `rate` bytes/s.

    The design intends 2w bits of strength but state recovery needs only
    about 2**(1.5w) candidate states once a zero output word has been
    observed, so the effective strength is 1.5w bits.  Finding the zero
    word first takes an expected 2**(w-1) scanned words (the published
    convention; the geometric mean from a random start is 2**w).  The toy
    stand-in generator's mean wait from random starts measured 1.01,
    0.987, 0.991 and 0.987 times 2**w at w = 8, 10, 12 and 14.
    """
    if word_bits < 1:
        raise ValueError("word_bits must be at least 1")
    if bytes_per_strength_bit <= 0:
        raise ValueError("bytes_per_strength_bit must be positive")
    if scan_words_per_second <= 0:
        raise ValueError("scan rate must be positive")
    strength = 1.5 * word_bits
    cost = bytes_per_strength_bit * strength * 2.0 ** (strength - 1)
    scan_words = 2.0 ** (word_bits - 1)
    return Tf1Estimate(
        intended_strength_bits=2 * word_bits,
        effective_strength_bits=strength,
        state_search_cost=cost,
        expected_seconds=break_time(cost, rate).expected_seconds,
        expected_scan_words=scan_words,
        scan_seconds=scan_words / scan_words_per_second,
    )
