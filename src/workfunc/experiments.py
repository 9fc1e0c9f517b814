"""Desk-scale validation experiments.

Each experiment replays a cost-model claim against the toy systems and
returns its figure as a `reports.Check` against the model's value.  The
sweeps are vectorized with numpy: they run the toy cipher's own key
schedule and rounds, and the generator's own step, on arrays of keys or
candidate states, so there is one implementation of each primitive.

The searches, `brute_force_search` and `state_search`, check the
candidates in a seeded random order (`scan_order`, a Feistel permutation
of the candidate indices built chunk by chunk) in array passes of
`SCAN_CHUNK` candidates, and stop at the first chunk with a match: what a
candidate-by-candidate loop finds, at the same count, with no chunk after
the match built.  Their cost is the plain sum of one charge per candidate
scanned.  Each pass tests every candidate against the first known
output, which rejects nearly all of them, and only the survivors against
the rest.

A sweep runs many trials of such a search, and returns each trial's
count in expectation over the scan order, not one drawn count.  The
targets' positions in a uniformly random order are a uniformly random
m-subset of the N candidates, so the search tests (N + 1)/(m + 1) of
them on average: once a trial's m is counted, a drawn rank would add
noise and nothing else.  The key sweep draws every trial's secret in one
call and counts the keys that share each secret's known pairs in one
pass over the keyspace, SCAN_CHUNK keys at a time (`cipher_table`, the
first block only), checking the first block's survivors against the
second once SCAN_CHUNK of them are pending and after the last chunk
(`brute_force_keys_tested`).

The state sweep scans no candidate space either.  The generator's
first output word is (a' + c') mod 2**w, and the hint fixes a', so for
each value of c's unknown low bits exactly one d meets the observed first
word: the 2**(ceil(1.5w) - w) candidates that survive the first word are
listed directly.  One `arx_step` of every trial's true state gives its
first word; the true state is then one of its survivors, and a single
lockstep pass (`_lockstep_outputs`) steps all survivors through the
window and counts those that emit it; it stops once each trial keeps
only its true one.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .estimators import DEFAULT_BYTES_PER_KEY_BIT
from .reports import Check
from .toycrypto import (
    MAX_WORD_BITS,
    KeystreamGen,
    StandInPrng,
    ToyCipher,
    arx_step,
    pack_state,
    reduction_hint,
    reduction_unknown_bits,
    rotl,
    unpack_state,
)

# flat op count of checking one candidate state against the window
CHECKER_OPS = 16
# candidates a search checks, keys the key sweep encrypts and keystream
# bits the bias line draws, per array pass; the key sweep checks its
# first-block survivors once at least this many are pending
SCAN_CHUNK = 1 << 13
# widest candidate space `scan_order` permutes, and its Feistel rounds
MAX_SCAN_BITS = 32
SCAN_ROUNDS = 6

# fixed known plaintexts for key-search trials; two blocks pin the key
TRIAL_PLAINTEXTS = (0x00000000, 0x00000001)
KEY_TRIALS = 1000  # secrets each key line draws
SLOPE_WORD_BITS = (8, 10, 12)  # word sizes the slope line fits its exponent over
LEDGER_SEED = 5  # the meter-ledger line's seed, whatever `run_validation`'s


def _encrypt(cipher: ToyCipher, keys: np.ndarray, blocks: Sequence[int]) -> list[np.ndarray]:
    """The ciphertext of each block under each of the uint32 `keys`, one
    table per block.  The keys are scheduled once: the schedule's product
    wraps mod 2**32, the cipher's own reduction, so every value is exact."""
    subkeys = cipher.schedule(keys)
    return [cipher.encrypt_with_subkeys(subkeys, block) for block in blocks]


def cipher_table(key_bits: int) -> Iterator[np.ndarray]:
    """The ciphertext of TRIAL_PLAINTEXTS[0], the first trial block, under
    every key, one array per run of SCAN_CHUNK keys in ascending order
    (`_encrypt`): a sweep of the keyspace holds one chunk at a time."""
    cipher = ToyCipher(key_bits)
    size = 1 << key_bits
    for start in range(0, size, SCAN_CHUNK):
        keys = np.arange(start, min(start + SCAN_CHUNK, size), dtype=np.uint32)
        yield _encrypt(cipher, keys, TRIAL_PLAINTEXTS[:1])[0]


def scan_order(bits: int, seed: int | str = 0) -> Iterator[np.ndarray]:
    """A seeded permutation of [0, 2**bits), yielded as uint64 chunks in
    scan order.

    Chunk i holds the images of the indices [i * SCAN_CHUNK, (i + 1) *
    SCAN_CHUNK) under a balanced Feistel network of SCAN_ROUNDS rounds,
    whose round function is a multiply-add-shift hash of the right half
    with a seeded odd multiplier and offset from `random.Random(seed)`.
    So a chunk needs none of the chunks before it, and a scan that stops
    early builds none after.  An odd width runs the network on bits + 1
    and drops the images of 2**bits or more, which keeps the order a
    permutation; its chunks hold about half SCAN_CHUNK values.
    """
    if not 1 <= bits <= MAX_SCAN_BITS:
        raise ValueError(f"bits must be in [1, {MAX_SCAN_BITS}]")
    half = (bits + 1) // 2
    domain = 1 << 2 * half
    rng = random.Random(seed)
    rounds = [
        (np.uint64(rng.getrandbits(64) | 1), np.uint64(rng.getrandbits(64)))
        for _ in range(SCAN_ROUNDS)
    ]
    width, mask, shift = np.uint64(half), np.uint64((1 << half) - 1), np.uint64(64 - half)
    for start in range(0, domain, SCAN_CHUNK):
        index = np.arange(start, min(start + SCAN_CHUNK, domain), dtype=np.uint64)
        left, right = index >> width, index & mask
        for multiplier, offset in rounds:
            left, right = right, left ^ ((right * multiplier + offset) >> shift)
        order = left << width | right
        yield order if domain == 1 << bits else order[order < np.uint64(1 << bits)]


def _packed_pairs(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Keys' ciphertexts of the two trial plaintexts, packed into one
    uint64 per key as `t1 << 32 | t2`: keys with equal entries are the
    keys that no known pair tells apart."""
    return t1.astype(np.uint64) << np.uint64(32) | t2


def brute_force_keys_tested(key_bits: int, trials: int, seed: int) -> list[float]:
    """keys_tested per trial for random secrets, in expectation over the
    scan order: (2**k + 1)/(m + 1), m the keys that share the trial's
    secret's known pairs.

    One `integers(size, size=trials)` call draws every trial's secret.
    One pass over the keyspace (`cipher_table`) encrypts the first trial
    block; the keys whose ciphertext starts with some secret's top 16
    bits (a 2**16-entry table) are kept with their first ciphertexts
    until at least SCAN_CHUNK are pending or the last chunk is in.  Each
    such batch encrypts the second block, and its sorted packed pairs
    count, by binary search from the secrets' distinct pairs, sorted
    once, the m keys consistent with each secret.  A batch holds fewer
    than 2 * SCAN_CHUNK keys, so the sweep holds O(SCAN_CHUNK), not the
    keyspace.
    """
    size = 1 << key_bits
    secrets = np.random.default_rng(seed).integers(size, size=trials).astype(np.uint32)
    cipher = ToyCipher(key_bits)
    targets, target_of_trial = np.unique(
        _packed_pairs(*_encrypt(cipher, secrets, TRIAL_PLAINTEXTS)), return_inverse=True
    )
    # the top 16 bits of some secret's first ciphertext
    prefixes = np.zeros(1 << 16, dtype=bool)
    prefixes[targets >> np.uint64(48)] = True
    m = np.zeros(targets.size, dtype=np.int64)
    keys, firsts, held, start = [], [], 0, 0
    for first in cipher_table(key_bits):
        near = np.flatnonzero(prefixes[first >> 16])
        keys.append((near + start).astype(np.uint32))
        firsts.append(first[near])
        held, start = held + near.size, start + first.size
        if held >= SCAN_CHUNK or start == size:
            second = _encrypt(cipher, np.concatenate(keys), TRIAL_PLAINTEXTS[1:])
            batch = np.sort(_packed_pairs(np.concatenate(firsts), *second))
            m += batch.searchsorted(targets, "right") - batch.searchsorted(targets, "left")
            keys, firsts, held = [], [], 0
    return ((size + 1) / (m[target_of_trial] + 1)).tolist()


def brute_force_mean_experiment(key_bits: int, seed: int) -> Check:
    counts = brute_force_keys_tested(key_bits, KEY_TRIALS, seed)
    expected = 2.0 ** (key_bits - 1)
    mean = math.fsum(counts) / len(counts)
    return Check(f"brute-force mean keys tested, k={key_bits}", mean, expected, 0.05 * expected)


def _candidate_states(word_bits: int, high_bits, lows) -> tuple:
    """The four uint32 state words of the candidates with the hinted high
    bits and the given low bits.

    `high_bits` is one hint or a 1-D sequence of hints; a, b and c come
    back with a trailing axis, so one hint broadcasts against a row of
    lows and a sequence of hints against one row of lows per hint.  The
    ceil(1.5w) unknown low bits cover d and the low part of c but never
    reach a or b, since w <= ceil(1.5w) <= 2w; uint32 holds every word
    sum because w <= MAX_WORD_BITS = 16.
    """
    w = word_bits
    high = np.asarray(high_bits, dtype=np.uint64)
    a, b, c_high, _ = unpack_state(high << np.uint64(reduction_unknown_bits(w)), w)
    a, b, c_high = (word.astype(np.uint32)[..., None] for word in (a, b, c_high))
    lows = np.asarray(lows, dtype=np.uint32)
    return a, b, c_high | (lows >> w), lows & ((1 << w) - 1)


def _first_word_survivors(word_bits: int, high_bits, first_words) -> np.ndarray:
    """The low bits, ascending, of the candidates whose first output is
    the given word: one row per hint and first word.

    `arx_step` outputs (a' + c') mod 2**w with a' = (a + rotl(b, 1)) mod
    2**w fixed by the hint and c' = ((c + d) mod 2**w) XOR 1.  So each
    value j of c's unknown low bits meets the word with exactly one d,
    d = (t - (c_high | j)) mod 2**w where t = ((word - a') mod 2**w) XOR 1,
    and the survivors are the 2**(ceil(1.5w) - w) lows j << w | d.
    """
    w = word_bits
    mask = (1 << w) - 1
    a, b, c_high, _ = _candidate_states(w, high_bits, 0)
    words = np.asarray(first_words, dtype=np.uint32)[..., None]
    t = ((words - ((a + rotl(b, 1, w)) & mask)) & mask) ^ 1
    j = np.arange(1 << (reduction_unknown_bits(w) - w), dtype=np.uint32)
    return j << w | ((t - (c_high | j)) & mask)


def _lockstep_outputs(word_bits: int, state, count: int) -> Iterator[np.ndarray]:
    """Yield the first `count` outputs of the four uint32 `state` words:
    all states step in lockstep, one `arx_step` per word."""
    for _ in range(count):
        state, word = arx_step(state, word_bits)
        yield word


def _confirm_window(word_bits: int, high_bits, lows, observed) -> np.ndarray:
    """True where a candidate state (`_candidate_states`) emits the whole
    observed window: one window, or one per row of lows.  All candidates
    step in lockstep (`_lockstep_outputs`)."""
    observed = np.asarray(observed, dtype=np.uint32)
    state = _candidate_states(word_bits, high_bits, lows)
    keep = np.ones(np.shape(lows), dtype=bool)
    for i, output in enumerate(_lockstep_outputs(word_bits, state, observed.shape[-1])):
        keep &= output == observed[..., i, None]
    return keep


def _scan(order: Iterator[np.ndarray], matches, charge: float) -> tuple[int, int, float]:
    """The first candidate of `order` that matches, the count scanned up
    to it, and the sum of one `charge` per candidate scanned: summed, not
    multiplied, so the ledger identity checks one against the other.
    `matches(chunk)` gives the ascending positions of the matches in
    each chunk of `order`, up to the first chunk with one; no later chunk
    is drawn."""
    scanned = 0
    for chunk in order:
        hits = matches(chunk)
        if hits.size:
            first = int(hits[0])
            scanned += first + 1
            # in C, one addition per candidate; compensated on Python 3.12+, exact for src/'s integral charges
            return int(chunk[first]), scanned, sum(itertools.repeat(charge, scanned), 0.0)
        scanned += len(chunk)
    raise LookupError("no candidate in the scan order matches")


class StateSearchResult(NamedTuple):
    state_packed: int
    candidates_tested: int
    cost: float


def state_search(
    word_bits: int, observed: Sequence[int], hint_high_bits: int, rng_seed: int | str = 0
) -> StateSearchResult:
    """Recover the generator state that produced `observed`.

    Candidates share the hinted high bits; their low ceil(1.5w) bits are
    scanned in `scan_order(ceil(1.5w), rng_seed)` (`_scan`) up to the first
    of those that emit the first observed word (`_first_word_survivors`)
    and then the window (`_confirm_window`, one lockstep pass).  Each one
    scanned up to the first match charges CHECKER_OPS (a flat op count
    per check).  When no candidate emits the window, `LookupError` is
    raised before any is scanned.
    """
    if not 1 <= word_bits <= MAX_WORD_BITS:
        raise ValueError(f"word_bits must be in [1, {MAX_WORD_BITS}]")
    if not observed or not all(0 <= word < 1 << word_bits for word in observed):
        raise ValueError("observed outputs must be a non-empty window of word_bits words")
    unknown = reduction_unknown_bits(word_bits)
    if not 0 <= hint_high_bits < 1 << (4 * word_bits - unknown):
        raise ValueError(f"hint_high_bits must fit in {4 * word_bits - unknown} bits")

    lows = _first_word_survivors(word_bits, hint_high_bits, observed[0])
    confirmed = lows[_confirm_window(word_bits, hint_high_bits, lows, observed)]
    if not confirmed.size:  # a wrong hint: no candidate can match, so none is scanned
        raise LookupError("no candidate in the scan order matches")

    def matches(chunk):
        return np.flatnonzero(np.isin(chunk, confirmed))
    low, tested, cost = _scan(scan_order(unknown, rng_seed), matches, CHECKER_OPS)
    return StateSearchResult((hint_high_bits << unknown) | low, tested, cost)


class KeySearchResult(NamedTuple):
    key: int
    keys_tested: int
    cost: float


def brute_force_search(
    cipher: ToyCipher,
    pairs: Sequence[tuple[int, int]],
    per_key_cost: float,
    rng_seed: int | str = 0,
) -> KeySearchResult:
    """Scan keys in seeded random order for one consistent with all pairs.

    Keys are scanned in `scan_order(key_bits, rng_seed)`, in passes of the
    cipher on uint32 lanes by chunk (`_scan`), each pair on the keys that
    met the pairs before it.  Each one scanned up to the first match
    charges per_key_cost, so cost == keys_tested * per_key_cost holds
    exactly for exactly-representable costs.
    """
    if not per_key_cost >= 0:
        raise ValueError("per_key_cost must be a non-negative number")
    if not pairs or not all(0 <= block < 1 << cipher.block_bits for pair in pairs for block in pair):
        raise ValueError(f"pairs must be a non-empty list of {cipher.block_bits}-bit blocks")

    def matches(keys):
        hits, subkeys = np.arange(keys.size), cipher.schedule(keys.astype(np.uint32))
        for p, c in pairs:
            if not hits.size:
                break
            met = cipher.encrypt_with_subkeys(subkeys, p) == c
            hits, subkeys = hits[met], tuple(s[met] for s in subkeys)
        return hits
    return KeySearchResult(*_scan(scan_order(cipher.key_bits, rng_seed), matches, per_key_cost))


def state_search_candidates_tested(
    word_bits: int, trials: int, seed: int, window: int = 16
) -> list[float]:
    """candidates_tested per trial of the reduced state search, in
    expectation over the scan order: (2**u + 1)/(m + 1), u = ceil(1.5w)
    and m the candidates that emit the trial's whole window.

    No candidate space is swept: the 2**(u - w) candidates whose first
    output equals the first observed word are listed directly
    (`_first_word_survivors`), the true state among them in column
    `low >> w`.  One lockstep pass steps them through the window and
    keeps those that emit the true state's outputs; it stops once each
    trial keeps only its true state.  One `integers(2**w, size=(trials,
    4))` call draws every trial's state words, the same values as a
    trial-by-trial loop of `integers(2**w, size=4)`.
    """
    unknown = reduction_unknown_bits(word_bits)
    truth = np.random.default_rng(seed).integers(1 << word_bits, size=(trials, 4), dtype=np.uint32).T
    packed = pack_state(truth.astype(np.uint64), word_bits)
    highs = reduction_hint(packed, word_bits)
    lows = _first_word_survivors(word_bits, highs, arx_step(truth, word_bits)[1])
    true_lows = packed & np.uint64((1 << unknown) - 1)
    trial, column = np.arange(trials), true_lows >> np.uint64(word_bits)
    if not np.array_equal(lows[trial, column], true_lows):
        raise AssertionError("a true state is not among its first-word survivors")
    keep = np.ones(lows.shape, dtype=bool)
    for output in _lockstep_outputs(word_bits, _candidate_states(word_bits, highs, lows), window):
        keep &= output == output[trial, column][:, None]
        # the true state always survives: once it alone does, `keep` is final
        if np.count_nonzero(keep) == trials:
            break
    return (((1 << unknown) + 1) / (np.count_nonzero(keep, axis=1) + 1)).tolist()


def state_search_slope_experiment(trials_list: Sequence[int], seed: int) -> Check:
    """Fit the cost-vs-word-size exponent; the reduction predicts 1.5."""
    xs = list(SLOPE_WORD_BITS)
    ys = []
    for w, trials in zip(xs, trials_list):
        counts = state_search_candidates_tested(w, trials, seed + w)
        ys.append(math.log2(CHECKER_OPS * (math.fsum(counts) / len(counts))))
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)
    return Check(f"state-search cost exponent over w={tuple(xs)}", slope, 1.5, 0.1)


def _twister(stream: KeystreamGen) -> np.random.MT19937:
    """numpy's twister, whose draws are the words `stream` would use next."""
    key, pos = stream.twister_state()
    twister = np.random.MT19937()
    twister.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": pos}}
    return twister


def keystream_bias_experiment(bias: float, nbits: int, seed: int = 20) -> Check:
    """The ones fraction of one `KeystreamGen(bias, seed).next_bits(nbits)`
    call, counted in numpy by the stream's own rule, `draw_is_one`, on the
    draws that `next_bits` makes: `Generator.random` on the hand-off twister
    (`_twister`) computes each `random()` draw, SCAN_CHUNK at a time, so the
    line holds O(SCAN_CHUNK) draws, not nbits.  `run_validation` keeps seed
    20 whatever its seed: the 0.002 tolerance is 1.83 standard errors of the
    quick line's 200,000-bit mean at bias 0.6, which an arbitrary seed
    fails about 6.8 % of the time (two-sided)."""
    stream = KeystreamGen(bias, seed)
    draws = np.random.Generator(_twister(stream))
    ones = 0
    for start in range(0, nbits, SCAN_CHUNK):
        ones += int(np.count_nonzero(stream.draw_is_one(draws.random(min(SCAN_CHUNK, nbits - start)))))
    return Check(f"keystream ones fraction at bias {bias}", ones / nbits, bias, 0.002)


def meter_ledger_experiment() -> Check:
    """Charge-sum identities on real searches at LEDGER_SEED; zero tolerance.

    The statistic adds the gap between each search's summed charges and
    its count times the per-step charge, plus one for each search that
    recovers the wrong key or state.
    """
    cipher = ToyCipher(key_bits=12)
    per_key = DEFAULT_BYTES_PER_KEY_BIT * cipher.key_bits
    secret = 0x5A5
    pairs = [(p, cipher.encrypt(secret, p)) for p in TRIAL_PLAINTEXTS]
    found = brute_force_search(cipher, pairs, per_key, rng_seed=LEDGER_SEED)
    key_gap = found.cost - found.keys_tested * per_key

    prng = StandInPrng.from_seed(8, LEDGER_SEED)
    truth = prng.packed_state()
    res = state_search(8, prng.next_words(16), reduction_hint(truth, 8), rng_seed=LEDGER_SEED)
    search_gap = res.cost - CHECKER_OPS * res.candidates_tested

    wrong = (found.key != secret) + (res.state_packed != truth)
    return Check("meter ledger identities", abs(key_gap) + abs(search_gap) + wrong, 0.0, 0.0)


def run_validation(quick: bool, seed: int) -> list[Check]:
    results = []
    # quick mode drops the large keyspace.  A line is exact given its
    # trials' m, so a trial count sets only how many secrets and states
    # it draws, and so how likely it is to draw a tied one
    ks = (12, 16) if quick else (12, 16, 20)
    for k in ks:
        results.append(brute_force_mean_experiment(k, seed + k))
    slope_trials = (100, 60, 40) if quick else (300, 200, 120)
    results.append(state_search_slope_experiment(trials_list=slope_trials, seed=seed))
    results.append(keystream_bias_experiment(0.6, 200_000 if quick else 1_000_000))
    results.append(meter_ledger_experiment())
    return results
