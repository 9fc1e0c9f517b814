"""Desk-scale toy cryptosystems for bit-exact experiments.

These exist so that cost-model claims can be checked empirically in
seconds: a small Feistel block cipher for key-search statistics, a biased
keystream source for distinguishing games, and a small ARX word generator
whose state can be recovered from output.  Key sizes are capped at 28
bits and word sizes at 16 bits; nothing here is fit for real use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .cost import CostMeter, record_step

MAX_KEY_BITS = 28
MAX_WORD_BITS = 16

# Block cipher schedule constants, fixed forever by the known-answer
# vectors: any change is a new cipher.
ROUND_CONSTANTS = (0x01234567, 0x89ABCDEF, 0xFEDCBA98, 0x76543210)
KEY_MIX_MULTIPLIER = 0x9E3779B9
ROUND_ROTATION = 5
MASK32 = 0xFFFFFFFF


def rotl(value, amount: int, width: int):
    """Rotate left within `width` bits; `value` is an int or an unsigned
    numpy array wide enough to hold `value << amount`."""
    amount %= width
    if amount == 0:
        return value
    mask = (1 << width) - 1
    return ((value << amount) | (value >> (width - amount))) & mask


class ToyCipher:
    """4-round Feistel cipher on 32-bit blocks (16-bit halves).

    Subkey for round i (i = 0..3): zero-extend the key to 32 bits, XOR
    with ROUND_CONSTANTS[i], multiply by KEY_MIX_MULTIPLIER mod 2**32,
    fold with t ^= t >> 16, rotate left by i, keep the low half-width
    bits.  The fold makes every subkey bit depend on the whole product;
    without it keys agreeing on their low bits collide into identical
    schedules.  Round function: F(x, s) = rotl((x + s) mod 2**h, 5) XOR s
    on h-bit halves.

    block_bits=16 selects a reduced 8-bit-half variant whose whole block
    space can be enumerated; the key schedule is unchanged apart from the
    subkey truncation width.
    """

    def __init__(self, key_bits: int, block_bits: int = 32):
        if not 1 <= key_bits <= MAX_KEY_BITS:
            raise ValueError(f"key_bits must be in [1, {MAX_KEY_BITS}]")
        if block_bits not in (16, 32):
            raise ValueError("block_bits must be 16 or 32")
        self.key_bits = key_bits
        self.block_bits = block_bits
        self.half_bits = block_bits // 2
        self._half_mask = (1 << self.half_bits) - 1
        self._block_mask = (1 << block_bits) - 1

    def _check_key(self, key: int):
        if not 0 <= key < (1 << self.key_bits):
            raise ValueError(f"key out of range for {self.key_bits} bits")

    def _check_block(self, block: int):
        if not 0 <= block <= self._block_mask:
            raise ValueError(f"block out of range for {self.block_bits} bits")

    def subkeys(self, key: int) -> tuple[int, int, int, int]:
        self._check_key(key)
        return self.schedule(key)

    def schedule(self, key):
        """The four round subkeys of `key`, without the range check.

        `key` is an int, or a uint64 numpy array of keys to schedule at
        once; the subkeys then are arrays of the same shape.
        """
        out = []
        for i, rc in enumerate(ROUND_CONSTANTS):
            mixed = ((key ^ rc) * KEY_MIX_MULTIPLIER) & MASK32
            mixed ^= mixed >> 16
            out.append(rotl(mixed, i, 32) & self._half_mask)
        return tuple(out)

    def _round(self, x, s):
        return rotl((x + s) & self._half_mask, ROUND_ROTATION, self.half_bits) ^ s

    def encrypt_with_subkeys(self, subkeys: Sequence[int], block: int) -> int:
        left = block >> self.half_bits
        right = block & self._half_mask
        for s in subkeys:
            left, right = right, left ^ self._round(right, s)
        return (left << self.half_bits) | right

    def decrypt_with_subkeys(self, subkeys: Sequence[int], block: int) -> int:
        left = block >> self.half_bits
        right = block & self._half_mask
        for s in reversed(subkeys):
            left, right = right ^ self._round(left, s), left
        return (left << self.half_bits) | right

    def encrypt(self, key: int, block: int) -> int:
        self._check_block(block)
        return self.encrypt_with_subkeys(self.subkeys(key), block)

    def decrypt(self, key: int, block: int) -> int:
        self._check_block(block)
        return self.decrypt_with_subkeys(self.subkeys(key), block)


def format_kat_line(key_bits: int, key: int, block: int, cipher: int) -> str:
    return f"{key_bits} {key:x} {block:08x} {cipher:08x}"


def parse_kat_lines(text: str) -> list[tuple[int, int, int, int]]:
    """Parse known-answer vectors: `k key_hex block_hex cipher_hex` per line."""
    vectors = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"line {line_no}: expected 4 fields, got {len(parts)}")
        k = int(parts[0])
        key, block, cipher = (int(p, 16) for p in parts[1:])
        vectors.append((k, key, block, cipher))
    return vectors


class KeystreamGen:
    """Seeded Bernoulli bit source: each bit is 1 with probability `bias`.

    Bit i of the stream is 1 iff the i-th `random()` draw of
    `random.Random(seed)` is below `bias`.  The bits are drawn in bulk,
    which relies on CPython's `random()` construction: each draw is
    `k / 2**53` with `k = (w0 >> 5) << 26 | (w1 >> 6)` from two
    consecutive 32-bit Mersenne Twister words, and `getrandbits(64 * n)`
    consumes the same 2n words in the same order, least significant
    first.  A draw is below `bias` exactly when `k < ceil(bias * 2**53)`
    (scaling by a power of two is exact), and the top byte of `w0`, which
    is the top byte of `k`, decides that for all but one byte value.
    The generator ends in the state n `random()` calls leave; the test
    suite pins both against a `random()` oracle.
    """

    def __init__(self, bias: float = 0.5, seed: int | str = 0):
        if not 0.0 <= bias <= 1.0:
            raise ValueError("bias must be in [0, 1]")
        self.bias = bias
        self._rng = random.Random(seed)
        self._threshold = math.ceil(bias * 2**53)
        # top byte of k -> "1" (k is below the threshold), "0" (it is not)
        # or "?" (the threshold falls inside this byte: k itself decides)
        edge, low = divmod(self._threshold, 1 << 45)
        self._top_byte_bits = bytes(
            ord("1") if byte < edge else ord("?") if byte == edge and low else ord("0")
            for byte in range(256)
        )

    def next_bits(self, n: int) -> int:
        """n bits packed big-endian into an int."""
        if n <= 0:
            return 0
        data = self._rng.getrandbits(64 * n).to_bytes(8 * n, "little")
        bits = data[3::8].translate(self._top_byte_bits)
        tie = bits.find(b"?")
        if tie < 0:
            return int(bits, 2)
        bits = bytearray(bits)
        while tie >= 0:
            w0 = int.from_bytes(data[8 * tie : 8 * tie + 4], "little")
            w1 = int.from_bytes(data[8 * tie + 4 : 8 * tie + 8], "little")
            k = (w0 >> 5) << 26 | (w1 >> 6)
            bits[tie] = ord("1") if k < self._threshold else ord("0")
            tie = bits.find(b"?", tie + 1)
        return int(bits, 2)

    def next_bytes(self, n: int) -> bytes:
        return self.next_bits(8 * n).to_bytes(n, "big")


def arx_step(state, word_bits: int):
    """One step of the ARX word generator: (next state, output word).

    All right-hand sides read the previous state:
        a' = (a + rotl(b, 1)) mod 2**w
        b' = b XOR rotl(c, 2)
        c' = ((c + d) mod 2**w) XOR 1
        d' = rotl(d XOR a, 3)
    and the output word is (a' + c') mod 2**w.  Each word is an int or
    an unsigned numpy array, so one call can step many candidate states.
    """
    w = word_bits
    mask = (1 << w) - 1
    a, b, c, d = state
    a2 = (a + rotl(b, 1, w)) & mask
    b2 = b ^ rotl(c, 2, w)
    c2 = ((c + d) & mask) ^ 1
    d2 = rotl(d ^ a, 3, w)
    return (a2, b2, c2, d2), (a2 + c2) & mask


class StandInPrng:
    """Small ARX word generator with four w-bit state words (`arx_step`)."""

    def __init__(self, word_bits: int, state: tuple[int, int, int, int]):
        if not 1 <= word_bits <= MAX_WORD_BITS:
            raise ValueError(f"word_bits must be in [1, {MAX_WORD_BITS}]")
        self.word_bits = word_bits
        mask = (1 << word_bits) - 1
        if len(state) != 4 or any(not 0 <= s <= mask for s in state):
            raise ValueError("state must be four words of word_bits each")
        self.state = tuple(state)

    @classmethod
    def from_seed(cls, word_bits: int, seed: int | str) -> "StandInPrng":
        rng = random.Random(seed)
        return cls(word_bits, tuple(rng.randrange(1 << word_bits) for _ in range(4)))

    @classmethod
    def from_packed(cls, word_bits: int, packed: int) -> "StandInPrng":
        return cls(word_bits, unpack_state(packed, word_bits))

    def packed_state(self) -> int:
        return pack_state(self.state, self.word_bits)

    def clone(self) -> "StandInPrng":
        return StandInPrng(self.word_bits, self.state)

    def next_word(self) -> int:
        self.state, word = arx_step(self.state, self.word_bits)
        return word

    def next_words(self, n: int) -> list[int]:
        return [self.next_word() for _ in range(n)]


def pack_state(state: tuple[int, int, int, int], word_bits: int) -> int:
    a, b, c, d = state
    return (((a << word_bits | b) << word_bits | c) << word_bits) | d


def unpack_state(packed: int, word_bits: int) -> tuple[int, int, int, int]:
    mask = (1 << word_bits) - 1
    d = packed & mask
    c = (packed >> word_bits) & mask
    b = (packed >> (2 * word_bits)) & mask
    a = (packed >> (3 * word_bits)) & mask
    return (a, b, c, d)


class ScanLimitError(RuntimeError):
    """No zero output word within the scan cap of 2**(w+4) words."""


SCAN_CAP_MARGIN_BITS = 4


def scan_for_zero(prng: StandInPrng) -> int:
    """Advance until the output word is zero; return words consumed.

    The generator is left in the state right after the zero word.  Some
    orbits never emit a zero (small zero-free cycles exist), hence the cap.
    """
    cap = 1 << (prng.word_bits + SCAN_CAP_MARGIN_BITS)
    for count in range(1, cap + 1):
        if prng.next_word() == 0:
            return count
    raise ScanLimitError(f"no zero output within {cap} words")


def reduction_unknown_bits(word_bits: int) -> int:
    """Size of the reduced candidate space: ceil(1.5 w) unknown state bits."""
    return -(-3 * word_bits // 2)


def reduction_hint(true_state_packed: int, word_bits: int) -> int:
    """The 4w - ceil(1.5w) high state bits a structural reduction pins down.

    Stands in for the algebraic analysis that shrinks the state space; the
    honest part of the experiment is the cost accounting of searching the
    remaining bits, not how the pinned bits were obtained.
    """
    unknown = reduction_unknown_bits(word_bits)
    return true_state_packed >> unknown


# flat op count of checking one candidate state against the window
CHECKER_OPS = 16


@dataclass(frozen=True)
class StateSearchResult:
    state_packed: int
    candidates_tested: int
    meter: CostMeter


def state_search(
    word_bits: int,
    observed: Sequence[int],
    hint_high_bits: int,
    rng_seed: int | str = 0,
    meter: Optional[CostMeter] = None,
) -> StateSearchResult:
    """Recover the generator state that produced `observed`.

    Candidates share the hinted high bits and enumerate the low
    ceil(1.5w) bits in a seeded random order.  Every candidate charges
    CHECKER_OPS to the meter (the checker is modeled at a flat op count).
    Returns the first candidate that reproduces the whole observed window.
    """
    if not observed:
        raise ValueError("observed outputs must be non-empty")
    if meter is None:
        meter = CostMeter()
    unknown = reduction_unknown_bits(word_bits)
    order = list(range(1 << unknown))
    random.Random(rng_seed).shuffle(order)
    tested = 0
    for low in order:
        tested += 1
        meter = record_step(meter, CHECKER_OPS)
        candidate = (hint_high_bits << unknown) | low
        prng = StandInPrng.from_packed(word_bits, candidate)
        if all(prng.next_word() == word for word in observed):
            return StateSearchResult(candidate, tested, meter)
    raise LookupError("no candidate state reproduces the observed outputs")


@dataclass(frozen=True)
class KeySearchResult:
    key: int
    keys_tested: int
    meter: CostMeter


def brute_force_search(
    cipher: ToyCipher,
    pairs: Sequence[tuple[int, int]],
    per_key_cost: float,
    rng_seed: int | str = 0,
    order: Optional[Sequence[int]] = None,
    meter: Optional[CostMeter] = None,
) -> KeySearchResult:
    """Scan keys in seeded random order for one consistent with all pairs.

    Every scanned candidate charges per_key_cost to the meter, so the
    ledger identity meter.accumulated_cost == keys_tested * per_key_cost
    holds exactly for exactly-representable costs.  An explicit `order`
    overrides the seeded shuffle (the caller owns its completeness).
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    if meter is None:
        meter = CostMeter()
    if order is None:
        scan = list(range(1 << cipher.key_bits))
        random.Random(rng_seed).shuffle(scan)
    else:
        scan = order
    encrypt = cipher.encrypt_with_subkeys
    tested = 0
    for key in scan:
        tested += 1
        meter = record_step(meter, per_key_cost)
        subkeys = cipher.subkeys(key)
        if all(encrypt(subkeys, p) == c for p, c in pairs):
            return KeySearchResult(key, tested, meter)
    raise LookupError("no key consistent with the given pairs")
