"""Desk-scale toy cryptosystems for bit-exact experiments.

These exist so that cost-model claims can be checked empirically in
seconds: a small Feistel block cipher for key-search statistics, a biased
keystream source for distinguishing games, and a small ARX word generator
whose state can be recovered from output.  Key sizes are capped at 28
bits and word sizes at 16 bits; nothing here is fit for real use.  The
key and state searches, which run these on numpy arrays, are in
`experiments`: this module is on the game's import path, without numpy.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

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
    numpy array at least `width` bits wide.  A shift that wraps the
    array's dtype loses only bits above `width`, which the mask drops."""
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

        `key` is an int, or a uint32 (or wider unsigned) numpy array of
        keys to schedule at once; the subkeys then are arrays of the same
        shape.  uint32 lanes are exact: the product is reduced mod 2**32.
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

    def encrypt(self, key: int, block: int) -> int:
        self._check_block(block)
        return self.encrypt_with_subkeys(self.subkeys(key), block)


class KeystreamGen:
    """Seeded Bernoulli bit source: each bit is 1 with probability `bias`.

    Bit i of the stream is 1 iff the i-th `random()` draw of
    `random.Random(seed)` is below `bias`.  Each draw is `k / 2**53` with
    `k = (w0 >> 5) << 26 | (w1 >> 6)` from two consecutive 32-bit Mersenne
    Twister words, so it is below `bias` exactly when it is below
    `ceil(bias * 2**53) / 2**53` (scaling by a power of two is exact):
    `draw_is_one`, the one rule for a draw.  `next_bits` draws in bulk:
    `getrandbits(64 * n)` consumes the same 2n words in the same order,
    least significant first, and the top byte of w0, the top byte of k,
    decides each bit but where it is the threshold's, where `next_bits`
    calls `draw_is_one` on the whole draw.  numpy's `Generator.random` on
    the same twister (`experiments._twister`) computes the same draws, so
    `experiments.keystream_bias_experiment` applies `draw_is_one` to them.
    The generator ends in the state n `random()` calls leave; the test
    suite pins both against a `random()` oracle.
    """

    def __init__(self, bias: float = 0.5, seed: int | str = 0):
        if not 0.0 <= bias <= 1.0:
            raise ValueError("bias must be in [0, 1]")
        self._rng = random.Random(seed)
        self._threshold = math.ceil(bias * 2**53)
        # top byte of k -> "1" (k is below the threshold), "0" (it is not)
        # or "?" (the threshold falls inside this byte: k itself decides)
        edge, low = divmod(self._threshold, 1 << 45)
        self._top_byte_bits = bytes(
            ord("1") if byte < edge else ord("?") if byte == edge and low else ord("0")
            for byte in range(256)
        )

    def draw_is_one(self, draw):
        """Whether a `random()` draw, a float or a float64 array of them,
        is a 1: exact, as the threshold is an integer no larger than 2**53."""
        return draw < self._threshold * 2**-53

    def twister_state(self) -> tuple[list[int], int]:
        """The key (624 words) and position of the stream's Mersenne Twister."""
        _, (*key, pos), _ = self._rng.getstate()
        return key, pos

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
            bits[tie] = ord("1") if self.draw_is_one(k / 2**53) else ord("0")
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

    def packed_state(self) -> int:
        return pack_state(self.state, self.word_bits)

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
