import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from workfunc import experiments
from workfunc.experiments import CHECKER_OPS, brute_force_search, scan_order, state_search
from workfunc.toycrypto import (
    MAX_KEY_BITS,
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

KAT_PATH = Path(__file__).parent / "data" / "toy_cipher_kat.txt"


def test_rotl_basics():
    assert rotl(0b10000000, 1, 8) == 1
    assert rotl(0x1234, 0, 16) == 0x1234
    assert rotl(0x1234, 16, 16) == 0x1234
    assert rotl(1, 3, 8) == 8


@given(x=st.integers(min_value=0, max_value=0xFFFF), r=st.integers(min_value=0, max_value=32))
def test_rotl_inverse(x, r):
    assert rotl(rotl(x, r, 16), 16 - (r % 16), 16) == x


def kat_vectors():
    """(key_bits, key, block, cipher) per line of `k key_hex block_hex cipher_hex`."""
    for line in KAT_PATH.read_text().splitlines():
        if line and not line.startswith("#"):
            key_bits, key, block, cipher = line.split()
            yield int(key_bits), int(key, 16), int(block, 16), int(cipher, 16)


def test_known_answer_vectors():
    vectors = list(kat_vectors())
    assert len(vectors) == 17
    for key_bits, key, block, cipher in vectors:
        tc = ToyCipher(key_bits)
        assert tc.encrypt(key, block) == cipher


def test_cipher_validation():
    with pytest.raises(ValueError):
        ToyCipher(0)
    with pytest.raises(ValueError):
        ToyCipher(MAX_KEY_BITS + 1)
    with pytest.raises(ValueError):
        ToyCipher(8, block_bits=24)
    tc = ToyCipher(8)
    with pytest.raises(ValueError):
        tc.encrypt(256, 0)
    with pytest.raises(ValueError):
        tc.encrypt(1, 1 << 32)


def test_small_block_mode_is_bijective():
    import random

    rng = random.Random(2024)
    tc = ToyCipher(20, block_bits=16)
    for _ in range(10):
        sk = tc.subkeys(rng.randrange(1 << 20))
        images = {tc.encrypt_with_subkeys(sk, b) for b in range(1 << 16)}
        assert len(images) == 1 << 16


def test_schedule_separates_keys_sharing_low_bits():
    # regression: before the xor fold, keys equal mod 2**16 collided
    tc = ToyCipher(20)
    for x in (0x00000, 0x00001, 0x05A5A, 0x0FFFF):
        assert tc.subkeys(x) != tc.subkeys(x | 1 << 16)
        assert tc.subkeys(x) != tc.subkeys(x | 1 << 19)


def test_keystream_bias_extremes_and_determinism():
    ones = KeystreamGen(1.0, seed=7)
    assert ones.next_bits(16) == 0xFFFF
    zeros = KeystreamGen(0.0, seed=7)
    assert zeros.next_bytes(3) == b"\x00\x00\x00"
    a = KeystreamGen(0.6, seed="same")
    b = KeystreamGen(0.6, seed="same")
    assert a.next_bytes(32) == b.next_bytes(32)
    with pytest.raises(ValueError):
        KeystreamGen(1.5)


def test_keystream_bytes_match_bits():
    a = KeystreamGen(0.3, seed=5)
    b = KeystreamGen(0.3, seed=5)
    assert a.next_bytes(4) == b.next_bits(32).to_bytes(4, "big")


def test_keystream_bits_match_random_oracle():
    """Bit i is 1 iff the i-th random() draw is below the bias, and the
    generator ends where those draws leave it."""
    biases = (0.0, 2**-60, 1 / 3, 0.5, 0.5 + 2**-53, 0.6, 1 - 2**-53, 1.0)
    for seed in (0, "oracle"):
        for bias in biases:
            gen = KeystreamGen(bias, seed)
            oracle = random.Random(seed)
            for n in (0, 1, 7, 64, 256, 1000, 4096):
                expected = 0
                for _ in range(n):
                    expected = expected << 1 | (oracle.random() < bias)
                assert gen.next_bits(n) == expected, (seed, bias, n)
                assert gen._rng.getstate() == oracle.getstate(), (seed, bias, n)


def test_draw_is_one_on_ints_matches_the_random_oracle():
    """`draw_is_one` on two twister words is `random() < bias` on the draw
    `random()` makes of the same two words."""
    biases = (0.0, 2**-60, 1 / 3, 0.5, 0.5 + 2**-53, 0.6, 1 - 2**-53, 1.0)
    for seed in (0, "oracle"):
        for bias in biases:
            stream, words, oracle = KeystreamGen(bias), random.Random(seed), random.Random(seed)
            for _ in range(2000):
                w0, w1 = words.getrandbits(32), words.getrandbits(32)
                assert stream.draw_is_one(w0, w1) == (oracle.random() < bias), (seed, bias)


def test_keystream_oracle_reaches_the_undecided_top_byte():
    """At bias 0.6 the threshold ceil(bias * 2**53) has nonzero low 45 bits,
    so draws whose top byte equals its top byte are settled on the full
    53-bit draw; the oracle comparison must cover such draws."""
    bias = 0.6
    threshold = math.ceil(bias * 2**53)
    assert threshold % 2**45 != 0
    oracle = random.Random("tie")
    draws = [oracle.random() for _ in range(100_000)]
    assert any(int(d * 2**53) >> 45 == threshold >> 45 for d in draws)
    expected = int("".join("1" if d < bias else "0" for d in draws), 2)
    assert KeystreamGen(bias, "tie").next_bits(100_000) == expected


def test_prng_golden_vector():
    prng = StandInPrng.from_seed(8, "vector")
    assert prng.state == (113, 143, 57, 33)
    assert prng.packed_state() == 1905211681
    assert prng.next_words(12) == [235, 66, 223, 129, 47, 105, 22, 243, 153, 159, 122, 5]


def test_prng_step_matches_documented_recurrence():
    prng = StandInPrng(8, (7, 158, 21, 0))
    a, b, c, d = prng.state
    a2 = (a + rotl(b, 1, 8)) % 256
    b2 = b ^ rotl(c, 2, 8)
    c2 = ((c + d) % 256) ^ 1
    d2 = rotl(d ^ a, 3, 8)
    assert prng.next_word() == (a2 + c2) % 256
    assert prng.state == (a2, b2, c2, d2)


def test_prng_validation():
    with pytest.raises(ValueError):
        StandInPrng(0, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        StandInPrng(MAX_WORD_BITS + 1, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        StandInPrng(8, (0, 0, 256, 0))
    with pytest.raises(ValueError):
        StandInPrng(8, (0, 0, 0))


def test_clone_is_independent():
    prng = StandInPrng.from_seed(8, 1)
    twin = StandInPrng(8, prng.state)
    original_state = prng.state
    prng.next_words(5)
    assert twin.state == original_state
    assert unpack_state(twin.packed_state(), 8) == original_state


@given(word_bits=st.integers(min_value=1, max_value=16), data=st.data())
def test_pack_unpack_roundtrip(word_bits, data):
    words = st.integers(min_value=0, max_value=(1 << word_bits) - 1)
    state = tuple(data.draw(words) for _ in range(4))
    assert unpack_state(pack_state(state, word_bits), word_bits) == state


def test_reduction_sizes():
    assert reduction_unknown_bits(8) == 12
    assert reduction_unknown_bits(9) == 14
    truth = StandInPrng.from_seed(8, "vector").packed_state()
    assert reduction_hint(truth, 8) == truth >> 12


def test_state_search_recovers_truth():
    truth = StandInPrng.from_seed(8, "vector")
    observed = StandInPrng(8, truth.state).next_words(16)
    result = state_search(8, observed, reduction_hint(truth.packed_state(), 8), rng_seed=1)
    assert result.state_packed == truth.packed_state()
    assert 1 <= result.candidates_tested <= 1 << 12
    assert result.cost == 16.0 * result.candidates_tested


def test_state_search_cost_scales_with_checker_ops(monkeypatch):
    truth = StandInPrng.from_seed(8, 9)
    observed = StandInPrng(8, truth.state).next_words(16)
    hint = reduction_hint(truth.packed_state(), 8)
    base = state_search(8, observed, hint, rng_seed=4)
    monkeypatch.setattr(experiments, "CHECKER_OPS", 32)
    priced = state_search(8, observed, hint, rng_seed=4)
    assert priced.candidates_tested == base.candidates_tested
    assert priced.cost == 2.0 * base.cost


def test_state_search_wrong_hint_fails():
    truth = StandInPrng.from_seed(8, "vector")
    observed = StandInPrng(8, truth.state).next_words(16)
    wrong = (reduction_hint(truth.packed_state(), 8) + 1) % (1 << 20)
    with pytest.raises(LookupError):
        state_search(8, observed, wrong, rng_seed=1)


def test_state_search_refuses_inputs_it_cannot_use():
    truth = StandInPrng.from_seed(8, "vector")
    observed = StandInPrng(8, truth.state).next_words(16)
    hint = reduction_hint(truth.packed_state(), 8)
    assert state_search(8, observed, hint).state_packed == truth.packed_state()
    # the hint holds the 4w - ceil(1.5w) = 20 high bits; more would be dropped
    for bad_hint in (-1, 1 << 20, hint | 1 << 20):
        with pytest.raises(ValueError, match="hint_high_bits"):
            state_search(8, observed, bad_hint)
    for word_bits in (0, MAX_WORD_BITS + 1):
        with pytest.raises(ValueError, match="word_bits"):
            state_search(word_bits, [0], 0)
    # an empty window, and a word no w-bit generator emits
    for window in ([], [*observed[:3], 256], [-1]):
        with pytest.raises(ValueError, match="observed"):
            state_search(8, window, hint)


def test_brute_force_search_ledger_and_recovery():
    tc = ToyCipher(12)
    planted = 0x5A5
    pairs = [(p, tc.encrypt(planted, p)) for p in (0x00000000, 0x00000001)]
    result = brute_force_search(tc, pairs, per_key_cost=1440.0, rng_seed=5)
    assert result.key == planted
    assert result.cost == 1440.0 * result.keys_tested


def test_key_search_cost_is_the_count_times_the_charge_at_k_20():
    tc = ToyCipher(20)
    pairs = [(p, tc.encrypt(0x5A5A5, p)) for p in (0x00000000, 0x00000001)]
    result = brute_force_search(tc, pairs, per_key_cost=2400.0, rng_seed=1)
    assert result.key == 0x5A5A5
    assert result.keys_tested > 100_000
    assert result.cost == result.keys_tested * 2400.0
    charges = 0.0  # the reference: one addition per candidate, in Python
    for _ in range(result.keys_tested):
        charges += 2400.0
    assert result.cost == charges


def test_brute_force_search_without_a_consistent_key_fails():
    tc = ToyCipher(12)
    # one plaintext cannot encrypt to two ciphertexts under one key
    with pytest.raises(LookupError):
        brute_force_search(tc, [(0, 1), (0, 2)], per_key_cost=1.0)


def test_brute_force_search_refuses_inputs_it_cannot_use():
    tc = ToyCipher(12)
    pairs = [(p, tc.encrypt(0x0C3, p)) for p in (0x00000000, 0x00000001)]
    # no pairs, and a plaintext or ciphertext that is no 32-bit block
    for bad_pairs in ([], [(-1, 0)], [(0, 1 << 32), *pairs]):
        with pytest.raises(ValueError, match="pairs"):
            brute_force_search(tc, bad_pairs, per_key_cost=1.0)
    # a charge that is no non-negative number would make the cost meaningless
    for bad_cost in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValueError, match="per_key_cost"):
            brute_force_search(tc, pairs, per_key_cost=bad_cost)
    assert brute_force_search(tc, pairs, per_key_cost=0.0).cost == 0.0


def test_brute_force_search_identifies_exactly():
    rng = random.Random(77)
    tc = ToyCipher(12)
    for trial in range(50):
        planted = rng.randrange(1 << 12)
        pairs = [(p, tc.encrypt(planted, p)) for p in (0x00000000, 0x00000001)]
        found = brute_force_search(tc, pairs, per_key_cost=1.0, rng_seed=trial)
        assert found.key == planted


def _scan_order_ints(bits, rng_seed):
    """`scan_order` one candidate at a time, as Python ints."""
    for chunk in scan_order(bits, rng_seed):
        yield from chunk.tolist()


def _scalar_key_search(cipher, pairs, per_key_cost, rng_seed):
    """The key search one candidate at a time, with the scalar cipher."""
    cost = 0.0
    for tested, key in enumerate(_scan_order_ints(cipher.key_bits, rng_seed), 1):
        cost += per_key_cost
        if all(cipher.encrypt(key, p) == c for p, c in pairs):
            return key, tested, cost
    raise LookupError


def _scalar_state_search(word_bits, observed, hint, rng_seed):
    """The state search one candidate at a time, stepping `arx_step` on ints."""
    unknown = reduction_unknown_bits(word_bits)
    cost = 0.0
    for tested, low in enumerate(_scan_order_ints(unknown, rng_seed), 1):
        cost += CHECKER_OPS
        packed = (hint << unknown) | low
        state = unpack_state(packed, word_bits)
        for word in observed:
            state, output = arx_step(state, word_bits)
            if output != word:
                break
        else:
            return packed, tested, cost
    raise LookupError


def test_array_searches_match_the_scalar_oracle():
    wide, narrow = ToyCipher(12), ToyCipher(10, block_bits=16)
    for rng_seed in range(50):
        rng = random.Random(f"oracle:{rng_seed}")
        secret = rng.randrange(1 << 12)
        pairs = [(p, wide.encrypt(secret, p)) for p in (rng.randrange(1 << 32), 1)]
        found = brute_force_search(wide, pairs, 1440.0, rng_seed=rng_seed)
        oracle = _scalar_key_search(wide, pairs, 1440.0, rng_seed)
        assert (found.key, found.keys_tested, found.cost) == oracle
        # on a 16-bit block one known pair cannot tell the secret from a key
        # with the same ciphertext, so the first of the two in scan order wins
        block = rng.randrange(1 << 16)
        outputs = [narrow.encrypt(key, block) for key in range(1 << 10)]
        seen = Counter(outputs)
        secret = rng.choice([key for key, out in enumerate(outputs) if seen[out] > 1])
        pairs = [(block, outputs[secret])]
        found = brute_force_search(narrow, pairs, 0.1, rng_seed=rng_seed)
        oracle = _scalar_key_search(narrow, pairs, 0.1, rng_seed)
        assert (found.key, found.keys_tested, found.cost) == oracle
        # a two-word window at w = 5, and w = 3, leave several consistent states
        for word_bits, window in ((8, 16), (5, 2), (3, 16)):
            prng = StandInPrng.from_seed(word_bits, f"oracle:{rng_seed}")
            hint = reduction_hint(prng.packed_state(), word_bits)
            observed = prng.next_words(window)
            found = state_search(word_bits, observed, hint, rng_seed=rng_seed)
            oracle = _scalar_state_search(word_bits, observed, hint, rng_seed)
            assert (found.state_packed, found.candidates_tested, found.cost) == oracle
