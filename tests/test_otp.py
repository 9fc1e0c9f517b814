import copy
import random
from fractions import Fraction

import pytest

from workfunc.game import (
    GameResult,
    MachineContext,
    Move,
    MoveClass,
    export_transcript,
    frame,
    unframe,
)
from workfunc.otp import (
    OtpDistinguisher,
    OtpEnvironment,
    run_otp_challenge,
)
from workfunc.toycrypto import KeystreamGen


def started_env(bias=0.0, seed=0):
    env = OtpEnvironment(KeystreamGen(bias, seed="env-test"))
    env.start(random.Random(seed))
    return env


def encryption_request(*plaintexts):
    payload = b"".join(frame(p) for p in plaintexts)
    return Move(MoveClass.ENCRYPTION_REQUEST, payload)


def xor(data, pad):
    return bytes(a ^ b for a, b in zip(data, pad, strict=True))


def test_ciphertext_is_padded_plaintext_xor_keystream():
    # a same-seeded keystream and pick generator replay the environment's
    # draws; each request is sent twice, the second time answered from the
    # parsed-request cache
    env = OtpEnvironment(KeystreamGen(0.6, seed="xor"))
    env.start(random.Random(7))
    keystream, picks = KeystreamGen(0.6, seed="xor"), random.Random(7)
    data = random.Random(8)
    for n in range(1, 71):
        plaintexts = (data.randbytes(n), data.randbytes(71 - n))  # never equal lengths
        request = encryption_request(*plaintexts)
        for _ in range(2):
            reply = env.respond(request)
            assert reply.kind is MoveClass.RESPONSE
            (ciphertext,) = unframe(reply.payload)
            pick = picks.getrandbits(1)
            plaintext = plaintexts[pick].ljust(max(n, 71 - n), b"\x00")
            assert ciphertext == xor(plaintext, keystream.next_bytes(len(plaintext)))
            assert env.respond(Move(MoveClass.CHALLENGE, str(pick).encode())).payload == b"\x01"
    assert env.keystream._rng.getstate() == keystream._rng.getstate()


def test_request_cache_answers_as_a_fresh_environment():
    # A, B and the malformed request all have 16-byte payloads, and A and B
    # differ in ciphertext length: a cache keyed on length serves a stale parse
    a = encryption_request(b"\x01\x02", b"\xaa" * 6)
    malformed = Move(MoveClass.ENCRYPTION_REQUEST, b"\x00\x00\x00\x09" + b"\x00" * 12)
    b = encryption_request(b"\x03" * 4, b"\x55" * 4)
    assert len({len(m.payload) for m in (a, malformed, b)}) == 1
    env = started_env(bias=0.6)
    for request in (a, malformed, b, a):
        fresh = OtpEnvironment(copy.deepcopy(env.keystream))
        fresh.start(copy.deepcopy(env._rng))
        assert env.respond(request) == fresh.respond(request)
        assert env.keystream._rng.getstate() == fresh.keystream._rng.getstate()
        assert env._rng.getstate() == fresh._rng.getstate()


def test_environment_denial_payloads():
    env = started_env()
    bad_frame = Move(MoveClass.ENCRYPTION_REQUEST, b"\x00\x00\x00\x05ab")
    assert env.respond(bad_frame).payload == b"malformed framing"
    assert env.respond(encryption_request(b"a")).payload == b"need exactly two plaintexts"
    assert env.respond(encryption_request(b"", b"x")).payload == b"empty plaintext"
    early = Move(MoveClass.CHALLENGE, b"0")
    assert env.respond(early).payload == b"nothing to challenge"
    info = Move(MoveClass.INFO_REQUEST, b"hello?")
    assert env.respond(info).payload == b"unsupported request"
    for denial in (bad_frame, early, info):
        assert env.respond(denial if denial is not early else early).kind is MoveClass.DENIAL


def test_environment_pads_shorter_plaintext():
    env = started_env(bias=0.0)  # zero keystream: ciphertext equals the pick
    reply = env.respond(encryption_request(b"\x01", b"\xaa\xaa\xaa"))
    assert reply.kind is MoveClass.RESPONSE
    (ciphertext,) = unframe(reply.payload)
    assert ciphertext in (b"\x01\x00\x00", b"\xaa\xaa\xaa")


def test_judge_verdicts_and_one_shot_pick():
    env = started_env(bias=0.0)
    reply = env.respond(encryption_request(b"\x00\x00", b"\xaa\xaa"))
    (ciphertext,) = unframe(reply.payload)
    pick = 0 if ciphertext == b"\x00\x00" else 1
    garbled = env.respond(Move(MoveClass.CHALLENGE, b"\xff"))
    assert garbled.payload == b"malformed guess"
    verdict = env.respond(Move(MoveClass.CHALLENGE, str(pick).encode()))
    assert verdict.payload == b"\x01"
    again = env.respond(Move(MoveClass.CHALLENGE, str(pick).encode()))
    assert again.payload == b"nothing to challenge"


def test_wrong_guess_fails():
    env = started_env(bias=0.0)
    reply = env.respond(encryption_request(b"\x00\x00", b"\xaa\xaa"))
    (ciphertext,) = unframe(reply.payload)
    wrong = 1 if ciphertext == b"\x00\x00" else 0
    verdict = env.respond(Move(MoveClass.CHALLENGE, str(wrong).encode()))
    assert verdict.payload == b"\x00"


def test_distinguisher_validation_and_spec_price():
    with pytest.raises(ValueError):
        OtpDistinguisher(10, plaintext_bytes=0)
    assert OtpDistinguisher(10).information == 24


def test_monobit_deviation():
    # the guess names the candidate whose residual (ciphertext XOR plaintext)
    # has the larger deviation of its ones fraction from 1/2, ties to candidate 0
    def guess(ciphertext):
        return OtpDistinguisher(1, plaintext_bytes=len(ciphertext))._guess(ciphertext)

    assert guess(b"\x00") == 0  # residual deviations 1/2 and 0
    assert guess(b"\xaa") == 1  # 0 and 1/2
    assert guess(b"\x55\x55") == 1  # 0 and 1/2
    assert guess(b"\xc0") == 0  # 1/4 and 0
    assert guess(b"\x6a") == 1  # 0 and 1/4

    def deviation(data):
        ones = int.from_bytes(data, "big").bit_count()
        return abs(Fraction(ones, 8 * len(data)) - Fraction(1, 2))

    rng = random.Random(5)
    cases = [bytes([b]) for b in range(256)]
    cases += [rng.randbytes(n) for n in (2, 3, 5, 7, 33) for _ in range(400)]
    for c in cases:
        d0, d1 = (deviation(xor(c, p)) for p in (b"\x00" * len(c), b"\xaa" * len(c)))
        assert guess(c) == (0 if d0 >= d1 else 1), c.hex()


def test_exact_monobit_tie_goes_to_candidate_zero():
    # residual popcounts 13 and 27 of 40 bits: deviations 7 and 7 from 20
    assert OtpDistinguisher(1, plaintext_bytes=5)._guess(bytes.fromhex("7401334051")) == 0


def test_distinguisher_needs_a_ciphertext_reply():
    for reply in (None, Move(MoveClass.DENIAL, b"no")):
        strategy = OtpDistinguisher(1)
        ctx = MachineContext()
        assert strategy.step(ctx).kind is MoveClass.ENCRYPTION_REQUEST
        ctx.reply = reply
        with pytest.raises(RuntimeError, match="ciphertext response missing"):
            strategy.step(ctx)


@pytest.mark.parametrize(
    "payload", [b"", b"\x00\x00", frame(b"\x00" * 31), frame(b"\x00" * 33), frame(b"\x00" * 32) + b"x"]
)
def test_distinguisher_needs_one_framed_ciphertext_block(payload):
    strategy = OtpDistinguisher(1)
    ctx = MachineContext()
    strategy.step(ctx)
    ctx.reply = Move(MoveClass.RESPONSE, payload)
    with pytest.raises(RuntimeError, match="ciphertext response malformed"):
        strategy.step(ctx)


def test_uniform_pad_resists_distinguishing():
    outcome = run_otp_challenge(KeystreamGen(0.5, seed="rate"), trials=2000, rng_seed=99)
    assert outcome.trials == 2000
    assert outcome.successes == 1050  # 52.5%, inside the chance band
    assert outcome.result is GameResult.LOST_CHALLENGE_FAILED


def test_biased_pad_is_distinguished():
    outcome = run_otp_challenge(KeystreamGen(0.6, seed="rate"), trials=2000, rng_seed=99)
    assert outcome.successes == 1945
    assert outcome.result is GameResult.WON
    assert outcome.p_value < 1e-100


def test_constant_pad_never_misses():
    outcome = run_otp_challenge(KeystreamGen(1.0, seed="rate"), trials=2000, rng_seed=99)
    assert outcome.successes == 2000
    assert outcome.result is GameResult.WON


def test_fifty_trial_cost_ledger():
    outcome = run_otp_challenge(KeystreamGen(1.0, seed=0), trials=50, rng_seed=1)
    # 50 encryption steps + 50 challenge steps, each priced at the 24-byte spec
    assert outcome.total_cost == 2400.0
    assert outcome.transcript.charges_total == 2400.0
    assert outcome.budget_remaining == 1e15 - 2400.0
    assert outcome.successes == 50
    assert outcome.p_value == pytest.approx(2.0**-50)
    assert outcome.result is GameResult.WON


def test_short_game_wins_at_two_hundred_trials():
    outcome = run_otp_challenge(KeystreamGen(1.0, seed=3), trials=200, rng_seed=5)
    assert outcome.trials == 200
    assert outcome.successes == 200
    assert outcome.result is GameResult.WON


def test_transcripts_are_seed_deterministic():
    def run(seed):
        outcome = run_otp_challenge(KeystreamGen(0.6, seed="det"), trials=20, rng_seed=seed)
        return export_transcript(outcome)

    assert run(4) == run(4)
    assert run(4) != run(5)


def test_flat_step_price_override():
    outcome = run_otp_challenge(
        KeystreamGen(1.0, seed=0), trials=10, rng_seed=1, per_step_information=2.0
    )
    assert outcome.total_cost == 40.0


def test_small_plaintexts_still_distinguish_constant_pad():
    outcome = run_otp_challenge(
        KeystreamGen(1.0, seed=8), trials=60, rng_seed=2, plaintext_bytes=1
    )
    assert outcome.successes == 60
    assert outcome.result is GameResult.WON


def test_budget_depletion_mid_game():
    outcome = run_otp_challenge(
        KeystreamGen(1.0, seed=0), trials=50, rng_seed=1, budget=100.0
    )
    assert outcome.result is GameResult.LOST_BUDGET_DEPLETED
    assert outcome.budget_remaining == 0.0
    assert outcome.total_cost == 100.0
