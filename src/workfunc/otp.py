"""One-time-pad distinguishing challenge.

Per trial the attacker submits two plaintexts in one encryption request;
the environment pads the shorter with zero bytes, picks one uniformly
with its seeded generator, XOR-encrypts it with fresh keystream bits and
returns the ciphertext.  The attacker then names the plaintext it thinks
was encrypted.  With a truly uniform pad no strategy beats coin flipping;
any keystream bias leaks through the XOR.  The distinguisher keeps no
record of the game: each turn it reads the engine's `ctx.reply` to its
own last move, which after an encryption request is the ciphertext.
"""

from __future__ import annotations

from typing import Optional

from .cost import Budget
from .game import (
    Actor,
    EmitMove,
    GameConfig,
    GameOutcome,
    Halt,
    MachineSpec,
    Move,
    MoveClass,
    frame,
    play,
    unframe,
)
from .toycrypto import KeystreamGen

DEFAULT_PLAINTEXT_BYTES = 32


def _xor(data: bytes, pad: bytes) -> bytes:
    """Bytewise XOR, truncated to the shorter input as zip() would."""
    n = min(len(data), len(pad))
    return (int.from_bytes(data[:n], "big") ^ int.from_bytes(pad[:n], "big")).to_bytes(n, "big")


class OtpEnvironment:
    """Answers two-plaintext encryption requests with one XOR ciphertext."""

    def __init__(self, keystream: KeystreamGen):
        self.keystream = keystream
        self._rng = None
        self._last_pick: Optional[int] = None

    def start(self, rng):
        self._rng = rng

    def respond(self, move: Move) -> Move:
        if move.kind is MoveClass.ENCRYPTION_REQUEST:
            return self._encrypt(move)
        if move.kind is MoveClass.CHALLENGE:
            return self._judge(move)
        return Move(Actor.ENVIRONMENT, MoveClass.DENIAL, b"unsupported request")

    def _encrypt(self, move: Move) -> Move:
        try:
            plaintexts = unframe(move.payload)
        except ValueError:
            return Move(Actor.ENVIRONMENT, MoveClass.DENIAL, b"malformed framing")
        if len(plaintexts) != 2:
            return Move(Actor.ENVIRONMENT, MoveClass.DENIAL, b"need exactly two plaintexts")
        if not plaintexts[0] or not plaintexts[1]:
            return Move(Actor.ENVIRONMENT, MoveClass.DENIAL, b"empty plaintext")
        length = max(len(plaintexts[0]), len(plaintexts[1]))
        pick = self._rng.getrandbits(1)
        pad = self.keystream.next_bytes(length)
        self._last_pick = pick
        plaintext = plaintexts[pick].ljust(length, b"\x00")
        return Move(Actor.ENVIRONMENT, MoveClass.RESPONSE, frame(_xor(plaintext, pad)))

    def _judge(self, move: Move) -> Move:
        if self._last_pick is None:
            return Move(Actor.ENVIRONMENT, MoveClass.DENIAL, b"nothing to challenge")
        try:
            guess = int(move.payload.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            return Move(Actor.ENVIRONMENT, MoveClass.DENIAL, b"malformed guess")
        verdict = b"\x01" if guess == self._last_pick else b"\x00"
        self._last_pick = None
        return Move(Actor.ENVIRONMENT, MoveClass.RESPONSE, verdict)


class OtpDistinguisher:
    """Two-plaintext monobit strategy.

    Submits an all-zero block and an alternating-bit block (0xAA), so the
    two candidate pads differ in exactly half their bits: XORing the
    ciphertext with the wrong plaintext yields a balanced residual while
    the right one exposes the raw keystream.  The residual with the larger
    monobit deviation is named (ties go to candidate 0).
    """

    def __init__(self, trials: int, plaintext_bytes: int = DEFAULT_PLAINTEXT_BYTES):
        if plaintext_bytes < 1:
            raise ValueError("plaintext_bytes must be at least 1")
        self.trials_wanted = trials
        self.plaintexts = (b"\x00" * plaintext_bytes, b"\xaa" * plaintext_bytes)
        self._request = frame(self.plaintexts[0]) + frame(self.plaintexts[1])
        self._candidates = tuple(int.from_bytes(p, "big") for p in self.plaintexts)
        self._nbits = 8 * plaintext_bytes
        self.spec = MachineSpec(b"monobit-distinguisher:" + str(plaintext_bytes).encode())
        self._sent = 0
        self._awaiting_ciphertext = False

    def step(self, ctx):
        if self._awaiting_ciphertext:
            reply = ctx.reply
            if reply is None or reply.kind is not MoveClass.RESPONSE:
                raise RuntimeError("ciphertext response missing")
            self._awaiting_ciphertext = False
            (ciphertext,) = unframe(reply.payload)
            guess = self._guess(ciphertext)
            return EmitMove(MoveClass.CHALLENGE, str(guess).encode())

        if self._sent >= self.trials_wanted:
            return Halt()
        self._sent += 1
        self._awaiting_ciphertext = True
        return EmitMove(MoveClass.ENCRYPTION_REQUEST, self._request)

    def _guess(self, ciphertext: bytes) -> int:
        """The ciphertext is as long as the plaintexts.  Each candidate's
        residual deviation is abs(2 * ones - bits), twice abs(ones - bits/2)
        and an integer, so equal deviations are exact ties."""
        c = int.from_bytes(ciphertext, "big")
        dev0, dev1 = (abs(2 * (c ^ p).bit_count() - self._nbits) for p in self._candidates)
        return 0 if dev0 >= dev1 else 1


def run_otp_challenge(
    keystream: KeystreamGen,
    trials: int,
    rng_seed: int = 0,
    plaintext_bytes: int = DEFAULT_PLAINTEXT_BYTES,
    budget: Optional[Budget] = None,
    win_threshold: float = 0.01,
    per_step_information: Optional[float] = None,
    entries=None,
) -> GameOutcome:
    """Play the full distinguishing game; the outcome carries successes.
    `entries` is the move sink `play` records into (a list by default)."""
    if budget is None:
        budget = Budget.fresh(1e15)
    config = GameConfig(
        budget=budget,
        rng_seed=rng_seed,
        challenge_trials=trials,
        win_threshold=win_threshold,
        per_step_information=per_step_information,
    )
    strategy = OtpDistinguisher(trials, plaintext_bytes)
    return play(strategy, OtpEnvironment(keystream), config, entries)
