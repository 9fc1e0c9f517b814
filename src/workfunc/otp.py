"""One-time-pad distinguishing challenge.

Per trial the attacker submits two plaintexts in one encryption request;
the environment pads the shorter with zero bytes, picks one uniformly
with its seeded generator, XOR-encrypts it with fresh keystream bits and
returns the ciphertext.  The attacker then names the plaintext it thinks
was encrypted.  With a truly uniform pad no strategy beats coin flipping;
any keystream bias leaks through the XOR.  The distinguisher keeps no
record of the game: each turn it reads the engine's `ctx.reply` to its
own last move, which after an encryption request is the ciphertext.
Moves that do not change from trial to trial are built once.
"""

from __future__ import annotations

from typing import Optional

from .game import DEFAULT_WIN_THRESHOLD, HALT, GameConfig, GameOutcome, Move, MoveClass
from .game import frame, frame_prefix, play, unframe
from .toycrypto import KeystreamGen

DEFAULT_PLAINTEXT_BYTES = 32

# looked up once, as in `game.play`: enum member lookups are slow on 3.11
_REQUEST, _CHALLENGE = MoveClass.ENCRYPTION_REQUEST, MoveClass.CHALLENGE
_RESPONSE = MoveClass.RESPONSE
_VERDICTS = (Move(_RESPONSE, b"\x00"), Move(_RESPONSE, b"\x01"))  # indexed by "guess is right"


class OtpEnvironment:
    """Answers two-plaintext encryption requests with one XOR ciphertext.

    A request equal to the last well-formed one reuses its parse: the
    ciphertext length, its frame prefix and both zero-padded plaintexts
    as ints.  `respond` answers a request or a challenge itself, without
    a further method call."""

    def __init__(self, keystream: KeystreamGen):
        self.keystream = keystream
        self._rng = None
        self._last_pick: Optional[int] = None
        self._request: Optional[bytes] = None
        self._parsed: Optional[tuple[int, bytes, tuple[int, int]]] = None

    def start(self, rng):
        self._rng = rng

    def respond(self, move: Move) -> Move:
        kind = move.kind
        if kind is _REQUEST:
            if move.payload != self._request:
                denial = self._parse(move.payload)
                if denial is not None:
                    return denial
            length, prefix, padded = self._parsed
            pick = self._last_pick = self._rng.getrandbits(1)
            pad = self.keystream.next_bits(8 * length)
            return Move(_RESPONSE, prefix + (padded[pick] ^ pad).to_bytes(length, "big"))
        if kind is not _CHALLENGE:
            return Move(MoveClass.DENIAL, b"unsupported request")
        if self._last_pick is None:
            return Move(MoveClass.DENIAL, b"nothing to challenge")
        try:
            guess = int(move.payload)
        except ValueError:
            return Move(MoveClass.DENIAL, b"malformed guess")
        verdict = _VERDICTS[guess == self._last_pick]
        self._last_pick = None
        return verdict

    def _parse(self, payload: bytes) -> Optional[Move]:
        """Keep a well-formed request and its parse; a denial otherwise."""
        try:
            plaintexts = unframe(payload)
        except ValueError:
            return Move(MoveClass.DENIAL, b"malformed framing")
        if len(plaintexts) != 2:
            return Move(MoveClass.DENIAL, b"need exactly two plaintexts")
        if not plaintexts[0] or not plaintexts[1]:
            return Move(MoveClass.DENIAL, b"empty plaintext")
        length = max(len(plaintexts[0]), len(plaintexts[1]))
        padded = tuple(int.from_bytes(p.ljust(length, b"\x00"), "big") for p in plaintexts)
        self._request, self._parsed = payload, (length, frame_prefix(length), padded)
        return None


class OtpDistinguisher:
    """Two-plaintext monobit strategy.

    Submits an all-zero block and an alternating-bit block (0xAA), so the
    two candidate pads differ in exactly half their bits: XORing the
    ciphertext with the wrong plaintext yields a balanced residual while
    the right one exposes the raw keystream.  The residual with the larger
    monobit deviation is named (ties go to candidate 0).  Its `information`
    defaults to its description's length, 24 bytes for 32-byte plaintexts.
    """

    def __init__(self, trials: int, plaintext_bytes: int = DEFAULT_PLAINTEXT_BYTES,
                 information: Optional[float] = None):
        if plaintext_bytes < 1:
            raise ValueError("plaintext_bytes must be at least 1")
        self.trials_wanted = trials
        self.plaintexts = (b"\x00" * plaintext_bytes, b"\xaa" * plaintext_bytes)
        self._request = Move(_REQUEST, frame(self.plaintexts[0]) + frame(self.plaintexts[1]))
        self._challenges = (Move(_CHALLENGE, b"0"), Move(_CHALLENGE, b"1"))
        self._candidates = tuple(int.from_bytes(p, "big") for p in self.plaintexts)
        self._nbits = 8 * plaintext_bytes
        self._ciphertext_prefix = frame_prefix(plaintext_bytes)
        self._framed_len = len(self._ciphertext_prefix) + plaintext_bytes
        self.information = len(f"monobit-distinguisher:{plaintext_bytes}") if information is None else information
        self._sent = 0
        self._awaiting_ciphertext = False

    def step(self, ctx):
        if self._awaiting_ciphertext:
            reply = ctx.reply
            if reply is None or reply.kind is not _RESPONSE:
                raise RuntimeError("ciphertext response missing")
            self._awaiting_ciphertext = False
            framed, prefix = reply.payload, self._ciphertext_prefix
            if len(framed) != self._framed_len or not framed.startswith(prefix):
                raise RuntimeError("ciphertext response malformed")
            return self._challenges[self._guess(framed[len(prefix):])]

        if self._sent >= self.trials_wanted:
            return HALT
        self._sent += 1
        self._awaiting_ciphertext = True
        return self._request

    def _guess(self, ciphertext: bytes) -> int:
        """The ciphertext is as long as the plaintexts.  Each candidate's
        residual deviation is abs(2 * ones - bits), twice abs(ones - bits/2)
        and an integer, so equal deviations are exact ties."""
        c = int.from_bytes(ciphertext, "big")
        zeros, alternating = self._candidates
        nbits = self._nbits
        dev0 = abs(2 * (c ^ zeros).bit_count() - nbits)
        dev1 = abs(2 * (c ^ alternating).bit_count() - nbits)
        return 0 if dev0 >= dev1 else 1


def run_otp_challenge(
    keystream: KeystreamGen,
    trials: int,
    rng_seed: int = 0,
    plaintext_bytes: int = DEFAULT_PLAINTEXT_BYTES,
    budget: float = 1e15,
    win_threshold: float = DEFAULT_WIN_THRESHOLD,
    per_step_information: Optional[float] = None,
    entries=None,
) -> GameOutcome:
    """Play the full distinguishing game from the float `budget`, each step
    charged at `per_step_information` bytes, by default the distinguisher's
    description length (`game.play`); the outcome carries successes.
    `entries` is the move sink `play` records into (a list by default)."""
    if per_step_information is not None and not per_step_information >= 0:
        raise ValueError("per_step_information must be non-negative")
    config = GameConfig(budget=budget, rng_seed=rng_seed, challenge_trials=trials, win_threshold=win_threshold)
    strategy = OtpDistinguisher(trials, plaintext_bytes, per_step_information)
    return play(strategy, OtpEnvironment(keystream), config, entries)
