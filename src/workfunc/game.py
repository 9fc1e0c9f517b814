"""Turn-based attacker-vs-environment game with budget charging.

A step that keeps I bytes of machinery busy costs I bytes, and a run
costs the plain sum of its step costs, charged to one float budget
(`play`).

The attacker is one machine: a strategy whose `step(ctx)` returns one
action per turn, an attacker `Move`, a `LocalStep` or `HALT`, and whose
`information` is its size in bytes (8 when it states none).  A fleet is
one machine whose information is the fleet's, so N devices that each
test a key per step are one machine of N times the bytes that tests N
keys per `LocalStep`, charged what the N devices are.  A move is its
class and payload; the class fixes its player (`PLAYER`).  `ctx` offers
`reply`, the answer to the strategy's last move (None before its first
move), and `work_tape`, private scratch space whose length is priced
into every step.  Every attacker move gets exactly one reply, from the
engine or the environment.  The transcript is the one record of the
moves, in order: a list, or a `TranscriptWriter` that writes the lines
of each block of `RECORD_BLOCK` moves, the most the engine holds, so a
game's memory does not grow with its trials and a killed game leaves
its moves up to the last block.  Challenge moves are adjudicated at the
end with a one-sided exact binomial test against chance 1/2.

Engine-side conventions, fixed for transcript stability:
  * payloads travel length-prefixed (4-byte big-endian length),
  * the engine itself answers budget queries (InfoRequest b"budget?")
    and structural requests: `HALT` (StructuralRequest b"halt") ends the
    game with the reply b"ok", and any other structural request gets a
    Denial; everything else goes to the environment object,
  * a Response to a Challenge counts as a success iff its payload starts
    with byte 0x01.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from typing import NamedTuple, Optional

BUDGET_QUERY = b"budget?"
BUDGET_LIMIT = 2**53  # budgets lie below it, where a whole-byte charge registers exactly
DEFAULT_WIN_THRESHOLD = 0.01  # the level a game's challenge trials must reject chance at
RECORD_BLOCK = 256  # moves per `extend` call of `play`; even, as a step records two


class Actor(Enum):
    ATTACKER = "Attacker"
    ENVIRONMENT = "Environment"


class MoveClass(Enum):
    INFO_REQUEST = "InfoRequest"
    STRUCTURAL_REQUEST = "StructuralRequest"
    ENCRYPTION_REQUEST = "EncryptionRequest"
    CHALLENGE = "Challenge"
    RESPONSE = "Response"
    DENIAL = "Denial"
    # hash by identity, as members compare: the dict lookups of the move
    # loop and the export then stay in C (Enum's own __hash__ is Python)
    __hash__ = object.__hash__


# the player of each move class: the attacker asks, the environment answers
PLAYER = {
    kind: Actor.ENVIRONMENT if kind in (MoveClass.RESPONSE, MoveClass.DENIAL) else Actor.ATTACKER
    for kind in MoveClass
}
# the start of a move's transcript line after its index: player and class
_LINE_HEADS = {kind: f"{PLAYER[kind].value} {kind.value}" for kind in MoveClass}


class ProtocolFault(RuntimeError):
    """A rule violation, distinct from losing: the game is void.

    Every move up to the fault is in the entries `play` was given (with a
    `TranscriptWriter`, written) before the fault leaves `play`.
    """


def frame_prefix(length: int) -> bytes:
    """The 4-byte big-endian prefix that `frame` puts before `length` bytes."""
    return length.to_bytes(4, "big")


def frame(data: bytes) -> bytes:
    """Self-delimit a byte string with its `frame_prefix`."""
    return frame_prefix(len(data)) + data


def unframe(buffer: bytes) -> list[bytes]:
    """Split a concatenation of framed strings; reject malformed framing."""
    parts = []
    pos = 0
    while pos < len(buffer):
        if pos + 4 > len(buffer):
            raise ValueError("truncated length prefix")
        length = int.from_bytes(buffer[pos : pos + 4], "big")
        pos += 4
        if pos + length > len(buffer):
            raise ValueError("length prefix exceeds payload")
        parts.append(buffer[pos : pos + length])
        pos += length
    return parts


class Move(NamedTuple):
    """One move of either player; its class fixes which (`PLAYER`)."""

    kind: MoveClass
    payload: bytes = b""


# the move that ends the game, and the engine's answers to structural requests
HALT = Move(MoveClass.STRUCTURAL_REQUEST, b"halt")
_HALT_REPLY = Move(MoveClass.RESPONSE, b"ok")
_UNSUPPORTED = Move(MoveClass.DENIAL, b"unsupported structural request")


class LocalStep:
    """The action of a step of local work, which plays no move."""


class GameConfig:
    __slots__ = ("budget", "rng_seed", "challenge_trials", "win_threshold")

    def __init__(self, budget: float, rng_seed: int = 0, challenge_trials: int = 0,
                 win_threshold: float = DEFAULT_WIN_THRESHOLD):
        if not budget >= 0:
            raise ValueError("budget must be non-negative")
        if not budget < BUDGET_LIMIT:
            raise ValueError("budget must be below 2**53")
        if challenge_trials < 0:
            raise ValueError("challenge_trials must be non-negative")
        if not 0 < win_threshold < 1:
            raise ValueError("win_threshold must be in (0, 1)")
        self.budget = budget  # the initial budget
        self.rng_seed = rng_seed
        self.challenge_trials = challenge_trials
        self.win_threshold = win_threshold


class GameResult(Enum):
    WON = "Won"
    LOST_BUDGET_DEPLETED = "LostBudgetDepleted"
    LOST_CHALLENGE_FAILED = "LostChallengeFailed"


class GameTranscript:
    """Global move log plus the complete charge ledger.

    `entries` receives every move in play order through `extend`, and
    its `len` is the number of moves once `play` ends.  By default it is
    a list, so a move's transcript index is its list position; a
    `TranscriptWriter` writes the lines instead and keeps the count.  Local
    (non-move) steps appear only in `steps_by_machine`, which holds the
    step count of the one machine under key 0 (the benchmark tracer sums
    its values).  `play` sums each step's charge as it is priced into
    charges_total, so config.budget - budget_remaining == charges_total
    holds exactly as long as the charges are exactly representable.
    """

    def __init__(self, entries=None):
        self.entries = [] if entries is None else entries
        self.steps_by_machine: dict[int, int] = {0: 0}
        self.charges_total = 0.0


class GameOutcome(NamedTuple):
    result: GameResult
    transcript: GameTranscript
    total_cost: float
    successes: int
    trials: int
    budget_remaining: float
    p_value: Optional[float] = None


class MachineContext:
    """What the strategy sees: the reply to its last move and its scratch
    space."""

    def __init__(self):
        self.reply: Optional[Move] = None
        self.work_tape = bytearray()


# Up to this many trials p is the exact count, correctly rounded; above
# it, the float filter of `_far_tail`.  Both lie within `tail_error_bound`.
EXACT_TAIL_TRIALS = 4000
# the Stirling series of log(m!) from its 1/(12m) term on (Loader 2000)
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def tail_error_bound(trials: int) -> float:
    """E(n) = (1 + sqrt(n)) * 2**-40: the relative error bound of the
    filtered tail at n = trials (see `binomial_tail_probability`)."""
    return (1.0 + math.sqrt(trials)) * 2.0**-40


def _stirlerr(m: int) -> float:
    """log(m!) - ((m + 1/2) log(m) - m + log(2 pi) / 2) for m >= 1: from
    `lgamma` below 16, from five terms of the Stirling series above
    (truncation below 2e-16)."""
    if m < 16:
        return math.lgamma(m + 1) - (m + 0.5) * math.log(m) + m - _HALF_LOG_2PI
    s0, s1, s2, s3, s4 = _STIRLING
    mm = float(m) * m
    return (s0 - (s1 - (s2 - (s3 - s4 / mm) / mm) / mm) / mm) / m


def _far_tail(k: int, n: int) -> float:
    """P(X >= k) for X ~ Binomial(n, 1/2) and k > n/2, in float.

    The leading term C(n, k) / 2**n is taken in log space in Loader's
    saddle-point form: with x = (2k - n) / n,
        log C(n, k) / 2**n = -(k log1p(x) + (n - k) log1p(-x))
            + log(n / (2 pi k (n - k))) / 2
            + stirlerr(n) - stirlerr(k) - stirlerr(n - k),
    which has no cancellation between terms of size n log n.  The terms
    after it fall by the ratios (n - i) / (i + 1) < 1, summed until a term
    times (n + 1), which bounds everything after it, is below 2**-60 of
    the sum: at most J = sqrt((n + 1) (42 + ln(n + 1))) + 1 terms.

    Error count to first order in u = 2**-53, where P is a normal float
    (so the divergence D = k log1p(x) + (n - k) log1p(-x) is below 747 and
    n x <= sqrt(2 n D)): the log of the leading term is off by at most
    u (5.5 n x + D + 4200), the ratio sum by 3 J u + 2**-61, and the final
    log, exp and complement by a few u more; in all below
    (250 sqrt(n + 1) + 6000) u, under `tail_error_bound`.
    """
    if k > n:
        return 0.0
    if k == n:
        return 0.5**n
    x = (2 * k - n) / n
    log_lead = (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
        + 0.5 * math.log(n / (k * (n - k))) - _HALF_LOG_2PI
        - (k * math.log1p(x) + (n - k) * math.log1p(-x))
    )
    stop = 2.0**-60 / (n + 1)
    total = term = 1.0
    for i in range(k, n):
        term *= (n - i) / (i + 1)
        total += term
        if term <= total * stop:
            break
    return math.exp(log_lead + math.log(total))


def _ratio_sum(n: int, a: int, b: int, number=int):
    """Binary splitting of sum_{a <= i < b} prod_{a <= j < i} (n - j) / (j + 1):
    (P, Q, T) with P and Q the products of the numerators and the
    denominators over [a, b), and T / Q the sum.  Leaves of up to 32 terms
    are summed in Python ints and converted by `number` (int or Decimal),
    in which the merges run."""
    if b - a <= 32:
        p = q = 1
        t = 0
        for j in range(b - 1, a - 1, -1):  # Horner's rule from the far end
            t = (j + 1) * q + (n - j) * t
            p *= n - j
            q *= j + 1
        return number(p), number(q), number(t)
    mid = (a + b) // 2
    p1, q1, t1 = _ratio_sum(n, a, mid, number)
    p2, q2, t2 = _ratio_sum(n, mid, b, number)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _scaled_tail(successes: int, trials: int, number=int):
    """(count * m!, 2**trials * m!), exactly, where count is the tail
    sum_{i >= successes} C(trials, i) and m the number of terms on its
    shorter side, whose sum_{i < m} C(n, i) is T / m! from `_ratio_sum`:
    the upper side directly (as the mirror image C(n, 0) + ... +
    C(n, n - successes)), the lower side as 2**n minus the terms below
    `successes`.  Binary splitting multiplies numbers of balanced sizes,
    far cheaper at large n than adding n-bit terms one at a time."""
    upper = successes > trials // 2
    terms = trials - successes + 1 if upper else successes
    _, q, t = _ratio_sum(trials, 0, terms, number)
    scale = number(2) ** trials * q
    return (t if upper else scale - t), scale


def binomial_tail_probability(successes: int, trials: int) -> float:
    """One-sided tail P(X >= successes) for X ~ Binomial(trials, 1/2).

    At every trial count p lies within E(n) * P + 2**-1074 of the exact
    tail P, E(n) = (1 + sqrt(n)) * 2**-40 (`tail_error_bound`; 6.5e-11
    at n = 5000, 9.1e-10 at n = 1e6), the one bound `_adjudicate` uses.
    Up to `EXACT_TAIL_TRIALS` (4000) trials p is the exact tail
    (`_scaled_tail`) correctly rounded by int division, within 2**-53 * P
    + 2**-1075.  Above it, the tail is filtered in float in time
    proportional to sqrt(trials): the side above the mean by `_far_tail`,
    the side at or below it as 1 - P(X >= trials - successes + 1), within
    E(n) * P / 2.5 if libm's `log`, `log1p`, `exp` and `lgamma` are within 1 ulp.
    """
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    if trials <= EXACT_TAIL_TRIALS:
        count, scale = _scaled_tail(successes, trials)
        return count / scale
    if 2 * successes > trials:
        return _far_tail(successes, trials)
    return 1.0 - _far_tail(trials - successes + 1, trials)


def _tail_at_most(successes: int, trials: int, alpha: float) -> bool:
    """Exactly whether sum_{i >= successes} C(trials, i) <= alpha * 2**trials.

    alpha is a ratio of integers, so with `_scaled_tail` the decision is
    one comparison of integer products, without division.  The products
    are taken in decimal, where libmpdec multiplies large numbers by a
    number-theoretic transform (Python ints use Karatsuba), in a context
    that traps any rounding, so every result is exact.  At n = 1e6 it took
    about 5 s (s = n / 2 and n / 2 + 1200) on a 2-vCPU Xeon.
    """
    import decimal  # only this rare fallback uses decimal

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    numerator, denominator = alpha.as_integer_ratio()
    with decimal.localcontext(exact):
        count, scale = _scaled_tail(successes, trials, decimal.Decimal)
        return count * denominator <= numerator * scale


def _adjudicate(successes: int, trials: int, alpha: float) -> tuple[Optional[float], bool]:
    """The tail p-value of the success count (None without trials) and
    whether it rejects chance at level alpha, i.e. whether the exact tail
    is at most alpha.

    At every trial count p is within E(n) * P + 2**-1074 of the exact
    tail P (`binomial_tail_probability`), so |p - alpha| > E(n) * alpha +
    2**-1070 decides the exact comparison.  Otherwise, ties included,
    `_tail_at_most` makes it.
    """
    if trials == 0:
        return None, False
    p = binomial_tail_probability(successes, trials)
    decided = abs(p - alpha) > tail_error_bound(trials) * alpha + 2.0**-1070
    return p, p < alpha if decided else _tail_at_most(successes, trials, alpha)


def wins_challenge(successes: int, trials: int, alpha: float) -> bool:
    """Does the success count reject chance 1/2 at level alpha?  The
    decision is the exact one (see `_adjudicate`)."""
    return _adjudicate(successes, trials, alpha)[1]


def play(strategy, environment, config: GameConfig, entries=None) -> GameOutcome:
    """Run one game to completion, one step of the strategy at a time.

    Each step is priced at the strategy's `information` (8 bytes, the
    length of b"attacker", when it has none; a negative one is refused
    before the first step) plus its work tape, and charged before it
    takes effect: a step dearer than the remaining budget charges the
    remainder and ends the game `LostBudgetDepleted`, and one that exactly
    exhausts it is paid in full.  Then it acts: the move and its one
    reply, from the engine or the environment, are recorded, and the
    reply becomes `ctx.reply`.  `HALT` or the last challenge trial ends
    the game.  The moves go to the transcript's `entries` (a list unless
    a sink such as a `TranscriptWriter` is given) through `extend`,
    `RECORD_BLOCK` at a time, the most the engine holds, and the rest, with
    the step count and charges, as `play` returns or raises (on a
    `ProtocolFault` or any error of the strategy or the environment).
    Determinism: with a fixed (strategy, environment, config) the move
    sequence and outcome are bit-identical; all randomness flows from
    config.rng_seed through the environment's seeded generator.
    """
    transcript = GameTranscript(entries)
    block: list[Move] = []
    record = block.append
    if hasattr(environment, "start"):
        environment.start(random.Random(f"{config.rng_seed}:environment"))

    price = float(strategy.information if hasattr(strategy, "information") else len(b"attacker"))
    if not price >= 0:
        raise ValueError("information must be non-negative")
    ctx = MachineContext()
    remaining = config.budget
    steps, charges = 0, 0.0
    successes = 0
    trials = 0
    result: Optional[GameResult] = None
    # enum members read once: on Python 3.11 EnumType.__getattr__ slows each lookup
    attacker, environment_player = Actor.ATTACKER, Actor.ENVIRONMENT
    info_request, structural_request = MoveClass.INFO_REQUEST, MoveClass.STRUCTURAL_REQUEST
    challenge, response = MoveClass.CHALLENGE, MoveClass.RESPONSE

    try:
        while True:
            work_len = len(ctx.work_tape)
            action = strategy.step(ctx)
            step_cost = price + work_len
            if step_cost > remaining:  # an overdraft charges what is left and ends the game
                step_cost = remaining
                result = GameResult.LOST_BUDGET_DEPLETED
            remaining -= step_cost
            steps += 1
            charges += step_cost
            if result is not None:
                break

            if not isinstance(action, Move):
                if isinstance(action, LocalStep):
                    continue
                raise ProtocolFault(f"strategy returned unknown action {action!r}")
            kind = action.kind  # a named tuple's field read costs more than a local's
            if PLAYER.get(kind) is not attacker:
                raise ProtocolFault(f"strategy played {kind}, not an attacker move")
            record(action)
            if kind is info_request and action.payload == BUDGET_QUERY:
                reply = Move(response, repr(remaining).encode())
            elif kind is structural_request:
                reply = _HALT_REPLY if action.payload == HALT.payload else _UNSUPPORTED
            else:
                reply = environment.respond(action)
                if not isinstance(reply, Move) or PLAYER.get(reply.kind) is not environment_player:
                    raise ProtocolFault("environment must answer with one Response or Denial")
            record(reply)
            ctx.reply = reply
            if len(block) >= RECORD_BLOCK:
                transcript.entries.extend(block)
                block.clear()

            if kind is challenge and reply.kind is response:
                trials += 1
                if reply.payload[:1] == b"\x01":
                    successes += 1
                if trials == config.challenge_trials:
                    break
            elif reply is _HALT_REPLY:
                break
    finally:
        transcript.steps_by_machine[0] = steps
        transcript.charges_total = charges
        transcript.entries.extend(block)

    # one tail evaluation per game: a budget loss still reports its p-value
    p_value, won = _adjudicate(successes, trials, config.win_threshold)
    if result is None:
        result = GameResult.WON if won else GameResult.LOST_CHALLENGE_FAILED
    return GameOutcome(
        result=result,
        transcript=transcript,
        total_cost=config.budget - remaining,
        successes=successes,
        trials=trials,
        budget_remaining=remaining,
        p_value=p_value,
    )


def transcript_trailer(outcome: GameOutcome) -> str:
    """The summary lines that follow the move lines."""
    return (
        f"total_cost {outcome.total_cost!r}\n"
        f"result {outcome.result.value}\n"
        f"challenges {outcome.successes}/{outcome.trials}\n"
    )


class TranscriptWriter:
    """A move sink for `play` that writes the transcript lines of each
    block of moves in one `write` call and keeps only the count.

    A line is `<index> <actor> <class> <hex payload>`, the hex covering
    the length-prefixed payload.  The first `TAIL_CACHE_SIZE` distinct
    moves written keep their formatted line tails, so a move played again
    (a strategy's constant request, say) is formatted once; a game's
    constant moves come early.
    """

    __slots__ = ("_write", "_count", "_tails")
    TAIL_CACHE_SIZE = 16

    def __init__(self, write):
        self._write = write
        self._count = 0
        self._tails: dict[Move, str] = {}  # move -> line tail

    def extend(self, moves) -> None:
        tails = self._tails
        lines = []
        for index, move in enumerate(moves, self._count):
            tail = tails.get(move)
            if tail is None:
                tail = f"{_LINE_HEADS[move.kind]} {frame(move.payload).hex()}\n"
                if len(tails) < self.TAIL_CACHE_SIZE:
                    tails[move] = tail
            lines.append(f"{index} {tail}")
        self._count += len(lines)
        self._write("".join(lines))

    def __len__(self) -> int:
        return self._count


def export_transcript(outcome: GameOutcome) -> str:
    """Render a list-backed transcript: the lines a `TranscriptWriter`
    writes for its moves, then the summary trailer."""
    parts: list[str] = []
    TranscriptWriter(parts.append).extend(outcome.transcript.entries)
    parts.append(transcript_trailer(outcome))
    return "".join(parts)
