"""Turn-based attacker-vs-environment game with budget charging.

The attacker is one or more machines scheduled round-robin.  A machine
is a strategy whose `step(ctx)` returns one action per turn: `EmitMove`,
`SpawnBatch`, `LocalStep` or `Halt`.  `ctx` offers `reply`, the answer to
that machine's own last move (None before its first move), `work_tape`,
private scratch space whose length is priced into every step, and
`shared`, the scratch space of the machine's overlap region (None
outside one).  Each step is charged to a shared budget before it takes
effect, and every attacker move gets exactly one reply, from the engine
or the environment.  The transcript is the one record of the moves, in
order: a list by default, or a `TranscriptWriter` that writes each
move's line as it is recorded, so that a game's memory does not grow
with its trials.  Challenge moves are adjudicated at the end with a
one-sided exact binomial test against chance 1/2.

Engine-side conventions, fixed for transcript stability:
  * payloads travel length-prefixed (4-byte big-endian length),
  * the engine itself answers budget queries (InfoRequest b"budget?")
    and structural requests (spawn/halt); everything else goes to the
    environment object,
  * a Response to a Challenge counts as a success iff its payload starts
    with byte 0x01.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .cost import Budget, Depleted, charge

BUDGET_QUERY = b"budget?"
HALT_PAYLOAD = b"halt"


class Actor(Enum):
    ATTACKER = "Attacker"
    ENVIRONMENT = "Environment"
    # hash by identity, as members compare: the set and dict lookups of the
    # move loop and the export then stay in C (Enum's own __hash__ is Python)
    __hash__ = object.__hash__


class MoveClass(Enum):
    INFO_REQUEST = "InfoRequest"
    STRUCTURAL_REQUEST = "StructuralRequest"
    ENCRYPTION_REQUEST = "EncryptionRequest"
    CHALLENGE = "Challenge"
    RESPONSE = "Response"
    DENIAL = "Denial"
    __hash__ = object.__hash__  # as for Actor


ATTACKER_CLASSES = frozenset(
    {
        MoveClass.INFO_REQUEST,
        MoveClass.STRUCTURAL_REQUEST,
        MoveClass.ENCRYPTION_REQUEST,
        MoveClass.CHALLENGE,
    }
)
ENVIRONMENT_CLASSES = frozenset({MoveClass.RESPONSE, MoveClass.DENIAL})
# the transcript name of each actor and move class
_NAMES = {member: member.value for members in (Actor, MoveClass) for member in members}


class ProtocolFault(RuntimeError):
    """A rule violation, distinct from losing: the game is void.

    Carries the transcript as it stood when the fault was detected; when
    its entries are a `TranscriptWriter`, the lines of every move up to
    the fault are already written.
    """

    def __init__(self, message: str, transcript: "GameTranscript | None" = None):
        super().__init__(message)
        self.transcript = transcript


def frame(data: bytes) -> bytes:
    """Self-delimit a byte string with a 4-byte big-endian length prefix."""
    return len(data).to_bytes(4, "big") + data


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


@dataclass(frozen=True)
class Move:
    actor: Actor
    kind: MoveClass
    payload: bytes = b""

    def __post_init__(self):
        if self.kind in ATTACKER_CLASSES and self.actor is not Actor.ATTACKER:
            raise ValueError(f"{self.kind.value} is an attacker move")
        if self.kind in ENVIRONMENT_CLASSES and self.actor is not Actor.ENVIRONMENT:
            raise ValueError(f"{self.kind.value} is an environment move")

    @classmethod
    def from_framed(cls, actor: Actor, kind: MoveClass, framed_bytes: bytes) -> "Move":
        parts = unframe(framed_bytes)
        if len(parts) != 1:
            raise ValueError("framed move payload must hold exactly one string")
        return cls(actor, kind, parts[0])


@dataclass(frozen=True)
class MachineSpec:
    """What it costs to know a machine: its full description.

    The engine never interprets the description; it only prices it.
    Machines sharing an overlap_region see one common scratch buffer.
    """

    description: bytes
    overlap_region: Optional[str] = None

    @property
    def description_bytes(self) -> int:
        return len(self.description)


# Actions a strategy may return from step().
@dataclass(frozen=True)
class EmitMove:
    kind: MoveClass
    payload: bytes = b""


@dataclass(frozen=True)
class SpawnBatch:
    """One structural request recruiting several copies of one spec."""

    spec: MachineSpec
    strategies: Sequence[object]


@dataclass(frozen=True)
class LocalStep:
    pass


@dataclass(frozen=True)
class Halt:
    pass


@dataclass(frozen=True)
class GameConfig:
    budget: Budget
    rng_seed: int = 0
    challenge_trials: int = 0
    win_threshold: float = 0.01
    per_step_information: Optional[float] = None

    def __post_init__(self):
        if self.challenge_trials < 0:
            raise ValueError("challenge_trials must be non-negative")
        if not 0 < self.win_threshold < 1:
            raise ValueError("win_threshold must be in (0, 1)")
        if self.per_step_information is not None and self.per_step_information < 0:
            raise ValueError("per_step_information must be non-negative")


class GameResult(Enum):
    WON = "Won"
    LOST_BUDGET_DEPLETED = "LostBudgetDepleted"
    LOST_CHALLENGE_FAILED = "LostChallengeFailed"


class GameTranscript:
    """Global move log plus the complete charge ledger.

    `entries` receives every move in play order through `append`, and
    its `len` is the number of moves so far.  By default it is a list, so
    a move's transcript index is its list position; a `TranscriptWriter`
    writes each move's line instead and keeps only the count.  Local
    (non-move) steps appear in the per-machine aggregates only;
    charges_total covers every deduction, so budget.initial -
    budget.remaining == charges_total exactly.
    """

    def __init__(self, entries=None):
        self.entries = [] if entries is None else entries
        self.steps_by_machine: dict[int, int] = {}
        self.cost_by_machine: dict[int, float] = {}
        self.charges_total = 0.0

    def record_charge(self, machine_id: int, amount: float):
        self.steps_by_machine[machine_id] = self.steps_by_machine.get(machine_id, 0) + 1
        self.cost_by_machine[machine_id] = self.cost_by_machine.get(machine_id, 0.0) + amount
        self.charges_total += amount


@dataclass(frozen=True)
class GameOutcome:
    result: GameResult
    transcript: GameTranscript
    total_cost: float
    successes: int
    trials: int
    final_budget: Budget
    p_value: Optional[float] = None


class MachineContext:
    """What a strategy sees: the reply to its own last move, its scratch
    space and its overlap region's shared data."""

    def __init__(self, machine_id: int, shared):
        self.machine_id = machine_id
        self.reply: Optional[Move] = None
        self.work_tape = bytearray()
        self.shared = shared


class _Machine:
    """A strategy with its spec, context and liveness; only its own Halt
    clears `alive`."""

    __slots__ = ("spec", "strategy", "ctx", "alive")

    def __init__(self, machine_id: int, spec: MachineSpec, strategy, regions):
        shared = None
        if spec.overlap_region is not None:
            shared = regions.setdefault(spec.overlap_region, bytearray())
        self.spec = spec
        self.strategy = strategy
        self.ctx = MachineContext(machine_id, shared)
        self.alive = True


def _half_tail_count(successes: int, trials: int) -> int:
    """Exact count of outcomes with at least `successes` ones in `trials`
    fair coin flips: sum of C(trials, i) for i >= successes.

    Only the side with fewer terms is summed, each binomial coefficient
    following from the last by C(n, i+1) = C(n, i) * (n - i) // (i + 1):
    the upper side directly (as C(n, 0) + ... + C(n, n - successes), its
    mirror image), the lower side as 2**n minus the terms below
    `successes`.
    """
    upper = successes > trials // 2
    terms = trials - successes + 1 if upper else successes
    total = 0
    term = 1
    for i in range(terms):
        total += term
        term = term * (trials - i) // (i + 1)
    return total if upper else (1 << trials) - total


def binomial_tail_probability(successes: int, trials: int) -> float:
    """One-sided tail P(X >= successes) for X ~ Binomial(trials, 1/2): the
    exact tail, correctly rounded to a float."""
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    return float(Fraction(_half_tail_count(successes, trials), 1 << trials))


def _adjudicate(successes: int, trials: int, alpha: float) -> tuple[Optional[float], bool]:
    """The tail p-value of the success count (None without trials) and
    whether it rejects chance at level alpha, i.e. whether the exact tail
    is at most alpha.

    p is the exact tail correctly rounded, and rounding is monotone, so
    p < alpha and p > alpha already decide the exact comparison; only
    p == alpha needs the exact tail itself.
    """
    if trials == 0:
        return None, False
    p = binomial_tail_probability(successes, trials)
    if p != alpha:
        return p, p < alpha
    return p, Fraction(_half_tail_count(successes, trials), 1 << trials) <= Fraction(alpha)


def wins_challenge(successes: int, trials: int, alpha: float) -> bool:
    """Does the success count reject chance 1/2 at level alpha?  The
    decision is the exact one (see `_adjudicate`)."""
    return _adjudicate(successes, trials, alpha)[1]


def budget_query_action() -> EmitMove:
    """The move that asks the engine for the remaining budget."""
    return EmitMove(MoveClass.INFO_REQUEST, BUDGET_QUERY)


def parse_budget_reply(move: Move) -> float:
    return float(move.payload.decode("ascii"))


def _schedule(machines: list[_Machine]) -> Iterator[_Machine]:
    """Round-robin turns: each round visits, in spawn order, the machines
    alive at its start; the game ends when none is left."""
    while True:
        live = [m for m in machines if m.alive]
        if not live:
            return
        yield from live


def play(strategy, environment, config: GameConfig, entries=None) -> GameOutcome:
    """Run one game to completion, one machine turn at a time.

    The root machine runs `strategy` under its `.spec` (8-byte
    b"attacker" when it has none).  A turn prices the step, charges it
    through `cost.charge` before it takes effect, then acts: the move and
    its one reply, from the engine or the environment, are appended to
    the transcript's `entries`, and the reply becomes the machine's
    `ctx.reply`.  `entries` is a list unless a sink such as a
    `TranscriptWriter` is given; the engine itself keeps no move but the
    last reply of each machine, so with a writer the game's memory does
    not grow with its trials.  Turns come from `_schedule`, so a machine
    spawned mid-round first acts in the next round.  Determinism: with a
    fixed (strategy, environment, config) the move sequence and outcome
    are bit-identical; all randomness flows from config.rng_seed through
    the environment's seeded generator.
    """
    transcript = GameTranscript(entries)
    moves = transcript.entries
    if hasattr(environment, "start"):
        environment.start(random.Random(f"{config.rng_seed}:environment"))

    regions: dict[str, bytearray] = {}
    root_spec = getattr(strategy, "spec", None) or MachineSpec(b"attacker")
    machines = [_Machine(0, root_spec, strategy, regions)]
    budget = config.budget
    successes = 0
    trials = 0
    result: Optional[GameResult] = None

    for machine in _schedule(machines):
        ctx = machine.ctx
        work_len = len(ctx.work_tape)
        action = machine.strategy.step(ctx)

        if isinstance(action, SpawnBatch):
            if not action.strategies:
                raise ProtocolFault("spawn batch must recruit at least one machine", transcript)
            step_cost = float(len(action.strategies) * action.spec.description_bytes)
        elif config.per_step_information is not None:
            step_cost = config.per_step_information
        else:
            step_cost = float(machine.spec.description_bytes + work_len)

        charged = charge(budget, step_cost)
        if isinstance(charged, Depleted):
            transcript.record_charge(ctx.machine_id, budget.remaining)
            budget = charged.budget
            result = GameResult.LOST_BUDGET_DEPLETED
            break
        budget = charged
        transcript.record_charge(ctx.machine_id, step_cost)

        if isinstance(action, LocalStep):
            continue
        if isinstance(action, Halt):
            machine.alive = False
            action = EmitMove(MoveClass.STRUCTURAL_REQUEST, HALT_PAYLOAD)
        if isinstance(action, SpawnBatch):
            count = len(action.strategies)
            payload = frame(action.spec.description) + frame(count.to_bytes(4, "big"))
            move = Move(Actor.ATTACKER, MoveClass.STRUCTURAL_REQUEST, payload)
            engine_reply = f"{len(machines)}:{count}".encode()
            for child in action.strategies:
                machines.append(_Machine(len(machines), action.spec, child, regions))
        elif isinstance(action, EmitMove):
            if action.kind not in ATTACKER_CLASSES:
                raise ProtocolFault(
                    f"strategy emitted environment move class {action.kind.value}", transcript
                )
            move = Move(Actor.ATTACKER, action.kind, action.payload)
            engine_reply = None  # the environment answers
            if action.kind is MoveClass.INFO_REQUEST and action.payload == BUDGET_QUERY:
                engine_reply = repr(budget.remaining).encode()
            elif action.kind is MoveClass.STRUCTURAL_REQUEST:
                engine_reply = b"ok"
        else:
            raise ProtocolFault(f"strategy returned unknown action {action!r}", transcript)

        moves.append(move)
        if engine_reply is not None:
            reply = Move(Actor.ENVIRONMENT, MoveClass.RESPONSE, engine_reply)
        else:
            reply = environment.respond(move)
            if not isinstance(reply, Move):
                raise ProtocolFault("environment must answer with exactly one move", transcript)
            if reply.actor is not Actor.ENVIRONMENT or reply.kind not in ENVIRONMENT_CLASSES:
                raise ProtocolFault("environment answered with a non-response move", transcript)
        moves.append(reply)
        ctx.reply = reply

        if move.kind is MoveClass.CHALLENGE and reply.kind is MoveClass.RESPONSE:
            trials += 1
            if reply.payload[:1] == b"\x01":
                successes += 1
            if trials == config.challenge_trials:
                break

    # one tail evaluation per game: a budget loss still reports its p-value
    p_value, won = _adjudicate(successes, trials, config.win_threshold)
    if result is None:
        result = GameResult.WON if won else GameResult.LOST_CHALLENGE_FAILED
    return GameOutcome(
        result=result,
        transcript=transcript,
        total_cost=config.budget.remaining - budget.remaining,
        successes=successes,
        trials=trials,
        final_budget=budget,
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
    """A move sink for `play` that writes each move's transcript line
    through `write` as the move is recorded and keeps only the count.

    A line is `<index> <actor> <class> <hex payload>`, the hex covering
    the length-prefixed payload.
    """

    __slots__ = ("_write", "_count")

    def __init__(self, write):
        self._write = write
        self._count = 0

    def append(self, move: Move) -> None:
        payload = move.payload
        self._write(
            f"{self._count} {_NAMES[move.actor]} {_NAMES[move.kind]} "
            f"{len(payload):08x}{payload.hex()}\n"
        )
        self._count += 1

    def __len__(self) -> int:
        return self._count


def export_transcript(outcome: GameOutcome) -> str:
    """Render a list-backed transcript: the lines a `TranscriptWriter`
    writes for its moves, then the summary trailer."""
    parts: list[str] = []
    writer = TranscriptWriter(parts.append)
    for move in outcome.transcript.entries:
        writer.append(move)
    parts.append(transcript_trailer(outcome))
    return "".join(parts)


def parse_transcript_moves(text: str) -> list[tuple[int, Move]]:
    """Parse exported move lines back (trailer lines are skipped)."""
    out = []
    actors = {a.value: a for a in Actor}
    kinds = {k.value: k for k in MoveClass}
    for line in text.splitlines():
        parts = line.split(" ")
        if len(parts) != 4 or not parts[0].isdigit():
            continue
        index = int(parts[0])
        actor = actors.get(parts[1])
        kind = kinds.get(parts[2])
        if actor is None or kind is None:
            continue
        move = Move.from_framed(actor, kind, bytes.fromhex(parts[3]))
        out.append((index, move))
    return out
