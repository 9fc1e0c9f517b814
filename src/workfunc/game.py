"""Turn-based attacker-vs-environment game with budget charging.

The attacker is one or more machines scheduled round-robin.  Each machine
step is charged to a shared budget before it takes effect; machines act
by writing moves to their own append-only run tape and the environment
answers every attacker move with exactly one response group.  Challenge
moves are adjudicated at the end with a one-sided exact binomial test
against chance.

Engine-side conventions, fixed for transcript stability:
  * payloads travel length-prefixed (4-byte big-endian length),
  * the engine itself answers budget queries (InfoRequest b"budget?")
    and structural requests (spawn/halt); everything else goes to the
    environment object,
  * a Response to a Challenge counts as a success iff its payload starts
    with byte 0x01.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cost import Budget

BUDGET_QUERY = b"budget?"
HALT_PAYLOAD = b"halt"


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


ATTACKER_CLASSES = frozenset(
    {
        MoveClass.INFO_REQUEST,
        MoveClass.STRUCTURAL_REQUEST,
        MoveClass.ENCRYPTION_REQUEST,
        MoveClass.CHALLENGE,
    }
)
ENVIRONMENT_CLASSES = frozenset({MoveClass.RESPONSE, MoveClass.DENIAL})


class ProtocolFault(RuntimeError):
    """A rule violation, distinct from losing: the game is void.

    Carries whatever transcript existed when the fault was detected.
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

    @property
    def framed_payload(self) -> bytes:
        return frame(self.payload)

    @classmethod
    def from_framed(cls, actor: Actor, kind: MoveClass, framed_bytes: bytes) -> "Move":
        parts = unframe(framed_bytes)
        if len(parts) != 1:
            raise ValueError("framed move payload must hold exactly one string")
        return cls(actor, kind, parts[0])


class RunTape:
    """Per-machine move tape: append-only, alternating, read-once forward."""

    def __init__(self):
        self._moves: list[Move] = []
        self._cursor = 0

    @property
    def moves(self) -> tuple[Move, ...]:
        return tuple(self._moves)

    @property
    def attacker_read_cursor(self) -> int:
        return self._cursor

    def append(self, move: Move):
        expecting_attacker = len(self._moves) % 2 == 0
        if expecting_attacker and move.actor is not Actor.ATTACKER:
            raise ProtocolFault("environment move without a pending attacker move")
        if not expecting_attacker and move.actor is not Actor.ENVIRONMENT:
            raise ProtocolFault("attacker move while a response is pending")
        self._moves.append(move)

    def read_next(self) -> Optional[Move]:
        if self._cursor >= len(self._moves):
            return None
        move = self._moves[self._cursor]
        self._cursor += 1
        return move

    def read_at(self, index: int) -> Move:
        if index < self._cursor:
            raise ProtocolFault(f"tape index {index} was already consumed")
        if index >= len(self._moves):
            raise IndexError(index)
        self._cursor = index + 1
        return self._moves[index]


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
class Spawn:
    spec: MachineSpec
    strategy: object


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
    chance_success_rate: float = 0.5
    max_rounds: Optional[int] = None

    def __post_init__(self):
        if self.challenge_trials < 0:
            raise ValueError("challenge_trials must be non-negative")
        if not 0 < self.win_threshold < 1:
            raise ValueError("win_threshold must be in (0, 1)")
        if self.per_step_information is not None and self.per_step_information < 0:
            raise ValueError("per_step_information must be non-negative")
        if not 0 < self.chance_success_rate < 1:
            raise ValueError("chance_success_rate must be in (0, 1)")


class GameResult(Enum):
    WON = "Won"
    LOST_BUDGET_DEPLETED = "LostBudgetDepleted"
    LOST_CHALLENGE_FAILED = "LostChallengeFailed"


@dataclass(frozen=True)
class TranscriptEntry:
    index: int
    machine_id: int
    move: Move
    charge: float  # cost of the attacker step that produced the move; 0 for responses


class GameTranscript:
    """Global move log plus the complete charge ledger.

    Local (non-move) steps appear in the per-machine aggregates only;
    charges_total covers every deduction, so
    budget.initial - budget.remaining == charges_total exactly.
    """

    def __init__(self):
        self.entries: list[TranscriptEntry] = []
        self.steps_by_machine: dict[int, int] = {}
        self.cost_by_machine: dict[int, float] = {}
        self.charges_total = 0.0

    def record_charge(self, machine_id: int, amount: float):
        self.steps_by_machine[machine_id] = self.steps_by_machine.get(machine_id, 0) + 1
        self.cost_by_machine[machine_id] = self.cost_by_machine.get(machine_id, 0.0) + amount
        self.charges_total += amount

    def append_move(self, machine_id: int, move: Move, charge: float) -> TranscriptEntry:
        entry = TranscriptEntry(len(self.entries), machine_id, move, charge)
        self.entries.append(entry)
        return entry


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
    """What a strategy sees: its own tape, scratch space, shared data."""

    def __init__(self, machine_id: int, tape: RunTape, valuation: bytes, shared):
        self.machine_id = machine_id
        self.tape = tape
        self.valuation = valuation
        self.work_tape = bytearray()
        self.shared = shared

    def read_next(self) -> Optional[Move]:
        return self.tape.read_next()


class _Machine:
    __slots__ = ("machine_id", "spec", "strategy", "tape", "ctx", "alive")

    def __init__(self, machine_id: int, spec: MachineSpec, strategy, valuation: bytes, shared):
        self.machine_id = machine_id
        self.spec = spec
        self.strategy = strategy
        self.tape = RunTape()
        self.ctx = MachineContext(machine_id, self.tape, valuation, shared)
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


def _upper_tail(first: int, trials: int, chance: float) -> float:
    """P(X >= first) for X ~ Binomial(trials, chance), for `first` above the
    mean, where the terms only shrink from `first` on.

    The terms are summed relative to the first one, whose logarithm comes
    from the exact big-integer binomial coefficient, so neither the
    coefficient nor the powers of `chance` ever leave float range. The
    term ratios shrink too, so after a term t with ratio r to the one
    before, the rest adds at most t * r / (1 - r); once that is below 1e-17
    of the sum, the sum is final.
    """
    odds = chance / (1.0 - chance)
    log_first = (
        math.log(math.comb(trials, first))
        + first * math.log(chance)
        + (trials - first) * math.log1p(-chance)
    )
    total = term = 1.0
    for i in range(first, trials):
        ratio = (trials - i) / (i + 1) * odds
        term *= ratio
        total += term
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < total * 1e-17:
            break
    return math.exp(log_first) * total


def binomial_tail_probability(successes: int, trials: int, chance: float = 0.5) -> float:
    """One-sided tail P(X >= successes) for X ~ Binomial(trials, chance).

    At chance 0.5 the result is the correctly rounded float of the exact
    tail. At any other chance its relative error grows with `trials`, to
    about 2e-11 at 100,000 trials.
    """
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    if chance == 0.5:
        return float(Fraction(_half_tail_count(successes, trials), 1 << trials))
    if successes > trials * chance:
        return _upper_tail(successes, trials, chance)
    if successes == 0:
        return 1.0
    # P(X < s) is the upper tail of the failure count, trials - X
    return 1.0 - _upper_tail(trials - successes + 1, trials, 1.0 - chance)


def _rejects_chance(p: float, successes: int, trials: int, alpha: float, chance: float) -> bool:
    """Does the tail p = binomial_tail_probability(successes, trials, chance)
    reject chance at level alpha, i.e. is the tail at most alpha?

    At chance 0.5 p is the exact tail correctly rounded, and rounding is
    monotone, so p < alpha and p > alpha already decide the exact
    comparison; only p == alpha needs the exact tail itself.  At any other
    chance the verdict is p <= alpha on the float tail, whose relative
    error is about 2e-11 at 100,000 trials, so a tail within that error of
    alpha can be decided either way.  The CLI always plays at chance 0.5.
    """
    if p != alpha or chance != 0.5:
        return p <= alpha
    return Fraction(_half_tail_count(successes, trials), 1 << trials) <= Fraction(alpha)


def wins_challenge(successes: int, trials: int, alpha: float, chance: float = 0.5) -> bool:
    """Does the success count reject chance at level alpha?

    The decision is exact at chance 0.5; at any other chance it compares
    a float tail with alpha (see `_rejects_chance`).
    """
    if trials == 0:
        return False
    p = binomial_tail_probability(successes, trials, chance)
    return _rejects_chance(p, successes, trials, alpha, chance)


def budget_query_action() -> EmitMove:
    """The move that asks the engine for the remaining budget."""
    return EmitMove(MoveClass.INFO_REQUEST, BUDGET_QUERY)


def parse_budget_reply(move: Move) -> float:
    return float(move.payload.decode("ascii"))


def play(
    strategy,
    environment,
    config: GameConfig,
    root_spec: Optional[MachineSpec] = None,
) -> GameOutcome:
    """Run one game to completion.

    Determinism: with a fixed (strategy, environment, config) the move
    sequence and outcome are bit-identical; all randomness flows from
    config.rng_seed through the environment's seeded generator.
    """
    transcript = GameTranscript()
    env_rng = random.Random(f"{config.rng_seed}:environment")
    if hasattr(environment, "start"):
        environment.start(env_rng)
    valuation = bytes(environment.valuation_tape()) if hasattr(environment, "valuation_tape") else b""

    regions: dict[str, bytearray] = {}

    def shared_for(spec: MachineSpec):
        if spec.overlap_region is None:
            return None
        return regions.setdefault(spec.overlap_region, bytearray())

    if root_spec is None:
        root_spec = getattr(strategy, "spec", None) or MachineSpec(b"attacker")
    machines: list[_Machine] = [_Machine(0, root_spec, strategy, valuation, shared_for(root_spec))]
    next_id = 1

    # The budget is tracked as a bare float in the loop; Budget/charge
    # semantics are preserved (charge-before-effect, exact exhaustion
    # stays solvent) and the Budget object is rebuilt for the outcome.
    initial = config.budget.remaining
    remaining = initial
    successes = 0
    trials = 0
    result: Optional[GameResult] = None
    quota_reached = False
    rounds = 0

    def respond_via_environment(machine: _Machine, move: Move, charge_amount: float):
        nonlocal successes, trials, quota_reached
        transcript.append_move(machine.machine_id, move, charge_amount)
        machine.tape.append(move)
        reply = environment.respond(move)
        if not isinstance(reply, Move):
            raise ProtocolFault("environment must answer with exactly one move", transcript)
        if reply.actor is not Actor.ENVIRONMENT or reply.kind not in ENVIRONMENT_CLASSES:
            raise ProtocolFault("environment answered with a non-response move", transcript)
        transcript.append_move(machine.machine_id, reply, 0.0)
        machine.tape.append(reply)
        if move.kind is MoveClass.CHALLENGE and reply.kind is MoveClass.RESPONSE:
            trials += 1
            if reply.payload[:1] == b"\x01":
                successes += 1
            if config.challenge_trials and trials >= config.challenge_trials:
                quota_reached = True

    def respond_via_engine(machine: _Machine, move: Move, charge_amount: float, reply_payload: bytes):
        transcript.append_move(machine.machine_id, move, charge_amount)
        machine.tape.append(move)
        reply = Move(Actor.ENVIRONMENT, MoveClass.RESPONSE, reply_payload)
        transcript.append_move(machine.machine_id, reply, 0.0)
        machine.tape.append(reply)

    while result is None and not quota_reached:
        live = [m for m in machines if m.alive]
        if not live:
            break
        if config.max_rounds is not None and rounds >= config.max_rounds:
            raise RuntimeError(f"round limit {config.max_rounds} reached")
        rounds += 1
        for machine in live:
            if quota_reached:
                break
            if not machine.alive:
                continue
            work_len = len(machine.ctx.work_tape)
            action = machine.strategy.step(machine.ctx)

            if isinstance(action, (Spawn, SpawnBatch)):
                count = 1 if isinstance(action, Spawn) else len(action.strategies)
                if count < 1:
                    raise ProtocolFault("spawn batch must recruit at least one machine", transcript)
                step_cost = float(count * action.spec.description_bytes)
            elif config.per_step_information is not None:
                step_cost = config.per_step_information
            else:
                step_cost = float(machine.spec.description_bytes + work_len)

            # charge before the step takes effect
            if step_cost > remaining:
                transcript.record_charge(machine.machine_id, remaining)
                remaining = 0.0
                result = GameResult.LOST_BUDGET_DEPLETED
                break
            remaining -= step_cost
            transcript.record_charge(machine.machine_id, step_cost)

            if isinstance(action, LocalStep):
                continue
            if isinstance(action, Halt):
                machine.alive = False
                move = Move(Actor.ATTACKER, MoveClass.STRUCTURAL_REQUEST, HALT_PAYLOAD)
                respond_via_engine(machine, move, step_cost, b"ok")
                continue
            if isinstance(action, (Spawn, SpawnBatch)):
                strategies = [action.strategy] if isinstance(action, Spawn) else list(action.strategies)
                payload = frame(action.spec.description) + frame(
                    len(strategies).to_bytes(4, "big")
                )
                move = Move(Actor.ATTACKER, MoveClass.STRUCTURAL_REQUEST, payload)
                first_id = next_id
                for child_strategy in strategies:
                    machines.append(
                        _Machine(
                            next_id,
                            action.spec,
                            child_strategy,
                            valuation,
                            shared_for(action.spec),
                        )
                    )
                    next_id += 1
                respond_via_engine(
                    machine, move, step_cost, f"{first_id}:{len(strategies)}".encode()
                )
                continue
            if isinstance(action, EmitMove):
                if action.kind not in ATTACKER_CLASSES:
                    raise ProtocolFault(
                        f"strategy emitted environment move class {action.kind.value}", transcript
                    )
                move = Move(Actor.ATTACKER, action.kind, action.payload)
                if action.kind is MoveClass.INFO_REQUEST and action.payload == BUDGET_QUERY:
                    respond_via_engine(machine, move, step_cost, repr(remaining).encode())
                elif action.kind is MoveClass.STRUCTURAL_REQUEST:
                    respond_via_engine(machine, move, step_cost, b"ok")
                else:
                    respond_via_environment(machine, move, step_cost)
                continue
            raise ProtocolFault(f"strategy returned unknown action {action!r}", transcript)

    # The tail is evaluated once per game, budget losses included, since
    # the outcome reports its p-value either way.
    p_value = None
    if trials:
        p_value = binomial_tail_probability(successes, trials, config.chance_success_rate)
    if result is None:
        won = p_value is not None and _rejects_chance(
            p_value, successes, trials, config.win_threshold, config.chance_success_rate
        )
        result = GameResult.WON if won else GameResult.LOST_CHALLENGE_FAILED
    final_budget = Budget(config.budget.initial, remaining)
    return GameOutcome(
        result=result,
        transcript=transcript,
        total_cost=initial - remaining,
        successes=successes,
        trials=trials,
        final_budget=final_budget,
        p_value=p_value,
    )


def transcript_lines(transcript: GameTranscript) -> list[str]:
    """Move lines only: `<index> <actor> <class> <hex payload>` with the
    hex covering the length-prefixed payload."""
    return [
        f"{e.index} {e.move.actor.value} {e.move.kind.value} {e.move.framed_payload.hex()}"
        for e in transcript.entries
    ]


def export_transcript(outcome: GameOutcome) -> str:
    """Render a transcript: one move per line, then a summary trailer."""
    lines = transcript_lines(outcome.transcript)
    lines.append(f"total_cost {outcome.total_cost!r}")
    lines.append(f"result {outcome.result.value}")
    lines.append(f"challenges {outcome.successes}/{outcome.trials}")
    return "\n".join(lines) + "\n"


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
