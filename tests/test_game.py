import hashlib
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import workfunc
from workfunc.cost import Budget
from workfunc.game import (
    Actor,
    EmitMove,
    GameConfig,
    GameResult,
    Halt,
    LocalStep,
    MachineSpec,
    Move,
    MoveClass,
    ProtocolFault,
    SpawnBatch,
    TranscriptWriter,
    binomial_tail_probability,
    budget_query_action,
    export_transcript,
    frame,
    parse_budget_reply,
    parse_transcript_moves,
    play,
    unframe,
    wins_challenge,
)
from workfunc.otp import run_otp_challenge
from workfunc.toycrypto import KeystreamGen


class Script:
    """Strategy that replays a fixed action list, then halts."""

    def __init__(self, actions, spec=None):
        self.actions = list(actions)
        if spec is not None:
            self.spec = spec

    def step(self, ctx):
        if self.actions:
            return self.actions.pop(0)
        return Halt()


class SuccessEnv:
    def respond(self, move):
        return Move(Actor.ENVIRONMENT, MoveClass.RESPONSE, b"\x01")


class DenyEnv:
    def respond(self, move):
        return Move(Actor.ENVIRONMENT, MoveClass.DENIAL, b"no")


class RandomEchoEnv:
    def start(self, rng):
        self.rng = rng

    def respond(self, move):
        return Move(Actor.ENVIRONMENT, MoveClass.RESPONSE, bytes([self.rng.getrandbits(8)]))


def config(budget, **kw):
    return GameConfig(budget=Budget.fresh(budget), **kw)


def test_package_exports_resolve_once():
    assert len(set(workfunc.__all__)) == len(workfunc.__all__)
    for name in workfunc.__all__:
        assert hasattr(workfunc, name), name


def test_frame_unframe_roundtrip():
    assert frame(b"abc") == b"\x00\x00\x00\x03abc"
    assert unframe(frame(b"") + frame(b"xy")) == [b"", b"xy"]
    assert unframe(b"") == []
    with pytest.raises(ValueError):
        unframe(b"\x00\x00\x01")
    with pytest.raises(ValueError):
        unframe(b"\x00\x00\x00\x05ab")


def test_move_actor_class_pairing():
    with pytest.raises(ValueError):
        Move(Actor.ATTACKER, MoveClass.RESPONSE)
    with pytest.raises(ValueError):
        Move(Actor.ENVIRONMENT, MoveClass.CHALLENGE)
    move = Move(Actor.ATTACKER, MoveClass.CHALLENGE, b"pick")
    assert Move.from_framed(Actor.ATTACKER, MoveClass.CHALLENGE, frame(move.payload)) == move
    with pytest.raises(ValueError):
        Move.from_framed(Actor.ATTACKER, MoveClass.CHALLENGE, frame(b"a") + frame(b"b"))


def test_win_thresholds_at_one_percent():
    assert not wins_challenge(0, 0, 0.01)
    assert wins_challenge(117, 200, 0.01)
    assert not wins_challenge(116, 200, 0.01)
    assert wins_challenge(538, 1000, 0.01)
    assert not wins_challenge(537, 1000, 0.01)


def test_binomial_tail_exact_values():
    assert binomial_tail_probability(0, 10) == 1.0
    assert binomial_tail_probability(10, 10) == 2.0**-10
    with pytest.raises(ValueError):
        binomial_tail_probability(5, 3)


def test_binomial_tail_against_scipy():
    stats = pytest.importorskip("scipy.stats")
    cases = [(117, 200), (538, 1000)]
    for trials in (1, 10, 100, 1100, 5000):
        sd = math.sqrt(trials) / 2
        for z in (-8, -3, -1, -0.2, 0, 0.2, 1, 3, 8):
            cases.append((min(max(round(trials / 2 + z * sd), 0), trials), trials))
    for successes, trials in cases:
        ours = binomial_tail_probability(successes, trials)
        ref = float(stats.binom.sf(successes - 1, trials, 0.5))
        assert ours == pytest.approx(ref, rel=1e-9), (successes, trials)


def test_half_chance_tail_and_verdict_exact_on_grid():
    """Every (n <= 300, s) against Pascal's triangle: p is the exact tail
    correctly rounded and the verdict is the exact comparison, also when
    alpha is p itself, where the rounding direction decides."""
    ties_won = ties_lost = 0
    row = [1]
    for n in range(301):
        count = 0
        for s in range(n, -1, -1):
            count += row[s]
            exact = Fraction(count, 1 << n)
            p = binomial_tail_probability(s, n)
            assert p == float(exact), (s, n)
            if n == 0:
                continue
            for alpha in (0.01, 0.05, p):
                assert wins_challenge(s, n, alpha) == (exact <= Fraction(alpha)), (s, n, alpha)
            if exact <= Fraction(p):
                ties_won += 1
            else:
                ties_lost += 1
        row = [a + b for a, b in zip([0] + row, row + [0])]
    assert ties_won and ties_lost


def test_half_chance_tail_scales():
    stats = pytest.importorskip("scipy.stats")
    start = time.perf_counter()
    p = binomial_tail_probability(10_000, 20_000)
    assert time.perf_counter() - start < 1.0
    assert p == pytest.approx(float(stats.binom.sf(9_999, 20_000, 0.5)), rel=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        config(10.0, challenge_trials=-1)
    with pytest.raises(ValueError):
        config(10.0, win_threshold=1.0)
    with pytest.raises(ValueError):
        config(10.0, per_step_information=-1.0)


def test_ledger_exact_on_scripted_game():
    # root description b"attacker" is 8 bytes; every step costs 8 + work tape
    strategy = Script([LocalStep(), budget_query_action(), LocalStep()])
    outcome = play(strategy, SuccessEnv(), config(1000.0))
    assert outcome.result is GameResult.LOST_CHALLENGE_FAILED
    assert outcome.total_cost == 32.0
    assert outcome.transcript.charges_total == 32.0
    assert outcome.final_budget.remaining == 968.0
    assert outcome.transcript.steps_by_machine == {0: 4}
    assert outcome.transcript.cost_by_machine == {0: 32.0}
    # budget reply reflects the balance after that step's own deduction
    query_reply = outcome.transcript.entries[1]
    assert parse_budget_reply(query_reply) == 984.0


def test_work_tape_raises_next_step_price():
    class Scribbler:
        def __init__(self):
            self.calls = 0

        def step(self, ctx):
            self.calls += 1
            if self.calls == 1:
                ctx.work_tape.extend(b"x" * 10)
                return LocalStep()
            return Halt()

    outcome = play(Scribbler(), SuccessEnv(), config(100.0))
    assert outcome.total_cost == 8.0 + 18.0


def test_budget_depletion_charges_remainder():
    outcome = play(Script([LocalStep(), LocalStep(), LocalStep()]), SuccessEnv(), config(20.0))
    assert outcome.result is GameResult.LOST_BUDGET_DEPLETED
    assert outcome.total_cost == 20.0
    assert outcome.transcript.charges_total == 20.0
    assert outcome.final_budget.remaining == 0.0


def test_partly_spent_budget_keeps_its_initial():
    outcome = play(Script([LocalStep()]), SuccessEnv(), GameConfig(budget=Budget(100.0, 60.0)))
    assert outcome.total_cost == 16.0  # spent from the 60 remaining
    assert outcome.final_budget == Budget(100.0, 44.0)
    assert outcome.transcript.charges_total == 16.0


def test_exact_exhaustion_is_not_depletion():
    outcome = play(Script([LocalStep()]), SuccessEnv(), config(16.0))
    assert outcome.result is GameResult.LOST_CHALLENGE_FAILED
    assert outcome.total_cost == 16.0
    assert outcome.final_budget.remaining == 0.0


def test_zero_budget_opens_depleted():
    outcome = play(Script([LocalStep()]), SuccessEnv(), config(0.0))
    assert outcome.result is GameResult.LOST_BUDGET_DEPLETED
    assert outcome.total_cost == 0.0


def test_structural_request_gets_engine_ok():
    strategy = Script([EmitMove(MoveClass.STRUCTURAL_REQUEST, b"lease ram")])
    outcome = play(strategy, SuccessEnv(), config(100.0))
    assert outcome.transcript.entries[1].payload == b"ok"


def test_spawn_reply_and_child_scheduling():
    child = Script([])
    strategy = Script([SpawnBatch(MachineSpec(b"worker!!"), [child])])
    outcome = play(strategy, SuccessEnv(), config(100.0))
    reply = outcome.transcript.entries[1]
    assert reply.payload == b"1:1"
    assert set(outcome.transcript.steps_by_machine) == {0, 1}
    # spawn is priced at count * description bytes, not the root's step price
    assert outcome.transcript.cost_by_machine[0] == 8.0 + 8.0  # spawn + halt
    assert outcome.transcript.cost_by_machine[1] == 8.0  # child halt


def test_reply_answers_the_machines_own_last_move():
    seen = {}

    class Recorder:
        def __init__(self, name, actions):
            self.name = name
            self.actions = list(actions)

        def step(self, ctx):
            seen.setdefault(self.name, []).append(ctx.reply)
            return self.actions.pop(0) if self.actions else Halt()

    class EchoEnv:
        def respond(self, move):
            return Move(Actor.ENVIRONMENT, MoveClass.RESPONSE, b"re:" + move.payload)

    workers = [
        Recorder("a", [EmitMove(MoveClass.ENCRYPTION_REQUEST, b"a")]),
        Recorder("b", [LocalStep(), EmitMove(MoveClass.ENCRYPTION_REQUEST, b"b")]),
    ]
    root = Recorder(
        "root",
        [
            budget_query_action(),
            EmitMove(MoveClass.ENCRYPTION_REQUEST, b"x"),
            LocalStep(),
            SpawnBatch(MachineSpec(b"w"), workers),
        ],
    )
    outcome = play(root, EchoEnv(), config(1000.0))

    def payloads(name):
        return [None if r is None else r.payload for r in seen[name]]

    # the engine answers the budget query, the environment the encryption
    # request, and the local step leaves that answer in place
    assert payloads("root") == [None, b"992.0", b"re:x", b"re:x", b"1:2"]
    assert seen["root"][1] is outcome.transcript.entries[1]
    # each spawned machine sees only the replies to its own moves
    assert payloads("a") == [None, b"re:a"]
    assert payloads("b") == [None, None, b"re:b"]


def test_spawn_batch_shares_one_region():
    seen = []

    class Pool:
        def step(self, ctx):
            seen.append(id(ctx.shared))
            ctx.shared.extend(b"m")
            return Halt()

    spec = MachineSpec(b"worker", overlap_region="pool")
    strategy = Script([SpawnBatch(spec, [Pool(), Pool()])])
    outcome = play(strategy, SuccessEnv(), config(100.0))
    assert outcome.transcript.entries[1].payload == b"1:2"
    assert len(seen) == 2 and seen[0] == seen[1]
    assert outcome.transcript.cost_by_machine[0] == 12.0 + 8.0  # 2 * 6-byte spec + halt
    with pytest.raises(ProtocolFault):
        play(Script([SpawnBatch(spec, [])]), SuccessEnv(), config(100.0))


def test_environment_must_answer_with_one_response_move():
    class RawEnv:
        def respond(self, move):
            return b"raw bytes"

    class WrongActorEnv:
        def respond(self, move):
            return Move(Actor.ATTACKER, MoveClass.CHALLENGE, b"?")

    probe = Script([EmitMove(MoveClass.ENCRYPTION_REQUEST, b"block")])
    with pytest.raises(ProtocolFault) as info:
        play(probe, RawEnv(), config(100.0))
    assert info.value.transcript is not None
    probe = Script([EmitMove(MoveClass.ENCRYPTION_REQUEST, b"block")])
    with pytest.raises(ProtocolFault):
        play(probe, WrongActorEnv(), config(100.0))


def test_protocol_fault_transcript_ends_with_the_rejected_move():
    class RawEnv:
        def respond(self, move):
            return b"raw bytes"

    probe = Script([budget_query_action(), EmitMove(MoveClass.ENCRYPTION_REQUEST, b"block")])
    with pytest.raises(ProtocolFault) as info:
        play(probe, RawEnv(), config(100.0))
    entries = info.value.transcript.entries
    assert [m.kind for m in entries] == [
        MoveClass.INFO_REQUEST,
        MoveClass.RESPONSE,
        MoveClass.ENCRYPTION_REQUEST,
    ]
    assert entries[-1] == Move(Actor.ATTACKER, MoveClass.ENCRYPTION_REQUEST, b"block")


def test_protocol_fault_streams_the_list_backed_lines():
    class RawEnv:
        def respond(self, move):
            return b"raw bytes"

    def probe():
        return Script([budget_query_action(), EmitMove(MoveClass.ENCRYPTION_REQUEST, b"block")])

    with pytest.raises(ProtocolFault) as listed:
        play(probe(), RawEnv(), config(100.0))
    lines = []
    writer = TranscriptWriter(lines.append)
    with pytest.raises(ProtocolFault) as streamed:
        play(probe(), RawEnv(), config(100.0), entries=writer)
    assert streamed.value.transcript.entries is writer
    assert len(writer) == 3
    assert lines == [
        "0 Attacker InfoRequest 00000007" + b"budget?".hex() + "\n",
        "1 Environment Response 00000004" + b"92.0".hex() + "\n",  # 100 - 8-byte spec
        "2 Attacker EncryptionRequest 00000005" + b"block".hex() + "\n",
    ]
    listed_moves = list(enumerate(listed.value.transcript.entries))
    assert parse_transcript_moves("".join(lines)) == listed_moves


def test_strategy_side_faults():
    with pytest.raises(ProtocolFault):
        play(Script([EmitMove(MoveClass.RESPONSE, b"x")]), SuccessEnv(), config(100.0))
    with pytest.raises(ProtocolFault):
        play(Script([42]), SuccessEnv(), config(100.0))


def test_challenge_adjudication_stops_at_trial_quota():
    actions = [EmitMove(MoveClass.CHALLENGE, b"guess")] * 10
    outcome = play(Script(actions), SuccessEnv(), config(1e6, challenge_trials=7))
    assert outcome.result is GameResult.WON
    assert outcome.trials == 7
    assert outcome.successes == 7
    assert outcome.p_value == float(Fraction(1, 128))
    assert outcome.transcript.steps_by_machine == {0: 7}


@pytest.mark.parametrize(
    "actions, budget, trials, evaluations",
    [
        ([EmitMove(MoveClass.CHALLENGE, b"g")] * 10, 1e6, 7, 1),  # trial quota reached
        ([EmitMove(MoveClass.CHALLENGE, b"g")] * 10, 30.0, 3, 1),  # budget out
        ([LocalStep()], 1e6, 0, 0),
    ],
)
def test_tail_evaluated_once_per_game(monkeypatch, actions, budget, trials, evaluations):
    import workfunc.game as game

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    # both names the engine could reach the tail through
    monkeypatch.setattr(game, "binomial_tail_probability", counted(binomial_tail_probability))
    monkeypatch.setattr(game, "wins_challenge", counted(wins_challenge))
    outcome = play(Script(actions), SuccessEnv(), config(budget, challenge_trials=7))
    assert outcome.trials == trials
    assert len(calls) == evaluations
    assert (outcome.p_value is None) == (evaluations == 0)


def test_denials_do_not_count_as_trials():
    actions = [EmitMove(MoveClass.CHALLENGE, b"guess")] * 2
    outcome = play(Script(actions), DenyEnv(), config(1e6))
    assert outcome.result is GameResult.LOST_CHALLENGE_FAILED
    assert outcome.trials == 0
    assert outcome.p_value is None


def test_determinism_and_seed_sensitivity():
    def run(seed):
        actions = [EmitMove(MoveClass.ENCRYPTION_REQUEST, b"b")] * 5
        outcome = play(Script(actions), RandomEchoEnv(), config(1e6, rng_seed=seed))
        return export_transcript(outcome)

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_monotone_winnability_for_oblivious_strategy():
    def run(budget):
        actions = [EmitMove(MoveClass.CHALLENGE, b"g")] * 10
        return play(Script(actions), SuccessEnv(), config(budget, challenge_trials=10))

    small, large = run(1e6), run(1e7)
    assert small.result is large.result is GameResult.WON
    assert small.transcript.entries == large.transcript.entries
    assert small.total_cost == large.total_cost


def test_root_spec_override_changes_step_price():
    outcome = play(Script([LocalStep()], spec=MachineSpec(b"xx")), SuccessEnv(), config(100.0))
    assert outcome.total_cost == 4.0


def test_transcript_export_parse_roundtrip():
    actions = [budget_query_action(), EmitMove(MoveClass.CHALLENGE, b"\x00guess")]
    outcome = play(Script(actions), SuccessEnv(), config(1e3))
    text = export_transcript(outcome)
    assert text.endswith("challenges 1/1\n")
    parsed = parse_transcript_moves(text)
    assert [m for _, m in parsed] == outcome.transcript.entries
    assert [i for i, _ in parsed] == list(range(len(outcome.transcript.entries)))


@pytest.mark.parametrize(
    "bias, plaintext_bytes, digest",
    [
        (0.5, 32, "05d19ae610e12d82cb3f9680b1376993cf4f0a6486ab70438192f5db3ba62525"),
        (0.6, 5, "55356a102ae2579d6eb0e41c763010a6650de807a7c5f714f3271472513d2482"),
    ],
)
def test_otp_transcript_bytes_are_pinned(bias, plaintext_bytes, digest):
    """SHA-256 of two exported OTP games (seed 3, 500 trials), set up as
    `workfunc game` does; a change to the keystream, the move loop or the
    export that alters one transcript byte shows here."""
    outcome = run_otp_challenge(
        KeystreamGen(bias, "3:keystream"), 500, rng_seed=3, plaintext_bytes=plaintext_bytes
    )
    assert hashlib.sha256(export_transcript(outcome).encode()).hexdigest() == digest


def test_game_command_does_not_import_numpy(tmp_path):
    scenario = tmp_path / "null.scenario"
    scenario.write_text("[game_otp]\nseed = 1\nbias = 0.5\ntrials = 20\nbudget = 1e6\n")
    script = (
        "import sys\n"
        "from workfunc import cli\n"
        f"code = cli.main(['game', {str(scenario)!r}, '--transcript', {str(tmp_path / 't')!r}])\n"
        "assert code in (0, 3), code\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(workfunc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


class SliceScanner:
    """Scans keys index, index+width, ... until the target; flags via shared."""

    def __init__(self, target, index, width):
        self.target = target
        self.next_key = index
        self.width = width

    def step(self, ctx):
        if ctx.shared:
            return Halt()
        if self.next_key == self.target:
            ctx.shared.extend(b"found")
            return Halt()
        self.next_key += self.width
        return LocalStep()


def fleet_scan_outcome(width, target=700):
    spec = MachineSpec(b"w", overlap_region="scan-flag")
    workers = [SliceScanner(target, i, width) for i in range(width)]
    root = Script([SpawnBatch(spec, workers)])
    cfg = config(1e6, per_step_information=1.0)
    return play(root, SuccessEnv(), cfg)


def test_fleet_scan_round_robin_mechanics():
    # single scanner: 700 probes then the find-and-halt step
    solo = fleet_scan_outcome(1)
    assert solo.transcript.steps_by_machine == {0: 2, 1: 701}
    assert solo.total_cost == 1.0 + 1.0 + 701.0  # spawn(1x1B) + root halt + scans

    # four scanners: the owner needs 700/4 probes; peers stop one round later
    quad = fleet_scan_outcome(4)
    assert quad.transcript.steps_by_machine == {0: 2, 1: 176, 2: 176, 3: 176, 4: 176}
    assert quad.total_cost == 4.0 + 1.0 + 4 * 176.0
    assert quad.result is solo.result is GameResult.LOST_CHALLENGE_FAILED

    # wall-clock rounds (max steps of any machine) shrink by nearly 4x
    assert 701 / 176 == pytest.approx(4.0, rel=0.02)


def test_mass_spawn_batch():
    class Stop:
        def step(self, ctx):
            return Halt()

    stop = Stop()
    spec = MachineSpec(b"d")
    root = Script([SpawnBatch(spec, [stop] * 65536)])
    outcome = play(root, SuccessEnv(), config(1e7, per_step_information=0.0))
    assert outcome.transcript.entries[1].payload == b"1:65536"
    assert outcome.total_cost == 65536.0
    assert len(outcome.transcript.steps_by_machine) == 65537
