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
from workfunc.game import (
    BUDGET_QUERY,
    HALT,
    GameConfig,
    GameResult,
    LocalStep,
    MachineSpec,
    Move,
    PLAYER,
    MoveClass,
    ProtocolFault,
    SpawnBatch,
    TranscriptWriter,
    binomial_tail_probability,
    export_transcript,
    frame,
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
        return HALT


class SuccessEnv:
    def respond(self, move):
        return Move(MoveClass.RESPONSE, b"\x01")


class DenyEnv:
    def respond(self, move):
        return Move(MoveClass.DENIAL, b"no")


class RandomEchoEnv:
    def start(self, rng):
        self.rng = rng

    def respond(self, move):
        return Move(MoveClass.RESPONSE, bytes([self.rng.getrandbits(8)]))


def config(budget, **kw):
    return GameConfig(budget=budget, **kw)


def test_frame_unframe_roundtrip():
    assert frame(b"abc") == b"\x00\x00\x00\x03abc"
    assert unframe(frame(b"") + frame(b"xy")) == [b"", b"xy"]
    assert unframe(b"") == []
    with pytest.raises(ValueError):
        unframe(b"\x00\x00\x01")
    with pytest.raises(ValueError):
        unframe(b"\x00\x00\x00\x05ab")


def test_transcript_line_names_the_player_of_each_class():
    lines = []
    writer = TranscriptWriter(lines.append)
    for kind in MoveClass:
        writer.append(Move(kind, b"\x01"))
    assert [line.split(" ")[1:3] for line in lines] == [
        ["Attacker", "InfoRequest"],
        ["Attacker", "StructuralRequest"],
        ["Attacker", "EncryptionRequest"],
        ["Attacker", "Challenge"],
        ["Environment", "Response"],
        ["Environment", "Denial"],
    ]


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


def _exact_tail_counts(n):
    """[sum of C(n, i) for i >= s, for s = 0..n + 1]."""
    counts = [0] * (n + 2)
    coefficient = 1
    for i in range(n, -1, -1):  # C(n, i), walking down from C(n, n) = 1
        counts[i] = counts[i + 1] + coefficient
        coefficient = coefficient * i // (n - i + 1)
    return counts


def _grid_trials():
    """Every n <= 64, then every 97th n up to 2000, and 2000 itself."""
    return [*range(1, 65), *range(65, 2000, 97), 2000]


def test_filtered_verdicts_exact_on_grid(monkeypatch):
    """With the float filter forced at every n: for every s of each grid
    n <= 2000, p is within E(n) * P + 2**-1074 of the exact tail P, and
    the verdict is the exact comparison at alpha 0.01 and 0.05.  Alpha
    equal to p (a tie) and the floats next to the exact tail, which the
    exact fallback decides, are tried at every s up to n = 64 and at
    every 25th s above."""
    import workfunc.game as game

    monkeypatch.setattr(game, "EXACT_TAIL_TRIALS", 0)
    fallbacks = []
    real = game._tail_at_most
    monkeypatch.setattr(game, "_tail_at_most", lambda *args: fallbacks.append(args) or real(*args))
    tiny = Fraction(1, 1 << 1074)
    for n in _grid_trials():
        bound = Fraction(game.tail_error_bound(n))
        counts = _exact_tail_counts(n)
        for s in range(n + 1):
            exact = Fraction(counts[s], 1 << n)
            p = binomial_tail_probability(s, n)
            assert abs(Fraction(p) - exact) <= bound * exact + tiny, (s, n)
            near = float(exact)
            alphas = [0.01, 0.05]
            if n <= 64 or s % 25 == 0:
                alphas += [p, math.nextafter(near, 0.0), math.nextafter(near, 1.0)]
            for alpha in alphas:
                if 0 < alpha < 1:
                    assert wins_challenge(s, n, alpha) == (exact <= Fraction(alpha)), (s, n, alpha)
    assert len(fallbacks) > 1000


@pytest.mark.slow
def test_filtered_verdicts_exact_for_every_trial_count(monkeypatch):
    """With the float filter forced: for every n <= 2000 and every s, the
    verdict at alpha 0.01 and 0.05 is the exact comparison.  About a
    minute; selected by `pytest -m slow`."""
    import workfunc.game as game

    monkeypatch.setattr(game, "EXACT_TAIL_TRIALS", 0)
    levels = [(alpha, *alpha.as_integer_ratio()) for alpha in (0.01, 0.05)]
    for n in range(1, 2001):
        counts = _exact_tail_counts(n)
        for s in range(n + 1):
            for alpha, numerator, denominator in levels:
                exact = counts[s] * denominator <= numerator << n
                assert wins_challenge(s, n, alpha) == exact, (s, n, alpha)


def test_fallback_decides_when_alpha_is_the_filtered_p(monkeypatch):
    """Above the cutoff, alpha equal to the filtered p is inside the
    margin, so the exact comparison runs, once, and gives the exact
    verdict; a far alpha does not reach it."""
    import workfunc.game as game

    calls = []
    real = game._tail_at_most
    monkeypatch.setattr(game, "_tail_at_most", lambda *args: calls.append(args) or real(*args))
    n = game.EXACT_TAIL_TRIALS + 1
    counts = _exact_tail_counts(n)
    for s in (0, 1, n // 2 - 40, n // 2, n // 2 + 1, n // 2 + 60, n - 300):
        exact = Fraction(counts[s], 1 << n)
        p = binomial_tail_probability(s, n)
        if not 0 < p < 1:
            continue
        calls.clear()
        assert wins_challenge(s, n, p) == (exact <= Fraction(p)), s
        assert calls == [(s, n, p)]
        calls.clear()
        far = 0.5 * p if exact > 0.5 * p else min(2 * p, 0.75)
        assert wins_challenge(s, n, far) == (exact <= Fraction(far)), s
        assert calls == []


def test_filtered_tail_within_its_bound_of_scipy():
    stats = pytest.importorskip("scipy.stats")
    import workfunc.game as game

    for n in (game.EXACT_TAIL_TRIALS + 1, 5000, 10**4, 10**5, 10**6):
        sd = math.sqrt(n) / 2
        for z in (-30, -8, -3, -1, -0.2, 0, 0.2, 1, 3, 8, 20, 30):
            s = min(max(round(n / 2 + z * sd), 0), n)
            ref = float(stats.binom.sf(s - 1, n, 0.5))
            assert ref > 1e-300
            p = binomial_tail_probability(s, n)
            assert abs(p - ref) <= game.tail_error_bound(n) * ref, (s, n)


def test_adjudication_at_the_trial_cap_is_fast():
    n = 1_000_000
    start = time.perf_counter()
    for s in (n // 2, n // 2 + 1200, n // 2 + 2000):
        wins_challenge(s, n, 0.01)
    assert (time.perf_counter() - start) / 3 < 0.05


def test_config_validation():
    for budget in (-1.0, math.nan):
        with pytest.raises(ValueError, match="budget"):
            config(budget)
    with pytest.raises(ValueError):
        config(10.0, challenge_trials=-1)
    with pytest.raises(ValueError):
        config(10.0, win_threshold=1.0)
    with pytest.raises(ValueError):
        config(10.0, per_step_information=-1.0)


def test_ledger_exact_on_scripted_game():
    # root description b"attacker" is 8 bytes; every step costs 8 + work tape
    strategy = Script([LocalStep(), Move(MoveClass.INFO_REQUEST, BUDGET_QUERY), LocalStep()])
    outcome = play(strategy, SuccessEnv(), config(1000.0))
    assert outcome.result is GameResult.LOST_CHALLENGE_FAILED
    assert outcome.total_cost == 32.0
    assert outcome.transcript.charges_total == 32.0
    assert outcome.budget_remaining == 968.0
    assert outcome.transcript.steps_by_machine == {0: 4}
    # budget reply reflects the balance after that step's own deduction
    query_reply = outcome.transcript.entries[1]
    assert float(query_reply.payload) == 984.0


def test_work_tape_raises_next_step_price():
    class Scribbler:
        def __init__(self):
            self.calls = 0

        def step(self, ctx):
            self.calls += 1
            if self.calls == 1:
                ctx.work_tape.extend(b"x" * 10)
                return LocalStep()
            return HALT

    outcome = play(Scribbler(), SuccessEnv(), config(100.0))
    assert outcome.total_cost == 8.0 + 18.0


def test_budget_depletion_charges_remainder():
    outcome = play(Script([LocalStep(), LocalStep(), LocalStep()]), SuccessEnv(), config(20.0))
    assert outcome.result is GameResult.LOST_BUDGET_DEPLETED
    assert outcome.total_cost == 20.0
    assert outcome.transcript.charges_total == 20.0
    assert outcome.budget_remaining == 0.0


def test_exact_exhaustion_is_not_depletion():
    outcome = play(Script([LocalStep()]), SuccessEnv(), config(16.0))
    assert outcome.result is GameResult.LOST_CHALLENGE_FAILED
    assert outcome.total_cost == 16.0
    assert outcome.budget_remaining == 0.0


def test_zero_budget_opens_depleted():
    outcome = play(Script([LocalStep()]), SuccessEnv(), config(0.0))
    assert outcome.result is GameResult.LOST_BUDGET_DEPLETED
    assert outcome.total_cost == 0.0


def test_structural_request_gets_engine_ok():
    strategy = Script([Move(MoveClass.STRUCTURAL_REQUEST, b"lease ram")])
    outcome = play(strategy, SuccessEnv(), config(100.0))
    assert outcome.transcript.entries[1].payload == b"ok"


def test_halt_move_ends_its_machine():
    # an equal move, not the HALT object itself: the engine reads class and payload
    halt = Move(MoveClass.STRUCTURAL_REQUEST, b"halt")
    assert halt is not HALT and halt == HALT
    outcome = play(Script([halt, Move(MoveClass.CHALLENGE, b"g")]), SuccessEnv(), config(100.0))
    assert outcome.transcript.entries == [halt, Move(MoveClass.RESPONSE, b"ok")]
    assert outcome.transcript.steps_by_machine == {0: 1}
    assert outcome.trials == 0


def test_spawn_reply_and_child_scheduling():
    child = Script([])
    strategy = Script([SpawnBatch(MachineSpec(b"worker"), [child])])
    outcome = play(strategy, SuccessEnv(), config(100.0))
    reply = outcome.transcript.entries[1]
    assert reply.payload == b"1:1"
    assert outcome.transcript.steps_by_machine == {0: 2, 1: 1}
    # spawn is priced at count * description bytes, not the root's 8-byte
    # step price, and the child steps at its own 6-byte spec
    assert outcome.transcript.charges_total == 6.0 + 8.0 + 6.0  # spawn + root halt + child halt


def test_reply_answers_the_machines_own_last_move():
    seen = {}

    class Recorder:
        def __init__(self, name, actions):
            self.name = name
            self.actions = list(actions)

        def step(self, ctx):
            seen.setdefault(self.name, []).append(ctx.reply)
            return self.actions.pop(0) if self.actions else HALT

    class EchoEnv:
        def respond(self, move):
            return Move(MoveClass.RESPONSE, b"re:" + move.payload)

    workers = [
        Recorder("a", [Move(MoveClass.ENCRYPTION_REQUEST, b"a")]),
        Recorder("b", [LocalStep(), Move(MoveClass.ENCRYPTION_REQUEST, b"b")]),
    ]
    root = Recorder(
        "root",
        [
            Move(MoveClass.INFO_REQUEST, BUDGET_QUERY),
            Move(MoveClass.ENCRYPTION_REQUEST, b"x"),
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


def test_spawn_batch_pricing_and_empty_batch_fault():
    spec = MachineSpec(b"worker")
    strategy = Script([SpawnBatch(spec, [Script([]), Script([])])])
    outcome = play(strategy, SuccessEnv(), config(100.0))
    assert outcome.transcript.entries[1].payload == b"1:2"
    assert outcome.transcript.steps_by_machine == {0: 2, 1: 1, 2: 1}
    # 2 * 6-byte spec + root halt + two 6-byte child halts
    assert outcome.transcript.charges_total == 12.0 + 8.0 + 2 * 6.0
    with pytest.raises(ProtocolFault):
        play(Script([SpawnBatch(spec, [])]), SuccessEnv(), config(100.0))


def test_environment_must_answer_with_one_response_move():
    class RawEnv:
        def respond(self, move):
            return b"raw bytes"

    class WrongActorEnv:
        def respond(self, move):
            return Move(MoveClass.CHALLENGE, b"?")

    probe = Script([Move(MoveClass.ENCRYPTION_REQUEST, b"block")])
    with pytest.raises(ProtocolFault) as info:
        play(probe, RawEnv(), config(100.0))
    assert info.value.transcript is not None
    probe = Script([Move(MoveClass.ENCRYPTION_REQUEST, b"block")])
    with pytest.raises(ProtocolFault):
        play(probe, WrongActorEnv(), config(100.0))


def test_protocol_fault_transcript_ends_with_the_rejected_move():
    class RawEnv:
        def respond(self, move):
            return b"raw bytes"

    probe = Script([Move(MoveClass.INFO_REQUEST, BUDGET_QUERY), Move(MoveClass.ENCRYPTION_REQUEST, b"block")])
    with pytest.raises(ProtocolFault) as info:
        play(probe, RawEnv(), config(100.0))
    entries = info.value.transcript.entries
    assert [m.kind for m in entries] == [
        MoveClass.INFO_REQUEST,
        MoveClass.RESPONSE,
        MoveClass.ENCRYPTION_REQUEST,
    ]
    assert entries[-1] == Move(MoveClass.ENCRYPTION_REQUEST, b"block")


def test_protocol_fault_streams_the_list_backed_lines():
    class RawEnv:
        def respond(self, move):
            return b"raw bytes"

    def probe():
        return Script([Move(MoveClass.INFO_REQUEST, BUDGET_QUERY), Move(MoveClass.ENCRYPTION_REQUEST, b"block")])

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
    relisted = []
    rewriter = TranscriptWriter(relisted.append)
    for move in listed.value.transcript.entries:
        rewriter.append(move)
    assert relisted == lines


def test_strategy_side_faults():
    with pytest.raises(ProtocolFault):
        play(Script([Move(MoveClass.RESPONSE, b"x")]), SuccessEnv(), config(100.0))
    with pytest.raises(ProtocolFault):
        play(Script([42]), SuccessEnv(), config(100.0))


def test_challenge_adjudication_stops_at_trial_quota():
    actions = [Move(MoveClass.CHALLENGE, b"guess")] * 10
    outcome = play(Script(actions), SuccessEnv(), config(1e6, challenge_trials=7))
    assert outcome.result is GameResult.WON
    assert outcome.trials == 7
    assert outcome.successes == 7
    assert outcome.p_value == float(Fraction(1, 128))
    assert outcome.transcript.steps_by_machine == {0: 7}


@pytest.mark.parametrize(
    "actions, budget, trials, evaluations",
    [
        ([Move(MoveClass.CHALLENGE, b"g")] * 10, 1e6, 7, 1),  # trial quota reached
        ([Move(MoveClass.CHALLENGE, b"g")] * 10, 30.0, 3, 1),  # budget out
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
    actions = [Move(MoveClass.CHALLENGE, b"guess")] * 2
    outcome = play(Script(actions), DenyEnv(), config(1e6))
    assert outcome.result is GameResult.LOST_CHALLENGE_FAILED
    assert outcome.trials == 0
    assert outcome.p_value is None


def test_determinism_and_seed_sensitivity():
    def run(seed):
        actions = [Move(MoveClass.ENCRYPTION_REQUEST, b"b")] * 5
        outcome = play(Script(actions), RandomEchoEnv(), config(1e6, rng_seed=seed))
        return export_transcript(outcome)

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_monotone_winnability_for_oblivious_strategy():
    def run(budget):
        actions = [Move(MoveClass.CHALLENGE, b"g")] * 10
        return play(Script(actions), SuccessEnv(), config(budget, challenge_trials=10))

    small, large = run(1e6), run(1e7)
    assert small.result is large.result is GameResult.WON
    assert small.transcript.entries == large.transcript.entries
    assert small.total_cost == large.total_cost


def test_root_spec_override_changes_step_price():
    outcome = play(Script([LocalStep()], spec=MachineSpec(b"xx")), SuccessEnv(), config(100.0))
    assert outcome.total_cost == 4.0


def test_transcript_export_lines():
    actions = [Move(MoveClass.INFO_REQUEST, BUDGET_QUERY), Move(MoveClass.CHALLENGE, b"\x00guess")]
    outcome = play(Script(actions), SuccessEnv(), config(1e3))
    assert export_transcript(outcome) == (
        "0 Attacker InfoRequest 00000007" + b"budget?".hex() + "\n"
        "1 Environment Response 00000005" + b"992.0".hex() + "\n"
        "2 Attacker Challenge 00000006" + b"\x00guess".hex() + "\n"
        "3 Environment Response 0000000101\n"
        "4 Attacker StructuralRequest 00000004" + b"halt".hex() + "\n"
        "5 Environment Response 00000002" + b"ok".hex() + "\n"
        "total_cost 24.0\nresult LostChallengeFailed\nchallenges 1/1\n"
    )


def _reference_line(index, move):
    """A move's transcript line, formatted afresh."""
    head = f"{PLAYER[move.kind].value} {move.kind.value}"
    return f"{index} {head} {len(move.payload):08x}{move.payload.hex()}\n"


def test_streamed_lines_equal_per_move_reference_on_a_long_game():
    """A 3,000-trial game streamed through a writer, whose cache serves
    the repeated request, challenge and verdict moves, writes the lines
    of the same game's moves formatted one by one."""
    keystream = lambda: KeystreamGen(0.6, "7:keystream")  # noqa: E731
    listed = run_otp_challenge(keystream(), 3000, rng_seed=7, plaintext_bytes=3)
    lines = []
    streamed = run_otp_challenge(
        keystream(), 3000, rng_seed=7, plaintext_bytes=3, entries=TranscriptWriter(lines.append)
    )
    assert len(streamed.transcript.entries) == len(listed.transcript.entries) == 12_000
    assert lines == [_reference_line(i, move) for i, move in enumerate(listed.transcript.entries)]


def test_writer_cache_never_serves_a_reused_id_a_stale_line():
    """Distinct short-lived moves, each dropped once written, reuse the ids
    of earlier ones; every line is still its own move's."""
    lines, ids = [], set()
    writer = TranscriptWriter(lines.append)
    expected = []
    for i in range(5000):
        move = Move(MoveClass.RESPONSE if i % 2 else MoveClass.CHALLENGE, i.to_bytes(4, "big"))
        ids.add(id(move))
        writer.append(move)
        expected.append(_reference_line(i, move))
        del move
    assert len(ids) < 5000  # ids were reused
    assert lines == expected


def test_writer_cache_stays_bounded():
    writer = TranscriptWriter(lambda line: None)
    kept = [Move(MoveClass.RESPONSE, i.to_bytes(4, "big")) for i in range(1000)]
    for move in kept * 3:
        writer.append(move)
    assert len(writer) == 3000
    assert len(writer._tails) <= TranscriptWriter.TAIL_CACHE_SIZE


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
    """Scans keys index, index+width, ... until the target; flags the find
    in a buffer that all the scanners share."""

    def __init__(self, target, index, width, found):
        self.target = target
        self.next_key = index
        self.width = width
        self.found = found

    def step(self, ctx):
        if self.found:
            return HALT
        if self.next_key == self.target:
            self.found.extend(b"found")
            return HALT
        self.next_key += self.width
        return LocalStep()


def fleet_scan_outcome(width, target=700):
    spec = MachineSpec(b"w")
    found = bytearray()
    workers = [SliceScanner(target, i, width, found) for i in range(width)]
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
            return HALT

    stop = Stop()
    spec = MachineSpec(b"d")
    root = Script([SpawnBatch(spec, [stop] * 65536)])
    outcome = play(root, SuccessEnv(), config(1e7, per_step_information=0.0))
    assert outcome.transcript.entries[1].payload == b"1:65536"
    assert outcome.total_cost == 65536.0
    assert len(outcome.transcript.steps_by_machine) == 65537
