import math

import pytest
from hypothesis import given, strategies as st

from workfunc.game import BUDGET_QUERY, HALT, GameConfig, GameResult, LocalStep, Move, MoveClass, play
from workfunc.otp import run_otp_challenge
from workfunc.toycrypto import KeystreamGen


# The budget is charged by the game engine: each case plays a strategy
# that takes `local_steps` local steps and then halts, every step priced
# at the strategy's `information`.


class Steps:
    def __init__(self, local_steps, information):
        self.left = local_steps
        self.information = information

    def step(self, ctx):
        if self.left:
            self.left -= 1
            return LocalStep()
        return HALT


def play_steps(budget, price, local_steps=1):
    return play(Steps(local_steps, price), None, GameConfig(budget=budget))


def test_play_deducts_each_step():
    outcome = play_steps(100.0, 30.0)
    assert outcome.result is GameResult.LOST_CHALLENGE_FAILED  # no challenge was played
    assert outcome.budget_remaining == 40.0
    assert outcome.total_cost == outcome.transcript.charges_total == 60.0


def test_exact_exhaustion_stays_solvent():
    outcome = play_steps(100.0, 50.0)
    assert outcome.result is GameResult.LOST_CHALLENGE_FAILED
    assert outcome.budget_remaining == 0.0
    assert outcome.transcript.steps_by_machine == {0: 2}


def test_overdraft_charges_the_remainder_and_keeps_initial():
    outcome = play_steps(100.0, 100.0000001)
    assert outcome.result is GameResult.LOST_BUDGET_DEPLETED
    assert outcome.budget_remaining == 0.0
    assert outcome.total_cost == outcome.transcript.charges_total == 100.0
    assert outcome.transcript.steps_by_machine == {0: 1}
    assert outcome.transcript.entries == []


def test_zero_budget_is_legal_and_free_steps_pass():
    free = play_steps(0.0, 0.0)
    assert free.result is GameResult.LOST_CHALLENGE_FAILED
    assert free.budget_remaining == 0.0
    assert free.transcript.steps_by_machine == {0: 2}
    priced = play_steps(0.0, 1.0)
    assert priced.result is GameResult.LOST_BUDGET_DEPLETED
    assert priced.total_cost == 0.0


def test_step_price_must_be_a_non_negative_number():
    for price in (-0.5, math.nan):
        with pytest.raises(ValueError, match="information must be non-negative"):
            play_steps(1.0, price)
        with pytest.raises(ValueError, match="information must be non-negative"):
            run_otp_challenge(KeystreamGen(0.5, seed=0), trials=1, budget=1.0, per_step_information=price)


class BudgetQueries:
    """Asks for the budget `queries` times, then halts; each step costs `information`."""

    def __init__(self, queries, information):
        self.left = queries
        self.information = information

    def step(self, ctx):
        if self.left:
            self.left -= 1
            return Move(MoveClass.INFO_REQUEST, BUDGET_QUERY)
        return HALT


# integral step prices subtract exactly in floats: every reply, the ledger
# and the plain sum of the step prices agree to the last bit, and the
# budget ends exactly empty
@given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=0, max_value=49))
def test_play_ledger_identity_exact(price, queries):
    steps = queries + 1  # the halt is a step too
    total = float(price * steps)
    outcome = play(BudgetQueries(queries, float(price)), None, GameConfig(budget=total))
    replies = outcome.transcript.entries[1::2]
    assert [r.payload for r in replies[:-1]] == [
        repr(float(price * (steps - k))).encode() for k in range(1, steps)
    ]
    summed = 0.0
    for _ in range(steps):
        summed += float(price)
    assert outcome.result is GameResult.LOST_CHALLENGE_FAILED
    assert outcome.budget_remaining == 0.0
    assert outcome.total_cost == outcome.transcript.charges_total == summed == total
