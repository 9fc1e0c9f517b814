"""Budgets.

A computation step that keeps I bytes of machinery busy costs I bytes.
The total cost of a run is the plain sum of its step costs.  The game
engine (`game.play`) charges a `Budget` once per step, and the ledger
identity initial - remaining == sum(charges) holds exactly as long as the
charges are exactly representable.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budget:
    initial: float
    remaining: float

    def __post_init__(self):
        if self.initial < 0:
            raise ValueError("initial must be non-negative")
        if not 0 <= self.remaining <= self.initial:
            raise ValueError("remaining must stay within [0, initial]")

    @classmethod
    def fresh(cls, initial: float) -> "Budget":
        return cls(initial, initial)
