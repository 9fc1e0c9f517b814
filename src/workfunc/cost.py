"""Cost accumulation and budgets.

A computation step that keeps I bytes of machinery busy costs I bytes.
The total cost of a run is the plain sum of its step costs.  Meters and
budgets are value objects, charged by `record_step` and by the game
engine (`game.play`), and the ledger identity initial - remaining ==
sum(charges) holds exactly as long as the charges are exactly
representable.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostMeter:
    accumulated_cost: float = 0.0
    step_count: int = 0


def record_step(meter: CostMeter, step_information: float) -> CostMeter:
    """Charge one step of the given information size onto the meter."""
    if step_information < 0:
        raise ValueError("step_information must be non-negative")
    return CostMeter(meter.accumulated_cost + step_information, meter.step_count + 1)


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
