import pytest
from hypothesis import given, strategies as st

from workfunc.cost import Budget, CostMeter, Depleted, charge, record_step


def test_meter_accumulates():
    m = CostMeter()
    m = record_step(m, 10.0)
    m = record_step(m, 0.0)
    m = record_step(m, 2.5)
    assert m.accumulated_cost == 12.5
    assert m.step_count == 3


def test_meter_rejects_negative_step():
    with pytest.raises(ValueError):
        record_step(CostMeter(), -1.0)


def test_meter_is_immutable():
    m = CostMeter()
    record_step(m, 5.0)
    assert m.accumulated_cost == 0.0 and m.step_count == 0


def test_budget_fresh_and_invariants():
    b = Budget.fresh(100.0)
    assert b.initial == b.remaining == 100.0
    with pytest.raises(ValueError):
        Budget(100.0, 101.0)
    with pytest.raises(ValueError):
        Budget(100.0, -1.0)
    with pytest.raises(ValueError):
        Budget(-1.0, 0.0)


def test_charge_deducts():
    b = charge(Budget.fresh(100.0), 30.0)
    assert isinstance(b, Budget)
    assert b.remaining == 70.0 and b.initial == 100.0


def test_exact_exhaustion_stays_solvent():
    b = charge(Budget.fresh(100.0), 100.0)
    assert isinstance(b, Budget)
    assert b.remaining == 0.0


def test_overdraft_is_depleted_not_an_error():
    out = charge(Budget.fresh(100.0), 100.0000001)
    assert isinstance(out, Depleted)
    assert out.budget.remaining == 0.0
    assert out.budget.initial == 100.0


def test_charge_rejects_negative():
    with pytest.raises(ValueError):
        charge(Budget.fresh(1.0), -0.5)


def test_zero_budget_is_legal_and_free_charges_pass():
    b = Budget.fresh(0.0)
    assert isinstance(charge(b, 0.0), Budget)
    assert isinstance(charge(b, 1.0), Depleted)


# integral charges add exactly in floats, so the ledger identity is exact
@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=50))
def test_ledger_identity_exact(costs):
    total = float(sum(costs))
    budget = Budget.fresh(total)
    meter = CostMeter()
    for c in costs:
        meter = record_step(meter, float(c))
        budget = charge(budget, float(c))
        assert isinstance(budget, Budget)
    assert meter.accumulated_cost == total
    assert budget.remaining == 0.0
    assert budget.initial - budget.remaining == meter.accumulated_cost
