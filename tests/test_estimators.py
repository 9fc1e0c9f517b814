import math

import pytest
from hypothesis import given, strategies as st

from workfunc.devices import Fleet, find_device, default_catalog, fleet_rate
from workfunc.estimators import (
    DEFAULT_BYTES_PER_KEY_BIT,
    HARDWARE_PROGRESS_PER_YEAR,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_MONTH,
    SECONDS_PER_YEAR,
    TRIPLE_BYTES_PER_KEY_BIT,
    break_time,
    brute_force_cost,
    dictionary_stats,
    progress_years,
    tf1_estimate,
)
from workfunc import refdata


def one_gpu():
    return fleet_rate(Fleet(find_device("ati-radeon-5870", default_catalog()), 1))


def test_brute_force_cost_closed_form():
    assert brute_force_cost(56) == 120.0 * 56 * 2.0**55
    assert brute_force_cost(1) == 120.0
    assert TRIPLE_BYTES_PER_KEY_BIT == 3 * DEFAULT_BYTES_PER_KEY_BIT


def test_model_validation():
    with pytest.raises(ValueError):
        brute_force_cost(0)
    with pytest.raises(ValueError):
        brute_force_cost(8, 0.0)
    with pytest.raises(ValueError):
        break_time(0.0, one_gpu())
    with pytest.raises(ValueError):
        break_time(1.0, -5.0)


def test_break_suite_56_bit_single_gpu():
    est = break_time(brute_force_cost(56), one_gpu())
    assert est.expected_seconds == pytest.approx(132.48, rel=1e-3)
    assert est.worst_case_seconds == 2 * est.expected_seconds


def test_break_suite_64_bit_single_gpu():
    est = break_time(brute_force_cost(64), one_gpu())
    assert est.expected_seconds / SECONDS_PER_HOUR == pytest.approx(10.767, rel=1e-3)


def test_break_suite_fleet_84_and_96_bit():
    gpu = find_device("ati-radeon-5870", default_catalog())
    fleet = Fleet(gpu, 65536)
    est84 = break_time(brute_force_cost(84), fleet_rate(fleet))
    assert est84.expected_seconds / SECONDS_PER_DAY == pytest.approx(9.421, rel=1e-3)
    est96 = break_time(brute_force_cost(96), fleet_rate(fleet))
    assert est96.expected_seconds / SECONDS_PER_YEAR == pytest.approx(120.83, rel=1e-3)


def test_tianhe_break_time_at_printed_rate():
    est = break_time(brute_force_cost(84), refdata.TIANHE_PRINTED_RATE)
    assert est.expected_seconds / SECONDS_PER_DAY == pytest.approx(86.80, rel=1e-3)


def test_tianhe_composition_is_consistent_with_printed_rate():
    rate = fleet_rate(refdata.TIANHE_COMPOSITION)
    assert rate == pytest.approx(refdata.TIANHE_PRINTED_RATE, rel=0.02)


def test_progress_years():
    assert progress_years(HARDWARE_PROGRESS_PER_YEAR) == pytest.approx(1.0)
    assert progress_years(60.0) == pytest.approx(6.838, rel=1e-3)
    with pytest.raises(ValueError):
        progress_years(0.5)
    with pytest.raises(ValueError):
        progress_years(10.0, annual_factor=1.0)


def test_dictionary_reference_point():
    stats = dictionary_stats(56, 6)
    assert stats.entries == 2.0**50
    assert stats.entry_bits == 4 * 56
    assert stats.dictionary_bytes == pytest.approx(3.15252e16, rel=1e-5)
    assert stats.expected_comparisons == 50
    assert stats.steps_per_lookup == 100
    assert stats.lookup_cost == 100 * stats.dictionary_bytes
    assert stats.per_key_cost == 2.0**6 * stats.lookup_cost
    assert stats.construction_cost == brute_force_cost(56)


def test_dictionary_upper_bound_switch():
    stats = dictionary_stats(56, 6, upper_bound=True)
    assert stats.expected_comparisons == 3 * 56 * 50
    assert stats.steps_per_lookup == 2 * 3 * 56 * 50


def test_dictionary_validation():
    with pytest.raises(ValueError):
        dictionary_stats(56, 56)
    with pytest.raises(ValueError):
        dictionary_stats(56, -1)
    with pytest.raises(ValueError):
        dictionary_stats(0, 0)


def test_tf1_strength_and_costs():
    est = tf1_estimate(32, one_gpu())
    assert est.intended_strength_bits == 64
    assert est.effective_strength_bits == 48.0
    assert est.state_search_cost == 120.0 * 48 * 2.0**47
    assert est.expected_seconds == pytest.approx(0.4436, rel=1e-3)
    assert est.expected_scan_words == 2.0**31


def test_tf1_scan_waits():
    # zero-word waits at the default 1e9 words/s
    est48 = tf1_estimate(48, one_gpu())
    assert est48.scan_seconds / SECONDS_PER_HOUR == pytest.approx(39.09, rel=1e-3)
    est56 = tf1_estimate(56, one_gpu())
    assert est56.scan_seconds / SECONDS_PER_MONTH == pytest.approx(13.67, rel=1e-3)


def test_tf1_accepts_raw_rate_and_scan_rate_override():
    est = tf1_estimate(16, 1e12, scan_words_per_second=1e6)
    assert est.scan_seconds == 2.0**15 / 1e6


@given(k=st.integers(min_value=1, max_value=400))
def test_cost_monotone_in_key_bits(k):
    assert brute_force_cost(k + 1) > brute_force_cost(k)


@given(
    cost=st.floats(min_value=1e-3, max_value=1e40, allow_nan=False),
    rate=st.floats(min_value=1e-3, max_value=1e30, allow_nan=False),
)
def test_break_time_identity(cost, rate):
    est = break_time(cost, rate)
    assert est.expected_seconds == cost / rate
    assert est.worst_case_seconds == 2.0 * est.expected_seconds


def test_time_unit_constants():
    assert SECONDS_PER_MONTH == 30.5 * 86400
    assert SECONDS_PER_YEAR == 365 * 86400
    assert math.isclose(math.log(HARDWARE_PROGRESS_PER_YEAR) / math.log(10) * 10, 2.6, rel_tol=0.01)
