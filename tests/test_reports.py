import csv
import math

import pytest

from workfunc import refdata
from workfunc.reports import (
    Check,
    Report,
    build_break_suite_report,
    build_cost_per_bit_report,
    build_device_rate_report,
    build_state_search_report,
    format_duration,
    relative_deviation,
    render_csv,
    render_text,
    report_failures,
    table3_estimate,
)

SAMPLE = Report(
    title="Sample",
    columns=("name", "value", "deviation"),
    rows=(("alpha", 0.1 + 0.2, 0.001), ("beta", 7, 0.5)),
    provenance=("printed", "Table 9"),
    notes=("just a fixture",),
)


def test_format_duration_units():
    assert format_duration(0.0) == "0 s"
    assert format_duration(132.48317) == "132.5 s"
    assert format_duration(299.0) == "299 s"
    assert format_duration(300.0) == "0.08333 hours"
    assert format_duration(259199.0) == "72 hours"
    assert format_duration(3 * 86400.0) == "3 days"
    assert format_duration(92 * 86400.0) == "3.016 months"
    assert format_duration(1.5 * 365 * 86400.0) == "1.5 years"
    with pytest.raises(ValueError):
        format_duration(-1.0)


def test_relative_deviation():
    assert relative_deviation(110.0, 100.0) == pytest.approx(0.1)
    assert relative_deviation(90.0, -100.0) == pytest.approx(1.9)
    with pytest.raises(ValueError):
        relative_deviation(1.0, 0.0)


def test_report_shape_validation():
    with pytest.raises(ValueError):
        Report("t", ("a",), (("x", "y"),), ("printed", "loc"))


def test_render_text_layout():
    text = render_text(SAMPLE)
    lines = text.splitlines()
    assert lines[0] == "Sample"
    assert lines[1].split() == ["name", "value", "deviation", "source"]
    assert set(lines[2]) <= {"-", " "}
    assert lines[3].startswith("alpha")
    assert lines[3].rstrip().endswith("printed Table 9")
    assert lines[4].rstrip().endswith("printed Table 9")
    # an empty source location leaves only the tag
    derived = render_text(Report("t", ("a",), (("x",),), ("derived", "")))
    assert derived.splitlines()[3].split() == ["x", "derived"]
    assert lines[-1] == "note: just a fixture"


def test_csv_roundtrip_is_bit_exact():
    header, *lines = csv.reader(render_csv(SAMPLE).splitlines())
    assert header == list(SAMPLE.columns) + ["provenance_tag", "provenance_source"]
    assert [tuple(line[-2:]) for line in lines] == [SAMPLE.provenance] * len(SAMPLE.rows)
    for line, row in zip(lines, SAMPLE.rows, strict=True):
        # each cell reads back as its own type; floats survive via repr
        assert tuple(type(cell)(text) for text, cell in zip(line[:-2], row, strict=True)) == row


def test_device_rate_report_reproduces_published_rates():
    report = build_device_rate_report()
    assert len(report.rows) == 5
    assert report.tolerance == refdata.TABLE1_TOLERANCE
    assert report_failures(report) == []
    assert report.provenance == ("printed", refdata.TABLE1_LOCATION)


def test_cost_per_bit_report_reproduces_published_prices():
    report = build_cost_per_bit_report()
    assert len(report.rows) == 9
    assert report.tolerance == refdata.TABLE2_TOLERANCE
    assert report_failures(report) == []


def test_state_search_report_reproduces_published_times():
    report = build_state_search_report()
    assert len(report.rows) == 5
    assert report.tolerance == refdata.TABLE3_TIME_TOLERANCE
    assert report_failures(report) == []
    scan_idx = report.columns.index("expected_scan_words")
    for row, ref in zip(report.rows, refdata.TABLE3_ROWS):
        assert row[scan_idx] == 2.0 ** (ref.word_bits - 1)


def test_table3_estimate_matches_reference_seconds():
    for ref in refdata.TABLE3_ROWS:
        estimate = table3_estimate(ref)
        assert estimate.expected_seconds == pytest.approx(ref.expected_seconds, rel=1e-6)


def test_break_suite_report_times():
    report = build_break_suite_report()
    assert len(report.rows) == 5
    time_idx = report.columns.index("computed_time")
    printed_idx = report.columns.index("printed_time")
    assert report.rows[0][time_idx] == report.rows[0][printed_idx] == "132.5 s"
    assert report.rows[1][time_idx] == "10.77 hours"
    assert report.rows[3][time_idx] == "120.8 years"
    # every row is checked against its printed time: the 84-bit fleet row
    # is 9.421 days against a printed 10.1, the others within 0.05 %
    deviations = [row[report.columns.index("deviation")] for row in report.rows]
    assert deviations[2] == pytest.approx(1 - 9.421 / 10.1, abs=1e-3)
    assert max(deviations[:2] + deviations[3:]) < 5e-4
    assert report.tolerance == refdata.BREAK_SUITE_TOLERANCE
    assert report_failures(report) == []


def test_report_failures_flags_bad_rows():
    report = Report(
        title="t",
        columns=("name", "deviation"),
        rows=(("ok", 0.05), ("bad", 0.2), ("worse", float("inf")), ("nan", float("nan"))),
        provenance=(" ", ""),
        tolerance=0.1,
    )
    lines = report_failures(report)
    assert len(lines) == 3
    assert lines[0].startswith("bad:")


@pytest.mark.parametrize("deviation", [math.nan, math.inf, -math.inf, 0.1, 0.1000001, 0.0999999, 0.0])
def test_a_table_row_and_a_check_share_one_rule(deviation):
    # a NaN or infinite deviation fails, and one exactly at the tolerance passes
    report = Report("t", ("name", "deviation"), (("row", deviation),), ("", ""), tolerance=0.1)
    check = Check("row", deviation, 0.0, 0.1)
    assert check.passed is (report_failures(report) == [])
    assert check.passed is (deviation in (0.1, 0.0999999, 0.0))

