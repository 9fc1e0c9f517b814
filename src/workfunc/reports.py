"""Tabular reports with provenance columns and self-checking rebuilds.

Published figures are re-derived from the device catalog and cost model,
then compared against the printed values they reproduce.  A report
carries one provenance pair (tag, source location), which the renderers
repeat on every row so output is auditable.  Every checked figure is a
`Check`, whose `passed` is the one "within tolerance" rule.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple

from . import refdata
from .devices import REFERENCE_GPU, Fleet, cost_per_bit, default_catalog, find_device, fleet_rate, resource_rate
from .estimators import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_MONTH,
    SECONDS_PER_YEAR,
    Tf1Estimate,
    break_time,
    brute_force_cost,
    dictionary_stats,
    tf1_estimate,
)

Cell = int | float | str


class Check(NamedTuple):
    name: str
    statistic: float
    expected: float
    tolerance: float  # absolute bound on |statistic - expected|

    @property
    def passed(self) -> bool:
        """Within tolerance; a NaN anywhere compares false, so it never passes."""
        return abs(self.statistic - self.expected) <= self.tolerance


class Report:
    __slots__ = ("title", "columns", "rows", "provenance", "notes", "tolerance")

    def __init__(self, title: str, columns: tuple[str, ...], rows: tuple[tuple[Cell, ...], ...],
                 provenance: tuple[str, str], notes: tuple[str, ...] = (), tolerance: float = math.inf):
        for row in rows:
            if len(row) != len(columns):
                raise ValueError("row width must match columns")
        self.title = title
        self.columns = columns
        self.rows = rows
        self.provenance = provenance  # (tag, source location) of every row
        self.notes = notes
        self.tolerance = tolerance  # the relative deviation a row may reach (`report_failures`)


def relative_deviation(computed: float, printed: float) -> float:
    if printed == 0:
        raise ValueError("printed value must be nonzero")
    return abs(computed - printed) / abs(printed)


def format_duration(seconds: float) -> str:
    """Render a duration in the unit a reader would pick by hand."""
    if seconds < 0:
        raise ValueError("duration must be nonnegative")
    if seconds < 300:
        return f"{seconds:.4g} s"
    if seconds < 3 * SECONDS_PER_DAY:
        return f"{seconds / SECONDS_PER_HOUR:.4g} hours"
    if seconds < 92 * SECONDS_PER_DAY:
        return f"{seconds / SECONDS_PER_DAY:.4g} days"
    if seconds < 1.5 * SECONDS_PER_YEAR:
        return f"{seconds / SECONDS_PER_MONTH:.4g} months"
    return f"{seconds / SECONDS_PER_YEAR:.4g} years"


def _cell_text(value: Cell) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_text(report: Report) -> str:
    headers = list(report.columns) + ["source"]
    source = " ".join(report.provenance).strip()
    body = [[_cell_text(v) for v in row] + [source] for row in report.rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [report.title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    """CSV with repr floats, so parsing it back is bit-exact."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(report.columns) + ["provenance_tag", "provenance_source"])
    for row in report.rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row] + list(report.provenance))
    return out.getvalue()


def build_device_rate_report() -> Report:
    """Per-device resource rates against their published counterparts."""
    rows = []
    for device in default_catalog():
        printed = refdata.TABLE1_PRINTED[device.name]
        computed = resource_rate(device)
        rows.append(
            (
                device.name,
                device.transistor_count,
                device.clock_hz,
                computed,
                printed,
                relative_deviation(computed, printed),
            )
        )
    return Report(
        title="Device resource rates (bytes/s)",
        columns=(
            "device",
            "transistors",
            "clock_hz",
            "computed_rate",
            "printed_rate",
            "deviation",
        ),
        rows=tuple(rows),
        provenance=("printed", refdata.TABLE1_LOCATION),
        notes=(f"tolerance {refdata.TABLE1_TOLERANCE:.3g} relative",),
        tolerance=refdata.TABLE1_TOLERANCE,
    )


def build_cost_per_bit_report() -> Report:
    """Per-bit prices of published primitives against printed figures."""
    index = {d.name: d for d in default_catalog()}
    rows = []
    for cell in refdata.TABLE2_CELLS:
        record = cell.record
        computed = cost_per_bit(Fleet(index[record.device_name], cell.unit_count), record)
        printed = cell.printed_bytes_per_bit
        rows.append(
            (
                cell.row,
                record.device_name,
                cell.unit_count,
                record.algorithm,
                record.operation,
                computed,
                printed,
                relative_deviation(computed, printed),
            )
        )
    return Report(
        title="Encryption prices (bytes/bit)",
        columns=(
            "platform",
            "device",
            "units",
            "algorithm",
            "operation",
            "computed_bytes",
            "printed_bytes",
            "deviation",
        ),
        rows=tuple(rows),
        provenance=("printed", refdata.TABLE2_LOCATION),
        notes=(f"tolerance {refdata.TABLE2_TOLERANCE:.3g} relative",),
        tolerance=refdata.TABLE2_TOLERANCE,
    )


def table3_estimate(row: "refdata.Table3Row") -> "Tf1Estimate":
    """The row's search estimate on its stated reference cluster."""
    gpu = find_device(REFERENCE_GPU, default_catalog())
    return tf1_estimate(row.word_bits, fleet_rate(Fleet(gpu, row.cluster_units)))


def build_state_search_report() -> Report:
    """Strength ladder for packed-state recovery, with printed durations."""
    rows = []
    for row in refdata.TABLE3_ROWS:
        estimate = table3_estimate(row)
        seconds = estimate.expected_seconds
        rows.append(
            (
                row.word_bits,
                estimate.effective_strength_bits,
                estimate.expected_scan_words,
                row.printed_values,
                estimate.state_search_cost,
                row.cluster_units,
                format_duration(seconds),
                row.printed_time,
                relative_deviation(seconds, row.expected_seconds),
            )
        )
    return Report(
        title="Feedback-word state search costs",
        columns=(
            "word_bits",
            "strength_bits",
            "expected_scan_words",
            "printed_values",
            "cost_bytes",
            "cluster_units",
            "computed_time",
            "printed_time",
            "deviation",
        ),
        rows=tuple(rows),
        provenance=("printed", refdata.TABLE3_LOCATION),
        notes=(f"time tolerance {refdata.TABLE3_TIME_TOLERANCE:.3g} relative",),
        tolerance=refdata.TABLE3_TIME_TOLERANCE,
    )


def build_break_suite_report() -> Report:
    """Brute-force wall times for the published machine/keysize pairings,
    against their printed figures."""
    gpu = find_device(REFERENCE_GPU, default_catalog())
    rates = {label: refdata.TIANHE_PRINTED_RATE if gpus is None else fleet_rate(Fleet(gpu, gpus))
             for label, gpus in refdata.BREAK_SUITE_FLEETS.items()}
    rows = []
    for (label, key_bits), printed in refdata.BREAK_SUITE_PRINTED.items():
        cost = brute_force_cost(key_bits)
        est = break_time(cost, rates[label])
        rows.append((label, key_bits, cost, est.expected_seconds,
                     format_duration(est.expected_seconds), format_duration(printed), printed,
                     relative_deviation(est.expected_seconds, printed)))
    return Report(
        title="Exhaustive search wall times (printed figures attached)",
        columns=("fleet", "key_bits", "cost_bytes", "expected_seconds",
                 "computed_time", "printed_time", "printed_seconds", "deviation"),
        rows=tuple(rows),
        provenance=("printed", refdata.BREAK_SUITE_LOCATION),
        notes=(f"time tolerance {refdata.BREAK_SUITE_TOLERANCE:.3g} relative",),
        tolerance=refdata.BREAK_SUITE_TOLERANCE,
    )


def report_failures(report: Report) -> list[str]:
    """Rows whose "deviation" column fails `Check(row[0], deviation, 0.0, report.tolerance)`,
    as readable lines."""
    idx = report.columns.index("deviation")
    checks = (Check(row[0], row[idx], 0.0, report.tolerance) for row in report.rows)
    return [f"{c.name}: deviation {c.statistic:.4g} exceeds {c.tolerance:.4g}" for c in checks if not c.passed]


def printed_figure_checks() -> list[Check]:
    """The model against the figures printed beside the tables, each within its
    relative tolerance: the Tianhe-1A rate from its parts, the zero-word scan
    waits and the dictionary attack's sizes, and its printed integer, the
    comparison count, exactly."""
    gpu = resource_rate(find_device(REFERENCE_GPU, default_catalog()))
    key_bits, epsilon = refdata.DICTIONARY_ATTACK
    stats = dictionary_stats(key_bits, epsilon)
    figures = [("Tianhe-1A rate from its composition (bytes/s)", fleet_rate(refdata.TIANHE_COMPOSITION),
                refdata.TIANHE_PRINTED_RATE, refdata.TIANHE_TOLERANCE)]
    figures += [(f"zero-word scan wait at w={w}, printed {label} (s)", tf1_estimate(w, gpu).scan_seconds,
                 seconds, refdata.SCAN_WAIT_TOLERANCE) for w, seconds, label in refdata.SCAN_WAITS]
    figures += [(f"dictionary attack {field} at k={key_bits}, epsilon={epsilon}", getattr(stats, field),
                 printed, 0 if isinstance(printed, int) else refdata.DICTIONARY_TOLERANCE)
                for field, printed in refdata.DICTIONARY_PRINTED.items()]
    return [Check(name, model, printed, relative * abs(printed)) for name, model, printed, relative in figures]
