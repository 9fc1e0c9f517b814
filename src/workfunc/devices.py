"""Device model: a processor priced as frozen information times a clock.

A device is reduced to its transistor count.  Every transistor carries one
byte of description (one state bit plus seven bits locating it in the
wiring), so a device holding T transistors contributes T bytes per clock
tick to the running cost of whatever it computes.  The only two numbers
that matter for pricing are therefore the transistor count and the clock.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

BITS_PER_TRANSISTOR = 8.0

CATALOG_HEADER = "name,transistor_count,clock_hz,component_count,bits_per_transistor"


def normalize_name(name: str) -> str:
    """Canonical device name: lowercase, whitespace runs become hyphens."""
    return "-".join(name.strip().lower().split())


class DeviceSpec:
    """One device model.

    component_count is informational (cores, shader processors, slices);
    the cost model reads only transistor_count, bits_per_transistor and
    clock_hz.
    """

    __slots__ = ("name", "transistor_count", "clock_hz", "component_count", "bits_per_transistor")

    def __init__(self, name: str, transistor_count: int, clock_hz: float, component_count: int = 1,
                 bits_per_transistor: float = BITS_PER_TRANSISTOR):
        if transistor_count <= 0:
            raise ValueError(f"{name}: transistor_count must be positive")
        if clock_hz <= 0:
            raise ValueError(f"{name}: clock_hz must be positive")
        if component_count <= 0:
            raise ValueError(f"{name}: component_count must be positive")
        if bits_per_transistor <= 0:
            raise ValueError(f"{name}: bits_per_transistor must be positive")
        self.name = name
        self.transistor_count = transistor_count
        self.clock_hz = clock_hz
        self.component_count = component_count
        self.bits_per_transistor = bits_per_transistor


class Fleet:
    """unit_count copies of one device running in parallel."""

    __slots__ = ("device", "unit_count")

    def __init__(self, device: DeviceSpec, unit_count: int = 1):
        if unit_count < 1:
            raise ValueError("unit_count must be at least 1")
        self.device = device
        self.unit_count = unit_count


class ThroughputRecord:
    """Published throughput of an algorithm on a named device.

    operation is "encrypt", "decrypt" or "combined".  core_fraction scales
    the device rate when the figure was measured on a fraction of the
    device (0.5 for one core of a dual-core part).
    """

    __slots__ = ("device_name", "algorithm", "operation", "throughput_bits_per_s", "core_fraction")

    def __init__(self, device_name: str, algorithm: str, operation: str, throughput_bits_per_s: float,
                 core_fraction: float = 1.0):
        if throughput_bits_per_s <= 0:
            raise ValueError("throughput must be positive")
        if not 0 < core_fraction <= 1:
            raise ValueError("core_fraction must be in (0, 1]")
        self.device_name = device_name
        self.algorithm = algorithm
        self.operation = operation
        self.throughput_bits_per_s = throughput_bits_per_s
        self.core_fraction = core_fraction


def i_dev_bytes(spec: DeviceSpec) -> float:
    """Description size of the device in bytes."""
    return spec.transistor_count * spec.bits_per_transistor / 8.0


def resource_rate(spec: DeviceSpec) -> float:
    """Bytes of computation the device prices per second: i_dev * clock."""
    return i_dev_bytes(spec) * spec.clock_hz


def fleet_rate(fleet: Union[Fleet, Iterable[Fleet]]) -> float:
    """Aggregate rate of a fleet, or of a list of fleets (rates sum)."""
    if isinstance(fleet, Fleet):
        return fleet.unit_count * resource_rate(fleet.device)
    total = 0.0
    for part in fleet:
        total += part.unit_count * resource_rate(part.device)
    return total


def cost_per_bit(fleet: Fleet, record: ThroughputRecord) -> float:
    """Bytes charged per bit of throughput for `record` on `fleet`.

    The fleet's device name must match the record; multi-chip figures are
    priced with the summed rate.
    """
    name = fleet.device.name
    if normalize_name(name) != normalize_name(record.device_name):
        raise ValueError(f"device {name!r} does not match record for {record.device_name!r}")
    return record.core_fraction * fleet_rate(fleet) / record.throughput_bits_per_s


class CatalogError(ValueError):
    """Malformed catalog input; the message starts with the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")


_CATALOG_FIELDS = CATALOG_HEADER.split(",")
# Integer cells are read through float(), which holds every integer only
# below 2**53: a larger cell would be listed as some other integer. A fleet
# count is priced as a float too, so scenarios hold it to the same limit.
_COUNT_COLUMNS = ("transistor_count", "component_count")
EXACT_COUNT_LIMIT = 2**53


def _parse_number(text: str, line_no: int, column: str, integer: bool = False):
    """The finite number in one catalog cell, an int for an integer column
    (written as 2.15e9 too), or a CatalogError naming line and column."""
    try:
        value = float(text)
    except ValueError:
        raise CatalogError(line_no, f"column {column!r}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CatalogError(line_no, f"column {column!r}: not a finite number: {text!r}")
    if not integer:
        return value
    if not value.is_integer():
        raise CatalogError(line_no, f"column {column!r}: not an integer: {text!r}")
    return int(value)


def load_catalog(text: str) -> list[DeviceSpec]:
    """Parse a device catalog CSV.

    Header must be exactly CATALOG_HEADER.  Lines starting with '#' are
    comments.  Scientific notation is accepted for the numeric columns.
    component_count and bits_per_transistor may be left empty (defaults 1
    and 8).  Duplicate normalized names are rejected, and so is a row whose
    rate (`resource_rate`) overflows a float or underflows to zero, or whose
    transistor_count or component_count is not below 2**53.
    """
    specs: list[DeviceSpec] = []
    seen: set[str] = set()
    header_seen = False
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CATALOG_HEADER:
                raise CatalogError(line_no, f"expected header {CATALOG_HEADER!r}")
            header_seen = True
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(_CATALOG_FIELDS):
            raise CatalogError(
                line_no, f"expected {len(_CATALOG_FIELDS)} columns, got {len(cells)}"
            )
        name = normalize_name(cells[0])
        if not name:
            raise CatalogError(line_no, "column 'name': empty")
        if name in seen:
            raise CatalogError(line_no, f"duplicate device name {name!r}")
        transistors = _parse_number(cells[1], line_no, "transistor_count", integer=True)
        clock = _parse_number(cells[2], line_no, "clock_hz")
        components, bits = 1, BITS_PER_TRANSISTOR  # the values of empty cells
        if cells[3]:
            components = _parse_number(cells[3], line_no, "component_count", integer=True)
        if cells[4]:
            bits = _parse_number(cells[4], line_no, "bits_per_transistor")
        try:
            spec = DeviceSpec(
                name=name,
                transistor_count=transistors,
                clock_hz=clock,
                component_count=components,
                bits_per_transistor=bits,
            )
        except ValueError as exc:
            raise CatalogError(line_no, f"invariant violation: {exc}") from None
        rate = resource_rate(spec)
        if not math.isfinite(rate):
            raise CatalogError(line_no, "rate_bytes_per_s overflows a float")
        if rate == 0:
            raise CatalogError(line_no, "rate_bytes_per_s underflows to zero")
        for column in _COUNT_COLUMNS:
            if getattr(spec, column) >= EXACT_COUNT_LIMIT:
                text = cells[_CATALOG_FIELDS.index(column)]
                raise CatalogError(line_no, f"column {column!r}: not below 2**53, so not read exactly: {text!r}")
        seen.add(name)
        specs.append(spec)
    if not header_seen:
        raise CatalogError(1, "missing header")
    return specs


# Published survey devices.  Clocks are the integer-MHz figures of the
# source table; the two XC5VFX70T-2 entries are the same part benchmarked
# at two clocks, so they carry the clock in the name.
DEFAULT_CATALOG_CSV = """\
name,transistor_count,clock_hz,component_count,bits_per_transistor
ati-radeon-5870,2.15e9,850e6,1712,8
intel-core-duo,291e6,2.6e9,2,8
virtex-5-xc5vfx70t-2-249mhz,1.1e9,249e6,11200,8
virtex-5-xc5vlx30-3,1.1e9,251e6,4800,8
virtex-5-xc5vfx70t-2-277mhz,1.1e9,277e6,11200,8
"""


def default_catalog() -> list[DeviceSpec]:
    return load_catalog(DEFAULT_CATALOG_CSV)


def find_device(name: str, specs: Iterable[DeviceSpec]) -> DeviceSpec:
    wanted = normalize_name(name)
    for spec in specs:
        if spec.name == wanted:
            return spec
    raise KeyError(f"unknown device {name!r}")
