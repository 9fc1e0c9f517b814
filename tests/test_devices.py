
import pytest
from hypothesis import given, strategies as st

from workfunc.devices import (
    CATALOG_HEADER,
    CatalogError,
    DeviceSpec,
    Fleet,
    ThroughputRecord,
    cost_per_bit,
    default_catalog,
    find_device,
    fleet_rate,
    i_dev_bytes,
    load_catalog,
    normalize_name,
    resource_rate,
)

# rates implied by the catalog's transistor counts and integer-MHz clocks
EXPECTED_RATES = {
    "ati-radeon-5870": 1.8275e18,
    "intel-core-duo": 7.566e17,
    "virtex-5-xc5vfx70t-2-249mhz": 2.739e17,
    "virtex-5-xc5vlx30-3": 2.761e17,
    "virtex-5-xc5vfx70t-2-277mhz": 3.047e17,
}


def test_default_catalog_names_and_order():
    names = [d.name for d in default_catalog()]
    assert names == list(EXPECTED_RATES)


def test_resource_rates_exact():
    for device in default_catalog():
        assert resource_rate(device) == EXPECTED_RATES[device.name]


def test_i_dev_is_one_byte_per_transistor():
    gpu = find_device("ati-radeon-5870", default_catalog())
    assert i_dev_bytes(gpu) == gpu.transistor_count
    wide = DeviceSpec("wide", 1000, 1e6, bits_per_transistor=16.0)
    assert i_dev_bytes(wide) == 2000.0


def test_fleet_rate_scales_and_sums():
    catalog = default_catalog()
    gpu = find_device("ati-radeon-5870", catalog)
    cpu = find_device("intel-core-duo", catalog)
    assert fleet_rate(Fleet(gpu, 65536)) == 65536 * resource_rate(gpu)
    combined = fleet_rate([Fleet(gpu, 2), Fleet(cpu, 3)])
    assert combined == 2 * resource_rate(gpu) + 3 * resource_rate(cpu)


def test_fleet_validates_unit_count():
    gpu = default_catalog()[0]
    with pytest.raises(ValueError):
        Fleet(gpu, 0)


def test_device_spec_validation():
    with pytest.raises(ValueError):
        DeviceSpec("bad", 0, 1e9)
    with pytest.raises(ValueError):
        DeviceSpec("bad", 100, -1.0)
    with pytest.raises(ValueError):
        DeviceSpec("bad", 100, 1e9, component_count=0)


def test_cost_per_bit_core_fraction():
    cpu = find_device("intel-core-duo", default_catalog())
    aes = ThroughputRecord("intel-core-duo", "aes-128", "combined", 1e9, core_fraction=0.5)
    assert cost_per_bit(Fleet(cpu), aes) == 0.5 * resource_rate(cpu) / 1e9


def test_cost_per_bit_rejects_name_mismatch():
    gpu = find_device("ati-radeon-5870", default_catalog())
    record = ThroughputRecord("intel-core-duo", "aes-128", "combined", 1e9)
    with pytest.raises(ValueError):
        cost_per_bit(Fleet(gpu), record)


def test_cost_per_bit_fleet_uses_summed_rate():
    fpga = find_device("virtex-5-xc5vfx70t-2-277mhz", default_catalog())
    record = ThroughputRecord(fpga.name, "mqq-160", "encrypt", 44.27e9)
    assert cost_per_bit(Fleet(fpga, 4), record) == pytest.approx(
        4 * cost_per_bit(Fleet(fpga), record)
    )


def test_normalize_name():
    assert normalize_name("ATI Radeon 5870") == "ati-radeon-5870"
    assert normalize_name("  Intel\tCore  Duo ") == "intel-core-duo"


def test_default_catalog_is_one_immutable_sequence():
    assert isinstance(default_catalog(), tuple)
    assert default_catalog() is default_catalog()


def test_find_device_normalizes_and_raises():
    catalog = default_catalog()
    assert find_device("ATI Radeon 5870", catalog).name == "ati-radeon-5870"
    with pytest.raises(KeyError):
        find_device("my-quantum-box", catalog)


def test_catalog_index():
    catalog = default_catalog()
    idx = {spec.name: spec for spec in catalog}
    assert set(idx) == set(EXPECTED_RATES)
    for name, spec in idx.items():
        assert find_device(name, catalog) is spec


def test_load_catalog_accepts_comments_and_defaults():
    text = (
        CATALOG_HEADER
        + "\n# survey devices\nmy-chip,1e6,1e9,,\nother,2e6,2e9,16,8\n"
    )
    specs = load_catalog(text)
    assert [s.name for s in specs] == ["my-chip", "other"]
    assert specs[0].component_count == 1
    assert specs[0].bits_per_transistor == 8.0
    assert specs[1].component_count == 16


def test_load_catalog_reads_file_text(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(CATALOG_HEADER + "\r\nchip,1e6,1e9,1,8\r\n")
    specs = load_catalog(path.read_text())
    assert len(specs) == 1


def test_load_catalog_rejects_bad_header():
    with pytest.raises(CatalogError) as err:
        load_catalog("nope,foo\nx,1,2,3,4\n")
    assert str(err.value).startswith("line 1: ")


def test_load_catalog_rejects_duplicates():
    text = CATALOG_HEADER + "\nchip,1e6,1e9,1,8\nCHIP,2e6,1e9,1,8\n"
    with pytest.raises(CatalogError) as err:
        load_catalog(text)
    assert str(err.value).startswith("line 3: ")


def test_load_catalog_reports_line_numbers_for_bad_fields():
    text = CATALOG_HEADER + "\ngood,1e6,1e9,1,8\nbad,not-a-number,1e9,1,8\n"
    with pytest.raises(CatalogError) as err:
        load_catalog(text)
    assert str(err.value).startswith("line 3: ")
    assert "transistor_count" in str(err.value)


@given(
    transistors=st.integers(min_value=1, max_value=10**12),
    clock=st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
    units=st.integers(min_value=1, max_value=10**6),
)
def test_rate_identities(transistors, clock, units):
    spec = DeviceSpec("x", transistors, clock)
    rate = resource_rate(spec)
    assert rate == i_dev_bytes(spec) * clock
    assert fleet_rate(Fleet(spec, units)) == units * rate
