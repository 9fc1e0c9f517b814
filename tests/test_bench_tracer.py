"""The benchmark's per-layer tracer still finds every function it wraps.

`perfbench/spans.py` replaces functions by name from outside the package,
so renaming or removing one of them breaks a traced benchmark run. This
test installs and removes the tracer's wrappers the same way that run
does, so such a change fails here first.
"""

import importlib.util
from pathlib import Path

from workfunc import cli, game, otp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_resolves_every_traced_name():
    spans = _load_spans()
    modules = (cli, game, otp)
    before = [dict(vars(module)) for module in modules]
    with spans.instrumented(spans.Tracer()) as tracer:
        assert cli.load_scenario is not before[0]["load_scenario"]  # wrapped
        assert tracer.innermost() is None
    assert [dict(vars(module)) for module in modules] == before  # restored
