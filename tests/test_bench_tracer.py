"""The benchmark's per-layer tracer still finds every function it wraps.

`perfbench/spans.py` replaces functions by name from outside the package,
so renaming or removing one of them breaks a traced benchmark run. These
tests install and remove the tracer's wrappers the same way that run
does, and play one game under them, so such a change fails here first.
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


def test_benchmark_tracer_counts_a_streamed_game(tmp_path, capsys):
    """The traced file offers only `write` and the `with` protocol, and moves
    are counted with `len(transcript.entries)`: a game that needs more of
    either fails here."""
    spans = _load_spans()
    scenario = tmp_path / "null.scenario"
    scenario.write_text("[game_otp]\nseed = 1\nbias = 0.5\ntrials = 50\nbudget = 1e6\n")
    transcript = tmp_path / "null.transcript"
    with spans.instrumented(spans.Tracer()) as tracer:
        assert cli.main(["game", str(scenario), "--transcript", str(transcript)]) in (0, 3)
    assert "challenges " in capsys.readouterr().out
    assert tracer.counts["game.play.moves"] == 200  # 50 x (request, ciphertext, guess, verdict)
    assert tracer.counts["game.play.steps_charged"] == 100
    assert tracer.counts["game.adjudicate.calls"] == 1
    assert tracer.counts["game.export.bytes"] == transcript.stat().st_size
