"""The benchmark's per-layer tracer still finds every function it wraps.

`perfbench/spans.py` replaces functions by name from outside the package,
so renaming or removing one of them breaks a traced benchmark run. These
tests install and remove the tracer's wrappers the same way that run
does, and play one game and one quick validation under them, so such a
change fails here first. `perfbench/run.py` checks every invocation's
output, and a quick validation must pass that check too.
"""

import importlib.util
import sys
from pathlib import Path

from workfunc import cli, experiments, game, otp, toycrypto

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_run():
    """`perfbench/run.py`, registered while it loads: its dataclasses look their module up there."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
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
    assert tracer.counts["scenarios.parse.calls"] == 1
    assert tracer.counts["game.play.moves"] == 200  # 50 x (request, ciphertext, guess, verdict)
    assert tracer.counts["game.play.steps_charged"] == 100
    assert tracer.counts["game.adjudicate.calls"] == 1
    assert tracer.counts["game.export.bytes"] == transcript.stat().st_size


def test_benchmark_tracer_counts_a_quick_validation(capsys):
    """Every `experiments` and `toycrypto` layer the validate-quick workload
    reads is still wrapped and counted, and unwrapped afterwards."""
    spans = _load_spans()
    owners = (experiments, toycrypto, toycrypto.KeystreamGen, toycrypto.StandInPrng)
    before = [dict(vars(owner)) for owner in owners]
    with spans.instrumented(spans.Tracer()) as tracer:
        assert cli.main(["validate", "--quick", "--seed", "11"]) == 0
    assert [dict(vars(owner)) for owner in owners] == before  # restored
    assert "PASS meter ledger identities" in capsys.readouterr().out
    assert tracer.counts["experiments.cipher_table.keys"] == 69_632  # 2**12 + 2**16
    assert tracer.counts["experiments.key_sampling.trials"] == 2_000
    assert tracer.counts["experiments.state_sweep.trials"] == 200
    assert tracer.counts["toycrypto.scalar_search.steps"] == 4_334  # 3699 keys + 635 states
    assert tracer.counts["reports.tables.rows"] == 24


def test_the_benchmark_accepts_a_quick_validation(capsys):
    run = _load_run()
    code = cli.main(["validate", "--quick"])
    problems, figures = run.check_output(run.WORKLOADS["validate-quick"], code, capsys.readouterr().out)
    assert problems == []
    assert len(figures) == 12  # the seven printed figures and the five experiment lines
