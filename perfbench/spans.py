"""Per-layer spans for the benchmark, recorded from outside the package.

The package has no spans of its own, so the traced run replaces the public
functions each layer exposes with wrappers that time every call. A span's
self time is its duration minus the time its child spans cover, so each
second lands on exactly one layer. A call into a layer that is already the
innermost open span (``next_bytes`` calling ``next_bits``) is part of the
outer span, not a new one. Spans are aggregated per layer as they close;
nothing is written out until the run ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

_ABSENT = object()


class Tracer:
    """Self time, call count and work counts per layer for one invocation."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [layer, seconds covered by children]

    def innermost(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, layer: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """Return fn recorded as a span of `layer`.

        `count(args, kwargs, result)` returns the work counts of one call,
        as a mapping from counter name to an integer.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            self.counts[f"{layer}.calls"] += 1
            if count is not None:
                for name, value in count(args, kwargs, result).items():
                    self.counts[f"{layer}.{name}"] += value
            return result

        return traced

    def count_within(self, layer: str, name: str, fn: Callable) -> Callable:
        """Return fn that adds one to `layer.name` per call made while
        `layer` is the innermost open span; it records no span itself."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.innermost() == layer:
                self.counts[f"{layer}.{name}"] += 1
            return fn(*args, **kwargs)

        return counted


class _TracedFile:
    """A text file whose writes and close are spans of one layer."""

    def __init__(self, write: Callable, close: Callable) -> None:
        self.write = write
        self._close = close

    def __enter__(self) -> "_TracedFile":
        return self

    def __exit__(self, *exc) -> None:
        self._close()


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _tail_terms(args, kwargs, result) -> dict:
    successes = _arg(args, kwargs, 0, "successes")
    trials = _arg(args, kwargs, 1, "trials")
    return {"tail_terms": trials - successes + 1}


def _traced_open(tracer: Tracer, layer: str) -> Callable:
    def write(handle, text):
        tracer.counts[f"{layer}.bytes"] += len(text)  # transcripts are ASCII
        return handle.write(text)

    def opener(*args, **kwargs):
        handle = open(*args, **kwargs)
        return _TracedFile(
            tracer.wrap(layer, functools.partial(write, handle)),
            tracer.wrap(layer, handle.close),
        )

    return tracer.wrap(layer, opener)


def _targets(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, replacement) for every boundary that is traced.

    Functions are replaced where their caller looks them up: `cli` imports
    names from other modules into its own namespace, `otp` calls `play`
    from its own namespace, and methods are looked up on their class.
    """
    from workfunc import cli, experiments, game, otp, toycrypto

    def replace(owner, attr, layer, count=None):
        return (owner, attr, tracer.wrap(layer, getattr(owner, attr), count))

    unknown_bits = toycrypto.reduction_unknown_bits
    targets = [
        replace(toycrypto.KeystreamGen, "next_bits", "toycrypto.keystream",
                lambda a, k, r: {"bits": _arg(a, k, 1, "n")}),
        replace(toycrypto.KeystreamGen, "next_bytes", "toycrypto.keystream",
                lambda a, k, r: {"bits": 8 * _arg(a, k, 1, "n")}),
        replace(experiments, "brute_force_search", "toycrypto.scalar_search",
                lambda a, k, r: {"steps": r.keys_tested}),
        replace(experiments, "state_search", "toycrypto.scalar_search",
                lambda a, k, r: {"steps": r.candidates_tested}),
        replace(experiments, "cipher_table", "experiments.cipher_table",
                lambda a, k, r: {"keys": 1 << _arg(a, k, 0, "key_bits")}),
        replace(experiments, "brute_force_keys_tested", "experiments.key_sampling",
                lambda a, k, r: {"trials": len(r)}),
        replace(experiments, "state_search_candidates_tested", "experiments.state_sweep",
                lambda a, k, r: {
                    "trials": len(r),
                    "candidates": len(r) << unknown_bits(_arg(a, k, 0, "word_bits")),
                }),
        (toycrypto.StandInPrng, "next_words",
         tracer.count_within("experiments.state_sweep", "prng_windows",
                             toycrypto.StandInPrng.next_words)),
        replace(otp, "play", "game.play",
                lambda a, k, r: {
                    "moves": len(r.transcript.entries),
                    "steps_charged": sum(r.transcript.steps_by_machine.values()),
                }),
        replace(game, "wins_challenge", "game.adjudicate", _tail_terms),
        replace(game, "binomial_tail_probability", "game.adjudicate", _tail_terms),
        replace(cli, "export_transcript", "game.export"),
        (cli, "open", _traced_open(tracer, "game.export")),
        replace(otp.OtpEnvironment, "respond", "otp.environment"),
        replace(otp.OtpDistinguisher, "step", "otp.distinguisher"),
        replace(cli, "report_failures", "reports.tables"),
    ]
    for builder in ("build_device_rate_report", "build_cost_per_bit_report",
                    "build_state_search_report", "build_break_suite_report"):
        targets.append(replace(cli, builder, "reports.tables",
                               lambda a, k, r: {"rows": len(r.rows)}))
    for parser in ("load_scenario", "scenario_int", "scenario_float", "scenario_bool"):
        targets.append(replace(cli, parser, "scenarios.parse"))
    return targets


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, replacement in _targets(tracer):
            saved.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
