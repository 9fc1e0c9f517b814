#!/usr/bin/env python3
"""Benchmark of the workfunc command line on closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of validate-quick, game-biased, game-null, or all (the
default), which runs each workload in its own process. The package is
imported from the checkout's src/ directory, so nothing needs installing.

One caller invokes `workfunc.cli.main` in this process, with no extra
threads, and starts the next invocation only after the previous one
returns, until S seconds have passed. Every invocation is checked for
correctness. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced invocations and reports the
per-layer metrics plus the scaling probes. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. WORKLOADS.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

BUDGET = 1e15
SETUP_REPEATS = 5
CALIBRATION_LOOP = 1_000_000
# Typical `calibrate()` time on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11.7): scaled times are in seconds at that machine's speed.
CALIBRATION_REF_S = 0.16
ADJUDICATION_PROBE_TRIALS = (1000, 2000, 4000)
ADJUDICATION_PROBE_REPEATS = 3
KEYSTREAM_PROBE_BITS = (100_000, 200_000, 400_000)
KEYSTREAM_PROBE_SEED = "perfbench-probe"
PROBE_REL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "validate" or "game"
    bias: float = 0.0
    trials: int = 0
    exit_code: int = 0
    result: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload("validate-quick", "validate"),
        Workload("game-biased", "game", bias=0.6, trials=20000, exit_code=0, result="Won"),
        Workload("game-null", "game", bias=0.5, trials=5000, exit_code=3,
                 result="LostChallengeFailed"),
    )
}

# Set-up in a fresh interpreter: import, then parse arguments or scenario.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workfunc.cli as cli
if sys.argv[2] == "validate":
    import workfunc.experiments
args = cli.build_parser().parse_args(sys.argv[3:])
if sys.argv[2] == "game":
    cli.load_scenario(args.scenario)
print(time.perf_counter() - start)
"""


def program_seed(reference: dict, seed: int) -> int:
    """The program seed a benchmark seed selects from the screened pool."""
    pool = reference["seeds"]
    return pool[seed % len(pool)]


def command_line(workload: Workload, seed: int, workdir: Path) -> list[str]:
    """Arguments to `workfunc`; a game's scenario file is written to workdir."""
    if workload.command == "validate":
        return ["validate", "--quick", "--seed", str(seed)]
    scenario = workdir / f"{workload.name}.ini"
    scenario.write_text(
        f"[game_otp]\nseed = {seed}\nbias = {workload.bias}\n"
        f"trials = {workload.trials}\nbudget = {BUDGET!r}\n",
        encoding="utf-8",
    )
    return ["game", str(scenario), "--transcript", str(workdir / "transcript.txt")]


def invoke(main, argv: list[str]) -> tuple[int, float, str]:
    """One closed-loop call of the CLI: exit code, wall seconds, stdout."""
    out = io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = main(argv)
        wall = perf_counter() - start
    return code, wall, out.getvalue()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_output(workload: Workload, code: int, stdout: str) -> tuple[list[str], dict]:
    """Problems with one invocation's exit code and output, and its figures."""
    problems = []
    figures: dict = {}
    if code != workload.exit_code:
        problems.append(f"exit code {code}, expected {workload.exit_code}")
    lines = stdout.splitlines()
    if workload.command == "validate":
        if not lines:
            problems.append("no output")
        for line in lines:
            if not line.startswith("PASS"):
                problems.append(f"not a PASS line: {line!r}")
            match = re.match(r"\w+ (.+): (\S+) \(expected", line)
            if match:
                figures[match.group(1)] = float(match.group(2))
        return problems, figures
    for line in lines:
        key, _, value = line.partition(" ")
        figures[key] = value
    if figures.get("result") != workload.result:
        problems.append(f"result {figures.get('result')!r}, expected {workload.result!r}")
    trials = figures.get("challenges", "").partition("/")[2]
    if trials != str(workload.trials):
        problems.append(f"challenges {figures.get('challenges')!r}, expected n = {workload.trials}")
    try:
        spent = float(figures["total_cost"])
        remaining = float(figures["budget_remaining"])
    except (KeyError, ValueError):
        problems.append("total_cost or budget_remaining missing")
    else:
        if spent != BUDGET - remaining:
            problems.append(f"total_cost {spent!r} != budget - budget_remaining {BUDGET - remaining!r}")
    return problems, figures


def measure_setup(workload: Workload, argv: list[str]) -> tuple[list[float], list[float]]:
    """Set-up seconds in fresh interpreters, and calibrations around them.

    A first interpreter warms the file cache and bytecode and is not timed."""
    command = [sys.executable, "-c", SETUP_CHILD, str(SRC), workload.command, *argv]

    def child() -> float:
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    child()
    times, cals = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        times.append(child())
        cals.append(calibrate())
    return times, cals


def calibrate() -> float:
    """Seconds for a fixed slice of interpreter and big-integer work.

    The machine is shared, and its speed drifts by up to a quarter over tens
    of seconds. This fixed work, timed next to each sample, measures that
    drift so that `at_reference_speed` can take it out."""
    start = perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x = (x * 31 + i) & 0xFFFFFFFF
    for k in range(0, 3000, 50):
        math.comb(3000, k)
    return perf_counter() - start


def at_reference_speed(samples: list[float], cals: list[float]) -> float:
    """Median sample in reference seconds: scaled by CALIBRATION_REF_S over
    the mean calibration time of the same phase of the run."""
    return statistics.median(samples) * CALIBRATION_REF_S / statistics.fmean(cals)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, if above the median."""
    n = len(samples)
    if n <= 20:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def fit_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    xbar, ybar = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)


def keystream_probe_bytes(keystream_gen, nbits: int) -> bytes:
    return keystream_gen(0.6, KEYSTREAM_PROBE_SEED).next_bits(nbits).to_bytes(nbits // 8, "big")


def run_probes(reference: dict) -> tuple[dict, list[str]]:
    """Time the two layers whose cost ROADMAP items 2 and 3 call quadratic."""
    from workfunc.game import binomial_tail_probability
    from workfunc.toycrypto import KeystreamGen

    metrics, problems = {}, []
    seconds = []
    for n in ADJUDICATION_PROBE_TRIALS:
        repeats = []
        for _ in range(ADJUDICATION_PROBE_REPEATS):
            start = perf_counter()
            p = binomial_tail_probability(n // 2, n)
            repeats.append(perf_counter() - start)
        seconds.append(statistics.median(repeats))
        exact = float((1 + Fraction(math.comb(n, n // 2), 1 << n)) / 2)
        if not math.isclose(p, exact, rel_tol=PROBE_REL_TOLERANCE):
            problems.append(f"binomial tail at n={n}: {p!r}, exact {exact!r}")
        metrics[f"game.adjudicate.probe_n{n}_s"] = (seconds[-1], "s")
    metrics["game.adjudicate.exp"] = (fit_exponent(ADJUDICATION_PROBE_TRIALS, seconds), "1")
    seconds = []
    for nbits in KEYSTREAM_PROBE_BITS:
        start = perf_counter()
        data = keystream_probe_bytes(KeystreamGen, nbits)
        seconds.append(perf_counter() - start)
        if hashlib.sha256(data).hexdigest() != reference["keystream_probe_sha256"][str(nbits)]:
            problems.append(f"keystream probe of {nbits} bits differs from the reference")
        metrics[f"toycrypto.keystream.probe_{nbits}_s"] = (seconds[-1], "s")
    metrics["toycrypto.keystream.exp"] = (fit_exponent(KEYSTREAM_PROBE_BITS, seconds), "1")
    return metrics, problems


def layer_metrics(traces: list) -> dict:
    """Per-layer metrics from the traced invocations: medians of self time,
    counts from the first (the caller checked that they all agree)."""

    def self_s(layer):
        return statistics.median(t.self_s.get(layer, 0.0) for t in traces)

    def count(name):
        return traces[0].counts.get(name, 0)

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    m = {}
    ks_s = self_s("toycrypto.keystream")
    m["toycrypto.keystream.bits"] = (count("toycrypto.keystream.bits"), "count")
    m["toycrypto.keystream.calls"] = (count("toycrypto.keystream.calls"), "count")
    m["toycrypto.keystream.self_s"] = (ks_s, "s")
    m["toycrypto.keystream.bits_per_s"] = (rate(count("toycrypto.keystream.bits"), ks_s), "bit/s")
    m["toycrypto.scalar_search.steps"] = (count("toycrypto.scalar_search.steps"), "count")
    m["toycrypto.scalar_search.self_s"] = (self_s("toycrypto.scalar_search"), "s")
    ct_s = self_s("experiments.cipher_table")
    m["experiments.cipher_table.keys"] = (count("experiments.cipher_table.keys"), "count")
    m["experiments.cipher_table.self_s"] = (ct_s, "s")
    m["experiments.cipher_table.keys_per_s"] = (rate(count("experiments.cipher_table.keys"), ct_s), "1/s")
    m["experiments.key_sampling.trials"] = (count("experiments.key_sampling.trials"), "count")
    m["experiments.key_sampling.self_s"] = (self_s("experiments.key_sampling"), "s")
    candidates = count("experiments.state_sweep.candidates")
    # one window per trial is the observed output; the rest check survivors
    window_checks = count("experiments.state_sweep.prng_windows") - count("experiments.state_sweep.trials")
    m["experiments.state_sweep.candidates"] = (candidates, "count")
    m["experiments.state_sweep.window_checks"] = (window_checks, "count")
    m["experiments.state_sweep.survivor_ratio"] = (window_checks / candidates if candidates else 0.0, "ratio")
    m["experiments.state_sweep.self_s"] = (self_s("experiments.state_sweep"), "s")
    m["reports.tables.rows"] = (count("reports.tables.rows"), "count")
    m["reports.tables.self_s"] = (self_s("reports.tables"), "s")
    m["scenarios.parse.self_s"] = (self_s("scenarios.parse"), "s")
    play_s = self_s("game.play")
    m["game.play.moves"] = (count("game.play.moves"), "count")
    m["game.play.steps_charged"] = (count("game.play.steps_charged"), "count")
    m["game.play.self_s"] = (play_s, "s")
    m["game.play.moves_per_s"] = (rate(count("game.play.moves"), play_s), "1/s")
    m["game.adjudicate.calls"] = (count("game.adjudicate.calls"), "count")
    m["game.adjudicate.tail_terms"] = (count("game.adjudicate.tail_terms"), "count")
    m["game.adjudicate.self_s"] = (self_s("game.adjudicate"), "s")
    m["game.export.bytes"] = (count("game.export.bytes"), "B")
    m["game.export.self_s"] = (self_s("game.export"), "s")
    m["otp.environment.requests"] = (count("otp.environment.calls"), "count")
    m["otp.environment.self_s"] = (self_s("otp.environment"), "s")
    m["otp.distinguisher.steps"] = (count("otp.distinguisher.calls"), "count")
    m["otp.distinguisher.self_s"] = (self_s("otp.distinguisher"), "s")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    return m


def run_record(workload: Workload, seed: int, pseed: int, argv: list[str]) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        git_sha = done.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": git_sha,
        "src_sha256": src_digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": asdict(workload),
        "benchmark_seed": seed,
        "program_seed": pseed,
        "argv": ["workfunc", *argv],
        "loop": "closed, one caller, no extra threads",
    }


class Caller:
    """The one closed-loop caller of a run: calls the CLI and checks each call."""

    def __init__(self, workload: Workload, argv: list[str], workdir: Path, expected_sha) -> None:
        import workfunc.cli as cli

        if workload.command == "validate":
            import workfunc.experiments  # noqa: F401  (imported by validate's first call)
        self.cli = cli
        self.workload = workload
        self.argv = argv
        self.transcript = workdir / "transcript.txt"
        self.expected_sha = expected_sha
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.figures: dict = {}

    def call(self, main=None) -> float:
        code, wall, stdout = invoke(main or self.cli.main, self.argv)
        self.attempted += 1
        bad, self.figures = check_output(self.workload, code, stdout)
        if self.workload.command == "game":
            digest = sha256_file(self.transcript)
            if digest != self.expected_sha:
                bad.append(f"transcript sha256 {digest} != reference {self.expected_sha}")
        if bad:
            self.failed += 1
            self.problems.extend(bad)
        return wall


def timed_run(caller: Caller, seconds: float, setup: list[float], setup_cals: list[float],
              record: dict) -> dict:
    """End-to-end metrics: untraced calls, each between two calibrations."""
    caller.call()  # warms caches; not timed
    walls, cals = [], [calibrate()]
    start = perf_counter()
    while perf_counter() - start < seconds or not walls:
        walls.append(caller.call())
        cals.append(calibrate())
    wall_s = at_reference_speed(walls, cals)
    setup_s = at_reference_speed(setup, setup_cals)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_frac = caller.failed / caller.attempted
    record.update(wall_s_samples=walls, setup_s_samples=setup,
                  calibration_s_samples=cals, setup_calibration_s_samples=setup_cals)
    print(f"wall_s        {wall_s:.4f} s  median of {len(walls)} calls, in reference seconds"
          f" (measured median {statistics.median(walls):.4f} s)")
    tail = tail_percentile(walls)
    if tail is None:
        print(f"wall_s tail   none above the median with {len(walls)} samples (needs more than 20)")
    else:
        print(f"wall_s p{tail[0]:<4.0f}   {tail[1]:.4f} s  of {len(walls)} samples")
    print(f"setup_s       {setup_s:.4f} s  median of {len(setup)} fresh interpreters, in reference seconds")
    print(f"peak_rss_mib  {rss_mib:.1f} MiB")
    print(f"failed_frac   {failed_frac:g}  ({caller.failed} of {caller.attempted} calls)")
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "ok_frac": (1.0 - failed_frac, "frac"),
    }


def traced_run(caller: Caller, seconds: float, reference: dict, record: dict) -> dict:
    """Per-layer metrics: untraced and traced calls alternate, then the probes."""
    from spans import Tracer, instrumented

    caller.call()  # warms caches; not timed
    walls, traced_walls, traces = [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(traces) < 2:
        tracer = Tracer()
        with instrumented(tracer):
            traced_walls.append(caller.call(tracer.wrap("cli.main", caller.cli.main)))
        traces.append(tracer)
        walls.append(caller.call())
    first = dict(traces[0].counts)
    for other in traces[1:]:
        if dict(other.counts) != first:
            caller.failed += 1
            caller.problems.append(f"counts differ between traced calls: {first} vs {dict(other.counts)}")
    metrics = layer_metrics(traces)
    probe_metrics, probe_problems = run_probes(reference)
    caller.attempted += len(ADJUDICATION_PROBE_TRIALS) + len(KEYSTREAM_PROBE_BITS)
    caller.failed += len(probe_problems)
    caller.problems.extend(probe_problems)
    metrics.update(probe_metrics)
    overhead = statistics.median(traced_walls) - statistics.median(walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    record.update(trace_overhead_s=overhead, untraced_wall_s=walls, traced_wall_s=traced_walls)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    pseed = program_seed(reference, seed)
    expected_sha = reference["transcript_sha256"].get(workload.name, {}).get(str(pseed))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        argv = command_line(workload, pseed, workdir)
        if not trace:
            setup, setup_cals = measure_setup(workload, argv)
        sys.path.insert(0, str(SRC))
        caller = Caller(workload, argv, workdir, expected_sha)
        record = run_record(workload, seed, pseed, argv)
        if trace:
            metrics = traced_run(caller, seconds, reference, record)
        else:
            metrics = timed_run(caller, seconds, setup, setup_cals, record)
    record["figures"] = caller.figures
    for problem in caller.problems:
        print(f"FAILED: {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": not caller.problems,
        "attempted": caller.attempted,
        "failed": caller.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        print(f"== {name}")
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "workfunc" / "cli.py").is_file():
        print(f"no workfunc package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
