#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the code in src/.

    python3 perfbench/make_reference.py [--pool 32]

Screens program seeds 0, 1, 2, ... in order and keeps the first --pool
seeds on which every workload passes its correctness gate: all
`validate --quick` lines PASS, the biased game is won and the null game
lost. Their statistical bands are a few standard deviations wide, so a
few seeds in a hundred fail by chance on correct code; the benchmark
measures speed, not that chance. For each kept seed it records the
SHA-256 of both game transcripts, and it records the digest of each
keystream probe. Run it only on code whose transcripts and keystream are
known to be right: the benchmark then holds later code to these bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import (
    KEYSTREAM_PROBE_BITS,
    REFERENCE,
    ROOT,
    SRC,
    WORKLOADS,
    check_output,
    command_line,
    invoke,
    keystream_probe_bytes,
    sha256_file,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", type=int, default=32)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import workfunc.cli as cli
    from workfunc.toycrypto import KeystreamGen

    seeds: list[int] = []
    digests: dict[str, dict[str, str]] = {name: {} for name in WORKLOADS}
    rejected = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        seed = 0
        while len(seeds) < args.pool:
            kept = {}
            for workload in WORKLOADS.values():
                code, _, stdout = invoke(cli.main, command_line(workload, seed, workdir))
                problems, _ = check_output(workload, code, stdout)
                if problems:
                    rejected.append(seed)
                    print(f"seed {seed} rejected on {workload.name}: {problems}", flush=True)
                    break
                if workload.command == "game":
                    kept[workload.name] = sha256_file(workdir / "transcript.txt")
            else:
                seeds.append(seed)
                for name, digest in kept.items():
                    digests[name][str(seed)] = digest
                print(f"seed {seed} kept", flush=True)
            seed += 1
    reference = {
        "seeds": seeds,
        "rejected_seeds": rejected,
        "transcript_sha256": {name: d for name, d in digests.items() if d},
        "keystream_probe_sha256": {
            str(n): hashlib.sha256(keystream_probe_bytes(KeystreamGen, n)).hexdigest()
            for n in KEYSTREAM_PROBE_BITS
        },
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
