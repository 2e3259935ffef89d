"""Record and check the verdict digests the benchmark compares against.

A digest is the sha256 of a workload's verdicts in canonical form (see
``workloads.Digest``): the gate report without ``wall_ms``, one sweep of the
``sets-hot`` corpus, and the first 40 blocks (4000 instances) of
``stream-cold``, the least a benchmark run decides.  They must not depend on
the interpreter's hash seed, so both commands compute them under
``PYTHONHASHSEED=0`` and ``1``.

    python3 perfbench/digests.py record --seeds 0-24,42   # rewrite digests.json
    python3 perfbench/digests.py check                    # seeds 42 and 7; exit 1 on a mismatch

``--workload NAME`` limits either command to one workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from run import DIGESTS, OUT
from workloads import WORKLOADS, seed_digest

HASH_SEEDS = ("0", "1")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def compute(workload: str, seeds: list[int]) -> dict[str, str]:
    """Digest per seed, in this process."""
    OUT.mkdir(exist_ok=True)
    return {str(seed): seed_digest(WORKLOADS[workload], seed, OUT) for seed in seeds}


def both_hash_seeds(workload: str, seeds: list[int]) -> tuple[dict, list[str]]:
    """Digests computed in two child interpreters at once, one per hash
    seed, and the seeds on which the two differ."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "compute", workload]
    cmd.append(",".join(map(str, seeds)))
    children = [
        subprocess.Popen(cmd, env=dict(os.environ, PYTHONHASHSEED=h), stdout=subprocess.PIPE, text=True)
        for h in HASH_SEEDS
    ]
    outputs = [child.communicate(timeout=3000)[0] for child in children]
    if any(child.returncode for child in children):
        raise SystemExit(f"error: computing {workload} digests failed")
    a, b = (json.loads(out) for out in outputs)
    return a, [s for s in a if a[s] != b[s]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_record = sub.add_parser("record", help="compute and write digests.json")
    p_record.add_argument("--seeds", default="0-24,42")
    p_check = sub.add_parser("check", help="compare with digests.json under two hash seeds")
    p_check.add_argument("--seeds", default="42,7")
    for p in (p_record, p_check):
        p.add_argument("--workload", choices=list(WORKLOADS), help="only this workload")
    p_compute = sub.add_parser("compute", help=argparse.SUPPRESS)
    p_compute.add_argument("workload")
    p_compute.add_argument("seeds")
    args = parser.parse_args(argv)

    if args.command == "compute":
        print(json.dumps(compute(args.workload, parse_seeds(args.seeds))))
        return 0

    seeds = parse_seeds(args.seeds)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    bad = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        digests, unstable = both_hash_seeds(workload, seeds)
        for seed in unstable:
            print(f"{workload} seed {seed}: digest depends on the hash seed")
        bad += len(unstable)
        if args.command == "record":
            recorded[workload] = digests
            continue
        for seed, got in digests.items():
            want = recorded.get(workload, {}).get(seed)
            status = "ok" if got == want else ("not recorded" if want is None else "MISMATCH")
            print(f"{workload} seed {seed}: {status}")
            bad += status != "ok"
    if args.command == "record" and not bad:
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
