"""Benchmark of the extseq library: end-to-end and per-layer numbers.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload gate --seed 42 --seconds 20 --trace 0

Workloads (``workloads.py``): ``gate`` runs ``extseq check --suite all``
with every setting pinned, ``sets-hot`` sweeps a fixed corpus of sets with
the set deciders (caches hot), ``stream-cold`` generates and decides fresh
instances (caches cold); ``--workload all`` runs the three in turn.  One
process, one thread, a closed loop with a single caller; each run is one
fresh interpreter, because the spaces caches are process-wide and would
otherwise carry over.

The timed phase repeats *passes* (one gate run, one corpus sweep, one
block of 100 instances) until ``--seconds`` have elapsed and at least the
workload's ``min_passes`` are done.  Every time is CPU time scaled to a
host of fixed speed by interleaved reference slices (``meter.py``),
so that the phases of a shared host do not move it.  With ``--trace 0``
the end-to-end metrics are:

- ``setup_s``: median over 9 fresh interpreters of the time from
  interpreter start to the end of set-up (imports, plus the corpus for
  ``sets-hot``), each measured inside the interpreter
  (``setup_probe.py``);
- ``pass_s``: median time of one pass;
- ``decisions_per_s``: median over passes of decider verdicts per second
  (suite cases for ``gate``);
- ``item_ms_p50`` and ``item_ms_p99``: per-item latency, the median over
  windows of at least 1000 items (an item is a suite case, a set, or an
  instance from generation to its last verdict);
- ``peak_rss_mb``: ``ru_maxrss`` of this process, read after the
  workload's ``min_passes``, so that it does not grow with the speed of
  the host.

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are per traced pass: calls and self time per layer and per named function
(``tracer.py``, wall time, unscaled), the spaces cache hit ratio and
entries, per-suite seconds and cases (``gate``, from the untraced passes),
``trace.overhead`` (traced over untraced pass time) and ``machine.calib_s``
(the median reference slice, unscaled).

Every run checks its verdicts: suite failures and unknowns, exceptions,
pass-to-pass disagreement, the ``sets-hot`` openness oracle, the serial
round trip on ``stream-cold`` and the verdict digest recorded for the seed
in ``digests.json`` (seeds 0-24 and 42; on other seeds the run says so).
Each counts as failed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; spans and a full run
record go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from meter import Meter
from tracer import REPORTED, Tracer
from workloads import WORKLOADS, Digest, cache_stats

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 9
WINDOW_ITEMS = 1000

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "decisions_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def measure_setup(args) -> list[float]:
    """Set-up times of fresh child interpreters (see ``setup_probe.py``)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        # No timeout: waiting with one polls in steps of up to 50 ms.
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        times.append(float(out))
    return times


class Checker:
    """Counts failed verdicts: a pass's own failures, disagreement between
    passes over the same inputs, and a digest that differs from the
    recorded one."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.recorded = recorded.get(wl.name, {}).get(str(seed))
        self.digest = Digest(wl.digest_passes)
        self.first = None
        self.failed = 0
        self.attempted = 0
        self.notes: list[str] = []

    def add(self, res) -> None:
        self.attempted += len(res.latencies)
        self.failed += res.failed
        self.digest.add(res.verdicts)
        if self.first is None:
            self.first = res.verdicts
            bad = self.wl.oracle_failures(res)
            if bad:
                self.notes.append(f"oracle: {bad} mismatch(es)")
            self.failed += bad
        elif self.wl.repeats and res.verdicts != self.first:
            self.notes.append("verdicts differ between passes over the same inputs")
            self.failed += 1

    def finish(self) -> None:
        if self.recorded is None:
            warning = (
                f"WARNING: no digest recorded for {self.wl.name} seed {self.seed}; "
                "verdicts not compared with recorded ones (record them with "
                "perfbench/digests.py record)"
            )
            print(warning, file=sys.stderr)
            self.notes.append(warning)
        elif not self.digest.complete:
            self.notes.append("digest: run too short to compare")
            self.failed += 1
        elif self.digest.hexdigest() != self.recorded:
            self.notes.append("digest: MISMATCH with the recorded one")
            self.failed += 1
        else:
            self.notes.append("digest: matches the recorded one")


def run_untraced(wl, checker, seconds: float, meter: Meter) -> dict:
    """Latency percentiles are taken per window of at least WINDOW_ITEMS
    items and then their median, so that a slow stretch of part of the run
    does not set the tail."""
    times, rates, windows, window = [], [], [], []
    items = 0
    start = time.perf_counter()
    while True:
        res = wl.run_pass(meter)
        times.append(res.seconds)
        rates.append(res.decisions / res.seconds)
        window += res.latencies
        items += len(res.latencies)
        if len(window) >= WINDOW_ITEMS:
            windows.append(statistics.quantiles(window, n=100))
            window = []
        checker.add(res)
        if len(times) == wl.min_passes:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(times) >= wl.min_passes and time.perf_counter() - start >= seconds:
            break
    if not windows:
        windows.append(statistics.quantiles(window, n=100))
    return {
        "pass_s": statistics.median(times),
        "decisions_per_s": statistics.median(rates),
        "item_ms_p50": statistics.median(w[49] for w in windows) * 1e3,
        "item_ms_p99": statistics.median(w[98] for w in windows) * 1e3,
        "peak_rss_mb": peak_rss,
        "_passes": len(times),
        "_items": items,
        "_times": times,
    }


def run_traced(wl, checker, seconds: float, meter: Meter, tracer: Tracer) -> dict:
    untraced, traced, traced_wall = [], [], []
    suite_s: dict[str, list[float]] = {}
    suite_cases: dict[str, int] = {}
    hits = misses = 0
    start = time.perf_counter()
    while True:
        res = wl.run_pass(meter)
        untraced.append(res.seconds)
        for name, s in res.suite_s.items():
            suite_s.setdefault(name, []).append(s)
        suite_cases.update(res.suite_cases)
        checker.add(res)

        h0, m0, _ = cache_stats()
        tracer.install()
        meter.on_burst = tracer.exclude
        t0 = time.perf_counter()
        try:
            res = wl.run_pass(meter)
        finally:
            traced_wall.append(time.perf_counter() - t0)
            meter.on_burst = None
            tracer.uninstall()
        h1, m1, _ = cache_stats()
        hits, misses = hits + h1 - h0, misses + m1 - m0
        traced.append(res.seconds)
        checker.add(res)
        if 2 * len(traced) >= wl.min_passes and time.perf_counter() - start >= seconds:
            break

    n = len(traced)
    metrics = {}
    layers = tracer.layer_totals()
    for layer, (calls, self_s) in layers.items():
        metrics[f"{layer}.calls"] = calls / n
        metrics[f"{layer}.self_s"] = self_s / n
    funcs = tracer.function_totals()
    for layer, names in REPORTED.items():
        for fname in names:
            calls, self_s = funcs[f"{layer}.{fname}"]
            metrics[f"{layer}.{fname}.calls"] = calls / n
            metrics[f"{layer}.{fname}.self_s"] = self_s / n
    metrics["spaces.cache.hit_ratio"] = hits / max(1, hits + misses)
    metrics["spaces.cache.entries"] = cache_stats()[2]
    for name in sorted(workloads.suites.SUITES):
        metrics[f"suites.{name}.s"] = statistics.median(suite_s.get(name, [0.0]))
        metrics[f"suites.{name}.cases"] = suite_cases.get(name, 0)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    metrics["_traced_wall_s"] = sum(traced_wall) / n
    metrics["_self_sum_s"] = sum(s for _, s in layers.values()) / n
    metrics["_passes"] = n
    return metrics


def run_all(args) -> int:
    """Every workload for one seed, each in its own fresh interpreter."""
    worst = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]  # fmt: skip
        worst = max(worst, subprocess.run(cmd, timeout=600).returncode)
    return worst


UNITS = {
    "calls": "count", "self_s": "s", "s": "s", "cases": "count",
    "hit_ratio": "ratio", "entries": "count", "overhead": "ratio", "calib_s": "s",
}  # fmt: skip


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]

    meter = Meter()
    setup = [] if args.trace else measure_setup(args)
    wl = cls(args.seed, OUT)
    checker = Checker(wl, args.seed)
    if args.trace:
        t = Tracer(extra_namespaces=[workloads])
        measured = run_traced(wl, checker, args.seconds, meter, t)
    else:
        measured = run_untraced(wl, checker, args.seconds, meter)
    checker.finish()
    slices = meter.slices

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        spans = t.write_spans(OUT / f"spans-{args.workload}-{args.seed}.csv")
        print(f"# {measured['_passes']} traced pass(es); {spans} span(s) kept")
        within = measured["_self_sum_s"] <= measured["_traced_wall_s"]
        print(
            f"# layer self time per pass {measured['_self_sum_s']:.4f} s "
            f"{'<=' if within else '>'} traced wall {measured['_traced_wall_s']:.4f} s"
        )
        measured["machine.calib_s"] = statistics.median(slices)
        metrics = {
            k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[1]]}
            for k, v in measured.items()
            if not k.startswith("_")
        }
    else:
        measured["setup_s"] = statistics.median(setup)
        print(f"# {measured['_passes']} pass(es), {measured['_items']} item(s)")
        metrics = {k: {"value": measured[k], "unit": u} for k, u in END_TO_END.items()}
        if args.workload == "stream-cold":
            per_s = workloads.STREAM_BLOCK / measured["pass_s"]
            print(f"instances_per_s = {per_s:.6g} 1/s")
    share = checker.failed / max(1, checker.attempted)
    for note in checker.notes:
        print(f"# {note}")
    print(
        f"# machine.calib_s (reference slice) first {statistics.median(slices[:9]):.5f} s, "
        f"last {statistics.median(slices[-9:]):.5f} s, over {len(slices)} slices"
    )
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {share:.6g} ratio")

    result = {
        "correct": checker.failed == 0,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = dict(
        env,
        setup_runs_s=setup,
        reference_slices_s=slices,
        passes_s=measured.get("_times"),
        result=result,
    )
    name = f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
