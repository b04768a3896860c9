"""One workload in one process: set up, run the timed loop, check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.  With
``--setup-only`` it stops after set-up and reports when set-up ended, so the
parent can time process start to first op several times per run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from paths import ROOT, SRC

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import sact  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, aggregate  # noqa: E402


def probe() -> dict:
    """Host-speed probe: a pure-Python loop and a numpy loop, best of three, in ms.

    Reported beside the metrics to show host drift; never used to rescale them.
    """
    def best(fn):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        return min(times)

    def python_loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    def numpy_loop():
        a = np.arange(100_000, dtype=np.float64)
        for _ in range(40):
            a = np.sqrt(a * a + 1.0)
        return a

    return {"python_ms": best(python_loop), "numpy_ms": best(numpy_loop)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(sact.__file__).resolve().is_relative_to(SRC):
        print(f"sact was imported from {sact.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    probe_before = probe()
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    latencies, status, first = workload.timed_loop(args.seconds, tracer)
    elapsed = time.perf_counter() - start
    workload.after_loop()
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    probe_after = probe()

    failed_slots, problems = workload.tally(status, first)
    unexpected = [s for s in failed_slots if workload.known_defect(s) is None]
    for slot in sorted(failed_slots):
        reasons = problems.get(slot) or ["differs from the slot's first result"]
        label = workload.known_defect(slot) or "unexpected"
        print(f"{args.workload} slot {slot} failed {failed_slots[slot]}x ({label}): "
              + "; ".join(reasons[:3]), file=sys.stderr)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ready": ready,
        "input_digest": workload.input_digest,
        "attempted": len(status),
        "failed": sum(failed_slots.values()),
        "correct": not unexpected,
        "known_defects": sorted({workload.known_defect(s) for s in failed_slots} - {None}),
        "elapsed_s": elapsed,
        "latency": latencies.summary(),
        "peak_rss_mb": peak_rss_mb,
        "artifact_bytes": workload.corpus_bytes(),
        "probe": {"before": probe_before, "after": probe_after},
    }
    if tracer is not None:
        # Replay the same ops untraced for half the run length, to measure
        # what tracing itself costs: the ratio of the two runs' cycle times
        # at each op's fastest.
        replay, _, _ = workload.timed_loop(args.seconds / 2, None, min_cycles=2)
        overhead = replay.summary()["throughput_ops_s"] / result["latency"]["throughput_ops_s"] - 1.0
        extra = {"trace.overhead_ratio": overhead, **workload.trace_extra(tracer)}
        spans_path = workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["per_layer"] = metrics.per_layer(aggregate(tracer.spans), extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
