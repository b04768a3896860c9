"""Compare a parent checkout with a change, metric by metric and workload by workload.

    python3 bench/compare.py --parent ../parent --change . --workload design_exact \\
        --workload artifact_lookup --pairs 10 --seed 1

Each pair runs the benchmark once in each checkout with the same seed and the
run length of BENCHMARK.json, the order alternating from pair to pair; pair i
uses seed ``--seed + i``.  Each checkout runs its own ``bench/run.py``, which
must be byte-identical in both.
Every (workload, metric) gets its own row and one verdict:

* improved: the change wins at least nine tenths of the pairs (ties count for
  neither side) and the medians differ, in its favour, by more than the
  parent's interquartile range;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (per-layer metrics, which have no bound:
  the parent wins nine tenths of the pairs by more than its interquartile range);
* unresolved: neither, and the parent's own spread (IQR over median) is wider
  than the bound, unless every change run reads better than every parent run;
* unchanged: otherwise.

A gain does not count when the change fails more ops than the parent; such
rows read unresolved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent


def bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "bench").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    h.update((checkout / "BENCHMARK.json").read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark failed in {checkout}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def collect(args, spec: dict) -> list[dict]:
    """Run the pairs; each pair maps "parent" and "change" to {workload: result}."""
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    if bench_digest(parent) != bench_digest(change):
        raise SystemExit("the two checkouts have different benchmark code; compare with identical code")
    seconds = spec["run_seconds"]
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        pair = {}
        for side, checkout in order:
            pair[side] = {w: run_once(checkout, w, seed, seconds, args.trace) for w in args.workload}
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, {order[0][0]} first)", file=sys.stderr)
    return pairs


def better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def verdict(parent: list[float], change: list[float], direction: str, bound: float | None,
            more_failures: bool) -> tuple[str, int]:
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    losses = sum(better(p, c, direction) for p, c in zip(parent, change))
    med_p, med_c = median(parent), median(change)
    q = quantiles(parent, n=4) if len(parent) > 1 else [med_p, med_p, med_p]
    iqr = q[2] - q[0]
    if wins >= 0.9 * len(parent) and better(med_c, med_p, direction) and abs(med_c - med_p) > iqr:
        return ("unresolved" if more_failures else "improved"), wins
    if bound is None:
        if losses >= 0.9 * len(parent) and abs(med_c - med_p) > iqr:
            return "worse", wins
        return "unchanged", wins
    worse_by = (med_p - med_c if direction == "higher" else med_c - med_p) / abs(med_p) if med_p else 0.0
    if worse_by > bound:
        return "worse", wins
    spread = iqr / abs(med_p) if med_p else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def report(pairs: list[dict], workloads: list[str], trace: int, spec: dict) -> None:
    """Print one row per (workload, metric) with both medians and the verdict."""
    key = "per_layer" if trace else "end_to_end"
    for workload in workloads:
        runs = {side: [p[side][workload] for p in pairs] for side in ("parent", "change")}
        more_failures = sum(r["failed"] for r in runs["change"]) > sum(r["failed"] for r in runs["parent"])
        for metric in spec[key]:
            name = metric["name"]
            parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("parent", "change"))
            result, wins = verdict(parent, change, metric["better"], metric.get("bound"), more_failures)
            print(f"{workload:16s} {name:34s} parent {median(parent):12.6g} change {median(change):12.6g} "
                  f"{metric['unit']:6s} wins {wins}/{len(parent)} {result}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    report(collect(args, spec), args.workload, args.trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
