"""sact benchmark: end-to-end and per-layer metrics of three seeded workloads.

    python3 bench/run.py --workload design_exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The
line before it (``record {...}``) is the run record: git state, versions,
load and the host-drift probe.  A table of the metrics goes to stderr.

The benchmark runs the package from ``src/`` of the checkout it sits in and
writes only under ``.bench_run/`` there.  Nothing is pinned to a CPU and no
cache is dropped; numpy's huge-page advice is off in every process it starts
(see ``paths.child_env``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from paths import ROOT, child_env

BENCH = ROOT / "bench"
WORKLOADS = ("design_exact", "artifact_lookup", "cli_session")
# A seed kept out of tuning, for confirming a claimed gain.
HELD_OUT_SEED = 90001
# Set-up is timed this many times in separate processes, half before and
# half after the measured process, plus once in the measured process; setup_s
# is the median.  Spreading the samples over the run keeps a slow stretch of
# the host from holding all of them.
SETUP_SAMPLES = 4
# Time a workload may take beyond its timed loop (set-ups, the warm-up cycle,
# the checks and, when traced, the extras) before the run is given up.  A
# traced run also replays its ops untraced for half the run length.
MARGIN_S = 120.0


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_worker(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
               setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Start one worker; return its report and its set-up time (process start to ready)."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    started = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = done.stdout.decode("utf-8").strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with code {done.returncode}")
    report = json.loads(lines[-1])
    return report, report["ready"] - started


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workdir = ROOT / ".bench_run" / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    args = (workload, seed, seconds, trace, workdir)
    samples = 0 if trace else SETUP_SAMPLES
    try:
        setups = [run_worker(*args, True, deadline)[1] for _ in range(samples // 2)]
        report, measured = run_worker(*args, False, deadline)
        setups += [measured] + [run_worker(*args, True, deadline)[1] for _ in range(samples - samples // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["setup_samples_s"] = setups
    report["setup_s"] = median(setups)
    return report


def end_to_end(report: dict) -> dict:
    latency = report["latency"]
    values = {
        "throughput_ops_s": (latency["throughput_ops_s"], "1/s"),
        "latency_p50_ms": (latency["p50_ms"], "ms"),
        "latency_tail_ms": (latency["tail_ms"], "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "setup_s": (report["setup_s"], "s"),
        "ops_ok_ratio": (1.0 - report["failed"] / report["attempted"], "ratio"),
        "artifact_bytes": (float(report["artifact_bytes"]), "B"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/sact/__init__.py", "tests/helpers.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} missing under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    per_workload = args.seconds * (1.5 if args.trace else 1.0) + MARGIN_S
    deadline = time.monotonic() + per_workload * len(names)
    record = {
        "git": git_state(),
        "python": platform.python_version(),
        "numpy": None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "cpus_pinned": False,
        "caches_dropped": False,
        "numpy_madvise_hugepage": child_env()["NUMPY_MADVISE_HUGEPAGE"],
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    reports = {}
    try:
        for name in names:
            reports[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = os.getloadavg()
    record["numpy"] = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=child_env(), timeout=60).stdout.strip()

    results = {}
    for name, report in reports.items():
        metrics = report.pop("per_layer") if args.trace else end_to_end(report)
        record["workloads"][name] = {k: report[k] for k in (
            "input_digest", "attempted", "failed", "known_defects", "elapsed_s", "latency",
            "setup_samples_s", "probe") + (("spans_file",) if args.trace else ())}
        results[name] = {"correct": report["correct"], "attempted": report["attempted"],
                         "failed": report["failed"], "metrics": metrics}
        print(f"{name} (seed {args.seed}, {report['attempted']} ops, {report['failed']} failed, "
              f"correct={report['correct']}):", file=sys.stderr)
        if not args.trace:
            latency = report["latency"]
            print(f"  latency_tail_ms is p{latency['tail_percentile']:g} of the {latency['kept_per_slot']} "
                  f"fastest times of each op slot ({latency['samples']} samples)", file=sys.stderr)
        for metric, value in metrics.items():
            print(f"  {metric:32s} {value['value']:14.6g} {value['unit']}", file=sys.stderr)

    print("record " + json.dumps(record))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
