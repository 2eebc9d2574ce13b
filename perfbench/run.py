"""Benchmark entry point: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run starts WORKERS workload
processes one after another, each with ``PYTHONPATH=<root>/src`` and
PWMIX_THREADS unset (one closed-loop client, one worker thread).  Each does
its own set-up and then whole rounds of the workload's operations for
S / WORKERS seconds.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from span wrappers installed by the workers (see spans.py).
The run exits non-zero, printing no result, when the program's sources or
configs are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3
# Whole-run limit, with room under the 180 s a run may take.
DEADLINE_S = 170.0
NEEDED = ("src/pwmix/cli.py", "configs/audit_example.json")
WORKLOADS = ("audit-50k", "analytic-sweep")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_workers(args, work: Path, traces: Path) -> list:
    env = {k: v for k, v in os.environ.items() if k not in ("PWMIX_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    results = []
    began = time.monotonic()
    for k in range(WORKERS):
        wdir = work / f"w{k}"
        wdir.mkdir(parents=True)
        result = wdir / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--worker", str(k),
            "--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace),
            "--root", str(ROOT), "--workdir", str(wdir), "--result", str(result),
        ]
        if args.trace:
            cmd += ["--trace-file", str(traces / f"{args.workload}-w{k}.jsonl")]
        remaining = DEADLINE_S - (time.monotonic() - began)
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(time.time())],
                env=env, cwd=ROOT, stdout=sys.stderr, timeout=max(1.0, remaining),
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"run.py: worker {k} exceeded the run deadline")
        if proc.returncode != 0 or not result.exists():
            raise SystemExit(f"run.py: worker {k} exited with code {proc.returncode}")
        results.append(json.loads(result.read_text()))
    return results


def end_to_end(results: list) -> dict:
    latencies = [x / 1e6 for r in results for x in r["latencies_ns"]]
    # The median over rounds, not the run's total: a stretch in which the
    # shared machine runs slow moves it less.
    per_round = [done / (ns / 1e9) for r in results for done, ns in r["rounds"]]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "throughput_per_s": (statistics.median(per_round), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    print(f"run.py: {len(latencies)} successful operations timed", file=sys.stderr)
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def per_layer(results: list) -> dict:
    traces = [r["trace"] for r in results]
    n_ops = sum(t["ops"] for t in traces)
    counters: dict = {}
    for t in traces:
        for name, value in t["counters"].items():
            counters[name] = counters.get(name, 0) + value
    plain = sum(t["plain_mean_ns"] for t in traces)
    traced = sum(t["traced_mean_ns"] for t in traces)
    extra = {
        "cli.import_s": statistics.median(r["import_s"] for r in results),
        "bench.audit_groups": counters.get("bench.audit_groups", 0) / n_ops,
        "mechanisms.constants_cache_hits": counters.get("mechanisms.constants_cache_hits", 0) / n_ops,
        "mechanisms.constants_cache_misses": counters.get("mechanisms.constants_cache_misses", 0) / n_ops,
        "trace.overhead_pct": 100.0 * (traced / plain - 1.0),
    }
    totals = spans.merge_totals([t["totals"] for t in traces])
    return spans.per_layer_metrics(totals, n_ops, extra)


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills the running
    # worker and waits for it, and through the clean-up of the work files.
    raise SystemExit(f"run.py: stopped by signal {signum}")


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = _parse(argv)
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a pwmix checkout, missing {missing}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    traces = ROOT / ".perfbench_traces"
    if args.trace:
        traces.mkdir(exist_ok=True)
    try:
        results = _run_workers(args, work, traces)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    problems = [p for r in results for p in r["problems"]]
    for p in problems:
        print(f"run.py: check failed: {p}", file=sys.stderr)
    metrics = per_layer(results) if args.trace else end_to_end(results)
    line = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
