"""One workload process: set up, run whole rounds for a share of the run, check.

Started by run.py with the program's source root on PYTHONPATH and
PWMIX_THREADS unset.  The first thing it does is ``import pwmix.cli``, so its
set-up time covers that import, input generation and the workload's untimed
warm-up.  It writes its figures to the --result file.

With --trace 1 the timed share is split in two halves of the same rounds:
the first runs untraced, the second with the span wrappers installed.  The
per-layer metrics come from the second half; the ratio of the halves' mean
operation times is the tracing overhead.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import spans

MAX_MESSAGES = 20


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--worker", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--t0", type=float, required=True, help="time.time() when the parent started us")
    p.add_argument("--trace-file", type=Path)
    return p.parse_args(argv)


class Phase:
    """Figures of one stretch of whole rounds."""

    def __init__(self) -> None:
        self.latencies_ns: list = []
        # Per round: operations completed without failure, summed op time.
        self.rounds: list = []
        self.op_time_ns = 0
        self.attempted = 0
        self.failed = 0
        self.counters: dict = {}


def run_rounds(wl, seconds, state, messages, tracer=None, timed_ops=None):
    """Run whole rounds until ``seconds`` of wall time have passed."""
    from workloads import CheckFailed
    from pwmix import mechanisms

    caches = (mechanisms.lapmix_constants, mechanisms.geomix_constants)
    phase = Phase()
    start = time.perf_counter()
    while True:
        wl.before_round(state["rounds"])
        state["rounds"] += 1
        if tracer is not None:
            before = [c.cache_info() for c in caches]
        round_start = (phase.attempted - phase.failed, phase.op_time_ns)
        for op in wl.round():
            wl.prepare(op)
            if tracer is not None:
                tracer.op = state["ops"]
                timed_ops.add(state["ops"])
            state["ops"] += 1
            error = None
            t = time.perf_counter_ns()
            try:
                out = wl.run(op)
            except Exception as exc:  # an operation that raises counts as failed
                error = exc
            dt = time.perf_counter_ns() - t
            if tracer is not None:
                tracer.op = spans.SETUP_OP
            phase.attempted += 1
            phase.op_time_ns += dt
            if error is None:
                try:
                    wl.check(op, out)
                    for name, value in wl.counters(op, out).items():
                        phase.counters[name] = phase.counters.get(name, 0) + value
                except CheckFailed as exc:
                    error = exc
            if error is None:
                phase.latencies_ns.append(dt)
                continue
            phase.failed += 1
            if not wl.expected_failure(op):
                state["unexpected"] += 1
                if len(messages) < MAX_MESSAGES:
                    messages.append(f"{type(error).__name__}: {error}")
        phase.rounds.append((phase.attempted - phase.failed - round_start[0],
                             phase.op_time_ns - round_start[1]))
        if tracer is not None:
            after = [c.cache_info() for c in caches]
            for key, attr in (("mechanisms.constants_cache_hits", "hits"),
                              ("mechanisms.constants_cache_misses", "misses")):
                delta = sum(getattr(a, attr) - getattr(b, attr) for a, b in zip(after, before))
                phase.counters[key] = phase.counters.get(key, 0) + delta
        if time.perf_counter() - start >= seconds:
            return phase


def main(argv=None) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    import pwmix.cli  # noqa: F401  (the import is part of set-up and is timed)

    import_s = time.perf_counter() - started
    import pwmix

    expected = (args.root / "src" / "pwmix").resolve()
    if Path(pwmix.__file__).resolve().parent != expected:
        print(f"worker: imported pwmix from {pwmix.__file__}, not {expected}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.root, args.seed, args.workdir, args.worker)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    wl.setup()
    wl.warm_up()
    setup_s = time.time() - args.t0

    state = {"rounds": 0, "ops": 0, "unexpected": 0}
    messages: list = []
    result = {"import_s": import_s, "setup_s": setup_s}
    if tracer is None:
        phases = [run_rounds(wl, args.seconds, state, messages)]
    else:
        tracer.uninstall()
        plain = run_rounds(wl, args.seconds / 2, state, messages)
        timed_ops: set = set()
        tracer.install()
        traced = run_rounds(wl, args.seconds / 2, state, messages, tracer, timed_ops)
        tracer.uninstall()
        phases = [plain, traced]
        result["trace"] = {
            "totals": tracer.totals(timed_ops),
            "ops": traced.attempted,
            "counters": traced.counters,
            "plain_mean_ns": plain.op_time_ns / plain.attempted,
            "traced_mean_ns": traced.op_time_ns / traced.attempted,
        }
        if args.trace_file is not None:
            tracer.write(args.trace_file)
    problems = list(messages)
    if state["unexpected"]:
        problems.append(f"{state['unexpected']} operations failed that must not fail")
    result.update(
        latencies_ns=[x for p in phases for x in p.latencies_ns],
        rounds=[r for p in phases for r in p.rounds],
        attempted=sum(p.attempted for p in phases),
        failed=sum(p.failed for p in phases),
        problems=problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
