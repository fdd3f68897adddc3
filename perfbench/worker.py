"""One benchmark run: set-up, timed rounds, then output checks.

Started by run.py in a fresh process.  Set-up is the imports plus one
untimed warm-up operation; its time is counted from `--started-ns`, the
moment run.py began.  Rounds of the workload's operations then run back
to back, one caller, no worker pool, until their timed wall time reaches
`--seconds`; a round always completes, so every run attempts whole
rounds.  Only the calls into gridlines are timed, not making inputs and
not checking outputs.  ops_per_s and lines_per_s are totals over all
untraced rounds divided by their timed seconds, so a run averages over
every input it drew.

With --trace 1 the gridlines layers are wrapped (tracing.py) and each round
runs twice, first untraced and then traced, on the same inputs.  The
per-layer figures are per traced round; trace.overhead_s is the traced
minus the untraced wall time, per round.  Spans are written to
perfbench/results/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILED = object()


def _run_round(ops, tracer=None):
    """Call every operation once; returns (results, timed seconds)."""
    busy = 0.0
    results = []
    for op in ops:
        if tracer is not None:
            tracer.operation += 1
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = FAILED
        busy += time.perf_counter() - start
        results.append(result)
    return results, busy


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started-ns", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import gridlines

    if Path(gridlines.__file__).resolve().parent != (ROOT / "src" / "gridlines").resolve():
        print(f"perfbench: gridlines was not imported from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    make_round = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    warmup = make_round(args.seed, "warmup")
    warm_results, _ = _run_round(warmup)
    if any(result is FAILED for result in warm_results):
        return 1
    setup_s = (time.monotonic_ns() - args.started_ns) / 1e9

    # (ops, results, timed seconds, traced?) for every pass over a round.
    passes = []
    rounds = 0
    while rounds == 0 or sum(p[2] for p in passes) < args.seconds:
        ops = make_round(args.seed, rounds)
        passes.append((ops, *_run_round(ops), False))
        if tracer is not None:
            tracer.enabled = True
            passes.append((ops, *_run_round(ops, tracer), True))
            tracer.enabled = False
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = done = lines = 0
    untraced_s = 0.0
    problems = []
    for op, result in zip(warmup, warm_results):
        problems += op.check(result, False)
    for i, (ops, results, busy, traced) in enumerate(passes):
        for op, result in zip(ops, results):
            attempted += op.ops
            if result is FAILED:
                failed += op.ops
            else:
                if not traced:
                    done += op.ops
                    lines += op.lines
                problems += op.check(result, i == 0)
        if not traced:
            untraced_s += busy
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(done / untraced_s, "ops/s"),
            "lines_per_s": _metric(lines / untraced_s, "lines/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        }
    else:
        metrics = {name: _metric(tracer.self_time[name[:-2]] / rounds, "s")
                   for name in tracing.TIME_METRICS}
        metrics.update({name: _metric(tracer.counts[name] / rounds, "count")
                        for name in tracing.COUNT_METRICS})
        overhead = sum(busy if traced else -busy for _, _, busy, traced in passes)
        metrics["trace.overhead_s"] = _metric(overhead / rounds, "s")
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
