"""Steadiness runner: repeat workloads in fresh processes, one seed each.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--against results/steady-earlier.json]

Runs run.py --runs times per workload, seeds first-seed, first-seed+1,
...; for each metric prints the median, the first and third quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median and, for the
end-to-end metrics, the bound from BENCHMARK.json.  With --against, the
medians are also compared with those of an earlier summary: the drift
is how much worse the new median is, as a share of the old one.  The
summary, with every run's values, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10, help="at least 2")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [_run(workload, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(shares) == 1
        print(f"{workload}: {args.runs} runs, correct={correct}, failed share(s)={shares}")
        entry = {"failed_shares": shares, "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarize(values)
            stats["values"] = values
            line = (f"  {name:28s} median {stats['median']:.6g}  "
                    f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                    f"spread {stats['spread']:.3f}")
            bound = bounds.get(name)
            if bound is not None:
                line += f"  bound {bound['bound']}"
                if name != "setup_s" and stats["spread"] > bound["bound"]:
                    ok = False
                    line += "  SPREAD OVER BOUND"
                old = earlier.get(workload, {}).get("metrics", {}).get(name)
                if old is not None:
                    sign = -1 if bound["better"] == "higher" else 1
                    drift = sign * (stats["median"] - old["median"]) / old["median"]
                    stats["drift"] = drift
                    line += f"  drift {drift:+.3f}"
                    if drift > bound["bound"]:
                        ok = False
                        line += "  DRIFT OVER BOUND"
            print(line)
            entry["metrics"][name] = stats
        summary[workload] = entry
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
