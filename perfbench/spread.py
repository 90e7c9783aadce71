"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 perfbench/spread.py --seeds 10 [--workloads a,b] [--seconds S] [--out FILE]

Runs perfbench/run.py once per seed and workload, one run at a time, with
the workloads interleaved inside each seed so that drift of the machine
lands on all of them.  For every workload and metric it prints the median
of the runs, the quartiles from statistics.quantiles(values, n=4), and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary: dict[str, dict[str, dict]] = {}
    steady = True
    print(f"\n{'workload':11s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w in workloads:
        summary[w] = {}
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = "" if spread < bound / 3 else "  above a third of the bound"
            if name != "setup_s" and spread > bound:
                flag, steady = "  ABOVE THE BOUND", False
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "runs": len(vals)}
            print(f"{w:11s} {name:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {bound:6.2f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
