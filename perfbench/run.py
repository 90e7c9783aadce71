"""The atlq benchmark: cold jobs of one workload, checked, with medians.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each job is a fresh interpreter running
perfbench/job.py, because the engine's caches are process-global; jobs run
one at a time, back to back (a closed loop with one client), until the
next job would overrun S seconds, and at least MIN_JOBS of them.  Only
the randomized workload reads the seed: job k of an untraced run draws
its cases from "SEED/k", so one run's median spans several draws and a
seed always gives the same sequence of inputs.  Traced runs draw
"SEED/0" for every job.

With --trace 0 the result holds the end-to-end metrics, each the median
over the jobs:

    wall_s        job time after set-up
    setup_s       from process spawn to `import atlq` done
    peak_rss_mb   the job process's peak resident set size
    build_s       the job's build phase (projectors, inputs, bases)
    case_p90_ms   per-check latency, 90th percentile within a job

With --trace 1 untraced and traced jobs alternate and the result holds
the per-layer metrics of layers.METRICS: exact counts (which must repeat
in every traced job), median self times, and trace.overhead, the traced
over the untraced median wall_s.  The spans of the last traced job are
written to .perfbench/spans-WORKLOAD-SEED.json.

Every time is calibrated against a fixed reference work (calib.py),
timed by this process before and after each job and by the job between
its build and check phases; the raw median wall_s and the machine's speed
against the reference are printed with the report.

Every check of every job is counted in `attempted`; a failed check or a
crashed job counts in `failed`, contributes no timing, and makes the
command exit 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calib import REF_S, reference_s  # noqa: E402
from layers import METRICS, UNITS  # noqa: E402

WORKLOADS = ("technical", "product", "randomized", "basis")
MIN_JOBS = 3
# a run must end within 180 s whatever --seconds asks for
HARD_LIMIT_S = 170.0


def calibrate(report: dict, ref_before: float, ref_after: float) -> float:
    """Scale a job's times to the reference speed; returns the job's factor.

    The build phase is scaled by the references taken before the job and
    between its phases, the check phase by the one between its phases and
    the one after the job.
    """
    build = REF_S / ((ref_before + report["ref_mid_s"]) / 2)
    check = REF_S / ((report["ref_mid_s"] + ref_after) / 2)
    whole = REF_S / ((ref_before + report["ref_mid_s"] + ref_after) / 3)
    report["raw_wall_s"] = report["wall_s"]
    report["setup_s"] *= build
    report["wall_s"] = report["build_s"] * build + report["check_s"] * check
    report["build_s"] *= build
    report["cases_s"] = [c * check for c in report["cases_s"]]
    times = report.get("layers", {}).get("times", {})
    for name in times:
        times[name] *= whole
    return whole


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_job(workload: str, seed: str, trace: bool, spans: str,
            timeout: float) -> tuple[dict | None, str]:
    """One cold job; returns (its report with setup_s added, error text)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "job.py"), workload, seed, "1" if trace else "0"]
    if trace:
        cmd.append(spans)
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"job exceeded {timeout:.0f} s and was killed"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"job exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    report = json.loads(lines[-1])
    report["setup_s"] = (report["import_ns"] - spawn_ns) / 1e9
    return report, ""


def end_to_end(jobs: list[dict]) -> dict[str, tuple[float, str]]:
    med = statistics.median
    return {
        "wall_s": (med(j["wall_s"] for j in jobs), "s"),
        "setup_s": (med(j["setup_s"] for j in jobs), "s"),
        "peak_rss_mb": (med(j["rss_mb"] for j in jobs), "MB"),
        "build_s": (med(j["build_s"] for j in jobs), "s"),
        "case_p90_ms": (med(percentile(j["cases_s"], 90) for j in jobs) * 1e3, "ms"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str], list[str]]:
    """(metrics, absent names, errors) from the traced jobs of a run."""
    layers = [j["layers"] for j in traced]
    errors = []
    if any(layer["counts"] != layers[0]["counts"] for layer in layers):
        errors.append("layer counts differ between traced jobs of one seed")
    metrics = {name: (v, UNITS[name]) for name, v in layers[0]["counts"].items()}
    for name in layers[0]["times"]:
        metrics[name] = (statistics.median(layer["times"][name] for layer in layers), "s")
    overhead = (statistics.median(j["wall_s"] for j in traced)
                / statistics.median(j["wall_s"] for j in plain))
    metrics["trace.overhead"] = (overhead, UNITS["trace.overhead"])
    order = {name: k for k, (name, *_) in enumerate(METRICS)}
    metrics = dict(sorted(metrics.items(), key=lambda kv: order[kv[0]]))
    return metrics, layers[0]["absent"], errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "atlq", "__init__.py")):
        print(f"error: no atlq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    spans = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.json")
    if args.trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    factors: list[float] = []
    ref_before = reference_s()
    min_jobs = 2 * MIN_JOBS if args.trace else MIN_JOBS
    while True:
        elapsed = time.monotonic() - start
        n = len(durations)
        if n >= min_jobs and elapsed + statistics.median(durations) > args.seconds:
            break
        remaining = HARD_LIMIT_S - elapsed
        if n and remaining < 2 * max(durations):
            break
        trace = bool(args.trace) and n % 2 == 1
        # untraced runs draw fresh randomized cases for every job; traced
        # runs repeat the first draw so that their counts must agree
        case_seed = f"{args.seed}/{0 if args.trace else n}"
        t0 = time.monotonic()
        report, error = run_job(args.workload, case_seed, trace, spans, remaining)
        ref_after = reference_s()
        durations.append(time.monotonic() - t0)
        if report is None:
            attempted += 1
            failed += 1
            errors.append(error)
            break
        attempted += len(report["cases_s"])
        failed += len(report["failures"])
        errors.extend(report["failures"])
        if not report["failures"]:
            factors.append(calibrate(report, ref_before, ref_after))
            (traced if trace else plain).append(report)
        ref_before = ref_after

    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    if args.trace and plain and traced:
        metrics, absent, trace_errors = per_layer(plain, traced)
        failed += len(trace_errors)
        errors.extend(trace_errors)
    elif not args.trace and plain:
        metrics = end_to_end(plain)
    correct = failed == 0 and bool(metrics)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} plain and {len(traced)} traced jobs in {time.monotonic() - start:.1f} s, "
          f"{attempted} checks attempted, {failed} failed")
    if plain:
        print(f"cases per job: {len(plain[0]['cases_s'])}; machine speed against the "
              f"reference: median {statistics.median(factors):.3f}, range "
              f"{min(factors):.3f}..{max(factors):.3f}; raw median wall_s "
              f"{statistics.median(j['raw_wall_s'] for j in plain):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    if absent:
        print("absent: " + ", ".join(absent))
    for error in errors[:20]:
        print(f"FAIL {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
