"""One cold benchmark job: import atlq, run a workload once, report as JSON.

Started by run.py in a fresh interpreter with `src` on PYTHONPATH, so the
process-global caches (diagram composition, the diagram pool, the
projector and weight-map caches) start empty.  The last line of standard
output is one JSON object:

    import_ns   CLOCK_MONOTONIC time at which `import atlq` finished
    wall_s      job time after set-up, raw
    build_s     build phase time, raw
    check_s     check phase time, raw
    ref_mid_s   reference work time between the two phases (calib.py)
    cases_s     every check's latency, in run order
    failures    the failed checks with their reason
    rss_mb      this process's peak resident set size
    layers      with --trace 1: exact counts, self times and absent names

Usage: python3 perfbench/job.py WORKLOAD SEED TRACE [SPANS_PATH]

SEED is a string; the randomized workload seeds its generator with it.
"""

import time

import atlq

IMPORT_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], argv[1], argv[2] == "1"
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    # imported after the tracer so that its names resolve to the wrappers
    from workloads import WORKLOADS, Job

    job = Job(tracer)
    WORKLOADS[workload](job, seed)
    out = {
        "import_ns": IMPORT_NS,
        "wall_s": job.build_s + job.check_s,
        "build_s": job.build_s,
        "check_s": job.check_s,
        "ref_mid_s": job.ref_mid_s,
        "cases_s": job.cases_s,
        "failures": job.failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        counts, times, absent = tracer.metrics()
        out["layers"] = {"counts": counts, "times": times, "absent": absent}
        if len(argv) > 3:
            tracer.dump(argv[3])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
