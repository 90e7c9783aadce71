"""Cold projector builds, each in a fresh process, for one or more source trees.

    python3 scripts/bench_builds.py [--src DIR ...] [--builds T6,T7,H6,H7,JW7]
                                    [--rounds N] [--out FILE]

A build is a letter and a size: T (extremal), H (highest weight), L
(lowest weight) or JW (Jones-Wenzl).  PT times the strand-insertion layer
instead: PT7 builds T_7 untimed, then times its partial trace, which
walks the crossings of the closing strand term by term, and reports that
result.  E times the product
formula's complement: E4x2 builds T_4 and T_2 untimed, then times
`split_idempotent(4, 2)`, the e_{4,2} of T_4 (x) T_2 = T_6 + e_{4,2},
and reports that result.  X times strand insertion on both sides: X3x2
builds T_3 and T_2 untimed, then times `tensor(T_3, T_2)`, which adds
two strands to the right of T_3 and three to the left of T_2, and
reports that result.  N times the complement at a turnback depth:
N4x2r1 builds T_4 and T_2 untimed, then times
`split_idempotent_nested(4, 2, 1)` and reports that result.  C times exact
elimination: C7 builds T_7 untimed, then times `coordinates(T_7)`; its
term count is the number of nonzero coordinates, and its digest is taken
over the JSON list of their strings.  Each one runs in its own
interpreter with PYTHONPATH set to one --src directory (default: this
checkout's src), so no cache carries over between builds.  Rounds
interleave the trees: in round r they take turns in order, starting
from tree r mod (number of trees), so drift of the machine lands on all
of them.

Per build it records the wall time of the timed call, the process's peak
resident set size read right after that call (the build's peak, not that
of the JSON digest taken next), the number of phase tables in phi's memo,
of diagrams in the pool and of hits and misses of the `compose` memo at
that moment, the term count and the
sha256 of the result's JSON (`dumps()`; for C, of the coordinates'
strings).  It prints one line per build and the medians, then writes
everything as JSON to --out, or to standard output without it.  A build
whose digest differs between the trees prints MISMATCH and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILDERS = {"T": "extremal", "H": "highest_weight", "L": "lowest_weight", "JW": "jones_wenzl",
            "PT": "partial_trace", "C": "coordinates", "E": "split_idempotent", "X": "tensor",
            "N": "split_idempotent_nested"}

CHILD = """
import hashlib, json, resource, sys, time
import atlq
from atlq import diagram, rep
name, sizes = sys.argv[1], [int(a) for a in sys.argv[2:]]
if name in ("partial_trace", "coordinates"):
    args = (atlq.extremal(sizes[0]),)
elif name == "tensor":
    args = tuple(atlq.extremal(k) for k in sizes)
else:
    if name in ("split_idempotent", "split_idempotent_nested"):
        for k in sizes[:2]:
            atlq.extremal(k)
    args = tuple(sizes)
start = time.perf_counter()
x = getattr(atlq, name)(*args)
elapsed = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
phi_tables, pooled = len(rep._phi_cache), len(diagram._POOL)
hits, misses = diagram.compose.cache_info()[:2]
if name == "coordinates":
    terms, text = sum(1 for c in x if c), json.dumps([str(c) for c in x])
else:
    terms, text = len(x.terms), x.dumps()
print(json.dumps({
    "time_s": elapsed,
    "peak_rss_mb": peak_mb,
    "phi_tables": phi_tables,
    "pooled": pooled,
    "compose_hits": hits,
    "compose_misses": misses,
    "terms": terms,
    "sha256": hashlib.sha256(text.encode()).hexdigest(),
}))
"""


def parse_build(text: str) -> tuple[str, list[int]] | None:
    match = re.fullmatch(r"(PT|T|H|L|JW|C)(\d+)|([EX])(\d+)x(\d+)|N(\d+)x(\d+)r(\d+)", text)
    if match is None:
        return None
    if match.group(1) is not None:
        return BUILDERS[match.group(1)], [int(match.group(2))]
    if match.group(3) is not None:
        return BUILDERS[match.group(3)], [int(match.group(4)), int(match.group(5))]
    return BUILDERS["N"], [int(g) for g in match.groups()[5:]]


def run_build(src: str, name: str, sizes: list[int]) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, name, *map(str, sizes)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", help="a src directory; repeat to compare")
    parser.add_argument("--builds", default="T6,T7,H6,H7,JW7")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    srcs = args.src or [os.path.join(ROOT, "src")]
    builds = args.builds.split(",")
    specs = [parse_build(b) for b in builds]
    if None in specs:
        parser.error(f"bad --builds {args.builds!r}: each is T, H, L, JW, PT or C and a "
                     "size, or E<m>x<n>, X<m>x<n> or N<m>x<n>r<r>")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    runs = {src: {b: [] for b in builds} for src in srcs}
    for r in range(args.rounds):
        for j in range(len(srcs)):
            src = srcs[(r + j) % len(srcs)]
            for b, (name, sizes) in zip(builds, specs):
                res = run_build(src, name, sizes)
                runs[src][b].append(res)
                print(f"round {r} {src} {b}: {res['time_s']:.3f} s, "
                      f"{res['peak_rss_mb']:.1f} MB, {res['terms']} terms, "
                      f"{res['phi_tables']} phi tables, {res['pooled']} pooled, "
                      f"compose {res['compose_hits']} hits / {res['compose_misses']} misses",
                      flush=True)

    ok = True
    summary = {}
    for b in builds:
        digests = {res["sha256"] for src in srcs for res in runs[src][b]}
        if len(digests) != 1:
            ok = False
            print(f"{b}: MISMATCH, {len(digests)} distinct digests")
        summary[b] = {
            src: {
                "time_s": statistics.median(res["time_s"] for res in runs[src][b]),
                "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in runs[src][b]),
                "terms": runs[src][b][0]["terms"],
            }
            for src in srcs
        }
        for src, med in summary[b].items():
            print(f"{b} {src}: median {med['time_s']:.3f} s, {med['peak_rss_mb']:.1f} MB")
    text = json.dumps({"builds": builds, "rounds": args.rounds, "runs": runs,
                       "summary": summary}, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
