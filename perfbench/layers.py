"""Outside-in tracing of the engine's layers.

The traced job patches wrappers into every `atlq` module namespace that
binds a traced name, so calls between modules go through them.  Each
wrapped call records a span (name, start, end, parent) in memory; self
time is a span's duration minus the time covered by its child spans.
Scalar arithmetic is counted, not spanned: the dunder calls are too many
and too short to time one by one.

The names traced are the package's public functions (`atlq.__all__`)
plus the few layer entry points listed in EXTRA.  A name the engine no
longer has is reported as absent instead of failing the job, so the
benchmark keeps working when later changes delete helpers.

METRICS lists every per-layer metric with the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

# (module, name) traced in addition to atlq.__all__
EXTRA = [
    ("diagram", "mor_compose"),
    ("rep", "rank_of_columns"),
    ("rep", "solve_columns"),
    ("rep", "WeightMap.__mul__"),
    ("projectors", "phi_extremal"),
    ("verify", "suite_product"),
]
# public names that are not layer work: configuration and the memoised
# diagram composition, whose cache statistics are read instead
SKIP = {"compose", "configure", "get_config", "set_config"}
SCALAR_OPS = {"mul": "__mul__", "add": "__add__", "sub": "__sub__",
              "neg": "__neg__", "inverse": "inverse"}
# constructors whose results count toward projectors.terms_max
PROJECTORS = {f"projectors.{name}" for name in
              ("extremal", "jones_wenzl", "highest_weight", "lowest_weight")}

# name, unit, better, what it should move
METRICS = [
    ("scalar.mul", "count", "lower", "wall_s, build_s on technical; wall_s on basis"),
    ("scalar.add", "count", "lower", "wall_s, build_s on technical; wall_s on basis"),
    ("scalar.sub", "count", "lower", "wall_s on basis"),
    ("scalar.neg", "count", "lower", "wall_s on technical"),
    ("scalar.inverse", "count", "lower", "wall_s on basis"),
    ("diagram.mor_compose.calls", "count", "lower", "wall_s on technical, product"),
    ("diagram.mor_compose.self_s", "s", "lower", "wall_s on technical, product"),
    ("diagram.mor_compose.pairs", "count", "lower", "wall_s on technical, product"),
    ("diagram.mor_compose.terms_out", "count", "lower", "wall_s on technical, product"),
    ("diagram.compose.calls", "count", "lower", "peak_rss_mb on technical, product"),
    ("diagram.compose.hit_ratio", "ratio", "higher", "peak_rss_mb on technical, product"),
    ("diagram.compose.cache_size", "count", "lower", "peak_rss_mb on technical, product"),
    ("diagram.pool_size", "count", "lower", "peak_rss_mb on technical, product"),
    ("planar.iota.calls", "count", "lower", "wall_s on basis, product; build_s on technical"),
    ("planar.iota.self_s", "s", "lower", "wall_s on basis, product; build_s on technical"),
    ("planar.iota.terms_in", "count", "lower", "wall_s on basis, product"),
    ("planar.iota.terms_out", "count", "lower", "wall_s on basis, product"),
    ("planar.factorize.calls", "count", "lower", "wall_s on basis, randomized"),
    ("planar.factorize.self_s", "s", "lower", "wall_s on basis, randomized"),
    ("planar.tensor.calls", "count", "lower", "wall_s on product, randomized"),
    ("planar.tensor.self_s", "s", "lower", "wall_s on product, randomized"),
    ("planar.partial_trace.self_s", "s", "lower", "wall_s on technical"),
    ("planar.iota_cache_size", "count", "lower", "peak_rss_mb on product, basis"),
    ("planar.factor_cache_size", "count", "lower", "peak_rss_mb on technical, randomized"),
    ("rep.phi.calls", "count", "lower", "wall_s on technical, randomized; case_p90_ms on randomized"),
    ("rep.phi.self_s", "s", "lower", "wall_s on technical, randomized; case_p90_ms on randomized"),
    ("rep.phi.terms_in", "count", "lower", "wall_s on technical"),
    ("rep.phi_cache_size", "count", "lower", "peak_rss_mb on technical"),
    ("rep.weightmap_mul.calls", "count", "lower", "wall_s on product"),
    ("rep.weightmap_mul.self_s", "s", "lower", "wall_s on product"),
    ("rep.rank_of_columns.calls", "count", "lower", "wall_s on basis"),
    ("rep.rank_of_columns.self_s", "s", "lower", "wall_s on basis"),
    ("rep.rank_of_columns.columns", "count", "lower", "wall_s on basis"),
    ("rep.solve_columns.calls", "count", "lower", "wall_s on basis"),
    ("rep.solve_columns.self_s", "s", "lower", "wall_s on basis"),
    ("rep.solve_columns.columns", "count", "lower", "wall_s on basis"),
    ("canon.coordinates.calls", "count", "lower", "wall_s on basis"),
    ("canon.coordinates.self_s", "s", "lower", "wall_s on basis"),
    ("canon.ess_equal.calls", "count", "lower", "wall_s on basis, randomized"),
    ("canon.ess_equal.self_s", "s", "lower", "wall_s on basis, randomized"),
    ("canon.phi_chain.calls", "count", "lower", "wall_s on technical, product"),
    ("projectors.terms_max", "count", "lower", "build_s on technical"),
    ("projectors.extremal.misses", "count", "lower", "build_s on technical"),
    ("projectors.verify_properties.self_s", "s", "lower", "wall_s on technical"),
    ("projectors.iso_diff.calls", "count", "lower", "wall_s on product"),
    ("projectors.iso_diff_maps.calls", "count", "lower", "wall_s on product"),
    ("projectors.split_idempotent.calls", "count", "lower", "wall_s on product"),
    ("verify.checks", "count", "lower", "wall_s on product"),
    ("verify.suite_product.self_s", "s", "lower", "wall_s on product"),
    ("trace.overhead", "ratio", "lower", "none: traced wall_s over untraced wall_s"),
]
UNITS = {name: unit for name, unit, _, _ in METRICS}


def _terms(x) -> int:
    return len(x.terms)


# per-call extras: traced name -> [(metric, function of (args, result))]
_HOOKS = {
    "diagram.mor_compose": [
        ("diagram.mor_compose.pairs", lambda a, r: _terms(a[0]) * _terms(a[1])),
        ("diagram.mor_compose.terms_out", lambda a, r: _terms(r)),
    ],
    "planar.iota": [("planar.iota.terms_in", lambda a, r: _terms(a[0])),
                    ("planar.iota.terms_out", lambda a, r: _terms(r))],
    "rep.phi": [("rep.phi.terms_in", lambda a, r: _terms(a[0]))],
    "rep.rank_of_columns": [("rep.rank_of_columns.columns", lambda a, r: len(a[0]))],
    "rep.solve_columns": [("rep.solve_columns.columns", lambda a, r: len(a[0]))],
    "verify.suite_product": [("verify.checks", lambda a, r: len(r))],
}
# traced names reported under a shorter metric name
_ALIASES = {"rep.WeightMap.__mul__": "rep.weightmap_mul"}


class Tracer:
    """Spans and counters of one traced job, kept in memory until the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.sums: dict[str, int] = {}
        self.installed: list[str] = []
        self.scalar = {op: [0] for op in SCALAR_OPS}
        self.terms_max = 0

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        hooks = _HOOKS.get(name, [])
        sums = self.sums
        for key, _ in hooks:
            sums[key] = 0
        projector = name in PROJECTORS
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            for key, hook in hooks:
                sums[key] += hook(args, out)
            if projector:
                tracer.terms_max = max(tracer.terms_max, _terms(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch wrappers into every loaded atlq module and class."""
        import atlq

        targets = [(getattr(atlq, n).__module__.rsplit(".", 1)[-1], n)
                   for n in atlq.__all__
                   if n not in SKIP and callable(getattr(atlq, n))
                   and not isinstance(getattr(atlq, n), type)]
        for module, name in targets + EXTRA:
            mod = sys.modules.get(f"atlq.{module}")
            owner_name, _, attr = name.rpartition(".")
            owner = mod
            if owner is not None and owner_name:
                owner = getattr(mod, owner_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            label = _ALIASES.get(f"{module}.{name}", f"{module}.{name}")
            if fn is None:
                continue  # reported as absent by metrics()
            wrapped = self._wrap(fn, label)
            self.installed.append(label)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for modname, m in list(sys.modules.items()):
                if modname == "atlq" or modname.startswith("atlq."):
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)
        from atlq.scalar import GaussianRational

        for op, attr in SCALAR_OPS.items():
            orig = getattr(GaussianRational, attr)
            cell = self.scalar[op]

            def counted(*args, _orig=orig, _cell=cell):
                _cell[0] += 1
                return _orig(*args)

            setattr(GaussianRational, attr, counted)

    # -- results -------------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) for every span name."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_ns[k] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_ns[k] / 1e9) for k, name in enumerate(self.names)}

    def metrics(self) -> tuple[dict[str, float], dict[str, float], list[str]]:
        """(exact counts, self times, absent metric names) in METRICS order."""
        import atlq
        from atlq import diagram, planar, rep

        spans = self.per_name()
        values: dict[str, float] = {}
        for op, cell in self.scalar.items():
            values[f"scalar.{op}"] = cell[0]
        values.update(self.sums)
        for name, (calls, self_s) in spans.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        info = getattr(diagram.compose, "cache_info", None)
        if info is not None:
            ci = info()
            total = ci.hits + ci.misses
            values["diagram.compose.calls"] = total
            values["diagram.compose.hit_ratio"] = ci.hits / total if total else 0.0
            values["diagram.compose.cache_size"] = ci.currsize
        for label, owner, attr in (
            ("diagram.pool_size", diagram, "_POOL"),
            ("planar.iota_cache_size", planar, "_iota_cache"),
            ("planar.factor_cache_size", planar, "_factor_cache"),
            ("rep.phi_cache_size", rep, "_phi_cache"),
        ):
            cache = getattr(owner, attr, None)
            if cache is not None:
                values[label] = len(cache)
        extremal = getattr(atlq.extremal, "__wrapped__", atlq.extremal)
        if hasattr(extremal, "cache_info"):
            values["projectors.extremal.misses"] = extremal.cache_info().misses
        values["projectors.terms_max"] = self.terms_max
        counts, times, absent = {}, {}, []
        for name, unit, _, _ in METRICS:
            if name == "trace.overhead":
                continue
            value = values.get(name)
            if value is None and name.rsplit(".", 1)[0] in self.installed:
                value = 0  # traced, but this workload never calls it
            if value is None:
                absent.append(name)
            else:
                (times if unit == "s" else counts)[name] = value
        return counts, times, absent

    def dump(self, path: str) -> None:
        """Write every span as [name, start_ns, end_ns, parent] rows."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "spans": [[self.name[i], self.start[i], self.end[i], self.parent[i]]
                          for i in range(len(self.name))],
            }, fh)
