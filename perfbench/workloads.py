"""The four benchmark workloads, each one cold job in a fresh interpreter.

A job has two phases.  `build` constructs the inputs the checks read
(projectors, generated morphisms, basis diagrams); `check` runs the
identities, one timed case per check.  Every check compares the engine
against an oracle the package already has, so a wrong result shows up as
a failed case and never as a timing.

Sizes are chosen so that one cold job takes a few seconds on a 2-vCPU
machine, which lets a 30-second run collect several jobs and report
medians.
"""

from __future__ import annotations

import contextlib
import functools
import time
from math import comb

import atlq
from atlq import planar, scalar, verify

import calib
import gen

# cases per randomized property in one job
PER_KIND = 250

# Term counts of the projectors as the engine builds them when this
# benchmark was defined.  A change to the normal form that shrinks them
# must update these on purpose.
FROZEN_TERMS = {
    "T_5": 291,
    "JW_6": 132,
    "H_4": 134,
    "L_4": 134,
}


class Job:
    """Records the phase times, per-check latency and failures of one job.

    A workload calls `build` once, then `check` for each identity.  Between
    the two phases the job times the calibration reference, outside both.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.build_s = 0.0
        self.check_s = 0.0
        self.ref_mid_s = 0.0
        self.cases_s: list[float] = []
        self.failures: list[str] = []

    def _span(self, name: str):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)

    def build(self, fn):
        start = time.perf_counter()
        with self._span("build"):
            out = fn()
        self.build_s = time.perf_counter() - start
        self.ref_mid_s = calib.reference_s()
        return out

    def check(self, name: str, fn) -> None:
        start = time.perf_counter()
        try:
            with self._span("check"):
                ok = bool(fn())
            detail = "identity does not hold"
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.cases_s.append(elapsed)
        self.check_s += elapsed
        if not ok:
            self.failures.append(f"{name}: {detail}")


def _quotient_equal(x, y) -> bool:
    return x == y or atlq.ess_equal(x, y)


def technical(job: Job, seed: str) -> None:
    """Projector builds, then the T_m structural properties (c06, scaled)."""

    def build():
        return {
            "T": {m: atlq.extremal(m) for m in range(2, 6)},
            "JW": {m: atlq.jones_wenzl(m) for m in range(2, 7)},
            "H": {m: atlq.highest_weight(m) for m in range(2, 5)},
            "L": {m: atlq.lowest_weight(m) for m in range(2, 5)},
        }

    p = job.build(build)
    for key, want in FROZEN_TERMS.items():
        family, m = key.split("_")
        job.check(f"{key} has {want} terms",
                  lambda f=family, m=int(m), w=want: len(p[f][m].terms) == w)
    for m in range(2, 6):
        job.check(f"phi(T_{m}) is the oracle",
                  lambda m=m: atlq.phi(p["T"][m]) == atlq.extremal_matrix(m))
    for m in range(2, 5):
        job.check(f"verify_properties({m})",
                  lambda m=m: atlq.verify_properties(m) == [])
    # the m = 5 properties whose cost is linear in |T_5|; idempotency and
    # absorption of lower projectors need the quadratic product
    t, pt = p["T"][5], atlq.extremal_matrix(5)
    for i in range(5):
        s, u = atlq.crossing(5, i), atlq.gen_u(5, i)
        job.check(f"T_5 absorbs s_{i}",
                  lambda s=s: atlq.phi(t * s) == pt and atlq.phi(s * t) == pt)
        job.check(f"T_5 kills U_{i}",
                  lambda u=u: atlq.phi(t * u).is_zero() and atlq.phi(u * t).is_zero())
    job.check("T_5 is rotation invariant",
              lambda: atlq.phi(atlq.gen_d(5, -1) * t * atlq.gen_d(5, 1)) == pt)
    for m in range(2, 6):
        job.check(f"pTr(T_{m}) = -T_{m - 1}",
                  lambda m=m: _quotient_equal(atlq.partial_trace(p["T"][m]),
                                              atlq.extremal(m - 1).scale(-1)))
    for m in range(2, 5):
        job.check(f"H_{m} + L_{m} = T_{m} on weights",
                  lambda m=m: atlq.phi(p["H"][m]) + atlq.phi(p["L"][m])
                  == atlq.extremal_matrix(m))


def _product_cell(job: Job, m: int, n: int, w, e) -> None:
    """One cell of T_m (x) T_n = T_(m+n) + e, by the expanded and the matrix route."""
    big = atlq.extremal_matrix(m + n)

    def idempotent_orthogonal(pe) -> bool:
        return pe * pe == pe and (pe * big).is_zero() and (big * pe).is_zero()

    def expanded_split() -> bool:
        pair = atlq.iso_diff(m, n)
        return (atlq.phi(pair.bwd * pair.fwd) == atlq.phi(pair.tgt_idem)
                and atlq.phi(pair.fwd * pair.bwd) == atlq.phi(pair.src_idem))

    @functools.cache
    def matrices():
        """phi(T_m) (x) phi(T_n), and e = -(that) U_m (that) assembled from it."""
        pw = atlq.phi(atlq.extremal(m)).tensor(atlq.phi(atlq.extremal(n)))
        return pw, (pw * atlq.phi(atlq.gen_u(m + n, m)) * pw).scale(scalar.MINUS_ONE)

    def matrix_split() -> bool:
        pf, pg = atlq.iso_diff_maps(m, n)
        return pg * pf == atlq.extremal_matrix(m - n) and pf * pg == matrices()[1]

    cell = f"({m},{n})"
    job.check(f"{cell} expanded: T(x)T = T + e",
              lambda: _quotient_equal(w, atlq.extremal(m + n) + e))
    job.check(f"{cell} expanded: e idempotent, orthogonal",
              lambda: idempotent_orthogonal(atlq.phi(e)))
    job.check(f"{cell} expanded: e splits off T_{m - n}", expanded_split)
    job.check(f"{cell} expanded: capping T_{n} off leaves T_{m - n}",
              lambda: _quotient_equal(atlq.kariso_contract(m, n), atlq.extremal(m - n)))
    job.check(f"{cell} matrices: T(x)T = T + e",
              lambda: matrices()[0] == big + matrices()[1])
    job.check(f"{cell} matrices: e idempotent, orthogonal",
              lambda: idempotent_orthogonal(matrices()[1]))
    job.check(f"{cell} matrices: e splits off T_{m - n}", matrix_split)
    job.check(f"{cell} the two routes agree on e", lambda: atlq.phi(e) == matrices()[1])
    job.check(f"{cell} weight ranks add up",
              lambda: matrices()[0].rank() == 4 and matrices()[1].rank() == 2
              and big.rank() == 2)
    job.check(f"{cell} linked form", lambda: atlq.linked_check(m, n))
    for r in range(1, n + 1):
        job.check(f"{cell} e via depth-{r} turnback",
                  lambda r=r: atlq.nested_form_check(m, n, r))
    for r in range(n):
        job.check(f"({m},{n},{r}) overlapping products collapse",
                  lambda r=r: atlq.overlap_check(m, n, r))


def product(job: Job, seed: str) -> None:
    """The product-formula suite at limit 2, then the m = 3 cells by both routes (c09, scaled)."""
    cells = ((3, 1), (3, 2))

    def build():
        for k in range(1, 6):
            atlq.extremal(k)
        return {c: (atlq.weight_tensor(*c), atlq.split_idempotent(*c)) for c in cells}

    built = job.build(build)

    def suite():
        bad = [c.name for c in verify.suite_product(2) if not c.ok]
        if bad:
            raise AssertionError("; ".join(bad))
        return True

    job.check("suite_product(2)", suite)
    for (m, n), (w, e) in built.items():
        _product_cell(job, m, n, w, e)


def randomized(job: Job, seed: str) -> None:
    """Seeded round-trip, associativity, functoriality and interchange cases (c13, scaled)."""
    inputs = job.build(lambda: gen.cases(seed, PER_KIND))
    one = scalar.ONE
    for k, (x,) in enumerate(inputs["roundtrip"]):
        d = next(iter(x.terms))
        job.check(f"roundtrip {k}",
                  lambda d=d: planar.recompose(d.dom, atlq.factorize(d)).terms == {d: one})
    for k, (x, y, z) in enumerate(inputs["associativity"]):
        job.check(f"associativity {k}",
                  lambda x=x, y=y, z=z: (x * y) * z == x * (y * z))
    for k, (x, y) in enumerate(inputs["functoriality"]):
        job.check(f"functoriality {k}",
                  lambda x=x, y=y: atlq.phi(x * y) == atlq.phi(x) * atlq.phi(y))
    for k, (x, y) in enumerate(inputs["interchange"]):
        def interchange(x=x, y=y):
            idx, idy = atlq.gen_id(x.dom), atlq.gen_id(y.dom)
            first = atlq.tensor(x, idy) * atlq.tensor(idx, y)
            second = atlq.tensor(idx, y) * atlq.tensor(x, idy)
            return atlq.ess_equal(first, second)

        job.check(f"interchange {k}", interchange)


def basis(job: Job, seed: str) -> None:
    """Faithfulness ranks, then exact basis coordinates of small projectors (c04, extended)."""

    def build():
        return (
            {n: atlq.enumerate_basis(2 * n) for n in range(1, 6)},
            {
                "T_3": atlq.extremal(3),
                "JW_4": atlq.jones_wenzl(4),
                "JW_5": atlq.jones_wenzl(5),
                "H_3": atlq.highest_weight(3),
                "L_3": atlq.lowest_weight(3),
            },
        )

    bases, targets = job.build(build)
    for n, diagrams in bases.items():
        def full_rank(diagrams=diagrams, n=n):
            cols = [atlq.phi(atlq.Morphism.from_diagram(b)).columns().get("", {})
                    for b in diagrams]
            return len(diagrams) == comb(2 * n, n) == atlq.rep.rank_of_columns(cols)

        job.check(f"rank at 2n={2 * n} is C({2 * n},{n})", full_rank)
    for name, x in targets.items():
        def rebuilds(x=x) -> bool:
            """sum c_b phi(b) = phi(f(x)), and unbending sum c_b b gives x back."""
            n = x.dom + x.cod
            coeffs = dict(zip(atlq.enumerate_basis(n), atlq.coordinates(x)))
            acc: dict = {}
            for b, c in coeffs.items():
                for key, v in atlq.phi(atlq.Morphism.from_diagram(b)).entries.items():
                    acc[key] = acc[key] + c * v if key in acc else c * v
            back = atlq.f_inverse(atlq.Morphism(0, n, coeffs), x.dom)
            return (atlq.WeightMap(0, n, acc) == atlq.phi(atlq.f_apply(x))
                    and _quotient_equal(back, x))

        job.check(f"coordinates of {name} rebuild x", rebuilds)


WORKLOADS = {
    "technical": technical,
    "product": product,
    "randomized": randomized,
    "basis": basis,
}
