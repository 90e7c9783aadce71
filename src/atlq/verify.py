"""Named identity suites, one PASS/FAIL line per identity.

Each suite is written as a generator of (name, check) pairs, which
`_suite` runs into a list of Check records; `run_suite` renders them and
reports overall success.  The checks are exact throughout, and
one rule says how each is decided.  Identities claimed on the nose
(presentation, Reidemeister, seam-slide well-definedness, Jones-Wenzl,
partial trace) compare canonical diagrams, coefficient by coefficient.
Identities of the extremal projectors hold in the essential-circle
quotient, where the weight functor is faithful, so they compare weight
maps built from the identity's named leaves: phi_extremal(k) for each
projector, phi of each small generator, joined by matrix and Kronecker
products.  No composite diagram is expanded to decide them, so no check
chooses its route by size.  The technical suite's oracle lines pin the
T_m diagrams, phi(T_m) == phi_extremal(m), up to its size cap, so a
larger cap expands larger diagrams (`verify technical 7` builds T_7, as
`verify ptr 7` does); phi_extremal(m) meets the two-entry oracle up to
the cap plus two.  Functoriality and monoidality of phi have
their own randomized coverage in the test suite, and the tests match phi
of each diagram constructor against its weight-map form.

The braid-type relations (U_i U_{i+1} U_i = U_i and Reidemeister 3) are
only stated for n >= 3 strands: modulo n, the neighbor indices i-1, i, i+1
collapse for n = 2, where the corresponding products acquire essential
circles and vanish in the quotient instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import comb

from .canon import basis_columns, ess_equal
from .cheb import (
    cheb_j,
    cheb_l,
    j_from_l_identity,
    j_product_identity,
    l_product_identity,
    poly_str,
)
from .config import MODE_QUOTIENT, configure
from .diagram import crossing, gen_cap, gen_cup, gen_d, gen_id, gen_u
from .planar import ess_generator, iota, partial_trace
from .projectors import (
    WEIGHTS,
    extremal,
    highest_weight,
    iso_diff_maps,
    jones_wenzl,
    jw_k0_check,
    jw_partial_trace_check,
    linked_check,
    lowest_weight,
    nested_form_check,
    overlap_check,
    phi_extremal,
    verify_properties,
)
from .rep import WeightMap, extremal_matrix, phi, rank_of_columns
from .scalar import ONE


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _suite(pairs):
    """Turn a generator of (name, check) pairs into a suite of Checks.

    The generator's own default is the suite's default limit.  Each check
    runs the moment it is yielded, so it may read the loop variables it
    closes over.  It returns a truth value, or (ok, detail) for a detail
    that prints even on PASS, or a list of Checks that stand in its place.
    A check that raises is one FAIL line carrying the exception.
    """

    @wraps(pairs)
    def suite(limit: int | None = None) -> list[Check]:
        checks: list[Check] = []
        for name, fn in pairs() if limit is None else pairs(limit):
            try:
                out = fn()
            except Exception as exc:  # honest failure beats a crashed suite
                out = False, f"{type(exc).__name__}: {exc}"
            if isinstance(out, list):
                checks += out
                continue
            if not isinstance(out, tuple):
                out = bool(out), "" if out else "identity does not hold"
            checks.append(Check(name, *out))
        return checks

    return suite


@_suite
def suite_presentation(limit=6):
    for n in range(2, limit + 1):
        d = gen_d(n, 1)
        dinv = gen_d(n, -1)
        ident = gen_id(n)
        u = {i: gen_u(n, i) for i in range(n)}
        yield f"n={n}: D D^-1 = id = D^-1 D", lambda: d * dinv == ident and dinv * d == ident
        yield f"n={n}: U_i^2 = -2 U_i", lambda: all(u[i] * u[i] == u[i].scale(-2) for i in u)
        if n >= 3:
            yield f"n={n}: U_i U_(i+-1) U_i = U_i (indices mod n)", lambda: all(
                u[i] * u[(i + s) % n] * u[i] == u[i] for i in range(n) for s in (1, -1)
            )
        far = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (j - i) % n not in (1, n - 1)
        ]
        if far:
            yield f"n={n}: [U_i, U_j] = 0 for non-adjacent i, j", lambda: all(
                u[i] * u[j] == u[j] * u[i] for i, j in far
            )
        yield f"n={n}: U_i D = D U_(i+1 mod n)", lambda: all(
            u[i] * d == d * u[(i + 1) % n] for i in range(n)
        )
        yield f"n={n}: U_0 = D U_1 D^-1 = D^-1 U_(n-1) D", lambda: (
            u[0] == d * u[1] * dinv and u[0] == dinv * u[n - 1] * d
        )


@_suite
def suite_reidemeister(limit=4):
    for n in range(2, limit + 1):
        s = {i: crossing(n, i) for i in range(n)}
        yield f"n={n}: R2, s_i s_i = id", lambda: all(s[i] * s[i] == gen_id(n) for i in s)
        if n >= 3:
            yield f"n={n}: R3, s_i s_(i+1) s_i = s_(i+1) s_i s_(i+1) (mod n)", lambda: all(
                s[i] * s[(i + 1) % n] * s[i] == s[(i + 1) % n] * s[i] * s[(i + 1) % n]
                for i in range(n)
            )
        yield f"n={n}: closing one strand of a crossing gives -id", lambda: (
            partial_trace(crossing(n, n - 1)) == gen_id(n - 1).scale(-1)
        )


@_suite
def suite_welldef(limit=4):
    for b in range(limit + 1):  # bystander strands
        n = b + 2
        yield f"{b} bystanders: wrap cap slides across the seam both ways", lambda: (
            gen_cap(n, n - 2) * gen_d(n, 1) == gen_cap(n, 0) * gen_d(n, -1)
        )
        yield f"{b} bystanders: wrap cup slides across the seam both ways", lambda: (
            gen_d(n, -1) * gen_cup(n - 2, n - 2) == gen_d(n, 1) * gen_cup(n - 2, 0)
        )
        yield f"{b} bystanders: the two wrap cap/cup routes agree under phi", lambda: (
            phi(gen_cap(n, n - 2) * gen_d(n, 1)) == phi(gen_cap(n, 0) * gen_d(n, -1))
            and phi(gen_d(n, -1) * gen_cup(n - 2, n - 2)) == phi(gen_d(n, 1) * gen_cup(n - 2, 0))
        )


@_suite
def suite_faithfulness(limit=4):
    for n in range(1, limit + 1):
        yield f"phi keeps the C({2 * n},{n}) basis diagrams independent", lambda: _rank_ok(n)
    for k in range(5):
        yield f"phi kills the essential circle over {k} strands", lambda: (
            phi(ess_generator(k)).is_zero()
        )
    yield "full twist D^2 is -id on one strand in the quotient", lambda: (
        ess_equal(gen_d(1, 1) * gen_d(1, 1), gen_id(1).scale(-1))
    )


def _rank_ok(n: int) -> tuple[bool, str]:
    expected = comb(2 * n, n)
    cols = basis_columns(2 * n)
    rank = rank_of_columns(cols)
    return len(cols) == expected and rank == expected, f"rank {rank} of {expected}"


_PROPERTY_ITEMS = [
    ("idempotency", "T^2 = T"),
    ("crossing absorption", "T s_i = s_i T = T for every i"),
    ("cap-cup annihilation", "T U_i = U_i T = 0 for every i"),
    ("absorption", "T absorbs every embedded smaller T"),
    ("rotation invariance", "D^-1 T D = T"),
]


@_suite
def suite_technical(limit=6):
    for m in range(1, limit + 3):
        yield f"m={m}: phi(T_{m}) matches the two-entry diagonal oracle", lambda: (
            (m > limit or phi(extremal(m)) == phi_extremal(m))
            and phi_extremal(m) == extremal_matrix(m)
        )
    for m in range(2, limit + 1):
        yield f"m={m}: structural properties", lambda: _properties(m)


def _properties(m: int) -> list[Check]:
    """One Check per property of T_m, from a single verify_properties run."""
    failures = verify_properties(m)
    checks = []
    for key, label in _PROPERTY_ITEMS:
        bad = [f for f in failures if f.startswith(key)]
        checks.append(Check(f"m={m}: {label}", not bad, "; ".join(bad)))
    return checks


@_suite
def suite_ptr(limit=6):
    for m in range(1, limit + 1):
        yield f"m={m}: partial trace of T_{m} is -T_{m - 1}", lambda: _ptr_ok(m)
    for m in range(2, limit + 1):
        yield f"m={m}: partial trace of JW_{m} is -(m+1)/m JW_{m - 1}", lambda: (
            jw_partial_trace_check(m)
        )


def _ptr_ok(m: int) -> bool:
    with configure(mode=MODE_QUOTIENT):
        return ess_equal(partial_trace(extremal(m)), extremal(m - 1).scale(-1))


@_suite
def suite_product(limit=4):
    for m in range(1, limit + 1):
        for n in range(1, m + 1):
            cell = f"(m,n)=({m},{n})"
            yield from _cell(m, n)
            if m + n >= 3:
                yield f"{cell}: (T(x)T) s (T(x)T) = T_(m+n)", lambda: linked_check(m, n)
            for r in range(1, min(m, n) + 1):
                if r != max(m, n):
                    yield f"{cell}: e via depth-{r} turnback", lambda: nested_form_check(m, n, r)
            yield f"{cell}: capping off T_n inside T_m leaves T_(m-n)", lambda: (
                WEIGHTS.kariso_contract(m, n) == phi_extremal(m - n)
            )
            for r in range(n):
                if m + r <= 2 * limit:
                    yield (f"(m,n,r)=({m},{n},{r}): overlapping products collapse to T_(m+r)",
                           lambda: overlap_check(m, n, r))
            yield f"{cell}: weight ranks add up (4 = 2 + 2)", lambda: (
                WEIGHTS.weight_tensor(m, n).rank() == 4
                and phi_extremal(m + n).rank() == 2
                and WEIGHTS.split(m, n).rank() == 2
            )
    for m in range(2, limit + 2):
        yield f"m={m}: highest/lowest split of T_m", lambda: _weights_ok(m)


def _cell(m: int, n: int):
    """T_m (x) T_n = T_(m+n) + e, and how e splits."""
    cell = f"(m,n)=({m},{n})"
    yield f"{cell}: T_m (x) T_n = T_(m+n) + e", lambda: _decomposes(m, n)
    yield f"{cell}: e is idempotent and orthogonal to T_(m+n)", lambda: _idem_orth(m, n)
    if m > n:
        yield f"{cell}: e splits off T_(m-n)", lambda: _splits_off(m, n)
    if m == n and m <= 3:
        yield f"{cell}: e splits into two empty-diagram summands", lambda: _iso_equal_ok(m)


def _decomposes(m: int, n: int) -> bool:
    return WEIGHTS.weight_tensor(m, n) == phi_extremal(m + n) + WEIGHTS.split(m, n)


def _idem_orth(m: int, n: int) -> bool:
    pe, big = WEIGHTS.split(m, n), phi_extremal(m + n)
    return pe * pe == pe and (pe * big).is_zero() and (big * pe).is_zero()


def _splits_off(m: int, n: int) -> bool:
    pf, pg = iso_diff_maps(m, n)
    return pg * pf == phi_extremal(m - n) and pf * pg == WEIGHTS.split(m, n)


def _iso_equal_ok(m: int) -> bool:
    pair1, pair2 = WEIGHTS.iso_equal(m)
    return (
        pair1.bwd * pair1.fwd == pair1.tgt_idem
        and pair2.bwd * pair2.fwd == pair2.tgt_idem
        and (pair1.bwd * pair2.fwd).is_zero()
        and (pair2.bwd * pair1.fwd).is_zero()
        and pair1.src_idem + pair2.src_idem == WEIGHTS.split(m, m)
    )


def _weights_ok(m: int) -> bool:
    ph, pl = phi(highest_weight(m)), phi(lowest_weight(m))
    plus, minus = "+" * m, "-" * m
    return (
        ph == WeightMap(m, m, {(plus, plus): ONE})
        and pl == WeightMap(m, m, {(minus, minus): ONE})
        and ph + pl == phi_extremal(m)
        and ph.swap_signs() == pl
        and pl.swap_signs() == ph
    )


@_suite
def suite_k0(limit=5):
    for m in range(2, limit + 1):
        p = jones_wenzl(m)
        yield f"m={m}: JW idempotent", lambda: p * p == p
        yield f"m={m}: JW kills every interior U_i", lambda: all(
            (p * gen_u(m, i)).is_zero() and (gen_u(m, i) * p).is_zero() for i in range(1, m)
        )
        yield (f"m={m}: JW_(m-1) splits off iota(JW_m), so [P_m][P_1] = [P_(m+1)] + [P_(m-1)]",
               lambda: jw_k0_check(m))
        yield f"m={m}: JW weight ranks add up ({2 * m + 2} = {m + 2} + {m})", lambda: (
            phi(iota(jones_wenzl(m))).rank() == 2 * m + 2
            and phi(jones_wenzl(m + 1)).rank() == m + 2
            and phi(jones_wenzl(m - 1)).rank() == m
        )
        yield f"m={m}: [T_m][T_1] = [T_(m+1)] + [T_(m-1)]", lambda: (
            _decomposes(m, 1) and _splits_off(m, 1)
        )
        yield f"m={m}: first-kind product mirror L_m L_1 = L_(m+1) + L_(m-1)", lambda: (
            l_product_identity(m, 1)
        )
    yield "base case: [T_1][T_1] = [T_2] + 2[1]", lambda: _decomposes(1, 1) and _iso_equal_ok(1)


@_suite
def suite_chebyshev(limit=12):
    yield "frozen small cases: L_2, J_2, L_4", lambda: (
        poly_str(cheb_l(2)) == "X^2-2"
        and poly_str(cheb_j(2)) == "X^2-1"
        and poly_str(cheb_l(4)) == "X^4-4X^2+2"
    )
    grid = [(m, n) for m in range(limit + 1) for n in range(limit + 1)]
    yield f"L_m L_n = L_(m+n) + L_|m-n| for m, n <= {limit}", lambda: all(
        l_product_identity(m, n) for m, n in grid
    )
    yield f"J_m J_n expands in steps of two for m, n <= {limit}", lambda: all(
        j_product_identity(m, n) for m, n in grid
    )
    yield f"J_m = L_m + J_(m-2) for 2 <= m <= {limit}", lambda: all(
        j_from_l_identity(m) for m in range(2, limit + 1)
    )


SUITES = {
    "presentation": suite_presentation,
    "reidemeister": suite_reidemeister,
    "welldef": suite_welldef,
    "faithfulness": suite_faithfulness,
    "technical": suite_technical,
    "ptr": suite_ptr,
    "product": suite_product,
    "k0": suite_k0,
    "chebyshev": suite_chebyshev,
}


def run_suite(name: str, limit: int | None = None) -> tuple[bool, list[str]]:
    """Run one suite (or "all"); returns (all passed, report lines)."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    lines = []
    ok = True
    for suite_name in names:
        for check in SUITES[suite_name](limit):
            tag = "PASS" if check.ok else "FAIL"
            line = f"{tag}  [{suite_name}] {check.name}"
            if check.detail:
                line += f" :: {check.detail}"
            lines.append(line)
            ok = ok and check.ok
    return ok, lines
