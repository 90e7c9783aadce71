"""Acceptance gate: every advertised identity, timed, one line per criterion.

Each test prints exactly one PASS/FAIL line (visible with -s or in the
captured output) and enforces the criterion's wall-clock budget.
"""

import random
import time

from atlq import (
    Morphism,
    WeightMap,
    enumerate_basis,
    ess_equal,
    extremal,
    extremal_matrix,
    gen_d,
    gen_id,
    gen_u,
    highest_weight,
    iota,
    jones_wenzl,
    jw_k0_check,
    jw_pair,
    lowest_weight,
    phi,
    phi_chain,
    run_suite,
    tensor,
    verify_properties,
)
from atlq.planar import ess_generator, factorize, recompose
from atlq.projectors import phi_extremal
from atlq.rep import rank_of_columns
from atlq.scalar import MINUS_ONE, ONE

from helpers import compose_word, random_single_diagram, random_word


def _gate(num, desc, budget, fn):
    start = time.perf_counter()
    ok, failures = fn()
    elapsed = time.perf_counter() - start
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d} {verdict} [{elapsed:.1f}s / {budget:.0f}s] {desc}")
    assert ok, f"criterion {num:02d}: {failures}"
    assert elapsed < budget, (
        f"criterion {num:02d} took {elapsed:.1f}s, budget {budget}s"
    )


def _suite(name, limit):
    def run():
        ok, lines = run_suite(name, limit)
        return ok, [l for l in lines if l.startswith("FAIL")]

    return run


def test_c01_presentation():
    _gate(1, "generator relations hold exactly for 2 <= n <= 6", 5,
          _suite("presentation", 6))


def test_c02_reidemeister():
    _gate(2, "R1 (sign -1), R2, R3 local patterns for n <= 4", 5,
          _suite("reidemeister", 4))


def test_c03_welldef():
    _gate(3, "weight maps equalize both seam slides, <= 4 bystanders", 5,
          _suite("welldef", 4))


def test_c04_faithfulness():
    def run():
        failures = []
        for n, expect in ((1, 2), (2, 6), (3, 20), (4, 70)):
            basis = enumerate_basis(2 * n)
            cols = [
                phi(Morphism.from_diagram(b)).columns().get("", {})
                for b in basis
            ]
            rank = rank_of_columns(cols)
            if not (rank == expect == len(basis)):
                failures.append(f"n={n}: rank {rank} of {expect}")
        return not failures, failures

    _gate(4, "basis weight maps have full rank 2, 6, 20, 70", 60, run)


def test_c05_extremal_projectors():
    def run():
        failures = []
        for m in range(1, 9):
            if phi_extremal(m) != extremal_matrix(m):
                failures.append(f"m={m}: weight map is not the oracle")
        for m in range(1, 7):
            t = extremal(m)
            if phi(t) != extremal_matrix(m):
                failures.append(f"m={m}: weight map of the diagram is not the oracle")
            if phi_chain(t, t) != phi_extremal(m):
                failures.append(f"m={m}: T_m not idempotent in the quotient")
        return not failures, failures

    _gate(5, "weight maps of T_m match the two-entry oracle (m <= 8), "
             "T_m idempotent (m <= 6)", 60, run)


def test_c06_technical_properties():
    def run():
        failures = []
        for m in range(2, 7):
            failures += [f"m={m}: {item}" for item in verify_properties(m)]
        return not failures, failures

    _gate(6, "T_m absorbs crossings and lower projectors, kills cap-cups, "
             "rotation invariant (2 <= m <= 6)", 60, run)


def test_c07_partial_trace():
    _gate(7, "pTr(T_m) = -T_(m-1) for m <= 6 and JW trace ratio -(m+1)/m", 30,
          _suite("ptr", 6))


def test_c08_jones_wenzl():
    def run():
        failures = []
        for m in range(1, 6):
            p = jones_wenzl(m)
            if p * p != p:
                failures.append(f"m={m}: not idempotent")
            if not all(
                (p * gen_u(m, i)).is_zero() and (gen_u(m, i) * p).is_zero()
                for i in range(1, m)
            ):
                failures.append(f"m={m}: a turnback survives")
        for m in range(2, 6):
            pair = jw_pair(m)
            if not (
                pair.bwd * pair.fwd == pair.tgt_idem == jones_wenzl(m - 1)
                and pair.fwd * pair.bwd == pair.src_idem
                and pair.src_idem == iota(jones_wenzl(m)) - jones_wenzl(m + 1)
                and jw_k0_check(m)
            ):
                failures.append(f"m={m}: splitting pair does not contract")
        return not failures, failures

    _gate(8, "JW projectors idempotent, kill every interior U_i, and "
             "[P_m][P_1] = [P_(m+1)] + [P_(m-1)] via iso pairs (m <= 5)", 60, run)


def test_c09_product_formula():
    _gate(9, "T_m (x) T_n = T_(m+n) + e_(m,n) with all contracts and "
             "rank additivity for 1 <= n <= m <= 4", 120,
          _suite("product", 4))


def test_c10_quotient_relations():
    def run():
        failures = []
        for k in range(5):
            if not phi(ess_generator(k)).is_zero():
                failures.append(f"k={k}: essential circle not killed")
        wind = gen_d(1, 1) * gen_d(1, 1)
        if not ess_equal(wind, gen_id(1).scale(MINUS_ONE)):
            failures.append("D^2 != -id in the quotient")
        return not failures, failures

    _gate(10, "essential circles with k <= 4 strands map to zero; D^2 = -id", 5,
          run)


def test_c11_highest_lowest():
    def run():
        failures = []
        for m in range(2, 6):
            plus, minus = "+" * m, "-" * m
            hi, lo = phi(highest_weight(m)), phi(lowest_weight(m))
            if hi != WeightMap(m, m, {(plus, plus): ONE}) or hi.rank() != 1:
                failures.append(f"m={m}: highest is not the rank-1 projector")
            if lo != WeightMap(m, m, {(minus, minus): ONE}) or lo.rank() != 1:
                failures.append(f"m={m}: lowest is not the rank-1 projector")
            if hi + lo != phi_extremal(m):
                failures.append(f"m={m}: sum is not T_m in the quotient")
            if hi.swap_signs() != lo or lo.swap_signs() != hi:
                failures.append(f"m={m}: sign flip does not swap the pair")
        return not failures, failures

    _gate(11, "highest/lowest weight projectors are the rank-1 pieces of T_m "
              "and swap under the sign flip (2 <= m <= 5)", 30, run)


def test_c12_chebyshev():
    _gate(12, "both Chebyshev families: recursions, product rules, "
              "J_m = L_m + J_(m-2), m, n <= 12", 1, _suite("chebyshev", 12))


def test_c13_randomized():
    def run():
        failures = []
        rng = random.Random(0xA71)

        for case in range(1000):
            n = rng.randrange(1, 6)
            m = random_single_diagram(rng, n, 12)
            d = next(iter(m.terms))
            if recompose(d.dom, factorize(d)).terms != {d: ONE}:
                failures.append(f"factorize round-trip, case {case}")
                break

        for case in range(1000):
            n = rng.randrange(1, 6)
            x = compose_word(random_word(rng, n, 4), n)
            y = compose_word(random_word(rng, n, 4), n)
            z = compose_word(random_word(rng, n, 4), n)
            if (x * y) * z != x * (y * z):
                failures.append(f"associativity, case {case}")
                break

        for case in range(1000):
            n = rng.randrange(1, 6)
            x = compose_word(random_word(rng, n, 6), n)
            y = compose_word(random_word(rng, n, 6), n)
            if phi(x * y) != phi(x) * phi(y):
                failures.append(f"functoriality, case {case}")
                break

        for case in range(1000):
            n1 = rng.randrange(1, 4)
            n2 = rng.randrange(1, 6 - n1)
            x = compose_word(random_word(rng, n1, 3), n1)
            y = compose_word(random_word(rng, n2, 3), n2)
            first = tensor(x, gen_id(n2)) * tensor(gen_id(n1), y)
            second = tensor(gen_id(n1), y) * tensor(x, gen_id(n2))
            if not ess_equal(first, second):
                failures.append(f"tensor interchange, case {case}")
                break

        return not failures, failures

    _gate(13, "1000 seeded cases each: factorize round-trip, associativity, "
              "weight functoriality, tensor interchange", 120, run)
