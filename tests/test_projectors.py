"""Jones-Wenzl and extremal weight projectors, splittings, isomorphisms."""

import gc
import hashlib
import sys
from fractions import Fraction

import pytest

import atlq
from atlq import (
    Morphism,
    WeightMap,
    clear_caches,
    configure,
    ess_equal,
    extremal,
    extremal_by_recursion,
    extremal_matrix,
    gen_d,
    gen_id,
    gen_u,
    highest_weight,
    iota,
    iota_prime,
    iso_diff,
    iso_diff_maps,
    iso_equal,
    jones_wenzl,
    jw_k0_check,
    jw_pair,
    jw_partial_trace_check,
    kariso_contract,
    linked_check,
    lowest_weight,
    nested_form_check,
    overlap_check,
    partial_trace,
    phi,
    split_idempotent,
    split_idempotent_nested,
    tensor,
    verify_properties,
    weight_tensor,
)
from atlq import cheb_l, config, diagram, planar, projectors, rep
from atlq.cli import PROJECTOR_KINDS
from atlq.config import MODE_QUOTIENT, MODE_RAW
from atlq.diagram import compose
from atlq.projectors import WEIGHTS, phi_extremal
from atlq.scalar import HALF, I, ONE

from helpers import (
    reference_letter_overlap,
    reference_overlap,
    reference_split,
    reference_split_nested,
    reference_weight_tensor,
)


# -- Jones-Wenzl -------------------------------------------------------------


def test_jw_small_closed_forms():
    assert jones_wenzl(1) == gen_id(1)
    assert jones_wenzl(2) == gen_id(2) + gen_u(2, 1).scale(HALF)
    u1, u2 = gen_u(3, 1), gen_u(3, 2)
    expected = (
        gen_id(3)
        + (u1 + u2).scale(Fraction(2, 3))
        + (u1 * u2 + u2 * u1).scale(Fraction(1, 3))
    )
    assert jones_wenzl(3) == expected
    with pytest.raises(ValueError):
        jones_wenzl(0)


def test_jw_idempotent_and_kills_turnbacks():
    for m in (2, 3, 4):
        p = jones_wenzl(m)
        assert p * p == p
        for i in range(1, m):
            assert (p * gen_u(m, i)).is_zero()
            assert (gen_u(m, i) * p).is_zero()
        # the wrap turnback is not killed: it is not planar
        assert not (p * gen_u(m, 0)).is_zero()


def test_jw_rank():
    for m in (1, 2, 3, 4):
        assert phi(jones_wenzl(m)).rank() == m + 1


def test_jw_partial_trace_ratio():
    for m in (2, 3, 4):
        assert jw_partial_trace_check(m)
    assert partial_trace(jones_wenzl(2)) == jones_wenzl(1).scale(Fraction(-3, 2))


def test_jw_pair_contracts():
    for m in (2, 3):
        pair = jw_pair(m)
        assert (pair.fwd.dom, pair.fwd.cod) == (m - 1, m + 1)
        assert pair.bwd * pair.fwd == pair.tgt_idem == jones_wenzl(m - 1)
        assert pair.fwd * pair.bwd == pair.src_idem
        assert pair.src_idem == iota(jones_wenzl(m)) - jones_wenzl(m + 1)
    assert jw_k0_check(2) and jw_k0_check(3)


# -- extremal projectors -----------------------------------------------------


def test_extremal_small_closed_forms():
    assert extremal(0) == gen_id(0).scale(2)
    assert extremal(1) == gen_id(1)
    assert extremal(2) == gen_id(2) + gen_u(2, 1).scale(HALF) + gen_u(2, 0).scale(HALF)
    with pytest.raises(ValueError):
        extremal(-1)


def test_extremal_term_growth():
    assert [len(extremal(m).terms) for m in (1, 2, 3, 4)] == [1, 3, 13, 56]


def test_extremal_weight_oracle():
    # T_6 is pinned by test_extremal_6_is_frozen
    for m in range(6):
        assert phi_extremal(m) == extremal_matrix(m)
        assert phi(extremal(m)) == extremal_matrix(m)


def test_extremal_idempotent_in_quotient():
    t = extremal(2)
    assert ess_equal(t * t, t)
    t3 = extremal(3)
    assert t3 * t3 != t3  # syntactically distinct before the quotient
    assert phi(t3 * t3) == phi_extremal(3)


@pytest.mark.parametrize("build, top", [(extremal, 6), (highest_weight, 5)])
def test_overlap_matches_the_expanded_right_factor(build, top):
    clear_caches()
    want = {m: reference_overlap(build, m) for m in range(3, top + 1)}
    clear_caches()
    assert {m: build(m) for m in want} == want


def test_two_strand_bases_gain_no_essential_term():
    # why the right factor may go letter by letter: superposing strands on
    # the left of a base term never leaves an essential term to drop
    with configure(mode=MODE_RAW):
        for base in (extremal(2), highest_weight(2)):
            for d in base.terms:
                x = Morphism.from_diagram(d)
                for _ in range(7):
                    x = iota_prime(x)
                    assert not any(e.ess for e in x.terms)


@pytest.mark.parametrize("e", [1, -1])
def test_overlap_rotation_rules(e):
    # a one-letter base exercises the rule for id_k (x) D^e alone
    with configure(mode=MODE_QUOTIENT):
        for n in range(1, 5):
            for k in range(1, 4):
                d = gen_d(n, e)
                assert projectors._overlap(gen_id(k + n), d) == tensor(gen_id(k), d)


def _overlap_inputs() -> list:
    """(left, base) of each overlap product that the letter oracle checks."""
    with configure(mode=MODE_QUOTIENT):
        pairs = [(iota(extremal(m - 1)), extremal(2)) for m in range(3, 7)]
        pairs += [(iota(highest_weight(m - 1)), highest_weight(2)) for m in range(3, 6)]
        # weight_tensor(m, 2)
        pairs += [(tensor(extremal(m), gen_id(2)), extremal(2)) for m in range(1, 5)]
        # the one-letter bases of test_overlap_rotation_rules
        pairs += [(gen_id(k + n), gen_d(n, e)) for e in (1, -1) for n in range(1, 5) for k in range(1, 4)]
    return pairs


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_overlap_matches_the_letter_by_letter_oracle(warm):
    # the same terms in the same order as one Morphism product per letter,
    # from an empty compose memo or from one that the oracle filled
    for left, base in _overlap_inputs():
        with configure(mode=MODE_QUOTIENT):
            if warm:
                want = reference_letter_overlap(left, base)
            clear_caches()
            got = projectors._overlap(left, base)
            if not warm:
                clear_caches()
                want = reference_letter_overlap(left, base)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.dumps() == want.dumps()


def test_overlap_refuses_before_reading_a_memo():
    with configure(mode=MODE_QUOTIENT):
        left, base = iota(highest_weight(3)), highest_weight(2)
    clear_caches()  # factorize's word memo too, whose misses compose
    before = compose.cache_info()
    with configure(max_strands=left.dom - 1):
        with pytest.raises(ValueError, match="exceeds the configured limit"):
            projectors._overlap(left, base)
    assert compose.cache_info() == before


def test_extremal_recursion_route_agrees():
    for m in (3, 4):
        assert ess_equal(extremal_by_recursion(m), extremal(m))


def test_extremal_properties_bundle():
    for m in (2, 3):
        assert verify_properties(m) == []


def test_extremal_rotation_invariance():
    t2 = extremal(2)
    assert gen_d(2, -1) * t2 * gen_d(2, 1) == t2
    t3 = extremal(3)
    assert ess_equal(gen_d(3, -1) * t3 * gen_d(3, 1), t3)


def test_extremal_absorbs_embedded_projector():
    t = extremal(3)
    assert ess_equal(t * iota(extremal(2)), t)


# -- splitting idempotents and isomorphisms ----------------------------------


def test_split_idempotent_frozen():
    e = split_idempotent(1, 1)
    assert e == (gen_u(2, 1) + gen_u(2, 0)).scale(-HALF)
    assert len(split_idempotent(2, 1).terms) == 9


# the cells whose diagram forms are small enough to expand in a test
CELLS = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1))


def test_tensor_decomposition():
    for m, n in CELLS:
        w, e = weight_tensor(m, n), split_idempotent(m, n)
        assert ess_equal(w, extremal(m + n) + e)
        # each diagram constructor against its form on leaf weight maps
        assert phi(w) == WEIGHTS.weight_tensor(m, n)
        assert phi(e) == WEIGHTS.split(m, n)
        assert phi(kariso_contract(m, n)) == WEIGHTS.kariso_contract(m, n)
        for r in range(1, min(n, m - 1) + 1):
            nested = split_idempotent_nested(m, n, r)
            assert phi(nested) == WEIGHTS.split_nested(m, n, r)
        ps = WEIGHTS.split(m, n)
        assert ps * ps == ps
        assert (ps * phi_extremal(m + n)).is_zero()
        assert ps.rank() == 2


# sha256 of the dumps() of every diagram-side construction of a cell, one
# line each: T_m (x) T_n, e_{m,n}, e_{m,n} at every turnback depth, the
# capped contract (m >= n), and the iso_diff maps (m != n) or both iso_equal
# pairs with their summands (m = n); taken when e_{m,n} was built as
# a . (b . U_m . a) . b over a = T_m (x) id_n and b = id_m (x) T_n
PRODUCT_DIGESTS = {
    (1, 1): "c1d77eb6ef8fb726a5f132bd4d564b4d2dcb0c4cd7f184a773c205bc8803836e",
    (1, 2): "6388cbb3f056aa98e2fd6aea3bf755792f3b901f436b21ffc76d07ab8eeae1a7",
    (2, 1): "4e3de402577339c304de07ec5b3f23f61dd34e9d9b9b76388d78178395a1fa72",
    (2, 2): "497996962668c705129233a4ae3f23edbb7175ea6d744c2e1d4a26e98a1800ff",
    (3, 1): "8b3b3f7f225b7ee7c72315fdf26f1508b4ba7e81eaffee840712200fd1590aa2",
    (3, 2): "4d171d80b8be4e7e930b0b7e0a724c6fde6e285ed3c4ba695a235a8225eaa9fe",
    (4, 1): "fa14a9ef8212c6a6d4dbfa71cf71d6df4cf8bd9bf30c6bafebe0903fa08d06a8",
}


def _nested_depths(m: int, n: int) -> range:
    return range(1, min(m, n, max(m, n) - 1) + 1)


@pytest.mark.parametrize("m, n", sorted(PRODUCT_DIGESTS))
def test_product_formula_is_frozen(m, n):
    parts = [weight_tensor(m, n), split_idempotent(m, n)]
    parts += [split_idempotent_nested(m, n, r) for r in _nested_depths(m, n)]
    if m >= n:
        parts.append(kariso_contract(m, n))
    if m != n:
        pair = iso_diff(m, n)
        parts += [pair.fwd, pair.bwd]
    else:
        for pair in iso_equal(m):
            parts += [pair.fwd, pair.bwd, pair.src_idem]
    digest = hashlib.sha256()
    for x in parts:
        digest.update((x.dumps() + "\n").encode())
    assert digest.hexdigest() == PRODUCT_DIGESTS[m, n]


# (2, 3) has a three-strand right factor, which must not go letter by
# letter; at n = 2 the nested forms end with the letter-by-letter product
@pytest.mark.parametrize("m, n", [*CELLS, (1, 2), (2, 3), (4, 2)])
def test_product_formula_matches_the_tensor_factor_route(m, n):
    assert weight_tensor(m, n) == reference_weight_tensor(m, n)
    if (m, n) != (1, 1):  # a closed form, pinned by test_split_idempotent_frozen
        assert split_idempotent(m, n) == reference_split(m, n)
    for r in _nested_depths(m, n):
        assert split_idempotent_nested(m, n, r) == reference_split_nested(m, n, r)


def test_iso_diff_contracts():
    for m, n in ((2, 1), (1, 2), (3, 1)):
        pair = iso_diff(m, n)
        assert ess_equal(pair.bwd * pair.fwd, pair.tgt_idem)
        assert ess_equal(pair.fwd * pair.bwd, pair.src_idem)
    for m, n in ((2, 1), (1, 2), (3, 1), (3, 2), (4, 1)):
        pair = iso_diff(m, n)
        assert pair.tgt_idem == extremal(abs(m - n))
        pf, pg = iso_diff_maps(m, n)
        assert pf == phi(pair.fwd) and pg == phi(pair.bwd)
    with pytest.raises(ValueError):
        iso_diff(2, 2)


def test_iso_diff_reuses_the_split_idempotent():
    # the diagram evaluator memoizes split, as the weight one does, so the
    # complement e_{m,n} is built once for both constructors
    for m, n in ((2, 1), (1, 2)):
        assert iso_diff(m, n).src_idem is split_idempotent(m, n)


def test_iso_equal_contracts():
    p1, p2 = iso_equal(1)
    for pair in (p1, p2):
        assert ess_equal(pair.bwd * pair.fwd, gen_id(0))
        assert ess_equal(pair.fwd * pair.bwd, pair.src_idem)
    # cross contracts vanish and the summands recover the idempotent
    assert phi(p1.bwd * p2.fwd).is_zero()
    assert phi(p2.bwd * p1.fwd).is_zero()
    assert phi(p1.src_idem + p2.src_idem) == WEIGHTS.split(1, 1)
    for m in (1, 2, 3):
        pairs, maps = iso_equal(m), WEIGHTS.iso_equal(m)
        for pair, pmap in zip(pairs, maps):
            assert phi(pair.fwd) == pmap.fwd and phi(pair.bwd) == pmap.bwd
            assert phi(pair.src_idem) == pmap.src_idem


def test_kariso_contract():
    assert ess_equal(kariso_contract(2, 1), extremal(1))
    assert ess_equal(kariso_contract(1, 1), extremal(0))
    assert ess_equal(kariso_contract(2, 2), extremal(0))
    with pytest.raises(ValueError):
        kariso_contract(1, 2)


def test_product_shape_checks():
    assert linked_check(2, 1)
    assert overlap_check(2, 2, 1)
    assert nested_form_check(2, 1, 1)
    assert nested_form_check(2, 2, 1)
    e = split_idempotent_nested(2, 1, 1)
    assert (e.dom, e.cod) == (3, 3)
    assert phi(e) == WEIGHTS.split(2, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: extremal(4),
        lambda: jones_wenzl(4),
        lambda: highest_weight(4),
        lambda: lowest_weight(4),
        lambda: weight_tensor(2, 2),
        lambda: split_idempotent(2, 2),
        lambda: phi_extremal(4),
        lambda: kariso_contract(2, 2),
        lambda: iso_equal(2),
        lambda: iota_prime(extremal(3)),
    ],
)
def test_strand_guard_ignores_call_history(build):
    build()  # cached now, under the default limit
    with configure(max_strands=3):
        with pytest.raises(ValueError, match="exceeds the configured limit"):
            build()
    build()


# -- highest and lowest weight projectors ------------------------------------


def test_weight_projector_base_words():
    h = highest_weight(2)
    assert len(h.terms) == 6
    assert h.terms[next(iter(gen_id(2).terms))] == HALF
    assert h.terms[next(iter(gen_d(2, -1).terms))] == HALF * I
    assert highest_weight(1) == gen_id(1).scale(HALF) + gen_d(1, 1).scale(-HALF * I)


def test_weight_projector_matrices():
    for m in (1, 2, 3):
        plus, minus = "+" * m, "-" * m
        assert phi(highest_weight(m)) == WeightMap(m, m, {(plus, plus): ONE})
        assert phi(lowest_weight(m)) == WeightMap(m, m, {(minus, minus): ONE})


def test_weight_projectors_sum_to_extremal():
    for m in (2, 3):
        assert ess_equal(highest_weight(m) + lowest_weight(m), extremal(m))


def test_weight_projectors_swap_under_sign_flip():
    for m in (2, 3):
        assert phi(highest_weight(m)).swap_signs() == phi(lowest_weight(m))


# -- frozen output -----------------------------------------------------------

# sha256 of x.dumps() + "\n" + phi(x).dumps() + "\n" over the sizes from the
# kind's least one to 5: any change to a projector's diagrams, coefficients,
# term order or weight map shows here
FROZEN_DIGESTS = {
    "extremal": "422d5a6a01cf45e13ea53a557e52525d504bdf805b636f8fcbc0f9f45fcd53ef",
    "jw": "93ae9f191e8f25324216a71fae1319ad1d3c3c44d3657dfcf320721055535265",
    "highest": "b2529ec124b24a1726f843694ffa2974c6ebfd2483d9f8384b92e6ae8743d646",
    "lowest": "516499e54cd83262f4588db7a16cd7f60d23802ed957529e425e51070d0431b2",
}


def _output_digest(kind: str) -> str:
    build, least = PROJECTOR_KINDS[kind]
    digest = hashlib.sha256()
    for m in range(least, 6):
        x = build(m)
        digest.update((x.dumps() + "\n" + phi(x).dumps() + "\n").encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(FROZEN_DIGESTS))
def test_projector_output_is_frozen(kind):
    assert _output_digest(kind) == FROZEN_DIGESTS[kind]


def test_extremal_6_is_frozen():
    # the same digest for T_6 alone, taken when the right factor
    # id_4 (x) T_2 of its overlap product came from its own memo
    x = extremal(6)
    text = x.dumps() + "\n" + phi(x).dumps() + "\n"
    assert len(x.terms) == 1118
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "d56c97099456aa85ad4e285d8bbc77987645f2fee24a826e77fa9e388fc5fe22"


@pytest.mark.parametrize("build, digest", [
    (highest_weight, "22c013b3fd8e7a7b278e5e874b7e824cf2db5d4a7e8d833d45d3a387195e0526"),
    (lowest_weight, "5a93d1704e9ee29326ce2bb5c238670e18ad8a5b5536f49af6b155578b5df901"),
], ids=["highest", "lowest"])
def test_weight_projectors_6_are_frozen(build, digest):
    x = build(6)
    text = x.dumps() + "\n" + phi(x).dumps() + "\n"
    assert len(x.terms) == 3152
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_extremal_7_is_frozen():
    # the JSON alone: phi of the T_7 diagram costs as much as its build
    x = extremal(7)
    assert len(x.terms) == 6026
    digest = hashlib.sha256(x.dumps().encode()).hexdigest()
    assert digest == "c8c0c30c3454a52216e8a1272ed98e1afa8de5322dea586c8610f43595f6af88"


def test_results_survive_clear_caches(monkeypatch):
    before, props = extremal(4), verify_properties(3)
    # a wrapper patched over a public name must not hide the memo behind it
    monkeypatch.setattr(atlq, "extremal", lambda m: before)
    clear_caches()
    assert compose.cache_info().currsize == 0
    rebuilt = extremal(4)
    assert rebuilt is not before and rebuilt == before
    assert {kind: _output_digest(kind) for kind in FROZEN_DIGESTS} == FROZEN_DIGESTS
    assert verify_properties(3) == props


def test_no_memo_escapes_clear_caches():
    extremal(3), phi_extremal(3), weight_tensor(2, 1), WEIGHTS.split(2, 1), cheb_l(4)
    gen_u(2, 0) * gen_u(2, 0)  # U_0 is glued, not rewritten by the generator kernel
    iota_prime(gen_d(2, 1))
    tables = (diagram._POOL, diagram._GENERATORS, planar._factor_cache, planar._iota_cache, rep._phi_cache)
    table_memos = (diagram._identity, diagram._glue_tables, diagram._generator_tables,
                   rep._strings_of_length, rep._shape_keys, planar._iota_prime_diagram)
    # each one is in use before the clear
    assert all(tables) and all(memo.cache_info().currsize for memo in table_memos)
    held, pooled = extremal(4), len(diagram._POOL)
    clear_caches()
    owners = [vars(mod) for name, mod in sys.modules.items() if name.split(".")[0] == "atlq"]
    owners += [vars(projectors._Evaluator), vars(projectors._Diagrams), vars(projectors._Weights)]
    # config._from_env is not an engine memo: it reads the ATL_* variables
    # once per process, and a test that changes them clears it itself
    memos = {
        id(obj): obj for owner in owners for obj in owner.values()
        if hasattr(obj, "cache_info") and obj is not config._from_env
    }.values()
    assert {"compose", "d_diagram", "extremal", "phi_extremal", "_sequence", "weight_tensor", "split"} <= {
        memo.__name__ for memo in memos
    }
    assert {id(memo) for memo in table_memos} <= {id(memo) for memo in memos}
    assert [memo.__name__ for memo in memos if memo.cache_info().currsize] == []
    # the pool keeps exactly the diagrams still alive, each under its own key,
    # and drops the rest: the steps of extremal(4) that it does not hold
    live = {id(d): d for d in gc.get_objects() if type(d) is diagram.AnnularDiagram}
    assert {id(d) for d in diagram._POOL.values()} == set(live) >= {id(d) for d in held.terms}
    assert len(diagram._POOL) < pooled
    assert all(diagram._POOL[d.dom, d.cod, d.seam, d.ess, d.codes] is d for d in live.values())
    assert [len(table) for table in tables[1:]] == [0, 0, 0, 0]
