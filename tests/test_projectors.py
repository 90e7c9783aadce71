"""Jones-Wenzl and extremal weight projectors, splittings, isomorphisms."""

import hashlib
from fractions import Fraction

import pytest

import atlq
from atlq import (
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
    verify_properties,
    weight_tensor,
)
from atlq.cli import PROJECTOR_KINDS
from atlq.diagram import compose
from atlq.projectors import WEIGHTS, phi_extremal
from atlq.scalar import HALF, I, ONE


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
    for m in range(5):
        assert phi_extremal(m) == extremal_matrix(m)


def test_extremal_idempotent_in_quotient():
    t = extremal(2)
    assert ess_equal(t * t, t)
    t3 = extremal(3)
    assert t3 * t3 != t3  # syntactically distinct before the quotient
    assert phi(t3 * t3) == phi_extremal(3)


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
