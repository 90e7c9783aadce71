"""Strand insertion, tensor, partial trace, factorization, essential circles."""

import hashlib
import random
from fractions import Fraction

import pytest

from atlq import (
    clear_caches,
    GaussianRational,
    Morphism,
    WeightMap,
    configure,
    crossing,
    ess_equal,
    extremal,
    factorize,
    gen_cap,
    gen_cup,
    gen_d,
    gen_id,
    gen_u,
    highest_weight,
    iota,
    iota_prime,
    is_planar,
    jones_wenzl,
    nested_caps,
    nested_cups,
    partial_trace,
    phi,
    tensor,
)
from atlq import planar
from atlq.diagram import compose, make_diagram
from atlq.planar import ess_generator, iota_diagram, recompose
from atlq.scalar import HALF, MINUS_ONE, MINUS_TWO, ONE

from helpers import (
    compose_word,
    projector_family,
    random_combination,
    random_single_diagram,
    random_word,
    reference_inputs,
    reference_iota_diagram,
    reference_iota_prime,
    reference_partial_trace,
    wound_diagrams,
)


def only_diagram(m):
    assert len(m.terms) == 1
    return next(iter(m.terms))


# -- factorization -----------------------------------------------------------


def test_factorize_wrap_turnback():
    word = factorize(only_diagram(gen_u(2, 0)))
    assert word == (("d", 2, -1), ("cap", 2, 0), ("cup", 0, 0), ("d", 2, -1))
    assert recompose(2, word) == gen_u(2, 0)


def test_factorize_identity_is_empty():
    assert factorize(only_diagram(gen_id(3))) == ()
    assert recompose(3, ()) == gen_id(3)


def test_factorize_round_trip_seeded():
    rng = random.Random(20260815)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = random_single_diagram(rng, n, 8)
        d = only_diagram(m)
        assert recompose(d.dom, factorize(d)).terms == {d: ONE}


def test_factorize_strips_skip_the_compose_memo():
    # _factor_cache keeps the word; the stripped diagrams need no memo
    clear_caches()
    d = make_diagram(4, 4, 0, 0, [(("I", 0), ("I", 1)), (("I", 2), ("O", 0)),
                                  (("I", 3), ("O", 3)), (("O", 1), ("O", 2))])
    assert factorize(d) == (("cap", 4, 0), ("cup", 2, 1))
    assert compose.cache_info().currsize == 0
    assert recompose(4, factorize(d)).terms == {d: ONE}


# sha256 of repr() of the factorize words, taken before factorize tried
# one rotation per step instead of a breadth-first search over rotation
# words: the words must not change
FACTORIZE_DIGESTS = {
    "quotient": "8f9f2f7e5559bbe4b6fcd6390236e03f7b2b1277e34da6afb7d3e26d4db12b2f",
    "raw": "be36fc56d6d75b3dd3761edef8187270aebaac229996deab3439f5f2de5e776a",
}
WOUND_DIGEST = "98c385c39c6cb6bba455b8c2db6fdd8f2c2abc03e8e1c42adcb57551e9d61212"


def _digest(words) -> str:
    return hashlib.sha256(repr(words).encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(FACTORIZE_DIGESTS))
def test_factorize_words_are_frozen(mode):
    words = [factorize(d) for d in reference_inputs(mode) if not d.ess]
    assert _digest(words) == FACTORIZE_DIGESTS[mode]


def test_factorize_round_trip_wound_words():
    # caps and cups change the arity and one-way rotations pile up the
    # seam; every diagram factorizes without raising and recomposes exactly
    with configure(mode="quotient"):
        pool = wound_diagrams(random.Random(20261018), 400, 40)
        words = [factorize(d) for d in pool]
        assert max(d.seam for d in pool) >= 10
        assert any(d.dom != d.cod for d in pool)
        for d, word in zip(pool, words):
            assert recompose(d.dom, word).terms == {d: ONE}
    assert _digest(words) == WOUND_DIGEST


def test_factorize_rejects_essential_circles():
    with pytest.raises(ValueError):
        factorize(only_diagram(ess_generator(0)))


def test_is_planar():
    assert is_planar(gen_u(2, 1))
    assert is_planar(gen_id(3) + gen_u(3, 2).scale(ONE))
    assert not is_planar(gen_u(2, 0))  # wraps the seam
    assert not is_planar(extremal(2))  # contains the wrap turnback
    with configure(mode="raw"):
        assert not is_planar(ess_generator(0))


# -- strand insertion --------------------------------------------------------


def test_iota_on_planar_diagram_is_planar():
    assert iota(gen_u(2, 1)) == gen_u(3, 1)
    assert iota_prime(gen_u(2, 1)) == gen_u(3, 2)
    assert iota(gen_id(2)) == gen_id(3)


def test_iota_resolves_seam_crossings():
    # Pushing a strand past the rotation needs both crossing resolutions.
    out = iota(gen_d(1, 1))
    assert len(out.terms) == 2
    parts = sorted(str(d) for d in out.terms)
    assert parts == ["{I0-L0, I1-O0, O1-R0}", "{I0-L0, I1-R0, O0-O1}"]

    out = iota_prime(gen_d(1, 1))
    parts = sorted(str(d) for d in out.terms)
    assert parts == ["{I0-I1, O0-L0, O1-R0}", "{I0-L0, I1-O0, O1-R0}"]


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_iota_diagram_matches_letter_route(mode):
    # every distinct circle-free diagram of the projector builds, the seeded
    # products and the wound words, against multiplying the letters of
    # factorize(d) one arity up; the wound words reach seam 19, where the
    # 2^seam resolutions collapse to a few diagrams
    with configure(mode="quotient"):
        pool = dict.fromkeys(d for x in projector_family() for d in x.terms)
        pool.update(dict.fromkeys(wound_diagrams(random.Random(20261018), 400, 40)))
    pool.update(dict.fromkeys(d for d in reference_inputs(mode) if not d.ess))
    assert max(d.seam for d in pool) >= 19
    with configure(mode=mode):
        for d in pool:
            assert iota_diagram(d) == reference_iota_diagram(d), d


# sha256 of iota(x).dumps(), taken from the letter route before the
# crossings of the new strand were resolved directly
@pytest.mark.parametrize("build, m, terms, digest", [
    (extremal, 6, 4873, "34eb8b41110b5c4358ebde18179a6ae11b01937b0bfe5f6cf6ca8d8e6c75b514"),
    (highest_weight, 4, 549, "446b6653d1611cc92c8b9b57471aa12acaff1133cf5b0d686ffe63fc0327d240"),
], ids=["extremal-6", "highest-4"])
def test_iota_of_projectors_is_frozen(build, m, terms, digest):
    out = iota(build(m))
    assert len(out.terms) == terms
    assert hashlib.sha256(out.dumps().encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_iota_prime_matches_conjugation(mode):
    # the sum of per-diagram conjugates against conjugating iota(x) whole,
    # over single diagrams, projectors, seeded combinations whose
    # denominators differ, and towers of left insertions
    rng = random.Random(f"iota-prime-{mode}")
    with configure(mode="quotient"):
        wound = wound_diagrams(random.Random(20261021), 60, 30)
    diagrams = reference_inputs(mode)
    with configure(mode=mode):
        for d in diagrams + wound:
            x = Morphism.from_diagram(d)
            if d.ess:
                with pytest.raises(ValueError, match="essential circle"):
                    iota_prime(x)
            else:
                assert iota_prime(x) == reference_iota_prime(x), d
        shapes = {}
        for d in diagrams:
            if not d.ess:
                shapes.setdefault((d.dom, d.cod), []).append(d)
        samples = projector_family()
        samples += [random_combination(rng, group, 6) for group in shapes.values() for _ in range(3)]
        for x in samples:
            assert iota_prime(x) == reference_iota_prime(x)
        for x in (extremal(2), highest_weight(2), jones_wenzl(3), gen_d(2, 1) + gen_u(2, 0).scale(HALF)):
            for _ in range(3):
                step = iota_prime(x)
                assert step == reference_iota_prime(x)
                x = step


# sha256 of x.dumps(), taken while iota_prime conjugated the whole of
# iota(x) by D
@pytest.mark.parametrize("build, digest", [
    (lambda: iota_prime(extremal(4)), "b7fb98e599d67fa37b7f7b04508b477a1cfa2df0aaad4a7035453845a85c1a8a"),
    (lambda: tensor(extremal(2), extremal(3)), "a6ad5b74dd99e65123978c053400a52a6edaf791ba020899f77de852a6ec3694"),
    (lambda: tensor(highest_weight(2), extremal(2)), "128a1a34d69fa4b9180df5da550f7f082070587e2cfdf73d37e9d2625594f5c5"),
], ids=["iota-prime-T4", "tensor-T2-T3", "tensor-H2-T2"])
def test_left_insertions_are_frozen(build, digest):
    assert hashlib.sha256(build().dumps().encode()).hexdigest() == digest


def test_iota_is_tensor_with_identity_on_weights():
    rng = random.Random(7)
    samples = [gen_d(2, 1), gen_u(3, 0), crossing(2, 0) * gen_d(2, 1)]
    samples += [random_single_diagram(rng, 3, 5) for _ in range(5)]
    samples += [extremal(3)] + [compose_word(random_word(rng, n, 5), n) for n in (2, 3)]
    for x in samples:
        assert phi(iota(x)) == phi(x).tensor(WeightMap.identity(1))
        assert phi(iota_prime(x)) == WeightMap.identity(1).tensor(phi(x))


def test_iota_is_linear():
    rng = random.Random(13)
    c = GaussianRational(Fraction(2, 3), 1)
    samples = [extremal(3)] + [compose_word(random_word(rng, n, 5), n) for n in (1, 2, 3, 3)]
    for x in samples:
        assert iota(x.scale(c) + x.scale(-c)).is_zero()
        assert iota(x + x) == iota(x).scale(2)
        by_terms = Morphism.zero(x.dom + 1, x.cod + 1)
        for d, v in x.terms.items():
            by_terms = by_terms + iota_diagram(d).scale(v)
        assert iota(x) == by_terms


def test_iota_functorial():
    a, b = gen_u(3, 0), gen_d(3, 1) * gen_u(3, 2)
    assert iota(a * b) == iota(a) * iota(b)
    assert iota_prime(a * b) == iota_prime(a) * iota_prime(b)


# -- tensor ------------------------------------------------------------------


def test_tensor_of_identities():
    assert tensor(gen_id(2), gen_id(3)) == gen_id(5)


def test_tensor_planar_fast_path_matches_insertion():
    # x (x) y = iota^{cod y}(x) . iota'^{dom x}(y)
    x, y = gen_u(2, 1), gen_cap(2, 0)
    assert tensor(x, y) == x * iota_prime(iota_prime(y))
    x2, y2 = gen_cap(2, 0), gen_u(2, 1)
    assert tensor(x2, y2) == iota(iota(x2)) * iota_prime(iota_prime(y2))


def test_tensor_shapes_and_matmul():
    t = gen_d(2, 1) @ gen_u(2, 1)
    assert (t.dom, t.cod) == (4, 4)
    assert t == tensor(gen_d(2, 1), gen_u(2, 1))


def test_tensor_refuses_a_wound_operand_before_building_the_other_tower(monkeypatch):
    # the CLI leaves this refusal to tensor, so bad input must not cost
    # iota^2(JW_5) or iota'^2(JW_5) first: no diagram of JW_5 gets a strand,
    # as seen by both per-diagram insertions, memo hits included
    wound = Morphism.from_diagram(make_diagram(2, 2, 0, 1, [(("I", 0), ("I", 1)), (("O", 0), ("O", 1))]))
    (d,) = wound.terms
    x = jones_wenzl(5)
    seen = []
    for name in ("iota_diagram", "_iota_prime_diagram"):
        real = getattr(planar, name)

        def counted(*args, _real=real):
            seen.append(args[-1])
            return _real(*args)

        monkeypatch.setattr(planar, name, counted)
    with pytest.raises(ValueError, match="essential circle"):
        tensor(x, wound)
    # the left insertion's builder, then the right insertion it conjugates
    assert seen == [d, d]
    with pytest.raises(ValueError, match="essential circle"):
        tensor(wound, x)
    assert seen == [d, d]


def test_tensor_weights_factor():
    for x, y in [(gen_d(1, 1), gen_u(2, 1)), (gen_u(2, 0), gen_d(1, -1))]:
        assert phi(tensor(x, y)) == phi(x).tensor(phi(y))


def test_tensor_interchange_up_to_essential_circles():
    # (x (x) id)(id (x) y) and (id (x) y)(x (x) id) agree in the quotient
    # but genuinely differ as raw annular diagrams when both factors wind.
    x, y = gen_d(2, 1), gen_d(1, -1) * gen_d(1, -1)
    first = tensor(x, gen_id(1)) * tensor(gen_id(2), y)
    second = tensor(gen_id(2), y) * tensor(x, gen_id(1))
    assert first != second
    assert ess_equal(first, second)


# -- partial trace -----------------------------------------------------------


def test_partial_trace_of_identity():
    assert partial_trace(gen_id(3)) == gen_id(2).scale(MINUS_TWO)


def test_partial_trace_of_last_turnback():
    assert partial_trace(gen_u(3, 2)) == gen_id(2)
    assert partial_trace(gen_u(2, 1)) == gen_id(1)


def test_partial_trace_of_rotation():
    # Closing the last strand of the two-strand rotation leaves the
    # one-strand rotation with a sign, not a circle.
    assert partial_trace(gen_d(2, 1)) == gen_d(1, 1).scale(MINUS_ONE)


def test_partial_trace_needs_a_strand():
    with pytest.raises(ValueError):
        partial_trace(gen_id(0))


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_partial_trace_of_one_strand(mode):
    # closing the identity strand leaves an inessential circle; closing a
    # rotated one winds once around the core, an essential circle
    with configure(mode=mode):
        assert partial_trace(gen_id(1)) == gen_id(0).scale(MINUS_TWO)
        circle = Morphism.from_diagram(make_diagram(0, 0, 0, 1, ())).scale(MINUS_ONE)
        for e in (1, -1):
            assert partial_trace(gen_d(1, e)) == (circle if mode == "raw" else Morphism.zero(0, 0))


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_partial_trace_matches_reference(mode):
    # the seeded products, the wound words and the projectors, seam-free
    # operands among them, against the splice and cap . iota(x) . cup
    with configure(mode="quotient"):
        wound = wound_diagrams(random.Random(5), 400, 8)
    pool = reference_inputs(mode) + wound
    with configure(mode=mode):
        xs = [Morphism.from_diagram(d) for d in pool] + projector_family()
        for x in xs:
            if not (x.dom and x.cod):
                continue
            if any(d.ess for d in x.terms):
                for trace in (partial_trace, reference_partial_trace):
                    with pytest.raises(ValueError):
                        trace(x)
            else:
                assert partial_trace(x) == reference_partial_trace(x), x


# sha256 of partial_trace(x).dumps(), taken from cap . iota(x) . cup and the
# seam-free splice before the trace walked the closing strand itself
_TRACE_DIGESTS = {
    (extremal, 2): "cfe5313ab3f672c250401c2c9c5f1cb2ac3322306df67122d60cbfd4ecd28b2c",
    (extremal, 3): "4470713a8c106b1760a217b22e6f02816dc2c0ed020a765f00cdd22c343f0643",
    (extremal, 4): "e0801c787fdcc94c2dc0030db1d0aadf4ebcea170f4ebcc90b60348dbaa1d2c8",
    (extremal, 5): "a64e6a135adda6e685bc1f5415e9d2835f9a9af161fdb2d8ff69d454557ace05",
    (jones_wenzl, 2): "5c6c2d8975dff459b8ec9eb046901e93eb4d657221f8619e43753cc35cca1923",
    (jones_wenzl, 3): "ef33d263e3b0e60c774321f7e272841e2b4e67345644bc7571072f1f424140ed",
    (jones_wenzl, 4): "d01e201673e6d12b1e0d2e8323eb4726142dd615f874fce61ff0093f93e1ae5a",
    (jones_wenzl, 5): "6f3b0f820276130787311173e532dfc137ade686365d36224b4f64c16a5c625b",
    (jones_wenzl, 6): "1e87e16fc7d96bfed9489cb0b0b1184241df25fa28b51dd887136a077b5cbb7c",
    (highest_weight, 2): "e56e341a4966ab9e2d8cb49cb3e81bbd694494e31c319900614f94519b48b885",
    (highest_weight, 3): "2d8407f8d27d0853602782ea78c852b1799a5dba9669ff7a70e0ad6ebf57b0d3",
    (highest_weight, 4): "158ce498c5c9d241b5eafe985393fae77b1850fdd4e1b52ea881767748942dd0",
}


def test_partial_trace_is_frozen():
    for (build, m), digest in _TRACE_DIGESTS.items():
        out = partial_trace(build(m)).dumps()
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (build.__name__, m)


# -- essential circles -------------------------------------------------------


def test_floating_circle_is_essential():
    e0 = ess_generator(0)
    d = only_diagram(e0)
    assert (d.dom, d.cod, d.ess) == (0, 0, 1)
    with configure(mode="raw"):
        sq = e0 * e0
        assert only_diagram(sq).ess == 2


def test_circle_under_strands_resolves_to_rotations():
    assert ess_generator(1) == gen_d(1, 1) + gen_d(1, -1)
    e2 = ess_generator(2)
    assert e2 == iota(gen_d(1, 1) + gen_d(1, -1))
    assert len(e2.terms) == 4


def test_essential_circles_vanish_on_weights():
    for k in range(4):
        assert phi(ess_generator(k)).is_zero()


# -- nested cups and caps ----------------------------------------------------


def test_nested_caps_cups_close_to_circles():
    for k in range(1, 4):
        caps, cups = nested_caps(k), nested_cups(k)
        assert (cups.dom, cups.cod) == (0, 2 * k)
        assert caps * cups == gen_id(0).scale(MINUS_TWO**k)
    assert str(only_diagram(nested_cups(2))) == "{O0-O3, O1-O2}"
