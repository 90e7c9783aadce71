"""Annular diagram encoding, composition, and the morphism layer."""

import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlq import (
    GaussianRational,
    Morphism,
    clear_caches,
    configure,
    crossing,
    diagram,
    extremal,
    gen_cap,
    gen_cup,
    gen_d,
    gen_id,
    gen_u,
    iota,
    tensor,
)
from atlq.config import get_config
from atlq.diagram import (
    _POOL,
    cap_diagram,
    compose,
    cup_diagram,
    d_diagram,
    id_diagram,
    make_diagram,
    u0_diagram,
    u_diagram,
)
from atlq.scalar import HALF, MINUS_TWO, ONE

from helpers import (
    projector_family,
    random_combination,
    random_single_diagram,
    reference_compose,
    reference_inputs,
    reference_mor_compose,
    wound_diagrams,
)


def only_diagram(m: Morphism):
    assert len(m.terms) == 1
    return next(iter(m.terms))


# -- frozen generator shapes -------------------------------------------------


def test_rotation_generator_arcs():
    d = only_diagram(gen_d(1, 1))
    assert str(d) == "{I0-L0, O0-R0}"
    assert d.seam == 1 and d.ess == 0


def test_wrap_turnback_arcs():
    # U_0 reaches around the seam: both the cap and the cup cross it once.
    assert str(only_diagram(gen_u(2, 0))) == "{I0-L0, I1-R0, O0-L1, O1-R1}"
    assert str(only_diagram(gen_u(3, 0))) == "{I0-L0, I1-O1, I2-R0, O0-L1, O2-R1}"
    assert only_diagram(gen_u(2, 0)).seam == 2


def test_interior_turnback_arcs():
    assert str(only_diagram(gen_u(2, 1))) == "{I0-I1, O0-O1}"
    assert str(only_diagram(gen_u(3, 1))) == "{I0-I1, I2-O2, O0-O1}"


def test_cap_cup_conventions():
    # cap joins inputs i-1 and i (0-based slot i runs 0..n-2), cup inserts
    # a new arc between outputs i and i+1 (slot i runs 0..n).
    assert str(only_diagram(gen_cap(2, 0))) == "{I0-I1}"
    assert str(only_diagram(gen_cap(3, 1))) == "{I0-O0, I1-I2}"
    assert str(only_diagram(gen_cup(0, 0))) == "{O0-O1}"
    assert str(only_diagram(gen_cup(1, 0))) == "{I0-O2, O0-O1}"
    assert str(only_diagram(gen_cup(1, 1))) == "{I0-O0, O1-O2}"
    with pytest.raises(ValueError):
        cap_diagram(2, 1)
    with pytest.raises(ValueError):
        cup_diagram(1, 2)


def test_identity():
    assert gen_id(0).terms == {make_diagram(0, 0, 0, 0, frozenset()): ONE}
    assert str(only_diagram(gen_id(2))) == "{I0-O0, I1-O1}"
    assert gen_id(3).is_identity()
    assert not gen_u(3, 1).is_identity()


# -- composition -------------------------------------------------------------


def test_rotation_squared_needs_two_seam_crossings():
    d = only_diagram(gen_d(1, 1) * gen_d(1, 1))
    assert str(d) == "{I0-L0, O0-R1, L1-R0}"
    assert d.seam == 2


def test_rotation_inverse():
    assert gen_d(3, 1) * gen_d(3, -1) == gen_id(3)
    assert gen_d(3, -1) * gen_d(3, 1) == gen_id(3)


def test_turnback_relations_spot():
    n = 4
    for i in range(n):
        u = gen_u(n, i)
        assert u * u == u.scale(MINUS_TWO)
        assert u * gen_u(n, (i + 1) % n) * u == u
        assert u * gen_u(n, (i - 1) % n) * u == u
    assert gen_u(4, 1) * gen_u(4, 3) == gen_u(4, 3) * gen_u(4, 1)


def test_rotation_shifts_turnbacks():
    n = 5
    d, dinv = gen_d(n, 1), gen_d(n, -1)
    for i in range(n):
        assert gen_u(n, i) * d == d * gen_u(n, (i + 1) % n)
    assert dinv * gen_u(n, 0) * d == gen_u(n, 1)


def test_inessential_circle_scalar():
    # cap over cup closes a contractible circle: worth -2.
    assert gen_cap(2, 0) * gen_cup(0, 0) == gen_id(0).scale(MINUS_TWO)


def test_diagram_compose_reports_circles():
    # the closed loop confined to the middle circle
    u = only_diagram(gen_u(2, 1))
    d, iness, ess = compose(u, u)
    assert (d, iness, ess) == (u, 1, 0)


# a cup whose arcs leave through the two edges at level 0: the cup of U_0
WRAPPED_CUP = make_diagram(0, 2, 1, 0, [(("O", 0), ("L", 0)), (("O", 1), ("R", 0))])


def test_seam_same_level_arc_is_essential():
    # the wrapped cup closed by a cap: one arc L_0 - R_0, which winds once
    closed = make_diagram(0, 0, 0, 1, [])
    assert compose(WRAPPED_CUP, cap_diagram(2, 0)) == (closed, 0, 1)
    with_one = make_diagram(0, 2, 1, 1, WRAPPED_CUP.arcs)
    assert compose(with_one, cap_diagram(2, 0)) == (make_diagram(0, 0, 0, 2, []), 0, 2)


def test_seam_hairpins_on_both_edges_are_inessential():
    # a wrapped cup under a wrapped cap: L_0 - L_1 and R_0 - R_1, a loop
    # crossing the seam there and back
    cap = make_diagram(2, 0, 1, 0, [(("I", 0), ("L", 0)), (("I", 1), ("R", 0))])
    assert compose(WRAPPED_CUP, cap) == (make_diagram(0, 0, 0, 0, []), 1, 0)


def test_seam_hairpin_on_one_edge_splices():
    # D then D^-1: R_0 - R_1 comes off the seam, joining I_0 - L_0 and
    # L_1 - O_0 into one through strand
    for n in range(1, 5):
        d, iness, ess = compose(d_diagram(n, 1), d_diagram(n, -1))
        assert d is id_diagram(n) and d.seam == 0 and (iness, ess) == (0, 0)


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_compose_matches_reference(mode):
    pool = reference_inputs(mode)
    assert max(d.seam for d in pool) >= 4
    if mode == "raw":
        assert any(d.ess for d in pool)
    by_dom: dict[int, list] = {}
    for d in pool:
        by_dom.setdefault(d.dom, []).append(d)
    rng = random.Random(f"pairs-{mode}")
    for _ in range(4000):
        inner = rng.choice(pool)
        outer = rng.choice(by_dom[inner.cod])
        got = compose.__wrapped__(inner, outer)
        want = reference_compose(inner, outer)
        assert got[0] is want[0] and got[1:] == want[1:]
    inner, outer = gen_u(3, 1), gen_u(2, 1)
    with pytest.raises(ValueError) as got_err:
        compose(only_diagram(inner), only_diagram(outer))
    with pytest.raises(ValueError) as want_err:
        reference_compose(only_diagram(inner), only_diagram(outer))
    assert str(got_err.value) == str(want_err.value)


def _generators(arities) -> list:
    """Every U_i (i >= 1), cap, cup and D^+-1 from or to the given arities."""
    gens = []
    for n in arities:
        gens += [u_diagram(n, i) for i in range(1, n)] + [cap_diagram(n, i) for i in range(n - 1)]
        gens += [cup_diagram(n - 2, i) for i in range(n - 1)] + [d_diagram(n, e) for e in (1, -1) if n]
    return gens


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_generator_kernel_matches_glue_and_reference(mode, monkeypatch):
    # every generator at every index of arities 0..8, as the inner and as
    # the outer diagram, against the glue route and the dict-based oracle
    with configure(mode=mode):
        pool = reference_inputs(mode)
        if mode == "quotient":
            pool += wound_diagrams(random.Random(20261021), 200, 40)
        gens = _generators(range(9))
        pairs = [(g, x) for g in gens for x in pool if g.cod == x.dom]
        pairs += [(x, g) for g in gens for x in pool if x.cod == g.dom]
        kernel = [compose.__wrapped__(inner, outer) for inner, outer in pairs]
        monkeypatch.setattr(diagram, "_GENERATORS", set())
        for (inner, outer), got in zip(pairs, kernel):
            want = reference_compose(inner, outer)
            assert got[0] is want[0] and got[1:] == want[1:]
            assert compose.__wrapped__(inner, outer) == got
    shapes = {(inner.dom, outer.cod) for inner, outer in pairs}
    assert {(1, 1), (2, 0), (0, 2)} <= shapes and max(max(s) for s in shapes) == 8
    assert any(d_diagram(1, -1) in pair for pair in pairs)
    # a turnback that closes a circle, and one that joins two seam points
    # into a reducible arc (D^+-1 on a seam-free diagram never reduces)
    assert any(got[1] for got in kernel)
    assert any(got[0].seam < inner.seam + outer.seam
               for (inner, outer), got in zip(pairs, kernel) if 0 in (inner.seam, outer.seam))


def _triples(g, xs) -> list:
    """compose(g, x) and compose(x, g) over xs, with each diagram as its pool key."""
    got = [compose(g, x) for x in xs if x.dom == g.cod] + [compose(x, g) for x in xs if x.cod == g.dom]
    return [((d.dom, d.cod, d.seam, d.ess, d.codes), iness, ess) for d, iness, ess in got]


def test_generator_kernel_ignores_how_the_generator_entered_the_pool():
    # a generator pooled before its constructor ran, or held across
    # clear_caches, is glued as any diagram until the constructor registers it
    builds = [(u_diagram, 5, 3), (u_diagram, 2, 1), (cap_diagram, 5, 2), (cup_diagram, 3, 1),
              (d_diagram, 5, -1), (d_diagram, 1, -1)]
    xs = wound_diagrams(random.Random(20261022), 80, 30)
    for build, n, i in builds:
        build(n, i)
    xs = [x for x in xs if x not in diagram._GENERATORS]
    routes = {
        "make_diagram": lambda n, i, spec, text: make_diagram(*spec),
        "loads": lambda n, i, spec, text: only_diagram(Morphism.loads(text)),
        # U_i as cap_{i-1} followed by cup_{i-1}
        "product": lambda n, i, spec, text: compose(cap_diagram(n, i - 1), cup_diagram(n - 2, i - 1))[0],
        "held": None,
    }
    fresh = 0
    for build, n, i in builds:
        for route, enter in routes.items():
            if route == "product" and build is not u_diagram:
                continue
            g = build(n, i)
            key, spec = (g.dom, g.cod, g.seam, g.ess, g.codes), (g.dom, g.cod, g.seam, g.ess, g.arcs)
            text, want = Morphism.from_diagram(g).dumps(), _triples(g, xs)
            if enter is not None:
                del g
                clear_caches()
                # another test module may hold the same diagram alive
                fresh += key not in _POOL
                g = enter(n, i, spec, text)
            else:
                clear_caches()
            assert g not in diagram._GENERATORS
            assert _triples(g, xs) == want
            assert build(n, i) is g and g in diagram._GENERATORS
            compose.cache_clear()
            assert _triples(g, xs) == want
    assert fresh >= 10


def _code_of_arcs(d) -> tuple:
    """The partner code of d's arcs, built without `make_diagram`."""
    off = {"I": 0, "O": d.dom, "L": d.dom + d.cod, "R": d.dom + d.cod + d.seam}
    codes = [None] * (d.dom + d.cod + 2 * d.seam)
    for (pk, pj), (qk, qj) in d.arcs:
        codes[off[pk] + pj], codes[off[qk] + qj] = off[qk] + qj, off[pk] + pj
    return tuple(codes)


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_the_partner_code_is_the_stored_form(mode):
    pool = reference_inputs(mode)
    if mode == "quotient":
        pool = list(dict.fromkeys(pool + wound_diagrams(random.Random(20261019), 200, 40)))
    assert max(d.seam for d in pool) >= 8
    by_shape: dict[tuple[int, int], list] = {}
    for d in pool:
        by_shape.setdefault((d.dom, d.cod), []).append(d)
    from_json = [
        d for (dom, cod), ds in by_shape.items()
        for d in Morphism.loads(Morphism(dom, cod, dict.fromkeys(ds, ONE)).dumps()).terms
    ]
    from_pickle = pickle.loads(pickle.dumps(pool))
    # reading a diagram back finds the one already interned
    assert sorted(map(id, from_json)) == sorted(map(id, pool))
    assert all(d is e for d, e in zip(from_pickle, pool))
    for d in pool:
        assert _code_of_arcs(d) == d.codes
        assert make_diagram(d.dom, d.cod, d.seam, d.ess, d.arcs) is d
    by_dom: dict[int, list] = {}
    for d in pool:
        by_dom.setdefault(d.dom, []).append(d)
    inners = [d for d in pool if d.cod in by_dom]
    rng = random.Random(f"stored-{mode}")
    for _ in range(1000):
        inner = rng.choice(inners)
        outer = rng.choice(by_dom[inner.cod])
        assert compose(inner, outer)[0] is reference_compose(inner, outer)[0]


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_mor_compose_matches_reference(mode):
    # the integer fold gives the terms of the GaussianRational fold, in the
    # same key order
    by_shape: dict[tuple[int, int], list] = {}
    for d in reference_inputs(mode):
        by_shape.setdefault((d.dom, d.cod), []).append(d)
    family = projector_family()
    rng = random.Random(f"mor-compose-{mode}")
    pairs = [(x, y) for x in family for y in family if x.dom == y.cod]
    shapes = sorted(by_shape)
    for _ in range(400):
        m, k = rng.choice(shapes)
        n = rng.choice([c for dom, c in shapes if dom == k])
        y = random_combination(rng, by_shape[(m, k)], rng.randint(1, 12))
        x = random_combination(rng, by_shape[(k, n)], rng.randint(1, 12))
        pairs.append((x, y))
    with configure(mode=mode):
        for x, y in pairs:
            got, want = x * y, reference_mor_compose(x, y)
            assert list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_mor_compose_with_identity_terms_matches_reference(mode):
    # a pair with an identity diagram on either side skips `compose`; the
    # other diagram comes back as it is, and the raw inputs carry essential
    # circles, which quotient mode must still drop
    by_shape: dict[tuple[int, int], list] = {}
    for d in reference_inputs("raw"):
        by_shape.setdefault((d.dom, d.cod), []).append(d)
    rng = random.Random(f"mor-compose-identity-{mode}")
    half_i = GaussianRational(0, 1) * HALF
    pairs = []
    for (m, n), ds in sorted(by_shape.items()):
        z = random_combination(rng, ds, 8)
        for k, side in ((n, "left"), (m, "right")):
            ident = gen_id(k).scale(half_i)
            if (k, k) in by_shape:
                ident = ident + random_combination(rng, by_shape[(k, k)], 4)
            pairs.append((ident, z) if side == "left" else (z, ident))
            if k >= 2:
                s = crossing(k, rng.randrange(k))
                pairs.append((s, z) if side == "left" else (z, s))
    assert any(d.ess for _, y in pairs for d in y.terms)
    with configure(mode=mode):
        for x, y in pairs:
            got, want = x * y, reference_mor_compose(x, y)
            assert list(got.terms.items()) == list(want.terms.items())
    # above the strand limit there is no identity to look up, and the
    # product is still taken
    x, y = crossing(3, 1), gen_d(3, 1)
    with configure(max_strands=2):
        assert x * y == reference_mor_compose(x, y)


def test_quotient_mode_drops_essential_circles():
    # Closing the rotation into a loop winds once around the core: the
    # term vanishes in quotient mode and stays as a circle count in raw
    # mode.  Winding twice cancels at the seam and stays contractible.
    closed = gen_cap(2, 0) * gen_d(2, 1) * gen_cup(0, 0)
    assert closed.is_zero()
    with configure(mode="raw"):
        kept = gen_cap(2, 0) * gen_d(2, 1) * gen_cup(0, 0)
        ((d, coeff),) = kept.terms.items()
        assert d.ess == 1 and coeff == ONE
    wind2 = gen_d(2, 1) * gen_d(2, 1)
    assert gen_cap(2, 0) * wind2 * gen_cup(0, 0) == gen_id(0).scale(MINUS_TWO)


def test_configure_is_per_thread():
    barrier = threading.Barrier(2, timeout=30)
    seen = {}

    def run(mode):
        with configure(mode=mode):
            barrier.wait()
            closed = gen_cap(2, 0) * gen_d(2, 1) * gen_cup(0, 0)
            seen[mode] = (get_config().mode, len(closed.terms))
            barrier.wait()

    threads = [threading.Thread(target=run, args=(mode,)) for mode in ("raw", "quotient")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"raw": ("raw", 1), "quotient": ("quotient", 0)}
    assert get_config().mode == "quotient"
    # the default is shared by every thread, so it cannot be changed in place
    with pytest.raises(AttributeError):
        get_config().mode = "raw"


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        gen_u(3, 1) * gen_u(2, 1)


def test_strand_guard():
    with configure(max_strands=4):
        with pytest.raises(ValueError):
            gen_id(5)
    gen_id(5)
    # the planar tensor and the seam-free insertion build their diagrams
    # without a generator constructor, so they check the shape themselves
    with configure(max_strands=3):
        with pytest.raises(ValueError, match="exceeds the configured limit"):
            tensor(gen_id(2), gen_id(2))
        with pytest.raises(ValueError, match="exceeds the configured limit"):
            iota(gen_id(3))
    assert tensor(gen_id(2), gen_id(2)) == iota(gen_id(3))


def test_generator_memo_is_cleared_with_the_pool():
    id_diagram(3)
    clear_caches()
    # a memo that outlived the pool would hand out a diagram compose no
    # longer interns, so the two would be equal but not identical
    assert id_diagram(3) is compose(id_diagram(3), id_diagram(3))[0]


def test_memoized_generator_is_still_guarded():
    d_diagram(5, 1)
    with configure(max_strands=3):
        with pytest.raises(ValueError, match="exceeds the configured limit"):
            d_diagram(5, 1)
        with pytest.raises(ValueError, match="exceeds the configured limit"):
            cup_diagram(2, 0)


def test_generators_take_keyword_arguments():
    # the memo binds keywords to the signature before the guard and the lookup
    assert d_diagram(3, e=-1) is d_diagram(3, -1)
    assert cup_diagram(n=3, i=1) is cup_diagram(3, 1)
    with configure(max_strands=4):
        with pytest.raises(ValueError, match="exceeds the configured limit"):
            cup_diagram(n=3, i=1)


# -- morphism algebra --------------------------------------------------------


def test_linear_combinations():
    s = crossing(2, 1)
    assert s == gen_id(2) + gen_u(2, 1)
    assert s - gen_u(2, 1) == gen_id(2)
    assert s.scale(HALF) + s.scale(HALF) == s
    assert (s - s).is_zero()
    assert GaussianRational(3) * gen_id(2) == gen_id(2).scale(GaussianRational(3))


def test_zero_morphism():
    z = Morphism.zero(2, 0)
    assert z.is_zero()
    assert (z * gen_cup(0, 0)).is_zero()
    assert z + z == z


def test_sorted_terms_deterministic():
    m = crossing(3, 0) * crossing(3, 2) + gen_id(3).scale(HALF)
    assert m.sorted_terms() == m.sorted_terms()
    keys = [str(d) for d, _ in m.sorted_terms()]
    assert keys == sorted(keys, key=lambda s: (len(s), s))


def test_str_format():
    assert str(gen_d(1, 1)) == "1->1: (1) {I0-L0, O0-R0}"
    assert str(Morphism.zero(1, 1)) == "0: 1->1"


def test_json_round_trip_frozen():
    m = gen_u(2, 0).scale(HALF) - gen_d(2, 1)
    text = m.dumps()
    assert Morphism.loads(text) == m
    assert m.dumps() == text  # byte-identical on repeat


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_json_round_trip_random(seed, n):
    m = random_single_diagram(random.Random(seed), n, 6)
    assert Morphism.loads(m.dumps()) == m


def test_rejected_json_diagram_stays_out_of_the_pool():
    crossed = {"seam": 0, "ess": 0, "arcs": [["I0", "O1"], ["I1", "O0"]]}
    before = len(_POOL)
    with pytest.raises(ValueError, match="cross"):
        Morphism.from_json_obj({"dom": 2, "cod": 2, "terms": [{"coeff": "1", "diagram": crossed}]})
    assert len(_POOL) == before


# one JSON diagram per refusal of the validator: (dom, cod, diagram, message)
_REFUSALS = [
    (1, 1, {"seam": -1, "ess": 0, "arcs": []}, "negative size field"),
    (1, 1, {"seam": 0, "ess": 0, "arcs": []}, "arcs are not a perfect matching on the boundary"),
    (1, 1, {"seam": 0, "ess": 0, "arcs": [["I0", "I1"]]}, "point ('I', 1) out of range"),
    (2, 2, {"seam": 0, "ess": 0, "arcs": [["I0", "I1"], ["I0", "O1"]]}, "point ('I', 0) used twice"),
    (2, 0, {"seam": 0, "ess": 0, "arcs": [["I0", "I0"]]}, "point ('I', 0) used twice"),
    (2, 2, {"seam": 0, "ess": 0, "arcs": [["I0", "O1"], ["I1", "O0"]]}, "arcs cross near ('O', 1)"),
    (0, 0, {"seam": 1, "ess": 0, "arcs": [["L0", "R0"]]}, "reducible: essential circle at level 0"),
    (0, 2, {"seam": 2, "ess": 0, "arcs": [["L0", "L1"], ["R0", "O0"], ["R1", "O1"]]},
     "reducible: L-edge arc at levels 0,1"),
    (0, 2, {"seam": 2, "ess": 0, "arcs": [["R0", "R1"], ["O0", "L1"], ["O1", "L0"]]},
     "reducible: R-edge arc at levels 0,1"),
    (1, 1, {"seam": 0, "ess": 1, "arcs": [["I0", "O0"]]}, "through strand coexists with an essential circle"),
]


@pytest.mark.parametrize("dom, cod, obj, message", _REFUSALS)
def test_every_refusal_of_the_json_reader(dom, cod, obj, message):
    before = len(_POOL)
    with pytest.raises(ValueError) as err:
        Morphism.from_json_obj({"dom": dom, "cod": cod, "terms": [{"coeff": "1", "diagram": obj}]})
    assert str(err.value) == message
    assert len(_POOL) == before


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_every_engine_diagram_validates(mode):
    pool = reference_inputs(mode)
    if mode == "quotient":
        pool += wound_diagrams(random.Random(20261019), 200, 40)
    for d in pool:
        d.validate()


def test_make_diagram_refuses_a_point_outside_its_block():
    # one input point has no I_1; its code would be 1, which is O_0, so
    # coding the cap I_0-I_1 blindly gives the identity
    id_diagram(1)
    before = len(_POOL)
    with pytest.raises(ValueError, match=r"point \('I', 1\) out of range"):
        make_diagram(1, 1, 0, 0, [(("I", 0), ("I", 1))])
    with pytest.raises(ValueError, match="used twice"):
        make_diagram(2, 0, 0, 0, [(("I", 0), ("I", 0))])
    assert len(_POOL) == before


def test_validate_reads_the_stored_code():
    # diagrams built around the pool, with codes no builder makes
    for codes, message in [
        ((0, 1), "arc endpoints coincide"),
        ((1, 2), "not a perfect matching"),
        ((1, 1), "not a perfect matching"),
        ((1,), "not a perfect matching"),
    ]:
        with pytest.raises(ValueError, match=message):
            diagram.AnnularDiagram(2, 0, 0, 0, codes).validate()
    # D^2 on one strand has the arc L_1-R_0: the code after the top L level
    # is R_0, not an L level 2
    wound = only_diagram(gen_d(1) * gen_d(1))
    assert wound.codes == (2, 5, 0, 4, 3, 1)
    wound.validate()


def test_json_shape_is_guarded_before_any_term_is_read():
    # one short arc on a boundary of a million points: validating the term
    # first would cost memory in proportion to the claimed shape
    arc = {"seam": 0, "ess": 0, "arcs": [["I0", "I1"]]}
    wide = {"dom": 10**6, "cod": 0, "terms": [{"coeff": "1", "diagram": arc}]}
    with configure(max_strands=3):
        with pytest.raises(ValueError, match="exceeds the configured limit"):
            Morphism.from_json_obj(wide)


def test_json_seam_is_checked_against_the_arcs_first(monkeypatch):
    # a claimed seam of 10^9 under one arc: building or validating the
    # partner code first would cost memory in proportion to the claim
    def too_early(*args):
        raise AssertionError("code built or validated before the arc count was checked")

    monkeypatch.setattr(diagram, "_code_of", too_early)
    monkeypatch.setattr(diagram, "_validate_code", too_early)
    deep = {"seam": 10**9, "ess": 0, "arcs": [["I0", "O0"]]}
    before = len(_POOL)
    with pytest.raises(ValueError, match="not a perfect matching"):
        Morphism.from_json_obj({"dom": 1, "cod": 1, "terms": [{"coeff": "1", "diagram": deep}]})
    assert len(_POOL) == before


def test_diagram_interning():
    a = only_diagram(gen_u(3, 1) * gen_u(3, 2))
    b = only_diagram(gen_u(3, 1) * gen_u(3, 2))
    assert a is b


def _contract_diagrams() -> list:
    """The diagrams of `projector_family()` and of seeded wound words."""
    family = [d for x in projector_family() for d in x.terms]
    return family + wound_diagrams(random.Random(20261020), 60, 30)


def test_every_rebuild_returns_the_pooled_object():
    # hash and == are the identity's, so each route back to a diagram must
    # give the one object the pool holds for it
    for d in _contract_diagrams():
        assert _POOL[d.dom, d.cod, d.seam, d.ess, d.codes] is d
        assert pickle.loads(pickle.dumps(d)) is d
        assert copy.copy(d) is d and copy.deepcopy(d) is d
        (loaded,) = Morphism.loads(Morphism.from_diagram(d).dumps()).terms
        assert loaded is d
        assert make_diagram(d.dom, d.cod, d.seam, d.ess, d.arcs) is d
        assert compose(d, id_diagram(d.cod))[0] is d
        assert compose(id_diagram(d.dom), d)[0] is d


def test_a_live_diagram_stays_interned_across_clear_caches():
    held, t4 = _contract_diagrams(), extremal(4)
    clear_caches()
    # built afresh: every memo is empty, so nothing hands back a held object
    rebuilt, again = _contract_diagrams(), extremal(4)
    assert again is not t4 and again == t4
    assert len(rebuilt) == len(held)
    assert all(a is b for a, b in zip(held + list(t4.terms), rebuilt + list(again.terms)))


def test_a_dropped_diagram_leaves_the_pool_with_clear_caches():
    # D^23 on five strands: 23 seam levels, which nothing else builds
    x = gen_d(5)
    for _ in range(22):
        x = gen_d(5) * x
    (d,) = x.terms
    key = (d.dom, d.cod, d.seam, d.ess, d.codes)
    assert d.seam == 23 and _POOL[key] is d
    del x, d
    clear_caches()
    assert key not in _POOL


def test_pickled_diagrams_are_interned_afresh():
    x = extremal(3)
    y = pickle.loads(pickle.dumps(x))
    assert y == x and {id(d) for d in y.terms} == {id(d) for d in x.terms}
    # str hashes are salted per process: load under another salt
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    dump = "import pickle, sys; from atlq import extremal; sys.stdout.buffer.write(pickle.dumps(extremal(3)))"
    load = (
        "import pickle, sys; from atlq import extremal; x = pickle.loads(sys.stdin.buffer.read()); "
        "want = extremal(3); print(x == want, {id(d) for d in x.terms} == {id(d) for d in want.terms})"
    )
    data = subprocess.run(
        [sys.executable, "-c", dump], env={**env, "PYTHONHASHSEED": "1"},
        capture_output=True, check=True, timeout=120,
    ).stdout
    done = subprocess.run(
        [sys.executable, "-c", load], env={**env, "PYTHONHASHSEED": "2"},
        input=data, capture_output=True, check=True, timeout=120,
    )
    assert done.stdout.decode().split() == ["True", "True"]
