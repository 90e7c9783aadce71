"""Annular diagram encoding, composition, and the morphism layer."""

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
    configure,
    crossing,
    extremal,
    gen_cap,
    gen_cup,
    gen_d,
    gen_id,
    gen_u,
    highest_weight,
    iota,
    jones_wenzl,
    lowest_weight,
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
    point_key,
    u0_diagram,
)
from atlq.scalar import HALF, MINUS_TWO, ONE

from helpers import random_single_diagram, reference_compose


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


def _reference_inputs(mode: str) -> list:
    """Distinct diagrams from the projector builds and seeded products, sorted."""
    built = [extremal(m) for m in range(2, 6)] + [jones_wenzl(m) for m in range(2, 7)]
    built += [highest_weight(m) for m in range(2, 5)] + [lowest_weight(m) for m in range(2, 5)]
    rng = random.Random(f"compose-{mode}")
    with configure(mode=mode):
        for _ in range(150):
            n = rng.randrange(1, 7)
            built.append(random_single_diagram(rng, n, 10))
            # U_0 and D^+-1 pile up seam levels; caps and cups change the
            # shape, and closing a winding word with both makes essential circles
            word = gen_id(n)
            for _ in range(rng.randrange(1, 6)):
                letter = gen_u(n, 0) if n >= 2 and rng.random() < 0.5 else gen_d(n, rng.choice((1, -1)))
                word = word * letter
            built.append(word)
            if n >= 2:
                cap, cup = gen_cap(n, rng.randrange(n - 1)), gen_cup(n - 2, rng.randrange(n - 1))
                built += [cap * word, word * cup, cap * word * cup]
    diagrams = {d for x in built for d in x.terms}
    return sorted(diagrams, key=lambda d: (
        d.dom, d.cod, d.seam, d.ess, [(point_key(p), point_key(q)) for p, q in d.arcs]
    ))


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_compose_matches_reference(mode):
    pool = _reference_inputs(mode)
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


def test_json_shape_is_guarded_before_any_term_is_read():
    # one short arc on a boundary of a million points: validating the term
    # first would cost memory in proportion to the claimed shape
    arc = {"seam": 0, "ess": 0, "arcs": [["I0", "I1"]]}
    wide = {"dom": 10**6, "cod": 0, "terms": [{"coeff": "1", "diagram": arc}]}
    with configure(max_strands=3):
        with pytest.raises(ValueError, match="exceeds the configured limit"):
            Morphism.from_json_obj(wide)


def test_diagram_interning():
    a = only_diagram(gen_u(3, 1) * gen_u(3, 2))
    b = only_diagram(gen_u(3, 1) * gen_u(3, 2))
    assert a is b


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
