"""The weight functor and exact sparse linear algebra over Q(i)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlq import (
    GaussianRational,
    Morphism,
    WeightMap,
    clear_caches,
    configure,
    enumerate_basis,
    extremal,
    extremal_matrix,
    gen_cap,
    gen_cup,
    gen_d,
    gen_id,
    gen_u,
    nested_cups,
    partial_trace,
    phi,
)
from atlq import rep
from atlq.diagram import id_diagram, make_diagram
from atlq.rep import rank_of_columns, sign_strings, solve_columns
from atlq.scalar import I, MINUS_I, MINUS_ONE, ONE, TWO, ZERO

from helpers import (
    compose_word,
    projector_family,
    random_combination,
    random_word,
    reference_inputs,
    reference_phase_map,
    reference_phases,
    reference_phi,
    reference_phi_diagram,
    reference_rank_of_columns,
    reference_solve_columns,
    reference_weightmap_mul,
    wound_diagrams,
)


# -- frozen generator images -------------------------------------------------


def test_sign_string_order():
    assert sign_strings(2) == ["++", "+-", "-+", "--"]
    assert sign_strings(0) == [""]


def test_rotation_is_diagonal_i():
    assert phi(gen_d(1, 1)) == WeightMap(1, 1, {("+", "+"): I, ("-", "-"): -I})
    assert phi(gen_d(1, -1)) == WeightMap(1, 1, {("+", "+"): -I, ("-", "-"): I})


def test_cap_cup_images():
    assert phi(gen_cap(2, 0)) == WeightMap(2, 0, {("", "+-"): MINUS_ONE, ("", "-+"): ONE})
    assert phi(gen_cup(0, 0)) == WeightMap(0, 2, {("+-", ""): ONE, ("-+", ""): MINUS_ONE})


def test_turnback_image():
    expected = WeightMap(2, 2, {
        ("+-", "+-"): MINUS_ONE,
        ("+-", "-+"): ONE,
        ("-+", "+-"): ONE,
        ("-+", "-+"): MINUS_ONE,
    })
    assert phi(gen_u(2, 1)) == expected
    assert expected.rank() == 1


def test_wrap_turnback_image_differs_from_interior():
    # U_0 is conjugate to U_1 by the rotation, so same rank, different map.
    m = phi(gen_u(2, 0))
    assert m != phi(gen_u(2, 1))
    assert m.rank() == 1
    d = phi(gen_d(2, 1))
    assert d * m == phi(gen_u(2, 1)) * d


# -- the closed form, strand by strand ----------------------------------------

# Hand-built diagrams, one per row of the quarter-turn table and per seam
# crossing direction, with their weight maps worked out from the rule.
# Each strand is named by its two orientations: (signs, phase) per entry.
_HAND_BUILT = {
    # I -> I: 2 from the lower index up, 0 back down
    "cap": ((2, 0, 0, [(("I", 0), ("I", 1))]),
            {("", "+-"): MINUS_ONE, ("", "-+"): ONE}),
    # O -> O: the same by index
    "cup": ((0, 2, 0, [(("O", 0), ("O", 1))]),
            {("-+", ""): MINUS_ONE, ("+-", ""): ONE}),
    # I -> O and O -> I: 0
    "through": ((2, 2, 0, [(("I", 0), ("O", 0)), (("I", 1), ("O", 1))]),
                {(s, s): ONE for s in ("++", "+-", "-+", "--")}),
    # D: I -> L exits left (+1), then R -> O; back: O -> R (2, exit +3), L -> I (2)
    "d": ((1, 1, 1, [(("I", 0), ("L", 0)), (("R", 0), ("O", 0))]),
          {("+", "+"): I, ("-", "-"): MINUS_I}),
    # D^-1: I -> R exits right (+3), then L -> O; back: O -> L (exit +1), R -> I
    "dinv": ((1, 1, 1, [(("I", 0), ("R", 0)), (("L", 0), ("O", 0))]),
             {("+", "+"): MINUS_I, ("-", "-"): I}),
    # U_0 on two strands: a cap and a cup that both cross the seam
    "u0": ((2, 2, 2, [(("I", 0), ("L", 0)), (("I", 1), ("R", 0)),
                      (("L", 1), ("O", 0)), (("O", 1), ("R", 1))]),
           {(r, c): MINUS_ONE for r in ("+-", "-+") for c in ("+-", "-+")}),
    # D^2 and D^-2 on one strand: an L <-> R segment between the two levels
    "twist": ((1, 1, 2, [(("I", 0), ("L", 0)), (("R", 0), ("L", 1)), (("R", 1), ("O", 0))]),
              {("+", "+"): MINUS_ONE, ("-", "-"): MINUS_ONE}),
    "twist_inv": ((1, 1, 2, [(("I", 0), ("R", 0)), (("L", 0), ("R", 1)), (("L", 1), ("O", 0))]),
                  {("+", "+"): MINUS_ONE, ("-", "-"): MINUS_ONE}),
    # a cap beside a through strand: the phases of different strands multiply
    "cap_beside_d": ((3, 1, 1, [(("I", 0), ("L", 0)), (("I", 1), ("I", 2)), (("R", 0), ("O", 0))]),
                     {("+", "++-"): MINUS_I, ("+", "+-+"): I,
                      ("-", "-+-"): I, ("-", "--+"): MINUS_I}),
}


@pytest.mark.parametrize("case", sorted(_HAND_BUILT))
def test_phi_diagram_hand_built(case):
    (dom, cod, seam, arcs), entries = _HAND_BUILT[case]
    d = make_diagram(dom, cod, seam, 0, arcs)
    d.validate()
    assert phi(Morphism.from_diagram(d)) == WeightMap(dom, cod, entries)


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_phi_diagram_matches_reference(mode):
    pool = reference_inputs(mode)
    assert max(d.seam for d in pool) >= 8
    if mode == "raw":
        assert any(d.ess for d in pool)
    for d in pool:
        got = phi(Morphism.from_diagram(d))
        assert got == reference_phi_diagram(d)
        if d.ess:
            assert got.is_zero()


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_phase_tables_match_reference(mode):
    # the sign-mask tables, each mask named through its shape's keys,
    # against the product over strand orientations, entry order included
    with configure(mode="quotient"):
        wound = wound_diagrams(random.Random("phases"), 400, 24)
    with configure(mode=mode):
        pool = [d for x in projector_family() for d in x.terms] + reference_inputs(mode)
        pool += wound + [b for n in range(6) for b in enumerate_basis(2 * n)]
        pool += [id_diagram(0), make_diagram(1, 1, 0, 1, [(("I", 0), ("O", 0))])]
        assert any(d.ess for d in pool) and max(d.seam for d in pool) >= 8
        for d in pool:
            keys = rep._shape_keys(d.dom, d.cod)
            assert tuple((keys[mask], k) for mask, k in rep._phases(d)) == reference_phases(d)


def test_sign_strings_are_made_on_first_use():
    # a 0 -> 16 diagram has 2^8 rows among the 2^16 strings of length 16
    clear_caches()
    phi(nested_cups(8))
    assert 0 < len(rep._SIGN_STRINGS[16]) <= 256


def _seeded_combinations(mode: str) -> list:
    """Seeded combinations of the reference diagrams, three of each shape."""
    by_shape: dict[tuple[int, int], list] = {}
    for d in reference_inputs(mode):
        by_shape.setdefault((d.dom, d.cod), []).append(d)
    rng = random.Random(f"phi-{mode}")
    return [random_combination(rng, ds, rng.randint(1, 12))
            for _, ds in sorted(by_shape.items()) for _ in range(3)]


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_phi_is_the_sum_of_its_diagram_images(mode):
    for x in projector_family() + _seeded_combinations(mode):
        want = WeightMap._sum(x.dom, x.cod, (
            (key, c * v)
            for d, c in x.terms.items()
            for key, v in reference_phase_map(d).entries.items()
        ))
        assert list(phi(x).entries.items()) == list(want.entries.items())


def _packing_edge_cases(mode: str) -> list:
    """Morphisms whose packed sums sit at the edges of the one-int fold."""
    t5 = extremal(5)
    big = GaussianRational(Fraction(3**45 + 1, 3), Fraction(-(7**30), 7))
    out = [
        t5.scale(big),
        t5 - t5.scale(I),
        Morphism.zero(2, 2),
        # one term scaled by a power of two, read off its table
        gen_u(3, 1).scale(2**70),
        gen_d(2, 1).scale(GaussianRational(-(2**40), 1)),
        # two terms whose diagonal sums reach the bound B = 2^71
        gen_id(3).scale(2**70) - gen_u(3, 1).scale(2**70),
    ]
    # negative real parts against positive imaginary ones, past 2^64, over
    # mixed denominators
    rng = random.Random(f"packed-{mode}")
    for x in projector_family()[:4]:
        out.append(Morphism(x.dom, x.cod, {
            d: GaussianRational(Fraction(-rng.randrange(2**70), rng.choice((1, 3, 7, 21))),
                                Fraction(rng.randrange(2**66), rng.choice((1, 3, 7))))
            for d in x.terms
        }))
    # nonzero morphisms whose every sum cancels to exactly 0
    with configure(mode="quotient"):
        out += [t5 * gen_u(5, 1), partial_trace(extremal(4)) + extremal(3)]
    return out


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_phi_packed_fold_is_exact(mode):
    # the one-int fold keyed by sign masks against the fold of two
    # numerators per (row, col) key: the same entries in the same order
    with configure(mode=mode):
        cases = projector_family() + _seeded_combinations(mode) + _packing_edge_cases(mode)
        if mode == "raw":
            assert any(d.ess for x in cases for d in x.terms)
        for x in cases:
            assert list(phi(x).entries.items()) == list(reference_phi(x).entries.items())
    # T_5's 9,312 entry updates leave 2 entries
    assert len(phi(extremal(5)).entries) == 2
    assert all(x.terms and phi(x).is_zero() for x in cases[-2:])


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_phi_of_one_term_matches_the_fold(mode):
    # a one-term operand is read off its phase table, not folded
    coeffs = [ONE, I, GaussianRational(Fraction(-1, 3), 2), GaussianRational(Fraction(5, 7))]
    pool = reference_inputs(mode)
    if mode == "raw":
        assert any(d.ess for d in pool)
    for d in pool:
        for c in coeffs:
            x = Morphism.from_diagram(d, c)
            got = phi(x)
            assert list(got.entries.items()) == list(reference_phi(x).entries.items())
            assert got.is_zero() == bool(d.ess)


@pytest.mark.parametrize("mode", ["quotient", "raw"])
def test_weightmap_mul_matches_reference(mode):
    # the integer fold gives the entries of the GaussianRational fold, in
    # the same key order
    family = [phi(x) for x in projector_family()]
    maps = family + [phi(x) for x in _seeded_combinations(mode)]
    rng = random.Random(f"weightmap-mul-{mode}")
    pairs = [(a, b) for a in family for b in family if a.dom == b.cod]
    pairs += [(a, rng.choice([b for b in maps if b.cod == a.dom])) for a in maps]
    for a, b in pairs:
        got, want = a * b, reference_weightmap_mul(a, b)
        assert list(got.entries.items()) == list(want.entries.items())


# -- algebra -----------------------------------------------------------------


def test_identity_and_zero():
    assert phi(gen_id(3)) == WeightMap.identity(3)
    assert WeightMap.identity(2) == WeightMap.identity(1).tensor(WeightMap.identity(1))
    assert WeightMap.zero(2, 2).is_zero()
    assert (phi(gen_u(2, 1)) + phi(gen_u(2, 1)).scale(MINUS_ONE)).is_zero()


def test_functorial_on_seeded_words():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(1, 4)
        word = random_word(rng, n, 5)
        x = compose_word(word, n)
        prod = WeightMap.identity(n)
        for letter in word:
            prod = prod * phi(letter)
        assert phi(x) == prod


def test_phi_is_linear():
    rng = random.Random(5)
    samples = [extremal(3)] + [compose_word(random_word(rng, n, 5), n) for n in (1, 2, 3, 3)]
    for x in samples:
        y = compose_word(random_word(rng, x.dom, 5), x.dom)
        assert phi(x + y - y) == phi(x)
        assert phi(x + x) == phi(x).scale(2)
        by_terms = WeightMap.zero(x.dom, x.cod)
        for d, c in x.terms.items():
            by_terms = by_terms + reference_phase_map(d).scale(c)
        assert phi(x) == by_terms


def test_mul_shape_check():
    with pytest.raises(ValueError):
        phi(gen_u(2, 1)) * WeightMap.identity(3)


def test_columns():
    cols = phi(gen_cap(2, 0)).columns()
    assert cols["+-"] == {"": MINUS_ONE}
    assert set(cols) == {"+-", "-+"}


def test_swap_signs_conjugates_rotation():
    assert phi(gen_d(1, 1)).swap_signs() == phi(gen_d(1, -1))
    assert phi(gen_u(3, 1)).swap_signs() == phi(gen_u(3, 1))


def test_rank_of_identity():
    assert WeightMap.identity(3).rank() == 8


# -- hand-written projector target -------------------------------------------


def test_extremal_matrix_shape():
    assert extremal_matrix(0) == WeightMap(0, 0, {("", ""): TWO})
    assert extremal_matrix(2) == WeightMap(
        2, 2, {("++", "++"): ONE, ("--", "--"): ONE}
    )
    assert extremal_matrix(5).rank() == 2
    assert extremal_matrix(3).swap_signs() == extremal_matrix(3)
    with pytest.raises(ValueError):
        extremal_matrix(-1)


# -- sparse solving ----------------------------------------------------------


def test_rank_of_columns_small():
    one = GaussianRational(1)
    cols = [{"a": one}, {"a": one, "b": one}, {"b": one}]
    assert rank_of_columns(cols) == 2
    assert rank_of_columns([]) == 0
    assert rank_of_columns([{}]) == 0


def test_solve_columns_exact():
    one = GaussianRational(1)
    cols = [{"a": one}, {"b": one, "a": I}]
    sol = solve_columns(cols, {"a": GaussianRational(2) + I, "b": one})
    assert sol == [GaussianRational(2), ONE]
    assert solve_columns(cols, {"c": one}) is None


def test_solve_columns_rejects_dependent_family():
    one = GaussianRational(1)
    with pytest.raises(ValueError):
        solve_columns([{"a": one}, {"a": one + one}], {"a": one})
    # the one row of a 0-strand weight vector is the empty string
    with pytest.raises(ValueError):
        solve_columns([{"": one}, {"": TWO}], {"": one})


def test_solve_columns_takes_any_row_name():
    # rows are only names: "~0" was once also the name of a hidden tag row
    assert solve_columns([{"~0": ONE}], {"~0": TWO}) == [TWO]
    assert solve_columns([{"~0": ONE}, {"~1": I}], {"~1": ONE}) == [ZERO, MINUS_I]


small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
gaussians = st.builds(GaussianRational, small, small)


@st.composite
def independent_family(draw):
    """Sparse columns over the sign strings of 0..3 strands, independent by construction.

    Column j is nonzero at its own row p_j and zero at every other p_i, so
    the family restricted to the p rows is diagonal; then random column
    operations col_j += a * col_i mix it without losing independence.
    """
    rows = sign_strings(draw(st.integers(0, 3)))
    own = draw(st.lists(st.sampled_from(rows), unique=True, max_size=len(rows)))
    free = [r for r in rows if r not in own]
    cols = []
    for p in own:
        col = {p: draw(gaussians.filter(bool))}
        for r in draw(st.lists(st.sampled_from(free), unique=True)) if free else ():
            col[r] = draw(gaussians)
        cols.append(col)
    for _ in range(draw(st.integers(0, 6)) if len(cols) > 1 else 0):
        i, j = draw(st.lists(st.integers(0, len(cols) - 1), min_size=2, max_size=2, unique=True))
        a = draw(gaussians)
        cols[j] = {r: cols[j].get(r, ZERO) + a * cols[i].get(r, ZERO) for r in {*cols[i], *cols[j]}}
    return cols


def _combine(cols, coeffs) -> dict:
    out: dict = {}
    for c, col in zip(coeffs, cols):
        for r, v in col.items():
            out[r] = out.get(r, ZERO) + c * v
    return out


@settings(max_examples=60, deadline=None)
@given(independent_family(), st.data())
def test_solve_recovers_random_coefficients(cols, data):
    coeffs = [data.draw(gaussians) for _ in cols]
    target = _combine(cols, coeffs)
    assert solve_columns(cols, target) == coeffs
    assert rank_of_columns(cols) == len(cols)
    assert rank_of_columns(cols + [target]) == len(cols)


# pivot values whose inverse is no Gaussian integer: the pivot's numerators
# need a denominator P != 1
NON_UNIT_PIVOTS = [GaussianRational(1, 1), TWO, GaussianRational(Fraction(3, 4))]


@st.composite
def column_family(draw):
    """(rows, columns): sparse columns over sign strings, maybe dependent.

    Entries have mixed denominators; some columns combine earlier ones, and
    some hold a non-unit entry at their least row.
    """
    rows = sign_strings(draw(st.integers(0, 3)))
    cols = []
    for _ in range(draw(st.integers(0, min(len(rows) + 1, 5)))):
        if cols and draw(st.integers(0, 3)) == 0:
            cols.append(_combine(cols, [draw(gaussians) for _ in cols]))
            continue
        support = draw(st.lists(st.sampled_from(rows), min_size=1, unique=True))
        col = {r: draw(gaussians) for r in support}
        if draw(st.booleans()):
            col[min(col)] = draw(st.sampled_from(NON_UNIT_PIVOTS))
        cols.append(col)
    return rows, cols


def _outcome(solve, cols, target):
    try:
        return solve(cols, target)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(column_family(), st.data())
def test_elimination_matches_reference(family, data):
    rows, cols = family
    assert rank_of_columns(cols) == reference_rank_of_columns(cols)
    if data.draw(st.booleans()):
        target = _combine(cols, [data.draw(gaussians) for _ in cols])
    else:
        target = {r: data.draw(gaussians) for r in data.draw(st.lists(st.sampled_from(rows)))}
    want = _outcome(reference_solve_columns, cols, target)
    assert _outcome(solve_columns, cols, target) == want


# -- serialization -----------------------------------------------------------


def test_json_round_trip():
    m = phi(gen_u(2, 0)).scale(GaussianRational(1, 2))
    text = m.dumps()
    assert WeightMap.loads(text) == m
    assert m.dumps() == text


def test_json_repeated_entries_add():
    twice = {"dom": 1, "cod": 1, "entries": [["+", "+", "1"], ["+", "+", "1"]]}
    assert WeightMap.from_json_obj(twice) == WeightMap(1, 1, {("+", "+"): TWO})
    cancel = {"dom": 1, "cod": 1, "entries": [["+", "+", "1"], ["+", "+", "-1"]]}
    assert WeightMap.from_json_obj(cancel).is_zero()


@pytest.mark.parametrize("dom", ["1", True, 1.0])
def test_json_shape_must_be_an_integer(dom):
    with pytest.raises(ValueError, match="'dom' must be a JSON integer"):
        WeightMap.from_json_obj({"dom": dom, "cod": 1, "entries": []})


# each once raised RecursionError, TypeError or KeyError from the reader
_ID_TERM = {"diagram": {"seam": 0, "ess": 0, "arcs": [["I0", "O0"]]}, "coeff": "1"}


@pytest.mark.parametrize("cls", [Morphism, WeightMap])
@pytest.mark.parametrize("read, arg", [
    ("loads", "[" * 100000 + "]" * 100000),
    ("from_json_obj", []),
    ("from_json_obj", "dom"),
    ("from_json_obj", {"dom": 1, "cod": 1}),
    ("from_json_obj", {"dom": 1, "cod": 1, "terms": 5, "entries": 5}),
    ("from_json_obj", {"dom": 1, "cod": 1, "terms": [5], "entries": [5]}),
    ("from_json_obj", {"dom": 1, "cod": 1, "terms": [{**_ID_TERM, "coeff": 5}],
                       "entries": [["+", "+", 5]]}),
], ids=["deep", "list", "str", "missing", "int-body", "int-item", "int-coeff"])
def test_json_readers_raise_only_value_error(cls, read, arg):
    with pytest.raises(ValueError, match="malformed JSON"):
        getattr(cls, read)(arg)
