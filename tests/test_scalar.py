"""Exact Gaussian-rational arithmetic."""

import copy
import pickle
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from atlq import Morphism, WeightMap
from atlq.diagram import id_diagram, u_diagram
from atlq.scalar import (
    HALF,
    I,
    MINUS_ONE,
    MINUS_TWO,
    ONE,
    ZERO,
    Combination,
    GaussianRational,
    accumulate,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(-1))
    assert a * I == GaussianRational(1, Fraction(1, 2))
    assert a + a == GaussianRational(1, -2)
    assert a - a == ZERO
    assert -a == GaussianRational(Fraction(-1, 2), 1)


def test_i_squares_to_minus_one():
    assert I * I == MINUS_ONE
    assert I**4 == ONE
    assert I**-1 == -I


def test_constants():
    assert ONE + ONE == -MINUS_TWO
    assert HALF + HALF == ONE
    assert not ZERO
    assert ONE


def test_parse_and_str():
    assert GaussianRational.parse("1+1/2i") == GaussianRational(1, Fraction(1, 2))
    assert GaussianRational.parse("-2") == MINUS_TWO
    assert GaussianRational.parse("i") == I
    assert GaussianRational.parse("-i") == -I
    assert str(GaussianRational(0, Fraction(-3, 4))) == "-3/4i"
    assert str(ZERO) == "0"


def test_parse_rejects_garbage():
    for text in ("one plus i", "1/0", "2+1/0i"):
        with pytest.raises(ValueError):
            GaussianRational.parse(text)


def test_division_and_inverse():
    a = GaussianRational(3, -2)
    assert a * a.inverse() == ONE
    assert (a / a) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_str_parse_round_trip(a):
    assert GaussianRational.parse(str(a)) == a


@given(gaussians)
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.im == 0
    assert (norm.re >= 0) is True


@given(gaussians)
def test_inverse_is_two_sided(a):
    if not a.is_zero():
        assert a.inverse() * a == ONE
        assert a ** -2 == (a.inverse()) ** 2


# -- the (a, b, d) kernel against plain pairs of Fractions ---------------------


def _pair_mul(x, y):
    (p, q), (r, s) = x, y
    return (p * r - q * s, p * s + q * r)


def _pair_pow(x, k):
    if k < 0:
        p, q = x
        n = p * p + q * q
        x, k = (p / n, -q / n), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _pair_mul(out, x)
    return out


def _reduced(z):
    """(re, im) of z, after checking the invariant of its (a, b, d) form."""
    assert type(z.a) is int and type(z.b) is int and type(z.d) is int
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return (z.re, z.im)


@given(rationals, rationals, rationals, rationals, st.integers(-4, 4))
def test_kernel_matches_fraction_pairs(p, q, r, s, k):
    a, b = GaussianRational(p, q), GaussianRational(r, s)
    assert _reduced(a) == (p, q) and _reduced(b) == (r, s)
    assert _reduced(a + b) == (p + r, q + s)
    assert _reduced(a - b) == (p - r, q - s)
    assert _reduced(-a) == (-p, -q)
    assert _reduced(a * b) == _pair_mul((p, q), (r, s))
    assert _reduced(a.conjugate()) == (p, -q)
    if a:
        n = p * p + q * q
        assert _reduced(a.inverse()) == (p / n, -q / n)
    if a or k >= 0:
        assert _reduced(a**k) == _pair_pow((p, q), k)


@pytest.mark.parametrize(
    "x, y",
    [
        (HALF + HALF, ONE),
        (GaussianRational(Fraction(2, 4)), HALF),
        (GaussianRational.parse("2/4-2/4i"), HALF - HALF * I),
        (GaussianRational(Fraction(1, 3), Fraction(1, 6)) * GaussianRational(6), GaussianRational(2, 1)),
        (I * I + ONE, ZERO),
    ],
)
def test_equal_values_have_one_form(x, y):
    assert x == y and hash(x) == hash(y)
    assert (x.a, x.b, x.d) == (y.a, y.b, y.d)


# -- unreduced sums against Fraction sums --------------------------------------

_UNITS = [("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")]


@given(st.lists(st.tuples(
    st.sampled_from(_UNITS),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.sampled_from((1, 2, 3, 4, 6, 8)),
)))
def test_accumulate_matches_fraction_sums(adds):
    acc: dict = {}
    want: dict = {}
    dens: dict = {}
    for key, a, b, d in adds:
        accumulate(acc, key, a, b, d)
        re, im = want.get(key, (Fraction(0), Fraction(0)))
        want[key] = (re + Fraction(a, d), im + Fraction(b, d))
        dens[key] = lcm(dens.get(key, 1), d)
    assert list(acc) == list(want)
    for key, (a, b, d) in acc.items():
        assert (Fraction(a, d), Fraction(b, d)) == want[key]
        # rescaled to the lcm of the denominators added, never their product
        assert d == dens[key]
    x = WeightMap._from_sums(1, 1, acc)
    assert [(k, _reduced(v)) for k, v in x.entries.items()] == [
        (k, v) for k, v in want.items() if any(v)
    ]


def test_accumulate_keeps_the_denominator_bounded():
    acc: dict = {}
    for j in range(1000):
        accumulate(acc, "k", 1, -1, 4 if j % 2 else 2)
    assert acc["k"] == [1500, -1500, 4]


# -- finite sums: the core shared by Morphism and WeightMap -------------------


@pytest.mark.parametrize(
    "cls, key, misfit",
    [
        (Morphism, u_diagram(2, 1), id_diagram(3)),
        (WeightMap, ("+-", "-+"), ("+", "+-")),
    ],
    ids=["Morphism", "WeightMap"],
)
def test_combination_core(cls, key, misfit):
    assert issubclass(cls, Combination)
    x = cls(2, 2, {key: HALF})
    assert cls(2, 2, {key: ZERO}).terms == {}
    assert cls._from_sums(2, 2, {key: [2, 0, 4]}) == x
    assert cls._from_sums(2, 2, {key: [0, 0, 3]}).terms == {}
    assert (x - x).terms == {} and (x - x).is_zero()
    assert x + x == x.scale(2) and hash(x + x) == hash(x.scale(2))
    assert -x == x.scale(-1)
    assert cls.loads(x.dumps()) == x
    with pytest.raises(ValueError):
        cls(2, 2, {misfit: ONE})
    with pytest.raises(ValueError):
        cls._from_sums(2, 2, {misfit: [1, 0, 1]})
    with pytest.raises(ValueError):
        x + cls.zero(3, 3)
    with pytest.raises(AttributeError):
        x.terms = {}
    with pytest.raises(AttributeError):
        x.dom = 3
    assert cls.zero(2, 3).is_zero()
    other = WeightMap if cls is Morphism else Morphism
    assert cls.zero(2, 2) != other.zero(2, 2)
    assert x != other(2, 2)


@pytest.mark.parametrize(
    "cls, key, other, misfit_json",
    [
        (Morphism, u_diagram(2, 1), id_diagram(2),
         '{"dom": 2, "cod": 2, "terms": [{"coeff": "1", "diagram": {"seam": 0, "arcs": [["I0", "O0"]]}}]}'),
        (WeightMap, ("+-", "-+"), ("++", "++"), '{"dom": 2, "cod": 2, "entries": [["+", "+-", "1"]]}'),
    ],
    ids=["Morphism", "WeightMap"],
)
def test_linear_structure_checks_no_key_again(cls, key, other, misfit_json, monkeypatch):
    x = cls(2, 2, {key: HALF, other: I})
    y = cls(2, 2, {other: -I, key: ONE})
    checked = []
    shape = cls._key_shape
    monkeypatch.setattr(cls, "_key_shape", staticmethod(lambda k: checked.append(k) or shape(k)))
    results = [x.scale(0), x + (-x), x + y, x - y, x.scale(I)]
    # keys taken from combinations of the same shape are not checked again
    assert checked == []
    assert results[0].is_zero() and results[1].is_zero()
    # zero sums are dropped, and the keys keep their first-occurrence order
    assert list(results[2].terms.items()) == [(key, HALF + ONE)]
    assert list(results[3].terms.items()) == [(key, HALF - ONE), (other, I + I)]
    assert results[3] == cls._sum(2, 2, [(key, HALF), (other, I), (key, -ONE), (other, I)])
    assert results[4] == cls(2, 2, {key: HALF * I, other: I * I})
    # construction and the JSON reader still check every key
    with pytest.raises(ValueError):
        cls(2, 2, {key: ONE, ("+", "+") if cls is WeightMap else id_diagram(3): ONE})
    with pytest.raises(ValueError):
        cls.loads(misfit_json)


@pytest.mark.parametrize(
    "value",
    [
        HALF,
        GaussianRational(Fraction(-3, 4), 5),
        Morphism(2, 2, {u_diagram(2, 1): HALF, id_diagram(2): I}),
        WeightMap(2, 2, {("+-", "-+"): HALF, ("++", "++"): MINUS_ONE}),
    ],
    ids=["GaussianRational", "complex", "Morphism", "WeightMap"],
)
def test_pickle_and_copy_round_trip(value):
    # both classes block assignment, so these must rebuild through the constructor
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
