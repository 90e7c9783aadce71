"""Chebyshev polynomial layer and its link to projector ranks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from atlq import cheb_j, cheb_l, clear_caches, poly_str
from atlq.cheb import (
    X,
    j_from_l_identity,
    j_product_identity,
    l_product_identity,
    poly_add,
    poly_mul,
    poly_sub,
)

polys = st.lists(st.integers(-50, 50), max_size=6).map(tuple)


def test_first_kind_values():
    assert cheb_l(0) == (2,)
    assert cheb_l(1) == (0, 1)
    assert cheb_l(2) == (-2, 0, 1)
    assert cheb_l(3) == (0, -3, 0, 1)
    assert cheb_l(4) == (2, 0, -4, 0, 1)


def test_second_kind_values():
    assert cheb_j(0) == (1,)
    assert cheb_j(1) == (0, 1)
    assert cheb_j(2) == (-1, 0, 1)
    assert cheb_j(3) == (0, -2, 0, 1)
    assert cheb_j(4) == (1, 0, -3, 0, 1)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        cheb_l(-1)
    with pytest.raises(ValueError):
        cheb_j(-1)


def _eval(p, x):
    return sum(c * x**k for k, c in enumerate(p))


def test_large_index_does_not_depend_on_the_memo():
    # a cold call fills the memo upward instead of recursing 2000 deep
    for p in (cheb_l, cheb_j):
        clear_caches()
        cold = p(2000)
        clear_caches()
        for m in range(0, 2001, 100):  # warmed upward, each step shallow
            p(m)
        assert cold == p(2000) and len(cold) == 2001
        assert cold == poly_sub(poly_mul(X, p(1999)), p(1998))


def test_values_at_two():
    # x = 2 is the q = 1 specialization point: loops of both kinds
    # evaluate to their dimensions there.
    for m in range(10):
        assert _eval(cheb_l(m), 2) == 2
        assert _eval(cheb_j(m), 2) == m + 1


def test_poly_str_dense():
    assert poly_str(cheb_l(4)) == "X^4-4X^2+2"
    assert poly_str(cheb_j(2)) == "X^2-1"
    assert poly_str((2,)) == "2"
    assert poly_str(()) == "0"
    assert poly_str((0, 1)) == "X"


def test_product_identities():
    for m in range(13):
        for n in range(13):
            assert l_product_identity(m, n)
            assert j_product_identity(m, n)
    for m in range(2, 13):
        assert j_from_l_identity(m)


def test_first_kind_product_explicit():
    # L_m L_n = L_{m+n} + L_{|m-n|}
    assert poly_mul(cheb_l(2), cheb_l(1)) == poly_add(cheb_l(3), cheb_l(1))
    assert poly_mul(cheb_l(2), cheb_l(2)) == poly_add(cheb_l(4), cheb_l(0))


@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert poly_add(a, b) == poly_add(b, a)
    assert poly_mul(a, b) == poly_mul(b, a)
    assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))
    assert poly_sub(a, a) == ()

