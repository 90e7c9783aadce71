"""Exact scalars: Gaussian rationals a + b*i with a, b in Q.

Every coefficient in this package lives in Q(i).  Diagram reductions only
ever multiply by -2 and by fourth roots of unity, and the projector
recursions divide by small integers, so one common denominator is all we
need: a `GaussianRational` is three ints (a, b, d) meaning (a + b*i)/d,
with d > 0 and gcd(a, b, d) == 1.  Every value has exactly one such form,
so `==` and `hash` compare the three ints.  No floats anywhere.

String format is "a+bi" with rationals printed as n/d and a unit imaginary
coefficient left implicit:

>>> print(GaussianRational.parse("1/2-i") * GaussianRational.parse("i"))
1+1/2i

`Combination` is a finite sum of keys with coefficients in Q(i), read as
a map dom -> cod.  Both linear objects of the package are such sums: a
`Morphism` sums diagrams, a `WeightMap` sums matrix units.

The loops that fold a product into such a sum (`diagram.mor_compose`,
the strand insertions of `planar`, `rep.phi`, `WeightMap.__mul__`) never
build a `GaussianRational` per pair.  They add raw integer numerators and
reduce each output key once: one gcd per key, not one per multiply and
add.  `mor_compose` (through `diagram.compose_sums`), the insertions
and `*` add as `accumulate` does, rescaling only where denominators
differ, and `Combination._from_sums` reduces; `projectors._overlap`
puts its left factor over one denominator and runs every letter of its
right factor through `compose_sums` before it reduces once; `rep.phi`
puts its operand over one denominator first and packs both numerators
of each sum into one int.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import wraps
from math import gcd, lcm

_TERM = re.compile(r"\s*(?P<sign>[+-]?)\s*(?P<mag>\d+(?:/\d+)?)?(?P<unit>i)?")


class GaussianRational:
    """The Gaussian rational (a + b*i)/d, immutable.

    Invariant: a, b, d are ints, d > 0 and gcd(a, b, d) == 1, so equal
    values have equal (a, b, d).  Construct from the rational parts,
    `GaussianRational(re, im)` with ints or Fractions; `re` and `im` read
    them back as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re: Fraction | int = 0, im: Fraction | int = 0):
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        return _make(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not by setting slots
        return (GaussianRational, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: GaussianRational) -> GaussianRational:
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _make(self.a + other.a, self.b + other.b, d1)
        return _make(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    def __sub__(self, other: GaussianRational) -> GaussianRational:
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _make(self.a - other.a, self.b - other.b, d1)
        return _make(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __neg__(self) -> GaussianRational:
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: GaussianRational) -> GaussianRational:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        # real factors dominate in practice; skip the cross terms for them
        if not b1:
            return _make(a1 * a2, a1 * b2, self.d * other.d)
        if not b2:
            return _make(a1 * a2, b1 * a2, self.d * other.d)
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def __truediv__(self, other: GaussianRational) -> GaussianRational:
        return self * other.inverse()

    def inverse(self) -> GaussianRational:
        # d / (a + b*i) = d * (a - b*i) / (a^2 + b^2)
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _make(d * a, -d * b, n)

    def conjugate(self) -> GaussianRational:
        return _make(self.a, -self.b, self.d)

    def __pow__(self, k: int) -> GaussianRational:
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def is_zero(self) -> bool:
        return not self

    # -- parsing / printing ----------------------------------------------

    @classmethod
    def parse(cls, text: str) -> GaussianRational:
        """Parse "a+bi" and the usual degenerate forms ("-2", "i", "3/4i").

        >>> GaussianRational.parse("-1/2+2i")
        GaussianRational(Fraction(-1, 2), Fraction(2, 1))
        """
        re_part = im_part = None
        pos = 0
        while pos < len(text):
            m = _TERM.match(text, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"bad scalar literal: {text!r}")
            sign = -1 if m.group("sign") == "-" else 1
            mag, unit = m.group("mag"), m.group("unit")
            if mag is None and unit is None:
                raise ValueError(f"bad scalar literal: {text!r}")
            try:
                value = sign * (Fraction(mag) if mag is not None else 1)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in scalar literal: {text!r}") from None
            if unit:
                if im_part is not None:
                    raise ValueError(f"bad scalar literal: {text!r}")
                im_part = value
            else:
                if re_part is not None:
                    raise ValueError(f"bad scalar literal: {text!r}")
                re_part = value
            pos = m.end()
        if re_part is None and im_part is None:
            raise ValueError(f"bad scalar literal: {text!r}")
        return cls(re_part or 0, im_part or 0)

    def __str__(self) -> str:
        if not self:
            return "0"
        re, im = self.re, self.im
        parts = []
        if re:
            parts.append(str(re))
        if im:
            mag = abs(im)
            body = "i" if mag == 1 else f"{mag}i"
            if im < 0:
                parts.append("-" + body)
            elif parts:
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_setattr = object.__setattr__
_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b*i)/d for ints a, b and d > 0, reduced."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


# -- unreduced sums --------------------------------------------------------
#
# A sum being folded maps each key to a list [a, b, d] of ints meaning
# (a + b*i)/d, not reduced.  Adding a value over the entry's denominator
# is two int adds; any other denominator rescales both to their lcm, never
# to their product, so d stays bounded by the lcm of the values added.
# `Combination._from_sums` reduces each entry once, at the end.  `rep.phi`
# keeps no such lists: it scales its operand to the lcm of all its
# denominators before it folds, and then each sum is one int holding both
# numerators, so an add is one int add.


def accumulate(acc: dict, key, a: int, b: int, d: int) -> None:
    """Add (a + b*i)/d, for ints a, b and d > 0, to the sum acc[key]."""
    e = acc.get(key)
    if e is None:
        acc[key] = [a, b, d]
    elif e[2] == d:
        e[0] += a
        e[1] += b
    else:
        add_rescaled(e, a, b, d)


def add_rescaled(e: list, a: int, b: int, d: int) -> None:
    """Add (a + b*i)/d to the entry e = [a', b', d'] over lcm(d, d')."""
    m = lcm(e[2], d)
    if m != e[2]:
        f = m // e[2]
        e[0] *= f
        e[1] *= f
        e[2] = m
    f = m // d
    e[0] += a * f
    e[1] += b * f


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
TWO = GaussianRational(2)
MINUS_TWO = GaussianRational(-2)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)
HALF = GaussianRational(Fraction(1, 2))


def json_int(value, name: str) -> int:
    """The JSON field `name` as an int; a bool, string or float is refused."""
    if type(value) is not int:
        raise ValueError(f"{name!r} must be a JSON integer, not {value!r}")
    return value


def json_reader(read):
    """Report malformed JSON as a ValueError alone.

    A missing key, a value of the wrong type and nesting deeper than the
    JSON parser can follow raise KeyError, TypeError and RecursionError
    from inside a reader; the caller sees them as one ValueError.
    """

    @wraps(read)
    def checked(*args):
        try:
            return read(*args)
        except (KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed JSON ({type(exc).__name__}: {exc})") from None

    return checked


class Combination:
    """A finite Q(i)-linear combination of keys, with a shape dom -> cod.

    `terms` maps each key to its nonzero coefficient.  Subclasses give the
    shape (dom, cod) of a key as the static method `_key_shape`, JSON text
    (`to_json_obj`, `from_json_obj`) and printing; the linear structure,
    equality and the key check live here.
    """

    __slots__ = ("dom", "cod", "terms")

    def __init__(self, dom: int, cod: int, terms: dict | None = None):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        shape = (dom, cod)
        key_shape = self._key_shape
        clean = {}
        for k, c in (terms or {}).items():
            if key_shape(k) != shape:
                raise self._misfit(k, dom, cod)
            if c:
                clean[k] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _misfit(cls, key, dom: int, cod: int) -> ValueError:
        kd, kc = cls._key_shape(key)
        return ValueError(f"a {kd}->{kc} term does not fit {cls.__name__} {dom}->{cod}")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # through the constructor, so an unpickled combination is key-checked too
        return (type(self), (self.dom, self.cod, self.terms))

    @classmethod
    def zero(cls, dom: int, cod: int):
        return cls(dom, cod)

    @classmethod
    def _sum(cls, dom: int, cod: int, pairs):
        """The combination of the (key, coefficient) pairs, repeated keys added."""
        acc: dict = {}
        for k, c in pairs:
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
        return cls(dom, cod, acc)

    @classmethod
    def _from_sums(cls, dom: int, cod: int, acc: dict):
        """The combination of the unreduced sums of `accumulate`, each reduced once."""
        shape = (dom, cod)
        key_shape = cls._key_shape
        clean = {}
        for k, (a, b, d) in acc.items():
            if key_shape(k) != shape:
                raise cls._misfit(k, dom, cod)
            if a or b:
                clean[k] = _make(a, b, d)
        return cls._checked(dom, cod, clean)

    @classmethod
    def _checked(cls, dom: int, cod: int, terms: dict):
        """The combination of `terms`, known to be nonzero and to fit dom -> cod.

        The slots are set directly: __init__ would check every key again.
        """
        out = _new(cls)
        _setattr(out, "dom", dom)
        _setattr(out, "cod", cod)
        _setattr(out, "terms", terms)
        return out

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise ValueError(
                f"shape mismatch: {self.dom}->{self.cod} vs {other.dom}->{other.cod}"
            )
        terms = dict(self.terms)
        for k, c in other.terms.items():
            prev = terms.get(k)
            if prev is None:
                terms[k] = c
            elif total := prev + c:
                terms[k] = total
            else:
                del terms[k]
        return self._checked(self.dom, self.cod, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._checked(self.dom, self.cod, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if not isinstance(c, GaussianRational):
            c = GaussianRational(c)
        # a product of two nonzero numbers is nonzero
        terms = {k: v * c for k, v in self.terms.items()} if c else {}
        return self._checked(self.dom, self.cod, terms)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- serialization ----------------------------------------------------------

    def dumps(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_obj(), indent=indent)

    @classmethod
    @json_reader
    def loads(cls, text: str):
        return cls.from_json_obj(json.loads(text))
