"""The weight-space functor: diagrams acting on sign strings.

An n-strand object maps to the free Q(i)-module on length-n strings over
{+, -}.  The generators act by

* cap at slot i:   ...+-... -> -1,  ...-+... -> +1, the two slots removed,
  anything else killed;
* cup at slot i:   inserts +- with coefficient +1 and -+ with -1;
* rotation D:      s -> s[1:] + s[0] times i if s[0] is '+', else -i;
* rotation D^-1:   s -> s[-1] + s[:-1] times -i if s[-1] is '+', else i.

A diagram with essential circles maps to zero.  Any other diagram is
evaluated in closed form, tracing each strand once.  Follow a strand
from a boundary point through its arcs; on reaching L_t or R_t, go on
from the opposite edge at the same level (L_t <-> R_t) until an I or O
point.  Each of the strand's two orientations signs its ends '+' where
it runs upward: an I end where it starts and an O end where it stops
get '+', the other two '-'.  An orientation has the phase i^k, where k
adds up quarter turns over the strand's segments, each read in travel
order as (entry point -> exit point):

* I -> I and O -> O: 2 if the segment runs from the lower index to the
  higher, else 0;
* O -> R and L -> I: 2;
* every other segment (O -> L, R -> I, I <-> O, I -> L/R, L/R -> O,
  L <-> R): 0;
* plus 1 for an exit through L and 3 for an exit through R.

Canonical diagrams have no L-L or R-R arcs, so the table needs no rows
for them.  The weight map has one entry per choice of orientations of
all strands: the O signs give its row, the I signs its column, and the
strands' phases multiply.

Why this holds: the phase is a gauge of -1 for each horizontal tangent
a strand passes going right and +1 for each one it passes going left,
and a seam crossing, drawn slanting upward, gives i going left and -i
going right.  That reproduces the cap, cup and rotation rules above,
and gives -2 for a contractible circle (each of its two orientations
passes one tangent each way, a phase of -1) and 0 for an essential
circle (i + -i).

Each diagram's table of (mask, k) pairs is built once, on ints: an
orientation of all strands is a sign mask over the I and O points, with
the column's bits above the row's, and the list of masks doubles once
per strand and is sorted, which puts the entries in (column, row) order.
The tables hold no strings.  `phi` keeps each table it builds in
`_phi_cache`; `canon.basis_columns` reads a kept table but keeps none
that it builds, as a basis of C(2n, n) diagrams would fill the memo.

`phi` reads a one-term operand c * d straight off d's table: a table
holds each mask once, so each entry is c * i^k, one of four values shared
by all entries, and no sum is formed.  An operand of several terms is
folded.  `phi` scales every coefficient to one common denominator den and
packs each of its four turns c * i^k, numerators re + im*i, into
the one int re + (im << K).  Each table entry then adds one int to the
sum at its mask.  K is the bit length of B = den * sum(|a| + |b|) over
the operand's coefficients (a + b*i)/d, plus 2.  A table holds each mask
once, so the real part of a sum adds at most one numerator of each term,
and |sum re| <= B < 2^(K-2).  So a packed sum p has one split into
re + (im << K) with -2^(K-1) <= re < 2^(K-1), which the unpacking
im = (p + 2^(K-1)) >> K, re = p - (im << K) finds exactly, and p is 0
only where both parts are.  A mask becomes its (row, col) key only for
a sum that does not vanish, through a memo per shape whose sign strings
come from a memo per string length that makes each string on its first
use: a 0 -> 2n diagram has 2^n of the 4^n strings of its length.

A `WeightMap` stores only the nonzero entries as (output string, input
string) -> scalar.

This functor is faithful on the essential-circle quotient, which the test
suite witnesses by checking that the central binomial numbers of basis
diagrams stay linearly independent.  Faithfulness is what lets the rest of
the package verify identities between wound diagrams numerically and
exactly at the same time.
"""

from __future__ import annotations

from itertools import chain, product
from math import gcd, lcm

from .config import CACHE_CLEARS
from .diagram import AnnularDiagram, Morphism
from .scalar import I, MINUS_I, MINUS_ONE, ONE, ZERO, Combination, GaussianRational
from .scalar import _make, accumulate, json_int, json_reader


def sign_strings(n: int) -> list[str]:
    """All length-n sign strings in lexicographic order ('+' < '-')."""
    return ["".join(bits) for bits in product("+-", repeat=n)]


class WeightMap(Combination):
    """A sparse exact matrix indexed by sign strings.

    A `Combination` of matrix units: the key (row, col) is a pair of sign
    strings of lengths cod and dom.  Construction, +, -, scale, ==, hash,
    is_zero, zero, dumps and loads are inherited; `entries` is another
    name for `terms`.
    """

    __slots__ = ()
    entries = Combination.terms

    @staticmethod
    def _key_shape(key: tuple[str, str]) -> tuple[int, int]:
        return (len(key[1]), len(key[0]))

    @classmethod
    def identity(cls, n: int) -> WeightMap:
        return cls(n, n, {(s, s): ONE for s in sign_strings(n)})

    def __mul__(self, other: WeightMap) -> WeightMap:
        """Matrix product self . other (other applied first)."""
        if self.dom != other.cod:
            raise ValueError("shape mismatch in product")
        by_row: dict[str, list[tuple[str, int, int, int]]] = {}
        for (r, c), w in other.entries.items():
            by_row.setdefault(r, []).append((c, w.a, w.b, w.d))
        acc: dict[tuple[str, str], list[int]] = {}
        for (r, mid), v in self.entries.items():
            va, vb, vd = v.a, v.b, v.d
            for c, wa, wb, wd in by_row.get(mid, ()):
                accumulate(acc, (r, c), va * wa - vb * wb, va * wb + vb * wa, vd * wd)
        return WeightMap._from_sums(other.dom, self.cod, acc)

    def tensor(self, other: WeightMap) -> WeightMap:
        entries = {}
        for (r1, c1), v in self.entries.items():
            for (r2, c2), w in other.entries.items():
                entries[(r1 + r2, c1 + c2)] = v * w
        return WeightMap(self.dom + other.dom, self.cod + other.cod, entries)

    def columns(self) -> dict[str, dict[str, GaussianRational]]:
        cols: dict[str, dict[str, GaussianRational]] = {}
        for (r, c), v in self.entries.items():
            cols.setdefault(c, {})[r] = v
        return cols

    def rank(self) -> int:
        return rank_of_columns(list(self.columns().values()))

    def swap_signs(self) -> WeightMap:
        """Conjugate by the global + <-> - swap on both sides."""
        flip = str.maketrans("+-", "-+")
        return WeightMap(
            self.dom,
            self.cod,
            {(r.translate(flip), c.translate(flip)): v for (r, c), v in self.entries.items()},
        )

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "dom": self.dom,
            "cod": self.cod,
            "entries": [
                [r, c, str(v)] for (r, c), v in sorted(self.entries.items())
            ],
        }

    @classmethod
    @json_reader
    def from_json_obj(cls, obj: dict) -> WeightMap:
        return cls._sum(json_int(obj["dom"], "dom"), json_int(obj["cod"], "cod"), (
            ((r, c), GaussianRational.parse(v)) for r, c, v in obj["entries"]
        ))

    def __str__(self) -> str:
        if not self.entries:
            return f"0: {self.dom}->{self.cod}"
        bits = [f"{r}<-{c}: {v}" for (r, c), v in sorted(self.entries.items())]
        return f"{self.dom}->{self.cod} " + ", ".join(bits)

    def __repr__(self):
        return f"<WeightMap {self.dom}->{self.cod}, {len(self.entries)} entries>"


# -- evaluating diagrams ------------------------------------------------------


# a point's block by its code: I = 0, O = 1, L = 2, R = 3.  Quarter turns
# of a segment by (entry block, exit block), besides I-I and O-O arcs,
# which turn by index; and of an exit through the seam
_TURNS = {(1, 3): 2, (2, 0): 2}
_EXIT_TURNS = (0, 0, 1, 3)
_I_POWERS = (ONE, I, MINUS_ONE, MINUS_I)


def _turns(p: int, q: int, bp: int, bq: int) -> int:
    """Quarter turns of the segment p -> q in blocks bp, bq, its exit included."""
    if bp == bq:  # an I-I cap or an O-O cup
        k = 2 if p < q else 0
    else:
        k = _TURNS.get((bp, bq), 0)
    return k + _EXIT_TURNS[bq]


def _strands(d: AnnularDiagram):
    """(first end, last end, forward turns, backward turns) per strand of d.

    The ends are codes; a strand reaching L_t or R_t goes on from the other
    edge at the same level, a code `seam` away.
    """
    codes, m, k = d.codes, d.dom, d.seam
    lo = m + d.cod
    ro = lo + k
    done = set()
    for start in range(lo):
        if start in done:
            continue
        forward = backward = 0
        p, bp = start, int(start >= m)
        while True:
            q = codes[p]
            bq = 0 if q < m else 1 if q < lo else 2 if q < ro else 3
            forward += _turns(p, q, bp, bq)
            backward += _turns(q, p, bq, bp)
            if bq < 2:
                break
            p, bp = (q + k, 3) if bq == 2 else (q - k, 2)
        done.add(q)
        yield start, q, forward, backward


class _SignStrings(dict):
    """The length-n sign strings by mask, each made on first use.

    Bit n-1-j of the mask is set where the string has '-' at j, so masks
    order as their strings do.  A 0 -> 2n diagram has 2^n rows among the
    4^n strings of their length: a table of them all could not be held.
    All weight maps and basis columns share the one string made per mask.
    """

    __slots__ = ("top",)
    _FROM_BITS = str.maketrans("01", "+-")

    def __init__(self, n: int):
        super().__init__()
        self.top = 1 << n

    def __missing__(self, mask: int) -> str:
        s = self[mask] = bin(mask | self.top)[3:].translate(self._FROM_BITS)
        return s


_SIGN_STRINGS: dict[int, _SignStrings] = {}
CACHE_CLEARS.append(_SIGN_STRINGS.clear)


def _strings_of_length(n: int) -> _SignStrings:
    table = _SIGN_STRINGS.get(n)
    if table is None:
        table = _SIGN_STRINGS[n] = _SignStrings(n)
    return table


class _ShapeKeys(dict):
    """The (row, col) key of each sign mask of an m -> n weight map, made on first use.

    The mask holds the column's m bits above the row's n bits, as
    `_phase_table` writes them.
    """

    __slots__ = ("rows", "cols", "n", "low")

    def __init__(self, m: int, n: int):
        super().__init__()
        self.rows, self.cols = _strings_of_length(n), _strings_of_length(m)
        self.n, self.low = n, (1 << n) - 1

    def __missing__(self, mask: int) -> tuple[str, str]:
        key = self[mask] = (self.rows[mask & self.low], self.cols[mask >> self.n])
        return key


_SHAPE_KEYS: dict[tuple[int, int], _ShapeKeys] = {}
CACHE_CLEARS.append(_SHAPE_KEYS.clear)


def _shape_keys(m: int, n: int) -> _ShapeKeys:
    keys = _SHAPE_KEYS.get((m, n))
    if keys is None:
        keys = _SHAPE_KEYS[m, n] = _ShapeKeys(m, n)
    return keys


_phi_cache: dict[AnnularDiagram, tuple[tuple[int, int], ...]] = {}
CACHE_CLEARS.append(_phi_cache.clear)


def _phases(d: AnnularDiagram) -> tuple[tuple[int, int], ...]:
    """d's phase table from `_phi_cache`, built and stored on first use."""
    table = _phi_cache.get(d)
    if table is None:
        table = _phi_cache[d] = _phase_table(d)
    return table


def _phase_table(d: AnnularDiagram) -> tuple[tuple[int, int], ...]:
    """The (mask, k) pairs of d's weight map, whose entries are i^k.

    An orientation of all strands is one int.  Bit shift + top - p is set
    where the I or O point of code p gets '-': where the orientation stops
    at an I point or starts at an O point.  The bits below `shift` count
    its quarter turns, at most 5 per segment, so they never carry into the
    mask.  The column bits are the high ones, so the ints sort in
    (column, row) order, as `columns()` and `rank()` read them; `_shape_keys`
    names each mask's (row, col).
    """
    if d.ess:
        return ()
    m = d.dom
    top = m + d.cod - 1
    shift = (5 * len(d.codes)).bit_length()
    keyed = [0]
    for a, b, fwd, bwd in _strands(d):
        # forward runs a -> b, backward b -> a; each flips both ends
        bit_a, bit_b = 1 << top - a, 1 << top - b
        f = (bit_a if a >= m else 0) | (bit_b if b < m else 0)
        g = (f ^ bit_a ^ bit_b) << shift
        f <<= shift
        keyed = [(v | f) + fwd for v in keyed] + [(v | g) + bwd for v in keyed]
    keyed.sort()
    return tuple([(v >> shift, v & 3) for v in keyed])


def phi(x: Morphism) -> WeightMap:
    """The weight map of x (module docstring).

    A one-term operand c * d reads its entries c * i^k straight off d's
    phase table; any other is folded, each sum packed in one int.
    """
    keys = _shape_keys(x.dom, x.cod)
    if len(x.terms) == 1:
        ((d, c),) = x.terms.items()
        turned = (c, c * I, -c, c * MINUS_I)
        return WeightMap._checked(x.dom, x.cod, {keys[mask]: turned[k] for mask, k in _phases(d)})
    coeffs = x.terms.values()
    den = lcm(*(c.d for c in coeffs))
    K = (sum(abs(c.a) + abs(c.b) for c in coeffs) * den).bit_length() + 2
    acc: dict[int, int] = {}
    get = acc.get
    for d, c in x.terms.items():
        f = den // c.d
        a, b = c.a * f, c.b * f
        # c * i^k: each factor i sends (a, b) to (-b, a)
        p0, p1 = a + (b << K), (a << K) - b
        turned = (p0, p1, -p0, -p1)
        for mask, k in _phases(d):
            acc[mask] = get(mask, 0) + turned[k]
    half = 1 << K - 1
    entries = {}
    for mask, p in acc.items():
        if p:
            im = (p + half) >> K
            entries[keys[mask]] = _make(p - (im << K), im, den)
    return WeightMap._checked(x.dom, x.cod, entries)


def extremal_matrix(m: int) -> WeightMap:
    """The expected weight map of the extremal projector, written by hand.

    A diagonal matrix fixing exactly the all-plus and all-minus strings;
    at m = 0 the convention T_0 = 2 id_0 gives the scalar 2.  This is the
    independent oracle the projector construction is checked against.
    """
    if m < 0:
        raise ValueError("negative strand count")
    if m == 0:
        return WeightMap(0, 0, {("", ""): GaussianRational(2)})
    return WeightMap(m, m, {("+" * m, "+" * m): ONE, ("-" * m, "-" * m): ONE})


# -- exact elimination ---------------------------------------------------------


def _numerators(col: dict[str, GaussianRational]) -> tuple[int, dict]:
    """col as Gaussian-integer numerators (a, b) over the lcm of its denominators."""
    den = lcm(*(v.d for v in col.values()))
    return den, {r: (v.a * (den // v.d), v.b * (den // v.d)) for r, v in col.items() if v}


def _reduce(den: int, col: dict, pivots) -> tuple[int, list]:
    """Subtract from col, numerators over den, its multiple of each pivot in turn.

    A pivot p is numerators over an int P, scaled to 1 at its row.  With f at
    that row, col becomes (P col - f p) / (den P), with one gcd over col only
    if P != 1 (never, for the diagram bases).  Returns the new den and the
    multipliers (pivot index, a, b, d): col lost (a + b*i)/d times the pivot.
    """
    mults = []
    for k, (prow, pden, pcol, _, _) in enumerate(pivots):
        f = col.pop(prow, None)
        if f is None:
            continue
        fa, fb = f
        mults.append((k, fa, fb, den))
        if pden != 1:
            for r, (a, b) in col.items():
                col[r] = (a * pden, b * pden)
        for r, pa, pb in pcol:
            ca, cb = col.get(r, (0, 0))
            a = ca - fa * pa + fb * pb
            b = cb - fa * pb - fb * pa
            if a or b:
                col[r] = (a, b)
            else:
                del col[r]
        if pden != 1:
            g = gcd(den * pden, *chain.from_iterable(col.values()))
            den = den * pden // g
            for r, (a, b) in col.items():
                col[r] = (a // g, b // g)
    return den, mults


def _eliminate(cols) -> list:
    """Gaussian elimination on a sparse column family over Q(i).

    Each column is reduced against the pivots before it.  One that survives
    gives the next pivot at its least row: (row, P, [(other row, a, b)...],
    the column's multipliers, its value (a, b, d) there, i.e. (a + b*i)/d).
    """
    pivots: list = []
    for col in cols:
        den, col = _numerators(col)
        den, mults = _reduce(den, col, pivots)
        if col:
            prow = min(col)
            a, b = col.pop(prow)
            # col / ((a + b*i)/den) = col * (a - b*i) / (a^2 + b^2)
            pden = a * a + b * b
            entries = [(r, x * a + y * b, y * a - x * b) for r, (x, y) in col.items()]
            if pden != 1:
                g = gcd(pden, *chain.from_iterable(e[1:] for e in entries))
                pden //= g
                entries = [(r, x // g, y // g) for r, x, y in entries]
            pivots.append((prow, pden, entries, mults, (a, b, den)))
    return pivots


def rank_of_columns(cols: list[dict[str, GaussianRational]]) -> int:
    """Rank of a sparse column family over Q(i), by Gaussian elimination."""
    return len(_eliminate(cols))


def solve_columns(
    cols: list[dict[str, GaussianRational]], target: dict[str, GaussianRational]
) -> list[GaussianRational] | None:
    """Exact coefficients writing target as a combination of cols, or None.

    Raises ValueError unless the columns are linearly independent, as the
    weight maps of a diagram basis are.  Column k is pi_k times pivot k plus
    its multipliers g_kl times pivot l, and the target reduces to F_l times
    pivot l; back substitution from the last column down gives
    x_k = F_k / pi_k, then F_l -= x_k g_kl.
    """
    pivots = _eliminate(cols)
    if len(pivots) < len(cols):
        raise ValueError("columns are linearly dependent")
    den, rhs = _numerators(target)
    _, mults = _reduce(den, rhs, pivots)
    if rhs:
        return None
    F = {k: _make(a, b, d) for k, a, b, d in mults}
    x = [ZERO] * len(cols)
    for k in reversed(range(len(cols))):
        if F.get(k):
            _, _, _, kmults, (a, b, d) = pivots[k]
            xk = x[k] = F[k] / _make(a, b, d)
            for l, ga, gb, gd in kmults:
                F[l] = F.get(l, ZERO) - xk * _make(ga, gb, gd)
    return x
