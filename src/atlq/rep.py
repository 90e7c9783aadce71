"""The weight-space functor: diagrams acting on sign strings.

An n-strand object maps to the free Q(i)-module on length-n strings over
{+, -}.  The generators act by

* cap at slot i:   ...+-... -> -1,  ...-+... -> +1, the two slots removed,
  anything else killed;
* cup at slot i:   inserts +- with coefficient +1 and -+ with -1;
* rotation D:      s -> s[1:] + s[0] times i if s[0] is '+', else -i;
* rotation D^-1:   s -> s[-1] + s[:-1] times -i if s[-1] is '+', else i.

A diagram with essential circles maps to zero.  All other diagrams are
evaluated by pushing sign strings through a generator word from
`planar.factorize`; the resulting matrix, a `WeightMap`, stores only the
nonzero entries as (output string, input string) -> scalar.

This functor is faithful on the essential-circle quotient, which the test
suite witnesses by checking that the central binomial numbers of basis
diagrams stay linearly independent.  Faithfulness is what lets the rest of
the package verify identities between wound diagrams numerically and
exactly at the same time.
"""

from __future__ import annotations

from itertools import product

from .diagram import AnnularDiagram, Morphism
from .planar import factorize
from .scalar import I, MINUS_I, ONE, ZERO, Combination, GaussianRational


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
        by_row: dict[str, list[tuple[str, GaussianRational]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict[tuple[str, str], GaussianRational] = {}
        for (r, mid), v in self.entries.items():
            for c, w in by_row.get(mid, ()):
                key = (r, c)
                prev = acc.get(key)
                val = v * w
                acc[key] = val if prev is None else prev + val
        return WeightMap(other.dom, self.cod, acc)

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
    def from_json_obj(cls, obj: dict) -> WeightMap:
        return cls._sum(int(obj["dom"]), int(obj["cod"]), (
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


def _apply_letter(state: dict[str, GaussianRational], letter) -> dict[str, GaussianRational]:
    kind, _, x = letter
    out: dict[str, GaussianRational] = {}

    def put(s: str, v: GaussianRational):
        prev = out.get(s)
        out[s] = v if prev is None else prev + v

    if kind == "cap":
        for s, v in state.items():
            pair = s[x : x + 2]
            if pair == "+-":
                put(s[:x] + s[x + 2 :], -v)
            elif pair == "-+":
                put(s[:x] + s[x + 2 :], v)
    elif kind == "cup":
        for s, v in state.items():
            put(s[:x] + "+-" + s[x:], v)
            put(s[:x] + "-+" + s[x:], -v)
    elif kind == "d":
        if x == 1:
            for s, v in state.items():
                put(s[1:] + s[0], v * (I if s[0] == "+" else MINUS_I))
        else:
            for s, v in state.items():
                put(s[-1] + s[:-1], v * (MINUS_I if s[-1] == "+" else I))
    else:
        raise ValueError(f"unknown letter {letter!r}")
    return {s: v for s, v in out.items() if v}


_phi_cache: dict[AnnularDiagram, WeightMap] = {}


def phi_diagram(d: AnnularDiagram) -> WeightMap:
    cached = _phi_cache.get(d)
    if cached is not None:
        return cached
    if d.ess:
        out = WeightMap.zero(d.dom, d.cod)
    else:
        word = factorize(d)
        entries: dict[tuple[str, str], GaussianRational] = {}
        for col in sign_strings(d.dom):
            state = {col: ONE}
            for letter in word:
                state = _apply_letter(state, letter)
                if not state:
                    break
            for row, v in state.items():
                entries[(row, col)] = v
        out = WeightMap(d.dom, d.cod, entries)
    _phi_cache[d] = out
    return out


def phi(x: Morphism) -> WeightMap:
    return WeightMap._sum(x.dom, x.cod, (
        (k, c * v) for d, c in x.terms.items() for k, v in phi_diagram(d).terms.items()
    ))


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


def _reduce(col: dict[str, GaussianRational], pivots) -> None:
    """Subtract from col, in place, its multiple of each pivot in turn."""
    for prow, pcol in pivots:
        f = col.get(prow)
        if f:
            for r, v in pcol.items():
                nv = col.get(r, ZERO) - f * v
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)


def _eliminate(cols) -> list[tuple[str, dict[str, GaussianRational]]]:
    """Gaussian elimination on a sparse column family over Q(i).

    Each column is reduced against the pivots found before it.  A column
    that survives is scaled to 1 at its least row, its pivot row.  Returns
    the (pivot row, normalized column) pairs, one per independent column.
    """
    pivots: list[tuple[str, dict[str, GaussianRational]]] = []
    for col in cols:
        col = {r: v for r, v in col.items() if v}
        _reduce(col, pivots)
        if col:
            prow = min(col)
            inv = col[prow].inverse()
            pivots.append((prow, {r: v * inv for r, v in col.items()}))
    return pivots


def rank_of_columns(cols: list[dict[str, GaussianRational]]) -> int:
    """Rank of a sparse column family over Q(i), by Gaussian elimination."""
    return len(_eliminate(cols))


def solve_columns(
    cols: list[dict[str, GaussianRational]], target: dict[str, GaussianRational]
) -> list[GaussianRational] | None:
    """Exact coefficients writing target as a combination of cols, or None.

    Raises ValueError unless the columns are linearly independent (which is
    how this package uses it: the diagram basis maps to independent weight
    maps).  Column j carries one extra tag row "~j", which sorts after every
    sign string, so a pivot on a tag row marks a dependent column, and the
    tag rows left in the reduced target hold minus its coefficients.
    """
    tags = [f"~{j}" for j in range(len(cols))]
    pivots = _eliminate({**col, tag: ONE} for col, tag in zip(cols, tags))
    if any(prow.startswith("~") for prow, _ in pivots):
        raise ValueError("columns are linearly dependent")
    rhs = {r: v for r, v in target.items() if v}
    _reduce(rhs, pivots)
    if any(not r.startswith("~") for r in rhs):
        return None
    return [-rhs.get(tag, ZERO) for tag in tags]
