"""Annular Temperley-Lieb diagrams in a cut-rectangle encoding.

An annular (m, n)-diagram is a crossingless tangle in an annulus with m
marked points on the inner boundary and n on the outer one, plus a fixed
radial ray ("seam") joining the two base points.  Cutting along the seam
unrolls the annulus into a rectangle:

        O_0  O_1  ...  O_{n-1}      outer boundary (top edge)
      +-----------------------+
   L_1|                       |R_1
   L_0|                       |R_0   seam levels 0..k-1, inner level first
      +-----------------------+
        I_0  I_1  ...  I_{m-1}      inner boundary (bottom edge)

A strand crossing the seam clockwise leaves through the right edge at some
level t (point R_t) and re-enters through the left edge at the same level
(point L_t).  A diagram is the perfect matching ("arcs") on the points
I_*, O_*, L_*, R_*, together with the number of seam levels and a count of
essential circles (closed curves encircling the annulus core, which cannot
be removed by isotopy).  Inessential closed curves never appear on a
diagram; they are converted to scalar factors of -2 during composition.

Crossingless means the matching is noncrossing on the boundary cycle of
the rectangle, read I_0..I_{m-1}, R_0..R_{k-1}, O_{n-1}..O_0, L_{k-1}..L_0.
Canonical diagrams are additionally seam-minimal: no arc joins L_t-L_{t+1},
R_t-R_{t+1}, or L_t-R_t.  The first two kinds can be isotoped off the seam
(splicing their partner arcs on the opposite edge), and a same-level arc
L_t-R_t closes into a circle that crosses the seam exactly once, i.e. an
essential circle.  Composition performs these reductions, and
`AnnularDiagram.validate` checks a diagram is canonical.  An essential
circle separates the two boundary components, so diagrams with ess > 0
cannot have through strands.

A diagram is stored as its partner code.  Every point has an int code, in
blocks I, O, L, R, each block in index order: I_j -> j, O_j -> m + j,
L_t -> m + n + t and R_t -> m + n + k + t.  `codes[c]` is the code of the
point matched to c.  That is `point_key` order, so the arcs (c, codes[c])
with c < codes[c], read in increasing c, are the canonical sorted arc
tuple; `arcs` is that view, built on demand for JSON text, printing and
rendering only.  `make_diagram` codes the readable arc lists of the
constructors, and `validate` checks the stored code.  The code, with the
sizes and the essential circle count, is the diagram's key in the pool
that builds every diagram, one object per key, so hash and == are the
identity's.

`Morphism` is a finite linear combination of diagrams with coefficients in
Q(i): a `scalar.Combination` whose keys are diagrams, from which it
inherits construction, the linear structure, equality and JSON text.  It
adds composition and the tensor product.  Composition stacks one annulus
inside the other, traces strands through the middle circle, counts the
circles created, and reduces the combined seam.  In quotient mode (the default) terms that acquire an
essential circle are dropped.
"""

from __future__ import annotations

import gc
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from .config import CACHE_CLEARS, MODE_QUOTIENT, get_config, guard, memo
from .scalar import ONE, Combination, GaussianRational, add_rescaled, json_int, json_reader

Point = tuple[str, int]
Arc = tuple[Point, Point]

_KIND_ORDER = {"I": 0, "O": 1, "L": 2, "R": 3}


def point_key(p: Point) -> tuple[int, int]:
    return (_KIND_ORDER[p[0]], p[1])


@dataclass(frozen=True, eq=False, slots=True)
class AnnularDiagram:
    """A canonical annular diagram dom -> cod, stored as its partner code.

    Build diagrams through `make_diagram` or composition, which intern
    them, as pickles and copies do: equal diagrams are the same object.
    """

    dom: int
    cod: int
    seam: int
    ess: int
    codes: tuple[int, ...]

    def __reduce__(self):
        # reloading interns the diagram, so identity holds after a round trip
        return (_intern, (self.dom, self.cod, self.seam, self.ess, self.codes))

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The matching as sorted point pairs (p, q), p before q in `point_key` order."""
        names = _point_names(self.dom, self.cod, self.seam)
        return tuple([(names[c], names[p]) for c, p in enumerate(self.codes) if c < p])

    def validate(self) -> None:
        """Raise ValueError unless the stored code is a canonical diagram."""
        _validate_code(self.dom, self.cod, self.seam, self.ess, self.codes)

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "seam": self.seam,
            "ess": self.ess,
            "arcs": [[_point_str(p), _point_str(q)] for p, q in self.arcs],
        }

    def __str__(self) -> str:
        body = ", ".join(f"{_point_str(p)}-{_point_str(q)}" for p, q in self.arcs)
        extra = f" (ess={self.ess})" if self.ess else ""
        return "{" + body + "}" + extra


def _check_shape(dom: int, cod: int, seam: int, ess: int, points: int) -> None:
    """Refuse a negative size, or `points` ends for a boundary of another length."""
    if min(dom, cod, seam, ess) < 0:
        raise ValueError("negative size field")
    if points != dom + cod + 2 * seam:
        raise ValueError("arcs are not a perfect matching on the boundary")


def _validate_code(dom: int, cod: int, seam: int, ess: int, codes) -> None:
    """Raise ValueError unless `codes` is the partner code of a canonical diagram."""
    size = len(codes)
    _check_shape(dom, cod, seam, ess, size)
    for c, p in enumerate(codes):
        if not 0 <= p < size or codes[p] != c:
            raise ValueError("arcs are not a perfect matching on the boundary")
        if p == c:
            raise ValueError("arc endpoints coincide")
    # noncrossing check: arcs must nest properly along the boundary cycle,
    # read I_0..I_{m-1}, R_0..R_{k-1}, O_{n-1}..O_0, L_{k-1}..L_0
    lo = dom + cod
    ro = lo + seam
    cycle = [*range(dom), *range(ro, size), *range(lo - 1, dom - 1, -1), *range(ro - 1, lo - 1, -1)]
    pos = {c: i for i, c in enumerate(cycle)}
    stack: list[int] = []
    for c in cycle:
        if stack and stack[-1] == codes[c]:
            stack.pop()
        elif pos[codes[c]] > pos[c]:
            stack.append(c)
        else:
            raise ValueError(f"arcs cross near {_point_names(dom, cod, seam)[c]}")
    # seam minimality
    for t in range(seam):
        if codes[lo + t] == ro + t:
            raise ValueError(f"reducible: essential circle at level {t}")
        for kind, off in (("L", lo), ("R", ro)):
            if t + 1 < seam and codes[off + t] == off + t + 1:
                raise ValueError(f"reducible: {kind}-edge arc at levels {t},{t + 1}")
    if ess and any(dom <= codes[c] < lo for c in range(dom)):
        raise ValueError("through strand coexists with an essential circle")


# one object per canonical form, so hashing and equality of diagrams are
# identity; `repool` (not CACHE_CLEARS) empties it, keeping the live ones
_POOL: dict[tuple, AnnularDiagram] = {}


def _intern(dom: int, cod: int, seam: int, ess: int, codes: tuple[int, ...]) -> AnnularDiagram:
    key = (dom, cod, seam, ess, codes)
    d = _POOL.get(key)
    if d is None:
        d = _POOL.setdefault(key, AnnularDiagram(dom, cod, seam, ess, codes))
    return d


def repool() -> None:
    """Empty the pool, then intern again every diagram still alive.

    Run it after the memos are emptied, which would keep theirs alive, and
    never while another thread builds diagrams: one could duplicate a live one.
    """
    _POOL.clear()
    gc.collect()
    for d in gc.get_objects():
        if type(d) is AnnularDiagram:
            _POOL[d.dom, d.cod, d.seam, d.ess, d.codes] = d


def _code_of(dom: int, cod: int, seam: int, arcs) -> tuple[int, ...]:
    """The partner code of arcs given in any order.

    Refuses a point outside its block or used twice; arcs as many as the
    boundary has point pairs, which the caller checks, then cover it.
    """
    code = {p: c for c, p in enumerate(_point_names(dom, cod, seam))}
    codes = [-1] * len(code)
    for arc in arcs:
        ends = []
        for x in arc:
            c = code.get(x)
            if c is None:
                raise ValueError(f"point {x} out of range")
            if codes[c] >= 0:
                raise ValueError(f"point {x} used twice")
            codes[c] = c  # taken, so an arc from x to itself is refused
            ends.append(c)
        p, q = ends
        codes[p], codes[q] = q, p
    return tuple(codes)


def make_diagram(dom: int, cod: int, seam: int, ess: int, arcs) -> AnnularDiagram:
    """The interned diagram with these arcs, given in any order."""
    _check_shape(dom, cod, seam, ess, 2 * len(arcs))
    return _intern(dom, cod, seam, ess, _code_of(dom, cod, seam, arcs))


def _point_names(dom: int, cod: int, seam: int) -> list[Point]:
    """The point of each code."""
    blocks = (("I", dom), ("O", cod), ("L", seam), ("R", seam))
    return [(kind, j) for kind, size in blocks for j in range(size)]


def _point_str(p: Point) -> str:
    return f"{p[0]}{p[1]}"


_POINT_RE = _re.compile(r"^([IOLR])(\d+)$")


def _point_parse(s: str) -> Point:
    m = _POINT_RE.match(s)
    if not m:
        raise ValueError(f"bad point name {s!r}")
    return (m.group(1), int(m.group(2)))


def diagram_from_json_obj(obj: dict, dom: int, cod: int) -> AnnularDiagram:
    arcs = [(_point_parse(p), _point_parse(q)) for p, q in obj["arcs"]]
    seam, ess = json_int(obj["seam"], "seam"), json_int(obj.get("ess", 0), "ess")
    # count the arcs before a code is built: the boundary is as long as the
    # claimed seam; and intern the code only once it has passed
    _check_shape(dom, cod, seam, ess, 2 * len(arcs))
    codes = _code_of(dom, cod, seam, arcs)
    _validate_code(dom, cod, seam, ess, codes)
    return _intern(dom, cod, seam, ess, codes)


# -- composition ----------------------------------------------------------


def _reduce_seam(partner: list[int], levels: list[int], lo: int, ro: int) -> tuple[int, int]:
    """Make an int-coded matching seam-minimal, in place.

    `partner` codes L_t as lo + t and R_t as ro + t, on the surviving
    `levels`.  Returns the (essential, inessential) circles closed.  Each
    pass makes the first reduction it finds, in this order: a same-level
    arc, then an arc along the L edge, then along the R edge, lowest level
    first.  Levels are dropped lazily: adjacency means consecutive in the
    list of surviving levels.
    """
    ess = iness = 0
    while levels:
        # a same-level arc L_t - R_t closes into a curve crossing the seam
        # once: an essential circle
        for t in levels:
            if partner[lo + t] == ro + t:
                partner[lo + t] = partner[ro + t] = -1
                levels.remove(t)
                ess += 1
                break
        else:
            # an arc along one edge between adjacent surviving levels can be
            # pulled off the seam, splicing whatever meets the opposite edge
            for idx in range(len(levels) - 1):
                t, t1 = levels[idx], levels[idx + 1]
                if partner[lo + t] == lo + t1:
                    side, opp = lo, ro
                elif partner[ro + t] == ro + t1:
                    side, opp = ro, lo
                else:
                    continue
                a, b = partner[opp + t], partner[opp + t1]
                partner[side + t] = partner[side + t1] = partner[opp + t] = partner[opp + t1] = -1
                del levels[idx : idx + 2]
                if a == opp + t1:
                    # both edges carry the same hairpin: together they close
                    # into a loop crossing the seam twice with opposite
                    # orientations, an inessential circle
                    iness += 1
                else:
                    partner[a] = b
                    partner[b] = a
                break
            else:
                break
    return ess, iness


# (inner.dom, inner.cod, outer.cod, inner.seam, outer.seam) -> the tables
# by which `compose` reads the two partner codes, laid end to end as one
# list of entries: the glued code of each point of either diagram, and a
# getter of the entries of the glued boundary, in its code order
@memo()
def _glue_tables(m: int, mid: int, n: int, ka: int, kb: int):
    lo = m + n
    ro = lo + ka + kb
    mo = ro + ka + kb
    na = m + mid + 2 * ka  # the outer diagram's entries start here
    # the middle point M_j (inner O_j = outer I_j) is coded mo plus the entry
    # where a strand goes on through it: outer I_j's entry for a strand that
    # comes from the inner diagram, and inner O_j's for one from the outer
    inner = [*range(m), *range(mo + na, mo + na + mid), *range(lo, lo + ka), *range(ro, ro + ka)]
    outer = [*range(mo + m, mo + m + mid), *range(m, lo), *range(lo + ka, ro), *range(ro + ka, mo)]
    ia, ob = m + mid, na + mid  # the inner L entries, the outer O entries
    entries = [*range(m), *range(ob, ob + n), *range(ia, ia + ka), *range(ob + n, ob + n + kb),
               *range(ia + ka, na), *range(ob + n + kb, ob + n + 2 * kb)]
    # a matching never leaves one point on the boundary, and itemgetter()
    # of none is refused
    pick = itemgetter(*entries) if entries else lambda glued: ()
    return inner, outer, pick


@memo()
def compose(inner: AnnularDiagram, outer: AnnularDiagram):
    """Glue `outer` around `inner` (inner.cod == outer.dom).

    Returns (diagram, inessential, essential): the canonical composite,
    the number of inessential circles produced (factors of -2), and the
    total essential circle count carried by the composite.

    The glued picture is coded like a diagram m -> n with k = inner.seam +
    outer.seam levels, the outer levels above the inner ones.  A per-shape
    table turns both partner codes into glued codes at once, which reads
    off every strand that misses the middle circle.  The rest are traced
    from each middle point not yet walked, in both directions, to their
    two boundary ends or around a closed loop.  With a generator on
    either side, `_compose_generator` rewrites the other code instead.
    """
    if inner.cod != outer.dom:
        raise ValueError(
            f"cannot glue: inner codomain {inner.cod} != outer domain {outer.dom}"
        )
    if inner in _GENERATORS:
        return _compose_generator(inner, outer, True)
    if outer in _GENERATORS:
        return _compose_generator(outer, inner, False)
    m, mid, n, ka, kb = inner.dom, inner.cod, outer.cod, inner.seam, outer.seam
    ta, tb, pick = _glue_tables(m, mid, n, ka, kb)
    glued = list(map(ta.__getitem__, inner.codes))
    na = len(glued)
    glued += map(tb.__getitem__, outer.codes)
    # right for every strand that misses the middle circle; a boundary
    # point matched to a middle point is set below
    partner = list(pick(glued))
    mo = len(partner)

    # M_j has two entries, inner O_j's at m + j and outer I_j's at na + j.
    # A walk through M_j reads the entry it leaves by and sets it to -1, so
    # M_j has been walked once either entry is -1.
    iness = 0
    for j in range(mid):
        a, b = glued[m + j], glued[na + j]
        if a < 0 or b < 0:
            continue
        glued[m + j] = glued[na + j] = -1
        while a >= mo:
            e = a - mo
            a = glued[e]
            glued[e] = -1
        if a < 0:
            # back at M_j: a closed loop confined between the two seams,
            # which cannot wind, hence inessential
            iness += 1
            continue
        while b >= mo:
            e = b - mo
            b = glued[e]
            glued[e] = -1
        partner[a] = b
        partner[b] = a

    k = ka + kb
    return _canonical(partner, m, n, k, list(range(k)), inner.ess + outer.ess, iness)


def _canonical(partner: list[int], m: int, n: int, k: int, levels: list[int], ess: int, iness: int):
    """Reduce the seam of an int-coded matching and return the pooled diagram.

    `partner` matches the codes I_j -> j, O_j -> m + j, L_t -> m + n + t
    and R_t -> m + n + k + t on the surviving `levels`, and is reduced in
    place.  `ess` and `iness` count the circles closed before; returns
    (diagram, inessential, essential) with the circles of the reduction
    added, as `compose` does.  The surviving levels are renumbered
    0, 1, ... into the composite's code, which is the pool key, so a
    diagram already in the pool costs one lookup and builds nothing.
    """
    lo = m + n
    ro = lo + k
    closed = _reduce_seam(partner, levels, lo, ro)
    ess += closed[0]
    iness += closed[1]
    seam = len(levels)
    if seam < k:
        ren = list(range(ro + k))  # the new code of each old one
        for s, t in enumerate(levels):
            ren[lo + t] = lo + s
            ren[ro + t] = lo + seam + s
        partner = [ren[c] for c in partner[:lo]] + [ren[partner[lo + t]] for t in levels] + [
            ren[partner[ro + t]] for t in levels
        ]
    return _intern(m, n, seam, ess, tuple(partner)), iness, ess


# the U_i (i >= 1), caps, cups and D^+-1 that their constructors built: on
# the middle circle each joins at most one pair of points, and runs the
# others straight to its far side or its seam
_GENERATORS: set[AnnularDiagram] = set()
CACHE_CLEARS.append(_GENERATORS.clear)


# (generator, is it inner, the other diagram's far size and seam) -> the
# tables by which `_compose_generator` rewrites the other diagram's code
@memo()
def _generator_tables(g: AnnularDiagram, on_inner: bool, size: int, k: int):
    mid, ks = (g.cod if on_inner else g.dom), k + g.seam
    m, n = (g.dom, size) if on_inner else (size, g.cod)
    lo, ro = m + n, m + n + ks

    def ends(dom, cod, seam, inner, off):
        # the composite's code of each point of a diagram, ~j for M_j
        far, middle = range(dom) if inner else range(m, m + cod), [~j for j in range(mid)]
        block = [*far, *middle] if inner else [*middle, *far]
        return block + [*range(lo + off, lo + off + seam), *range(ro + off, ro + off + seam)]

    ge = ends(g.dom, g.cod, g.seam, on_inner, 0 if on_inner else k)
    rel = ends(*((mid, size) if on_inner else (size, mid)), k, not on_inner, g.seam if on_inner else 0)
    gm, xm = (g.dom, 0) if on_inner else (0, size)  # the codes of M_0 in g and in x
    for j in range(mid):
        # x's M_j takes the code of the far end of g's strand through it
        rel[xm + j] = ge[g.codes[gm + j]]
    turn = [c for c in range(xm, xm + mid) if rel[c] < 0]
    # g's own arcs off the middle follow x's codes in the entries
    fixed = [(ge[c], ge[p]) for c, p in enumerate(g.codes) if ge[c] >= 0 and ge[p] >= 0]
    src = [0] * (ro + ks)  # the entry of each code of the composite
    for e, r in enumerate(rel + [r for r, _ in fixed]):
        if r >= 0:
            src[r] = e
    pick = itemgetter(*src) if src else lambda entries: ()
    gseam = ge[len(ge) - 2 * g.seam:]  # g's own seam points
    return rel, [p for _, p in fixed], pick, turn, gseam, m, n, ks


def _compose_generator(g: AnnularDiagram, x: AnnularDiagram, on_inner: bool):
    """`compose` with a registered generator g on one side.

    The other diagram x keeps its code, shifted through a per-shape table,
    but a middle point takes the code of the far end of g's strand through
    it.  A pair of middle points that g joins joins their partners in x, or
    closes an inessential circle.  x is canonical, so only a join of two
    seam points, or a seam point of g's matched to another seam point, can
    make the result reducible: then `_canonical` runs.
    """
    size = x.cod if on_inner else x.dom
    rel, tail, pick, turn, gseam, m, n, k = _generator_tables(g, on_inner, size, x.seam)
    partner = pick([*map(rel.__getitem__, x.codes), *tail])
    iness, reduce = 0, False
    for c in gseam:
        reduce = reduce or partner[c] >= m + n  # D^+-1 only
    if turn:
        p, q = x.codes[turn[0]], x.codes[turn[1]]
        if p == turn[1]:
            iness = 1
        else:
            p, q = rel[p], rel[q]
            partner = list(partner)
            partner[p], partner[q] = q, p
            reduce = p >= m + n and q >= m + n
    if reduce:
        return _canonical(list(partner), m, n, k, list(range(k)), x.ess, iness)
    return _intern(m, n, k, x.ess, tuple(partner)), iness, x.ess


def _generator(d: AnnularDiagram) -> AnnularDiagram:
    _GENERATORS.add(d)
    return d


# -- diagram constructors -------------------------------------------------


@memo(lambda n, *_: n)
def id_diagram(n: int) -> AnnularDiagram:
    return make_diagram(n, n, 0, 0, [(("I", j), ("O", j)) for j in range(n)])


@memo(lambda n, *_: n)
def u_diagram(n: int, i: int) -> AnnularDiagram:
    """Cap-cup U_i joining strands i-1 and i (1-based i, 1 <= i <= n-1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"U_{i} undefined on {n} strands")
    arcs = [(("I", i - 1), ("I", i)), (("O", i - 1), ("O", i))]
    arcs += [(("I", j), ("O", j)) for j in range(n) if j not in (i - 1, i)]
    return _generator(make_diagram(n, n, 0, 0, arcs))


@memo(lambda n, *_: n)
def u0_diagram(n: int) -> AnnularDiagram:
    """Cap-cup between the last and first strands, around the seam."""
    if n < 2:
        raise ValueError("U_0 needs at least 2 strands")
    arcs = [
        (("I", 0), ("L", 0)),
        (("I", n - 1), ("R", 0)),
        (("L", 1), ("O", 0)),
        (("O", n - 1), ("R", 1)),
    ]
    arcs += [(("I", j), ("O", j)) for j in range(1, n - 1)]
    return make_diagram(n, n, 2, 0, arcs)


@memo(lambda n, *_: n)
def cap_diagram(n: int, i: int) -> AnnularDiagram:
    """Cap joining inner points i, i+1 (0-based); maps n -> n-2 strands."""
    if not 0 <= i <= n - 2:
        raise ValueError(f"cap at {i} undefined on {n} strands")
    arcs = [(("I", i), ("I", i + 1))]
    arcs += [(("I", j), ("O", j if j < i else j - 2)) for j in range(n) if j not in (i, i + 1)]
    return _generator(make_diagram(n, n - 2, 0, 0, arcs))


@memo(lambda n, i: n + 2)
def cup_diagram(n: int, i: int) -> AnnularDiagram:
    """Cup creating outer points i, i+1 (0-based); maps n -> n+2 strands."""
    if not 0 <= i <= n:
        raise ValueError(f"cup at {i} undefined on {n} strands")
    arcs = [(("O", i), ("O", i + 1))]
    arcs += [(("I", j), ("O", j if j < i else j + 2)) for j in range(n)]
    return _generator(make_diagram(n, n + 2, 0, 0, arcs))


@memo(lambda n, *_: n)
def d_diagram(n: int, e: int = 1) -> AnnularDiagram:
    """Rotation by one strand position; e = +1 sends strand 0 to n-1."""
    if e not in (1, -1):
        raise ValueError("rotation exponent must be +1 or -1")
    if n == 0:
        return id_diagram(0)
    if e == 1:
        arcs = [(("I", 0), ("L", 0)), (("R", 0), ("O", n - 1))]
        arcs += [(("I", j), ("O", j - 1)) for j in range(1, n)]
    else:
        arcs = [(("I", n - 1), ("R", 0)), (("L", 0), ("O", 0))]
        arcs += [(("I", j), ("O", j + 1)) for j in range(n - 1)]
    return _generator(make_diagram(n, n, 1, 0, arcs))


# -- morphisms ------------------------------------------------------------


class Morphism(Combination):
    """A Q(i)-linear combination of annular diagrams m -> n.

    Construction, +, -, scale, ==, hash, is_zero, zero, dumps and loads
    come from `Combination`; here the keys are diagrams.
    """

    __slots__ = ()

    @staticmethod
    def _key_shape(d: AnnularDiagram) -> tuple[int, int]:
        return (d.dom, d.cod)

    @classmethod
    def from_diagram(cls, d: AnnularDiagram, coeff: GaussianRational = ONE) -> Morphism:
        return cls(d.dom, d.cod, {d: coeff})

    def __rmul__(self, c) -> Morphism:
        if isinstance(c, (int, Fraction, GaussianRational)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other) -> Morphism:
        if isinstance(other, Morphism):
            return mor_compose(self, other)
        return NotImplemented

    def __matmul__(self, other: Morphism) -> Morphism:
        from .planar import tensor

        return tensor(self, other)

    # -- predicates ---------------------------------------------------------

    def is_identity(self) -> bool:
        if self.dom != self.cod or len(self.terms) != 1:
            return False
        ((d, c),) = self.terms.items()
        return c == ONE and d == id_diagram(self.dom)

    def sorted_terms(self) -> list[tuple[AnnularDiagram, GaussianRational]]:
        # within one shape the code order is the order of the sorted arcs
        return sorted(self.terms.items(), key=lambda item: (item[0].seam, item[0].ess, item[0].codes))

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "dom": self.dom,
            "cod": self.cod,
            "terms": [
                {"coeff": str(c), "diagram": d.to_json_obj()}
                for d, c in self.sorted_terms()
            ],
        }

    @classmethod
    @json_reader
    def from_json_obj(cls, obj: dict) -> Morphism:
        dom, cod = json_int(obj["dom"], "dom"), json_int(obj["cod"], "cod")
        # guard the shape before any term is read: validating a term walks
        # its whole claimed boundary
        guard(dom)
        guard(cod)
        return cls._sum(dom, cod, (
            (diagram_from_json_obj(t["diagram"], dom, cod), GaussianRational.parse(t["coeff"]))
            for t in obj["terms"]
        ))

    def __str__(self) -> str:
        if not self.terms:
            return f"0: {self.dom}->{self.cod}"
        bits = [f"({c}) {d}" for d, c in self.sorted_terms()]
        return f"{self.dom}->{self.cod}: " + " + ".join(bits)

    def __repr__(self) -> str:
        return f"<Morphism {self.dom}->{self.cod}, {len(self.terms)} terms>"


# id_diagram(n) by arity, without the guard's cost on every product
_identity = memo()(id_diagram.__wrapped__)


def compose_sums(xs: list, y: Morphism) -> dict[AnnularDiagram, list[int]]:
    """The terms dx . dy of x after y, summed on ints: diagram -> [a, b, d].

    `xs` lists the terms (dx, a, b, d), meaning (a + b*i)/d, of x.  The
    terms of y are the outer loop and those of x the inner one, and the
    sums keep the order in which their diagrams first occur; a sum may be
    zero.  Composing with the identity gives the other diagram back, each
    inessential circle is a factor of -2, and in quotient mode a product
    with an essential circle is dropped.  The sums add as
    `scalar.accumulate` does.
    """
    quotient = get_config().mode == MODE_QUOTIENT
    ident = _identity(y.cod)
    acc: dict[AnnularDiagram, list[int]] = {}
    for dy, cy in y.terms.items():
        ay, by, ey = cy.a, cy.b, cy.d
        for dx, ax, bx, ex in xs:
            if dy is ident:
                d, iness = dx, 0
            elif dx is ident:
                d, iness = dy, 0
            else:
                d, iness, _ = compose(dy, dx)
            if quotient and d.ess:
                continue
            # cx * cy * (-2)^iness
            a, b, den = ax * ay - bx * by, ax * by + bx * ay, ex * ey
            if iness:
                f = (-2) ** iness
                a *= f
                b *= f
            e = acc.get(d)
            if e is None:
                acc[d] = [a, b, den]
            elif e[2] == den:
                e[0] += a
                e[1] += b
            else:
                add_rescaled(e, a, b, den)
    return acc


def mor_compose(x: Morphism, y: Morphism) -> Morphism:
    """Categorical composition x after y."""
    if x.dom != y.cod:
        raise ValueError(f"cannot compose {x.dom}->{x.cod} after {y.dom}->{y.cod}")
    xs = [(d, c.a, c.b, c.d) for d, c in x.terms.items()]
    return Morphism._from_sums(y.dom, x.cod, compose_sums(xs, y))


# -- generator morphisms ----------------------------------------------------


def gen_id(n: int) -> Morphism:
    return Morphism.from_diagram(id_diagram(n))


def gen_u(n: int, i: int) -> Morphism:
    if i == 0:
        return Morphism.from_diagram(u0_diagram(n))
    return Morphism.from_diagram(u_diagram(n, i))


def gen_cap(n: int, i: int) -> Morphism:
    return Morphism.from_diagram(cap_diagram(n, i))


def gen_cup(n: int, i: int) -> Morphism:
    return Morphism.from_diagram(cup_diagram(n, i))


def gen_d(n: int, e: int = 1) -> Morphism:
    return Morphism.from_diagram(d_diagram(n, e))


def crossing(n: int, i: int) -> Morphism:
    """The q=1 crossing of strands i-1, i: identity plus U_i."""
    return gen_id(n) + gen_u(n, i)
