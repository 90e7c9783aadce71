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

`Morphism` is a finite linear combination of diagrams with coefficients in
Q(i): a `scalar.Combination` whose keys are diagrams, from which it
inherits construction, the linear structure, equality and JSON text.  It
adds composition and the tensor product.  Composition stacks one annulus
inside the other, traces strands through the middle circle, counts the
circles created, and reduces the combined seam.  In quotient mode (the default) terms that acquire an
essential circle are dropped.

`compose` works on int codes, not point tuples: the points of the glued
picture are numbered in blocks I, O, L, R, then the middle points, each
block in index order.  That is `point_key` order, and dropping seam
levels keeps it, so the composite's arcs come out already sorted.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from .config import CACHE_CLEARS, MODE_QUOTIENT, get_config, guard, memo
from .scalar import ONE, Combination, GaussianRational, add_rescaled, json_int, json_reader

Point = tuple[str, int]
Arc = tuple[Point, Point]

_KIND_ORDER = {"I": 0, "O": 1, "L": 2, "R": 3}


def point_key(p: Point) -> tuple[int, int]:
    return (_KIND_ORDER[p[0]], p[1])


def _norm_arcs(arcs) -> tuple[Arc, ...]:
    out = []
    for p, q in arcs:
        out.append((p, q) if point_key(p) <= point_key(q) else (q, p))
    out.sort(key=lambda a: (point_key(a[0]), point_key(a[1])))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class AnnularDiagram:
    dom: int
    cod: int
    seam: int
    ess: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash((self.dom, self.cod, self.seam, self.ess, self.arcs))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes are salted per process, so the cached hash must not
        # travel; reloading interns the diagram and hashes it afresh
        return (_intern, (self.dom, self.cod, self.seam, self.ess, self.arcs))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AnnularDiagram):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.dom == other.dom
            and self.cod == other.cod
            and self.seam == other.seam
            and self.ess == other.ess
            and self.arcs == other.arcs
        )

    def boundary_cycle(self) -> list[Point]:
        cycle = [("I", j) for j in range(self.dom)]
        cycle += [("R", t) for t in range(self.seam)]
        cycle += [("O", j) for j in reversed(range(self.cod))]
        cycle += [("L", t) for t in reversed(range(self.seam))]
        return cycle

    def partner_map(self) -> dict[Point, Point]:
        partner: dict[Point, Point] = {}
        for p, q in self.arcs:
            partner[p] = q
            partner[q] = p
        return partner

    def validate(self) -> None:
        """Raise ValueError unless this is a canonical diagram."""
        if min(self.dom, self.cod, self.seam, self.ess) < 0:
            raise ValueError("negative size field")
        # count first: the boundary is as long as the claimed seam
        if 2 * len(self.arcs) != self.dom + self.cod + 2 * self.seam:
            raise ValueError("arcs are not a perfect matching on the boundary")
        cycle = self.boundary_cycle()
        expected = set(cycle)
        seen = set()
        for p, q in self.arcs:
            for x in (p, q):
                if x not in expected:
                    raise ValueError(f"point {x} out of range")
                if x in seen:
                    raise ValueError(f"point {x} used twice")
                seen.add(x)
            if p == q:
                raise ValueError("arc endpoints coincide")
        if seen != expected:
            raise ValueError("arcs are not a perfect matching on the boundary")
        partner = self.partner_map()
        # noncrossing check: arcs must nest properly along the boundary cycle
        pos = {p: idx for idx, p in enumerate(cycle)}
        stack: list[Point] = []
        for p in cycle:
            if stack and stack[-1] == partner[p]:
                stack.pop()
            elif pos[partner[p]] > pos[p]:
                stack.append(p)
            else:
                raise ValueError(f"arcs cross near {p}")
        if stack:
            raise ValueError("arcs cross")
        # seam minimality
        for t in range(self.seam):
            if partner.get(("L", t)) == ("R", t):
                raise ValueError(f"reducible: essential circle at level {t}")
            for kind in ("L", "R"):
                if partner.get((kind, t)) == (kind, t + 1):
                    raise ValueError(f"reducible: {kind}-edge arc at levels {t},{t + 1}")
        if self.ess:
            for p, q in self.arcs:
                if {p[0], q[0]} == {"I", "O"}:
                    raise ValueError("through strand coexists with an essential circle")

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


# diagrams recur heavily during composition; interning keeps one object per
# canonical form so hashing and equality usually reduce to identity checks
_POOL: dict[tuple, AnnularDiagram] = {}
CACHE_CLEARS.append(_POOL.clear)


def _intern(dom: int, cod: int, seam: int, ess: int, arcs: tuple[Arc, ...]) -> AnnularDiagram:
    key = (dom, cod, seam, ess, arcs)
    d = _POOL.get(key)
    if d is None:
        d = _POOL.setdefault(key, AnnularDiagram(dom, cod, seam, ess, arcs))
    return d


def make_diagram(dom: int, cod: int, seam: int, ess: int, arcs) -> AnnularDiagram:
    return _intern(dom, cod, seam, ess, _norm_arcs(arcs))


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
    d = AnnularDiagram(dom, cod, seam, ess, _norm_arcs(arcs))
    # validate before interning, so that a rejected diagram stays out of the pool
    d.validate()
    return _intern(d.dom, d.cod, d.seam, d.ess, d.arcs)


# -- composition ----------------------------------------------------------

# point tuples by kind and index, grown on demand and shared by composites
_POINTS: dict[str, list[Point]] = {"I": [], "O": [], "L": [], "R": []}


def _points(kind: str, n: int) -> list[Point]:
    pts = _POINTS[kind]
    while len(pts) < n:
        pts.append((kind, len(pts)))
    return pts


def _seam_step(partner: list[int], levels: list[int], lo: int, ro: int):
    """Make one seam reduction in place on compose's int codes.

    Returns the (essential, inessential) circles it closed, or None when
    the matching is already seam-minimal.  Levels are dropped lazily:
    adjacency means consecutive in the list of surviving levels.
    """
    # a same-level arc L_t - R_t closes into a curve crossing the seam
    # once: an essential circle
    for t in levels:
        if partner[lo + t] == ro + t:
            partner[lo + t] = partner[ro + t] = -1
            levels.remove(t)
            return 1, 0
    # an arc along one edge between adjacent surviving levels can be
    # pulled off the seam, splicing whatever meets the opposite edge
    for idx in range(len(levels) - 1):
        t, t1 = levels[idx], levels[idx + 1]
        for side, opp in ((lo, ro), (ro, lo)):
            if partner[side + t] == side + t1:
                a, b = partner[opp + t], partner[opp + t1]
                partner[side + t] = partner[side + t1] = partner[opp + t] = partner[opp + t1] = -1
                del levels[idx : idx + 2]
                if a == opp + t1:
                    # both edges carry the same hairpin: together they close
                    # into a loop crossing the seam twice with opposite
                    # orientations, an inessential circle
                    return 0, 1
                partner[a] = b
                partner[b] = a
                return 0, 0
    return None


def _code_arcs(partner: list[int], arcs, off: dict[str, int]) -> None:
    """Enter each arc into `partner` as two int codes, off[kind] + index."""
    for (pk, pj), (qk, qj) in arcs:
        p = off[pk] + pj
        q = off[qk] + qj
        partner[p] = q
        partner[q] = p


@memo()
def compose(inner: AnnularDiagram, outer: AnnularDiagram):
    """Glue `outer` around `inner` (inner.cod == outer.dom).

    Returns (diagram, inessential, essential): the canonical composite,
    the number of inessential circles produced (factors of -2), and the
    total essential circle count carried by the composite.

    Every point of the glued picture is an int code, in blocks: I_j -> j,
    O_j -> m + j, L_t -> m + n + t, R_t -> m + n + k + t, and the middle
    points M_j (inner O_j = outer I_j) last, where m = inner.dom,
    n = outer.cod and k = inner.seam + outer.seam (outer levels sit above
    the inner ones).  The blocks follow `point_key` order, and so does
    the index order inside each block; dropping seam levels keeps the
    order of those that survive.  So the arcs (c, partner[c]) with
    c < partner[c], read in increasing c, are already the canonical sorted
    arc tuple.
    """
    if inner.cod != outer.dom:
        raise ValueError(
            f"cannot glue: inner codomain {inner.cod} != outer domain {outer.dom}"
        )
    m, n, ka, mid = inner.dom, outer.cod, inner.seam, inner.cod
    k = ka + outer.seam
    lo = m + n
    ro = lo + k
    mo = ro + k  # the first middle point; codes below it are on the boundary

    pa = [-1] * (mo + mid)
    pb = [-1] * (mo + mid)
    _code_arcs(pa, inner.arcs, {"I": 0, "O": mo, "L": lo, "R": ro})
    _code_arcs(pb, outer.arcs, {"I": mo, "O": m, "L": lo + ka, "R": ro + ka})

    # follow each strand from a boundary point across the middle circle,
    # alternating between the two diagrams, to its other boundary end
    partner = [-1] * mo
    seen = [False] * mid
    for start in range(mo):
        if partner[start] >= 0:
            continue
        use, other = (pa, pb) if pa[start] >= 0 else (pb, pa)
        cur = use[start]
        while cur >= mo:
            seen[cur - mo] = True
            use, other = other, use
            cur = use[cur]
        partner[start] = cur
        partner[cur] = start

    iness = 0
    for j in range(mid):
        if seen[j]:
            continue
        # a component with no boundary endpoints: a closed loop confined
        # between the two seams, which cannot wind, hence inessential
        q = cur = mo + j
        while True:
            nxt = pa[cur]
            seen[cur - mo] = seen[nxt - mo] = True
            cur = pb[nxt]
            if cur == q:
                break
        iness += 1

    return _canonical(partner, m, n, k, list(range(k)), inner.ess + outer.ess, iness)


def _canonical(partner: list[int], m: int, n: int, k: int, levels: list[int], ess: int, iness: int):
    """Reduce the seam of an int-coded matching and intern the diagram.

    `partner` matches the codes I_j -> j, O_j -> m + j, L_t -> m + n + t
    and R_t -> m + n + k + t on the surviving `levels`, and is reduced in
    place.  `ess` and `iness` count the circles closed before; returns
    (diagram, inessential, essential) with the circles of the reduction
    added, as `compose` does.
    """
    lo = m + n
    ro = lo + k
    while step := _seam_step(partner, levels, lo, ro):
        ess += step[0]
        iness += step[1]

    ls, rs = _points("L", len(levels)), _points("R", len(levels))
    names = _points("I", m)[:m] + _points("O", n)[:n] + [None] * (2 * k)
    for s, t in enumerate(levels):
        names[lo + t], names[ro + t] = ls[s], rs[s]
    arcs = tuple([(names[c], names[p]) for c, p in enumerate(partner) if c < p])
    return _intern(m, n, len(levels), ess, arcs), iness, ess


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
    return make_diagram(n, n, 0, 0, arcs)


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
    return make_diagram(n, n - 2, 0, 0, arcs)


@memo(lambda n, i: n + 2)
def cup_diagram(n: int, i: int) -> AnnularDiagram:
    """Cup creating outer points i, i+1 (0-based); maps n -> n+2 strands."""
    if not 0 <= i <= n:
        raise ValueError(f"cup at {i} undefined on {n} strands")
    arcs = [(("O", i), ("O", i + 1))]
    arcs += [(("I", j), ("O", j if j < i else j + 2)) for j in range(n)]
    return make_diagram(n, n + 2, 0, 0, arcs)


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
    return make_diagram(n, n, 1, 0, arcs)


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
        def key(item):
            d = item[0]
            return (d.seam, d.ess, tuple((point_key(p), point_key(q)) for p, q in d.arcs))

        return sorted(self.terms.items(), key=key)

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
_IDENTITIES: dict[int, AnnularDiagram] = {}
CACHE_CLEARS.append(_IDENTITIES.clear)


def mor_compose(x: Morphism, y: Morphism) -> Morphism:
    """Categorical composition x after y."""
    if x.dom != y.cod:
        raise ValueError(f"cannot compose {x.dom}->{x.cod} after {y.dom}->{y.cod}")
    cfg = get_config()
    quotient = cfg.mode == MODE_QUOTIENT
    # composing with the identity gives the other diagram back; above the
    # strand limit no identity is built to test against
    ident = _IDENTITIES.get(x.dom)
    if ident is None and x.dom <= cfg.max_strands:
        ident = _IDENTITIES[x.dom] = id_diagram(x.dom)
    xs = [(dx, cx.a, cx.b, cx.d) for dx, cx in x.terms.items()]
    # unreduced [a, b, d] sums, as `scalar.accumulate` keeps them
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
    return Morphism._from_sums(y.dom, x.cod, acc)


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
