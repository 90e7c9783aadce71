"""Structural operations built on generator words.

Every canonical diagram factors as a composition of caps, cups and
rotations.  `factorize` finds such a word greedily: strip caps off the
inner boundary and cups off the outer one, and while the seam is still
crossed, pre- or post-compose with one rotation that lowers the seam
(the `factorize` docstring says why there is one).  The word is the
backbone for the operations that have to resolve crossings:

* `iota` (add a strand on the right).  For a seam-free diagram this just
  appends a through strand.  A wound arc, however, crosses every radial
  line of the annulus, so it must cross the added strand; at q=1 the
  crossing resolves as id + U.  Mapping letters cap/cup -> same letter one
  arity up and D -> s . D (rotation followed by a crossing of the last two
  strands) implements exactly that resolution.
* `iota_prime` (add a strand on the left) is the conjugate D^-1 iota(.) D.
* `tensor` superposes side by side: X (x) Y = iota^|Y|(X) . iota_prime^|X|(Y),
  with a direct fast path when nothing crosses the seam.
* `partial_trace` closes the last strand around the right: cap . iota(X) . cup.
  Closing by naively reconnecting boundary points misclassifies the winding
  of the closed loop whenever the last strand wraps, so the categorical
  formula is the default and the direct splice is only used seam-free.
"""

from __future__ import annotations

from .config import CACHE_CLEARS, get_config, guard
from .diagram import (
    AnnularDiagram,
    Morphism,
    cap_diagram,
    compose,
    crossing,
    cup_diagram,
    d_diagram,
    gen_cap,
    gen_cup,
    gen_d,
    gen_id,
    id_diagram,
    make_diagram,
    mor_compose,
)
from .scalar import MINUS_TWO

# A letter is ("cap", n, i) | ("cup", n, i) | ("d", n, e), where n is the
# arity of its domain; words list letters in application order.
Letter = tuple[str, int, int]

_factor_cache: dict[AnnularDiagram, tuple[Letter, ...]] = {}
CACHE_CLEARS.append(_factor_cache.clear)


def _find_turnback(d: AnnularDiagram, side: str) -> int | None:
    """The first j with an arc side_j - side_{j+1}: a cap on "I", a cup on "O"."""
    for j in range((d.dom if side == "I" else d.cod) - 1):
        if ((side, j), (side, j + 1)) in d.arcs:
            return j
    return None


def _strip_turnback(d: AnnularDiagram, side: str, j: int) -> AnnularDiagram:
    def fix(x):
        return (side, x[1] - 2) if x[0] == side and x[1] > j + 1 else x

    turn = ((side, j), (side, j + 1))
    arcs = [(fix(p), fix(q)) for p, q in d.arcs if (p, q) != turn]
    if side == "I":
        return make_diagram(d.dom - 2, d.cod, d.seam, d.ess, arcs)
    return make_diagram(d.dom, d.cod - 2, d.seam, d.ess, arcs)


def _rotate(d: AnnularDiagram, e: int, side: str) -> AnnularDiagram:
    """d . D^e (side="pre") or D^e . d (side="post"); never creates circles."""
    if side == "pre":
        out, iness, _ = compose(d_diagram(d.dom, e), d)
    else:
        out, iness, _ = compose(d, d_diagram(d.cod, e))
    assert iness == 0 and out.ess == d.ess
    return out


def factorize(d: AnnularDiagram) -> tuple[Letter, ...]:
    """Write a canonical circle-free diagram as a generator word.

    The letters are applied first to last; recompose(word, d.dom) rebuilds
    the diagram with coefficient one.

    Each step strips an adjacent cap (I_j, I_{j+1}) or cup (O_j, O_{j+1}),
    or else applies one rotation: the first of d.D, d.D^-1, D.d, D^-1.d
    that lowers the seam.  One rotation lowering the seam always exists
    once no adjacent cap or cup is left:

    * an innermost input cap spans no endpoint, so it is the wrap pair
      (I_{m-1}, I_0), and one pre-rotation makes it planar;
    * the same holds for output cups with a post-rotation;
    * with neither, every strand goes through, the diagram is D^w with
      w != 0, and one rotation lowers the seam.
    """
    if d.ess:
        raise ValueError("cannot factorize a diagram carrying essential circles")
    cached = _factor_cache.get(d)
    if cached is not None:
        return cached
    pre: list[Letter] = []
    post_rev: list[Letter] = []  # discovered outermost first
    work = d
    while True:
        j = _find_turnback(work, "I")
        if j is not None:
            pre.append(("cap", work.dom, j))
            work = _strip_turnback(work, "I", j)
            continue
        j = _find_turnback(work, "O")
        if j is not None:
            post_rev.append(("cup", work.cod - 2, j))
            work = _strip_turnback(work, "O", j)
            continue
        if work.seam == 0:
            break
        for side, e in (("pre", 1), ("pre", -1), ("post", 1), ("post", -1)):
            n = work.dom if side == "pre" else work.cod
            if n == 0:
                continue
            cand = _rotate(work, e, side)
            if cand.seam < work.seam:
                break
        else:
            raise RuntimeError(f"cannot reduce seam of {work}")
        (pre if side == "pre" else post_rev).append(("d", n, -e))
        work = cand
    # a seam-free matching with no caps or cups is all through strands,
    # and noncrossing through strands cannot permute
    assert work == id_diagram(work.dom), f"stuck at {work}"
    word = tuple(pre) + tuple(reversed(post_rev))
    _factor_cache[d] = word
    return word


def letter_morphism(letter: Letter) -> Morphism:
    kind, n, x = letter
    if kind == "cap":
        return gen_cap(n, x)
    if kind == "cup":
        return gen_cup(n, x)
    if kind == "d":
        return gen_d(n, x)
    raise ValueError(f"unknown letter {letter!r}")


def recompose(dom: int, word) -> Morphism:
    """Compose a generator word (applied first to last) starting at dom."""
    cur = gen_id(dom)
    for letter in word:
        if letter[1] != cur.cod:
            raise ValueError(f"letter {letter} does not fit arity {cur.cod}")
        cur = letter_morphism(letter) * cur
    return cur


# -- strand insertion -------------------------------------------------------

_iota_cache: dict[tuple[str, AnnularDiagram], Morphism] = {}
CACHE_CLEARS.append(_iota_cache.clear)


def _iota_letter(letter: Letter) -> Morphism:
    kind, n, x = letter
    if kind == "cap":
        return gen_cap(n + 1, x)
    if kind == "cup":
        return gen_cup(n + 1, x)
    # the new strand sits at the old seam position: rotating past it makes
    # the wound strand cross it, and the q=1 crossing is id + U
    if x == 1:
        return crossing(n + 1, n) * gen_d(n + 1, 1)
    return gen_d(n + 1, -1) * crossing(n + 1, n)


def iota_diagram(d: AnnularDiagram) -> Morphism:
    if d.ess:
        raise ValueError("cannot superpose a strand over an essential circle")
    key = (get_config().mode, d)
    cached = _iota_cache.get(key)
    if cached is not None:
        return cached
    if d.seam == 0:
        out = Morphism.from_diagram(
            make_diagram(
                d.dom + 1,
                d.cod + 1,
                0,
                0,
                d.arcs + ((("I", d.dom), ("O", d.cod)),),
            )
        )
    else:
        out = gen_id(d.dom + 1)
        for letter in factorize(d):
            out = _iota_letter(letter) * out
    _iota_cache[key] = out
    return out


def iota(x: Morphism) -> Morphism:
    """Insert a through strand to the right of everything: X -> X (x) 1."""
    guard(max(x.dom, x.cod) + 1)
    return Morphism._sum(x.dom + 1, x.cod + 1, (
        (k, c * v) for d, c in x.terms.items() for k, v in iota_diagram(d).terms.items()
    ))


def iota_prime(x: Morphism) -> Morphism:
    """Insert a through strand to the left of everything: X -> 1 (x) X."""
    return gen_d(x.cod + 1, -1) * iota(x) * gen_d(x.dom + 1, 1)


def is_planar(x: Morphism) -> bool:
    """True iff no term touches the seam or carries a circle.

    These are exactly the morphisms of the rectangular sublayer, where
    composition never winds and the fast tensor route applies.
    """
    return all(d.seam == 0 and d.ess == 0 for d in x.terms)


def tensor(x: Morphism, y: Morphism) -> Morphism:
    """Superposition x (x) y, with x inserted counterclockwise of y."""
    guard(max(x.dom + y.dom, x.cod + y.cod))
    if is_planar(x) and is_planar(y):
        return _tensor_planar(x, y)
    if x.is_identity():
        out = y
        for _ in range(x.dom):
            out = iota_prime(out)
        return out
    if y.is_identity():
        out = x
        for _ in range(y.dom):
            out = iota(out)
        return out
    left = x
    for _ in range(y.cod):
        left = iota(left)
    right = y
    for _ in range(x.dom):
        right = iota_prime(right)
    return left * right


def _tensor_planar(x: Morphism, y: Morphism) -> Morphism:
    def shift(p):
        return (p[0], p[1] + (x.dom if p[0] == "I" else x.cod))

    right = [(tuple((shift(p), shift(q)) for p, q in dy.arcs), cy) for dy, cy in y.terms.items()]
    dom, cod = x.dom + y.dom, x.cod + y.cod
    return Morphism._sum(dom, cod, (
        (make_diagram(dom, cod, 0, 0, dx.arcs + arcs), cx * cy)
        for dx, cx in x.terms.items() for arcs, cy in right
    ))


def partial_trace(x: Morphism) -> Morphism:
    """Close the last strand around the outside of the diagram."""
    if x.dom < 1 or x.cod < 1:
        raise ValueError("partial trace needs at least one strand on each side")
    if is_planar(x):
        last_i, last_o = ("I", x.dom - 1), ("O", x.cod - 1)

        def closed(d, c):
            partner = d.partner_map()
            if partner[last_i] == last_o:
                arcs = [a for a in d.arcs if last_i not in a]
                c = c * MINUS_TWO
            else:
                arcs = [a for a in d.arcs if last_i not in a and last_o not in a]
                arcs.append((partner[last_i], partner[last_o]))
            return make_diagram(x.dom - 1, x.cod - 1, 0, 0, arcs), c

        return Morphism._sum(x.dom - 1, x.cod - 1, (closed(d, c) for d, c in x.terms.items()))
    return gen_cap(x.cod + 1, x.cod - 1) * iota(x) * gen_cup(x.dom - 1, x.dom - 1)


# -- small planar families ---------------------------------------------------


def nested_cups(r: int) -> Morphism:
    """0 -> 2r, cups nested around their common center."""
    return Morphism.from_diagram(
        make_diagram(0, 2 * r, 0, 0, [(("O", j), ("O", 2 * r - 1 - j)) for j in range(r)])
    )


def nested_caps(r: int) -> Morphism:
    """2r -> 0, mirror of nested_cups."""
    return Morphism.from_diagram(
        make_diagram(2 * r, 0, 0, 0, [(("I", j), ("I", 2 * r - 1 - j)) for j in range(r)])
    )


def ess_generator(k: int) -> Morphism:
    """The essential-circle element on k strands.

    For k = 0 this is the literal floating circle; for k >= 1 it is the
    sum of the two rotations with a strand superposed k-1 times, which is
    what a circle under k through strands resolves to.
    """
    if k < 0:
        raise ValueError("negative strand count")
    if k == 0:
        return Morphism.from_diagram(make_diagram(0, 0, 0, 1, ()))
    out = gen_d(1, 1) + gen_d(1, -1)
    for _ in range(k - 1):
        out = iota(out)
    return out
