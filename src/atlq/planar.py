"""Structural operations: generator words, strand insertion, tensor, trace.

Every canonical diagram factors as a composition of caps, cups and
rotations.  `factorize` finds such a word greedily: strip caps off the
inner boundary and cups off the outer one, and while the seam is still
crossed, pre- or post-compose with one rotation that lowers the seam
(the `factorize` docstring says why there is one).  `recompose`
multiplies a word back out, and `projectors._overlap` applies the words
of the two-strand projectors one letter at a time, on the int sums of
one denominator (`diagram.compose_sums`).

* `iota` (add a strand on the right).  A wound arc crosses every radial
  line of the annulus, so it cannot avoid the added strand, and at q=1 a
  crossing is the sum of its two smoothings (id + U).  So d (x) 1 is the
  sum of the 2^seam pictures with every crossing smoothed; `_smoothings`
  walks them on the int codes of `compose`, and `iota_diagram` reduces
  each like a composite.  In quotient mode it drops the pictures that
  close an essential circle, which gives pi(d (x) 1), pi dropping every
  term with an essential circle.  Multiplying the strand past the letters
  of factorize(d) (cap/cup one arity up, D -> s . D) gives the same sum,
  because pi commutes with composition.
* `iota_prime` (add a strand on the left) is the conjugate D^-1 iota(.) D,
  taken per diagram: 1 (x) d = D^-1 . (d (x) 1) . D is built once per mode
  and diagram, and iota_prime(x) sums c . (1 (x) d) over the terms c.d of x.
  That is the conjugate of the whole of iota(x), because composition is
  bilinear and pi commutes with it.  Both insertions add their per-diagram
  results on int numerators (`_scaled_sum`), as `mor_compose` does, and
  reduce each output coefficient once.
* `tensor` superposes side by side: X (x) Y = iota^|Y|(X) . iota_prime^|X|(Y),
  with a direct fast path when nothing crosses the seam.
* `partial_trace` closes the last strand around the right, cap . (X (x) 1) . cup,
  by closing the cup and the cap on each picture of `_smoothings` and
  reducing the seam after, which tells how a loop through it winds.
"""

from __future__ import annotations

from bisect import bisect_left

from .config import CACHE_CLEARS, MODE_QUOTIENT, get_config, guard, memo
from .diagram import (
    AnnularDiagram,
    Morphism,
    _canonical,
    _intern,
    _reduce_seam,
    cap_diagram,
    compose,
    cup_diagram,
    d_diagram,
    gen_cap,
    gen_cup,
    gen_d,
    gen_id,
    id_diagram,
    make_diagram,
)
from .scalar import accumulate

# A letter is ("cap", n, i) | ("cup", n, i) | ("d", n, e), where n is the
# arity of its domain; words list letters in application order.
Letter = tuple[str, int, int]

_factor_cache: dict[AnnularDiagram, tuple[Letter, ...]] = {}
CACHE_CLEARS.append(_factor_cache.clear)


def _find_turnback(d: AnnularDiagram, side: str) -> int | None:
    """The first j with an arc side_j - side_{j+1}: a cap on "I", a cup on "O"."""
    off, size = (0, d.dom) if side == "I" else (d.dom, d.cod)
    codes = d.codes
    for j in range(off, off + size - 1):
        if codes[j] == j + 1:
            return j - off
    return None


def _strip_turnback(d: AnnularDiagram, side: str, j: int) -> AnnularDiagram:
    """d without its cap (side "I") or cup (side "O") at j: d . cup or cap . d.

    The strips skip the `compose` memo: `_factor_cache` keeps the word.
    """
    if side == "I":
        out, iness, _ = compose.__wrapped__(cup_diagram(d.dom - 2, j), d)
    else:
        out, iness, _ = compose.__wrapped__(d, cap_diagram(d.cod, j))
    assert iness == 1 and out.ess == d.ess
    return out


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


def _smoothings(d: AnnularDiagram, quotient: bool):
    """The states of d (x) 1, by resolving the crossings of the new strand level by level.

    The new strand runs from I_m to O_n just left of the R edge and crosses
    the arc at each R_t once.  Walk up it, carrying the far end of the curve
    that runs along it (I_m at first), and resolve each crossing into its
    two smoothings: with a the point joined to R_t, one smoothing joins the
    carried end to R_t and carries a on, the other joins it to a and
    carries R_t on.  At the top the carried end meets O_n.

    The 2^seam states collapse to few diagrams, so each partial state is
    reduced (`_reduce_seam`) on the levels already walked and below the
    carried end, and equal partial states are merged before the next level.
    A reduction can join R_t to the carried end; the crossing at R_t then
    closes the carried curve on itself, and the two smoothings add up to
    -1 times carrying R_t on.  Circles count as in `compose`: -2 for each
    inessential one, and in quotient mode a state with an essential circle
    is dropped as soon as it has one.  Yields (partner code, surviving
    levels, essential circles, int coefficient); the caller reduces the rest.
    """
    if d.ess:
        raise ValueError("cannot superpose a strand over an essential circle")
    m, n, k = d.dom + 1, d.cod + 1, d.seam
    lo = m + n
    ro = lo + k
    # d's code shifted past the new points I_{m-1} and O_{n-1}, both unmatched
    shift = [*range(m - 1), *range(m, lo - 1), *range(lo, ro + k)]
    coded = [shift[c] for c in d.codes]
    base = coded[: m - 1] + [-1] + coded[m - 1 : lo - 2] + [-1] + coded[lo - 2 :]
    # (partner codes, carried end, surviving levels, essential circles) ->
    # coefficient; the carried end's own entry is -1
    states = {(tuple(base), m - 1, tuple(range(k)), 0): 1}
    for t in range(k):
        r = ro + t
        nxt: dict = {}
        for state, c in states.items():
            partner, carried, levels, ess = state
            a = partner[r]
            if a < 0:
                nxt[state] = nxt.get(state, 0) - c
                continue
            for new in (a, r):
                p = list(partner)
                if new == a:
                    p[carried], p[r] = r, carried
                else:
                    p[carried], p[a] = a, carried
                p[new] = -1
                e, iness, kept = ess, 0, levels
                # reducing here only merges states, the last pass reduces the
                # rest; it can find something new only when the old carried
                # end is on the seam or L_t, walked now, is joined to the seam
                if carried >= lo or (new == a and partner[lo + t] >= lo):
                    cut = t + 1 if new < lo else min(t + 1, (new - lo) % k)
                    i = bisect_left(levels, cut)
                    done = list(levels[:i])
                    closed, iness = _reduce_seam(p, done, lo, ro)
                    e += closed
                    if quotient and e:
                        continue
                    if len(done) < i:
                        kept = tuple(done) + levels[i:]
                nkey = (tuple(p), new, kept, e)
                nxt[nkey] = nxt.get(nkey, 0) + c * (-2) ** iness
        states = nxt
    for (partner, carried, levels, ess), c in states.items():
        p = list(partner)
        p[carried], p[lo - 1] = lo - 1, carried
        yield p, list(levels), ess, c


def iota_diagram(d: AnnularDiagram) -> Morphism:
    """d (x) 1: the states of `_smoothings`, each reduced to a canonical diagram."""
    key = (get_config().mode, d)
    cached = _iota_cache.get(key)
    if cached is not None:
        return cached
    quotient = key[0] == MODE_QUOTIENT
    acc: dict[AnnularDiagram, list[int]] = {}
    for p, levels, ess, c in _smoothings(d, quotient):
        e, iness, ess = _canonical(p, d.dom + 1, d.cod + 1, d.seam, levels, ess, 0)
        if not (quotient and ess):
            accumulate(acc, e, c * (-2) ** iness, 0, 1)
    _iota_cache[key] = out = Morphism._from_sums(d.dom + 1, d.cod + 1, acc)
    return out


@memo()
def _iota_prime_diagram(mode: str, d: AnnularDiagram) -> Morphism:
    """1 (x) d = D^-1 . (d (x) 1) . D.

    `mode` is the current mode, passed only to key the memo.  The memo is
    not `_iota_cache`, which holds right insertions alone.
    """
    return gen_d(d.cod + 1, -1) * iota_diagram(d) * gen_d(d.dom + 1, 1)


def _scaled_sum(dom: int, cod: int, pairs) -> Morphism:
    """The dom -> cod morphism sum of c . M over the (c, M) pairs, added on ints.

    The guard runs before the first pair is drawn, so before any memo that
    the pairs read.  Terms keep the order in which they first occur.
    """
    guard(max(dom, cod))
    acc: dict[AnnularDiagram, list[int]] = {}
    for c, x in pairs:
        a, b, den = c.a, c.b, c.d
        for e, v in x.terms.items():
            accumulate(acc, e, a * v.a - b * v.b, a * v.b + b * v.a, den * v.d)
    return Morphism._from_sums(dom, cod, acc)


def iota(x: Morphism) -> Morphism:
    """Insert a through strand to the right of everything: X -> X (x) 1."""
    pairs = ((c, iota_diagram(d)) for d, c in x.terms.items())
    return _scaled_sum(x.dom + 1, x.cod + 1, pairs)


def iota_prime(x: Morphism) -> Morphism:
    """Insert a through strand to the left of everything: X -> 1 (x) X."""
    mode = get_config().mode
    pairs = ((c, _iota_prime_diagram(mode, d)) for d, c in x.terms.items())
    return _scaled_sum(x.dom + 1, x.cod + 1, pairs)


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
    # iota refuses a strand over an essential circle: a wound y at the first
    # step of its tower, which is built first, and a wound x here, before it
    if y.cod and any(d.ess for d in x.terms):
        raise ValueError("cannot superpose a strand over an essential circle")
    right = y
    for _ in range(x.dom):
        right = iota_prime(right)
    left = x
    for _ in range(y.cod):
        left = iota(left)
    return left * right


def _tensor_planar(x: Morphism, y: Morphism) -> Morphism:
    a, b, c, e = x.dom, x.cod, y.dom, y.cod
    dom, cod = a + c, b + e
    # the composite's code of each point of x, and of y: x's points come
    # first on either edge
    mx = [*range(a), *range(dom, dom + b)]
    my = [*range(a, dom), *range(dom + b, dom + cod)]
    left = [([mx[p] for p in d.codes[:a]], [mx[p] for p in d.codes[a:]], v) for d, v in x.terms.items()]
    right = [([my[p] for p in d.codes[:c]], [my[p] for p in d.codes[c:]], v) for d, v in y.terms.items()]
    return Morphism._sum(dom, cod, (
        (_intern(dom, cod, 0, 0, tuple(xi + yi + xo + yo)), cx * cy)
        for xi, xo, cx in left for yi, yo, cy in right
    ))


def partial_trace(x: Morphism) -> Morphism:
    """Close the last strand of x: M -> N around the right: cap . (x (x) 1) . cup.

    On each state of `_smoothings` the cup joins I_{M-1} to I_M, then the
    cap O_{N-1} to O_N, -2 for a pair already joined; `_canonical` closes a
    loop through the seam.  pi commutes with composition: cap . iota(x) . cup.
    """
    if x.dom < 1 or x.cod < 1:
        raise ValueError("partial trace needs at least one strand on each side")
    quotient = get_config().mode == MODE_QUOTIENT
    m, n = x.dom - 1, x.cod - 1
    lo = m + n + 4  # L_0 on the walk's points
    acc: dict[AnnularDiagram, list[int]] = {}
    for d, c in x.terms.items():
        # the walk's points but the four closed ones, and their new codes
        keep = [*range(m), *range(m + 2, lo - 2), *range(lo, lo + 2 * d.seam)]
        ren = [*range(m), -1, -1, *range(m, lo - 4), -1, -1, *range(lo - 4, lo - 4 + 2 * d.seam)]
        for p, levels, ess, v in _smoothings(d, quotient):
            for i in (m, lo - 2):  # the cup, then the cap
                a, b = p[i], p[i + 1]
                if a == i + 1:
                    v *= -2
                else:
                    p[a], p[b] = b, a
            e, iness, ess = _canonical([ren[p[q]] for q in keep], m, n, d.seam, levels, ess, 0)
            if not (quotient and ess):
                v *= (-2) ** iness
                accumulate(acc, e, c.a * v, c.b * v, c.d)
    return Morphism._from_sums(m, n, acc)


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
