"""Seeded random morphism builders shared across test modules.

Everything here takes an explicit random.Random so failures reproduce
from the seed alone.  `reference_compose` is the dict-based diagram
composition that the int-coded `diagram.compose` replaced, kept as its
test oracle.
"""

from __future__ import annotations

import random

from atlq import Morphism, crossing, gen_d, gen_id, gen_u
from atlq.diagram import AnnularDiagram, Arc, Point, _intern, _KIND_ORDER


def random_single_diagram(rng: random.Random, n: int, length: int) -> Morphism:
    """A one-term morphism: a product of circle-free generators on n strands.

    Uses only U_i and D^{+-1}, whose products stay single diagrams (up to
    a scalar from inessential circles), so the result is suitable for
    factorize round-trips.  Skips any step that would create an essential
    circle by rebuilding until the term survives the quotient.
    """
    out = gen_id(n)
    steps = rng.randrange(length + 1)
    for _ in range(steps):
        if n >= 2 and rng.random() < 0.6:
            letter = gen_u(n, rng.randrange(n))
        else:
            letter = gen_d(n, rng.choice((1, -1)))
        nxt = out * letter
        if not nxt.is_zero():
            out = nxt
    return out


def random_word(rng: random.Random, n: int, length: int) -> list[Morphism]:
    """A list of generator letters (possibly multi-term crossings) on n strands."""
    word = []
    for _ in range(rng.randrange(1, length + 1)):
        kind = rng.random()
        if n >= 2 and kind < 0.45:
            word.append(gen_u(n, rng.randrange(n)))
        elif n >= 2 and kind < 0.6:
            word.append(crossing(n, rng.randrange(n)))
        else:
            word.append(gen_d(n, rng.choice((1, -1))))
    return word


def compose_word(word: list[Morphism], n: int) -> Morphism:
    out = gen_id(n)
    for letter in word:
        out = out * letter
    return out


# -- seam reduction -------------------------------------------------------


def _renumber_levels(partner: dict[Point, Point], keep: list[int]) -> None:
    remap = {t: s for s, t in enumerate(keep)}
    items = list(partner.items())
    partner.clear()
    for p, q in items:
        if p[0] in ("L", "R"):
            p = (p[0], remap[p[1]])
        if q[0] in ("L", "R"):
            q = (q[0], remap[q[1]])
        partner[p] = q


def _reduce_seam(partner: dict[Point, Point], k: int, ess: int):
    """Make the matching seam-minimal in place.

    Returns (seam, inessential circles removed, essential circles total).
    The caller's `partner` dict is rewritten.  Levels are dropped lazily:
    adjacency means consecutive in the list of surviving levels, and the
    final renumbering happens once.
    """
    iness = 0
    levels = list(range(k))
    changed = True
    while changed and levels:
        changed = False
        # a same-level arc L_t - R_t closes into a curve crossing the seam
        # once: an essential circle
        for t in levels:
            if partner.get(("L", t)) == ("R", t):
                del partner[("L", t)]
                del partner[("R", t)]
                ess += 1
                levels.remove(t)
                changed = True
                break
        if changed:
            continue
        # an arc along one edge between adjacent surviving levels can be
        # pulled off the seam, splicing whatever meets the opposite edge
        for idx in range(len(levels) - 1):
            t, t1 = levels[idx], levels[idx + 1]
            for side in ("L", "R"):
                if partner.get((side, t)) != (side, t1):
                    continue
                other = "R" if side == "L" else "L"
                if partner[(other, t)] == (other, t1):
                    # both edges carry the same hairpin: together they close
                    # into a loop crossing the seam twice with opposite
                    # orientations, an inessential circle
                    iness += 1
                    for pt in ((side, t), (side, t1), (other, t), (other, t1)):
                        del partner[pt]
                else:
                    a = partner[(other, t)]
                    b = partner[(other, t1)]
                    for pt in ((side, t), (side, t1), (other, t), (other, t1)):
                        del partner[pt]
                    partner[a] = b
                    partner[b] = a
                del levels[idx : idx + 2]
                changed = True
                break
            if changed:
                break
    if levels != list(range(len(levels))):
        _renumber_levels(partner, levels)
    return len(levels), iness, ess


def _partner_to_arcs(partner: dict[Point, Point]) -> tuple[Arc, ...]:
    """Arcs in canonical sorted order (endpoints ordered, arcs sorted)."""
    keyed = []
    for p, q in partner.items():
        kp = (_KIND_ORDER[p[0]], p[1])
        kq = (_KIND_ORDER[q[0]], q[1])
        if kp < kq:
            keyed.append((kp, kq, (p, q)))
    keyed.sort()
    return tuple(a for _, _, a in keyed)


# -- composition ----------------------------------------------------------


def reference_compose(inner: AnnularDiagram, outer: AnnularDiagram):
    """Glue `outer` around `inner` (inner.cod == outer.dom).

    Returns (diagram, inessential, essential): the canonical composite,
    the number of inessential circles produced (factors of -2), and the
    total essential circle count carried by the composite.
    """
    if inner.cod != outer.dom:
        raise ValueError(
            f"cannot glue: inner codomain {inner.cod} != outer domain {outer.dom}"
        )
    ka = inner.seam

    pa: dict[Point, Point] = {}
    pb: dict[Point, Point] = {}
    for p, q in inner.arcs:
        if p[0] == "O":
            p = ("M", p[1])
        if q[0] == "O":
            q = ("M", q[1])
        pa[p] = q
        pa[q] = p
    for p, q in outer.arcs:
        kind = p[0]
        if kind == "I":
            p = ("M", p[1])
        elif kind == "L" or kind == "R":
            p = (kind, ka + p[1])
        kind = q[0]
        if kind == "I":
            q = ("M", q[1])
        elif kind == "L" or kind == "R":
            q = (kind, ka + q[1])
        pb[p] = q
        pb[q] = p

    partner: dict[Point, Point] = {}
    seen_mid: set[Point] = set()
    for start in list(pa) + list(pb):
        if start[0] == "M" or start in partner:
            continue
        cur = start
        use = pa if start in pa else pb
        while True:
            nxt = use[cur]
            if nxt[0] != "M":
                partner[start] = nxt
                partner[nxt] = start
                break
            seen_mid.add(nxt)
            cur = nxt
            use = pb if use is pa else pa

    iness = 0
    for j in range(inner.cod):
        q = ("M", j)
        if q in seen_mid:
            continue
        # a component with no boundary endpoints: a closed loop confined
        # between the two seams, which cannot wind, hence inessential
        cur, use = q, pa
        while True:
            seen_mid.add(cur)
            cur = use[cur]
            use = pb if use is pa else pa
            if cur == q and use is pa:
                break
        iness += 1

    k, iness2, ess = _reduce_seam(partner, ka + outer.seam, inner.ess + outer.ess)
    diagram = _intern(inner.dom, outer.cod, k, ess, _partner_to_arcs(partner))
    return diagram, iness + iness2, ess
