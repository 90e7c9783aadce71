"""Seeded random morphism builders shared across test modules.

Everything here takes an explicit random.Random so failures reproduce
from the seed alone.  `reference_compose` is the dict-based diagram
composition that the int-coded `diagram.compose` replaced, and
`reference_phi_diagram` the word-based weight functor that the strand
tracing of `rep._phase_table` replaced.  `reference_phases` is the
product over strand orientations that built those tables before they
were built from sign masks, and `reference_phase_map` reads one
diagram's weight map off it.  `reference_phi` folds each sum of
`rep.phi` as a list of two numerators and a denominator per (row, col)
key, as the engine did before it packed each sum into one int keyed by
its sign mask.  `reference_mor_compose` and
`reference_weightmap_mul` fold their products through `GaussianRational`
arithmetic, reduced at every step, as the engine did before it summed
raw integer numerators.  `reference_rank_of_columns` and
`reference_solve_columns` eliminate through `GaussianRational` too, with
tag rows for the solution, as the engine did before it eliminated on
raw integer numerators.  `reference_overlap` builds T_m and H_m with the
right factor of their overlap product expanded first, as the engine did
before it applied that factor one letter at a time.
`reference_iota_diagram` adds a strand by multiplying the letters of
`factorize(d)` one arity up, as the engine did before it traced the
resolutions of the new strand's crossings.  `reference_weight_tensor`,
`reference_split` and `reference_split_nested` build the product formula
over the tensor factors a = T_m (x) id_n and b = id_m (x) T_n, as the
engine did before it went through T_m (x) T_n and the junction cap.
`reference_partial_trace` closes the last strand by splicing seam-free
operands in place and by cap . iota(x) . cup otherwise, as the engine
did before it closed the cup and the cap on the states of the strand
walk.  `reference_basis` filters all 2^(2n) label strings for the
balanced ones, as `enumerate_basis` did before it ran through the
positions of the "i"s.  `reference_iota_prime` adds a strand on the
left by conjugating the whole of iota(x) by D, as the engine did before
it summed per-diagram conjugates.  `reference_letter_overlap` applies
the letters of the overlap product's right factor as one `Morphism`
product each, reduced after every letter, as the engine did before it
applied them on the int sums of one denominator.  All are kept as test
oracles.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm
from sys import intern

from atlq import (
    Morphism,
    configure,
    crossing,
    extremal,
    factorize,
    gen_cap,
    gen_cup,
    gen_d,
    gen_id,
    gen_u,
    highest_weight,
    iota,
    is_planar,
    jones_wenzl,
    lowest_weight,
    nested_caps,
    nested_cups,
    tensor,
)
from atlq.canon import matching_from_labels
from atlq.config import MODE_QUOTIENT, get_config
from atlq.diagram import AnnularDiagram, Arc, Point, _KIND_ORDER, _intern, compose, make_diagram, point_key
from atlq.planar import _scaled_sum
from atlq.rep import _I_POWERS, WeightMap, _strands, sign_strings
from atlq.scalar import I, MINUS_I, MINUS_TWO, ONE, ZERO, GaussianRational


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


def projector_family() -> list[Morphism]:
    """T_2..T_5, JW_2..JW_6, H_2..H_4 and L_2..L_4."""
    built = [extremal(m) for m in range(2, 6)] + [jones_wenzl(m) for m in range(2, 7)]
    return built + [highest_weight(m) for m in range(2, 5)] + [lowest_weight(m) for m in range(2, 5)]


# denominators of the coefficients drawn below: powers of 2 and their
# multiples by 3, so that sums meet unequal denominators
DENOMINATORS = (1, 2, 3, 4, 6, 8)


def random_combination(rng: random.Random, diagrams: list, size: int) -> Morphism:
    """Up to `size` of the given diagrams of one shape, with random coefficients."""
    d0 = diagrams[0]
    terms = {}
    for d in rng.sample(diagrams, min(size, len(diagrams))):
        terms[d] = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS)),
            Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS)),
        )
    return Morphism(d0.dom, d0.cod, terms)


def reference_inputs(mode: str) -> list:
    """Distinct diagrams from the projector builds and seeded products, sorted."""
    built = projector_family()
    rng = random.Random(f"compose-{mode}")
    with configure(mode=mode):
        for _ in range(150):
            n = rng.randrange(1, 7)
            built.append(random_single_diagram(rng, n, 10))
            # U_0 and D^+-1 pile up seam levels; caps and cups change the
            # shape, and closing a winding word with both makes essential circles
            word = gen_id(n)
            for _ in range(rng.randrange(1, 6)):
                letter = gen_u(n, 0) if n >= 2 and rng.random() < 0.5 else gen_d(n, rng.choice((1, -1)))
                word = word * letter
            built.append(word)
            if n >= 2:
                cap, cup = gen_cap(n, rng.randrange(n - 1)), gen_cup(n - 2, rng.randrange(n - 1))
                built += [cap * word, word * cup, cap * word * cup]
    diagrams = {d for x in built for d in x.terms}
    return sorted(diagrams, key=lambda d: (
        d.dom, d.cod, d.seam, d.ess, [(point_key(p), point_key(q)) for p, q in d.arcs]
    ))


def reference_basis(n_points: int) -> list[AnnularDiagram]:
    """The basis of hom(0, n_points), filtered out of every {i, o} string in order."""
    half = n_points // 2
    return [
        matching_from_labels("".join(bits))
        for bits in product("io", repeat=n_points)
        if bits.count("i") == half
    ]


def wound_diagrams(rng: random.Random, count: int, length: int) -> list[AnnularDiagram]:
    """Circle-free diagrams from seeded words of caps, cups, U_i and D^+-1.

    Caps and cups move the arity between 0 and 8 strands, and each word
    mostly rotates one way, so the seam piles up.  A letter that would
    leave an essential circle is skipped; run this in quotient mode.
    """
    out = []
    for _ in range(count):
        x = gen_id(rng.randrange(7))
        sign = rng.choice((1, -1))
        for _ in range(rng.randrange(1, length + 1)):
            n, r = x.cod, rng.random()
            if r < 0.15 and n >= 2:
                letter = gen_cap(n, rng.randrange(n - 1))
            elif r < 0.3 and n <= 6:
                letter = gen_cup(n, rng.randrange(n + 1))
            elif r < 0.5 and n >= 2:
                letter = gen_u(n, rng.randrange(n))
            elif n >= 1:
                letter = gen_d(n, sign if rng.random() < 0.85 else -sign)
            else:
                continue
            nxt = letter * x
            if not nxt.is_zero():
                x = nxt
        (d,) = x.terms
        out.append(d)
    return out


def reference_overlap(build, m: int) -> Morphism:
    """P_m = iota(P_{m-1}) . tensor(id_{m-2}, P_2) for P = build, down to P_2."""
    if m <= 2:
        return build(m)
    with configure(mode=MODE_QUOTIENT):
        return iota(reference_overlap(build, m - 1)) * tensor(gen_id(m - 2), build(2))


def reference_letter_overlap(left: Morphism, base: Morphism) -> Morphism:
    """left . (id_k (x) base), one `Morphism` product per letter of factorize(d).

    With N = k + n for a letter of arity n and s_t = crossing(N, t),
    x . (id_k (x) D) = x . D . s_1 ... s_k and x . (id_k (x) D^-1) =
    x . s_k ... s_1 . D^-1; caps and cups sit at k + i.
    """
    k = left.dom - base.dom

    def apply(x: Morphism, word) -> Morphism:
        for kind, n, a in reversed(word):
            if kind == "cap":
                x = x * gen_cap(k + n, k + a)
            elif kind == "cup":
                x = x * gen_cup(k + n, k + a)
            elif a == 1:
                x = x * gen_d(k + n, 1)
                for t in range(1, k + 1):
                    x = x * crossing(k + n, t)
            else:
                for t in range(k, 0, -1):
                    x = x * crossing(k + n, t)
                x = x * gen_d(k + n, -1)
        return x

    pairs = ((c, apply(left, factorize(d))) for d, c in base.terms.items())
    return _scaled_sum(left.dom, left.cod, pairs)


def _tensor_factors(m: int, n: int) -> tuple[Morphism, Morphism]:
    """(T_m (x) id_n, id_m (x) T_n), each from `tensor`."""
    return tensor(extremal(m), gen_id(n)), tensor(gen_id(m), extremal(n))


def reference_weight_tensor(m: int, n: int) -> Morphism:
    """T_m (x) T_n as the product of its two tensor factors."""
    with configure(mode=MODE_QUOTIENT):
        a, b = _tensor_factors(m, n)
        return a * b


def reference_split(m: int, n: int) -> Morphism:
    """e_{m,n} = -a . (b . U_m . a) . b over the tensor factors, for (m, n) != (1, 1)."""
    with configure(mode=MODE_QUOTIENT):
        a, b = _tensor_factors(m, n)
        return (a * (b * gen_u(m + n, m) * a) * b).scale(-1)


def reference_split_nested(m: int, n: int, r: int) -> Morphism:
    """e_{m,n} with a depth-r turnback between T_{m-r} and T_{n-r}, over the factors."""
    with configure(mode=MODE_QUOTIENT):
        a, b = _tensor_factors(m, n)
        turn = nested_cups(r) * nested_caps(r)
        mid = tensor(tensor(extremal(m - r) if m > r else gen_id(0), turn),
                     extremal(n - r) if n > r else gen_id(0))
        return (a * (b * mid * a) * b).scale((-1) ** r)


def reference_iota_diagram(d: AnnularDiagram) -> Morphism:
    """d (x) 1 by generator words: cap/cup one arity up, D^+-1 with a crossing.

    The new strand sits at the old seam position: rotating past it makes
    the wound strand cross it, and the q=1 crossing is id + U.
    """
    out = gen_id(d.dom + 1)
    for kind, n, x in factorize(d):
        if kind == "cap":
            letter = gen_cap(n + 1, x)
        elif kind == "cup":
            letter = gen_cup(n + 1, x)
        elif x == 1:
            letter = crossing(n + 1, n) * gen_d(n + 1, 1)
        else:
            letter = gen_d(n + 1, -1) * crossing(n + 1, n)
        out = letter * out
    return out


def reference_iota_prime(x: Morphism) -> Morphism:
    """1 (x) x = D^-1 . iota(x) . D, conjugating the whole morphism at once."""
    return gen_d(x.cod + 1, -1) * iota(x) * gen_d(x.dom + 1, 1)


def reference_partial_trace(x: Morphism) -> Morphism:
    """Close the last strand: spliced in place seam-free, else cap . iota(x) . cup."""
    if x.dom < 1 or x.cod < 1:
        raise ValueError("partial trace needs at least one strand on each side")
    if is_planar(x):
        m, n = x.dom, x.cod
        last_i, last_o = m - 1, m + n - 1
        keep = [*range(last_i), *range(m, last_o)]

        def closed(d, c):
            p = list(d.codes)
            a, b = p[last_i], p[last_o]
            if a == last_o:
                c = c * MINUS_TWO
            else:
                p[a], p[b] = b, a
            # the codes past I_{m-1} move down one
            codes = tuple([q - (q > last_i) for q in map(p.__getitem__, keep)])
            return _intern(m - 1, n - 1, 0, 0, codes), c

        return Morphism._sum(m - 1, n - 1, (closed(d, c) for d, c in x.terms.items()))
    return gen_cap(x.cod + 1, x.cod - 1) * iota(x) * gen_cup(x.dom - 1, x.dom - 1)


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
    diagram = make_diagram(inner.dom, outer.cod, k, ess, _partner_to_arcs(partner))
    return diagram, iness + iness2, ess


# -- products folded through GaussianRational ------------------------------


def reference_mor_compose(x: Morphism, y: Morphism) -> Morphism:
    """Categorical composition x after y."""
    if x.dom != y.cod:
        raise ValueError(f"cannot compose {x.dom}->{x.cod} after {y.dom}->{y.cod}")
    quotient = get_config().mode == MODE_QUOTIENT
    acc: dict[AnnularDiagram, GaussianRational] = {}
    for dy, cy in y.terms.items():
        for dx, cx in x.terms.items():
            d, iness, _ = compose(dy, dx)
            if quotient and d.ess:
                continue
            c = cx * cy
            if iness:
                c = c * MINUS_TWO**iness
            prev = acc.get(d)
            acc[d] = c if prev is None else prev + c
    return Morphism(y.dom, x.cod, acc)


def reference_weightmap_mul(x: WeightMap, y: WeightMap) -> WeightMap:
    """Matrix product x . y (y applied first)."""
    if x.dom != y.cod:
        raise ValueError("shape mismatch in product")
    by_row: dict[str, list[tuple[str, GaussianRational]]] = {}
    for (r, c), v in y.entries.items():
        by_row.setdefault(r, []).append((c, v))
    acc: dict[tuple[str, str], GaussianRational] = {}
    for (r, mid), v in x.entries.items():
        for c, w in by_row.get(mid, ()):
            key = (r, c)
            prev = acc.get(key)
            val = v * w
            acc[key] = val if prev is None else prev + val
    return WeightMap(y.dom, x.cod, acc)


# -- the weight functor by generator words ---------------------------------


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


def reference_phi_diagram(d: AnnularDiagram) -> WeightMap:
    """The weight map of d, by pushing sign strings through `factorize(d)`."""
    if d.ess:
        return WeightMap.zero(d.dom, d.cod)
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
    return WeightMap(d.dom, d.cod, entries)


# the sign of an I or O end where an orientation starts, and where it
# stops, by block
_START_SIGN = ("+", "-")
_STOP_SIGN = ("-", "+")


def reference_phases(d: AnnularDiagram) -> tuple[tuple[tuple[str, str], int], ...]:
    """The ((row, col), k) pairs of d's weight map, by a product over orientations."""
    entries = []
    if not d.ess:
        # a sign per code: I_j at j, O_j at dom + j
        m = d.dom
        options = [
            (
                (a, _START_SIGN[a >= m], b, _STOP_SIGN[b >= m], fwd),
                (b, _START_SIGN[b >= m], a, _STOP_SIGN[a >= m], bwd),
            )
            for a, b, fwd, bwd in _strands(d)
        ]
        signs = [""] * (d.dom + d.cod)
        for choice in product(*options):
            k = 0
            for pa, sa, pb, sb, turns in choice:
                signs[pa] = sa
                signs[pb] = sb
                k += turns
            # interned, so all tables and weight maps share one object per
            # sign string: the cache holds 2^strands keys per diagram
            row, col = intern("".join(signs[m:])), intern("".join(signs[:m]))
            entries.append(((row, col), k & 3))
        # columns in sign-string order, as `columns()` and `rank()` read them
        entries.sort(key=lambda e: (e[0][1], e[0][0]))
    return tuple(entries)


def reference_phase_map(d: AnnularDiagram) -> WeightMap:
    """The weight map of d, read off `reference_phases(d)`."""
    return WeightMap(d.dom, d.cod, {key: _I_POWERS[k] for key, k in reference_phases(d)})


def reference_phi(x: Morphism) -> WeightMap:
    """phi(x), with each sum folded as a [re, im, den] list per (row, col) key."""
    # every coefficient over one denominator, so each entry adds two ints
    den = lcm(*(c.d for c in x.terms.values()))
    acc: dict[tuple[str, str], list[int]] = {}
    for d, c in x.terms.items():
        f = den // c.d
        a, b = c.a * f, c.b * f
        # c * i^k: each factor i sends (a, b) to (-b, a)
        turned = ((a, b), (-b, a), (-a, -b), (b, -a))
        for key, k in reference_phases(d):
            ra, rb = turned[k]
            e = acc.get(key)
            if e is None:
                acc[key] = [ra, rb, den]
            else:
                e[0] += ra
                e[1] += rb
    return WeightMap._from_sums(x.dom, x.cod, acc)


# -- exact elimination through GaussianRational ----------------------------


def _reference_reduce(col: dict[str, GaussianRational], pivots) -> None:
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


def _reference_eliminate(cols) -> list[tuple[str, dict[str, GaussianRational]]]:
    """Gaussian elimination on a sparse column family over Q(i).

    Each column is reduced against the pivots found before it.  A column
    that survives is scaled to 1 at its least row, its pivot row.  Returns
    the (pivot row, normalized column) pairs, one per independent column.
    """
    pivots: list[tuple[str, dict[str, GaussianRational]]] = []
    for col in cols:
        col = {r: v for r, v in col.items() if v}
        _reference_reduce(col, pivots)
        if col:
            prow = min(col)
            inv = col[prow].inverse()
            pivots.append((prow, {r: v * inv for r, v in col.items()}))
    return pivots


def reference_rank_of_columns(cols: list[dict[str, GaussianRational]]) -> int:
    """Rank of a sparse column family over Q(i), by Gaussian elimination."""
    return len(_reference_eliminate(cols))


def reference_solve_columns(
    cols: list[dict[str, GaussianRational]], target: dict[str, GaussianRational]
) -> list[GaussianRational] | None:
    """Exact coefficients writing target as a combination of cols, or None.

    Raises ValueError unless the columns are linearly independent.  Column
    j carries one extra tag row "~j", which sorts after every sign string,
    so a pivot on a tag row marks a dependent column, and the tag rows left
    in the reduced target hold minus its coefficients.  A row of the
    family's own named "~j" clashes with the tag: keep rows to sign strings.
    """
    tags = [f"~{j}" for j in range(len(cols))]
    pivots = _reference_eliminate({**col, tag: ONE} for col, tag in zip(cols, tags))
    if any(prow.startswith("~") for prow, _ in pivots):
        raise ValueError("columns are linearly dependent")
    rhs = {r: v for r, v in target.items() if v}
    _reference_reduce(rhs, pivots)
    if any(not r.startswith("~") for r in rhs):
        return None
    return [-rhs.get(tag, ZERO) for tag in tags]
