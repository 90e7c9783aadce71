"""Projectors: Jones-Wenzl, extremal weight, and their decompositions.

Everything here lives in the essential-circle quotient, where the weight
functor is faithful; the constructors force quotient mode so that results
are canonical linear combinations of circle-free diagrams regardless of
the ambient configuration.

The extremal weight projector T_m is the unique idempotent acting as the
identity on the two extreme weight spaces (all-plus and all-minus sign
strings) and killing every cap.  The defining recursion

    T_{m+1} = iota(T_m) s_m iota(T_m),    T_1 = id,  T_0 = 2 id_0

is quadratic in the term count, so for building we use the equivalent
overlap product

    T_m = (T_{m-1} (x) id_1) . (id_{m-2} (x) T_2),

equal to it in the quotient because both sides are idempotents with the
same weight action; the test suite checks the recursion against this for
small m directly.  The highest/lowest refinements T_m = H_m + L_m split
off the all-plus and all-minus projectors separately; they need the
rotation's fourth root of unity, so their coefficients live in Q(i)
proper.  T_m and H_m share the one overlap product, from their own
two-strand bases, and L_m is the complex conjugate of H_m.  Their right
factor id_{m-2} (x) P_2 is never expanded: `_overlap` applies it one
letter at a time, and says why that gives the same product.

The constructions of the product formula (T_m (x) T_n, its complement
e_{m,n} and the isomorphisms splitting e_{m,n}) are each written once,
over an evaluator that supplies the leaves: expanded diagrams for the
public constructors, leaf weight maps (WEIGHTS) for the structural
checks, where T_m is phi_extremal(m): the overlap product on weight maps,
pinned to the T_m diagrams up to the technical suite's size cap and to
the two-entry oracle up to the cap plus two.  Each construction starts
from W = T_m (x) T_n, built once per evaluator.  U_m is the cup under the
cap at the junction of the two factors, with no circle between them, so
the complement is e_{m,n} = -(W . cup) . (cap . W), and its depth-r
form is W . (T_{m-r} (x) turnback (x) T_{n-r}) . W; the quotient
commutes with composition, so these give the terms of the same products
bracketed over the tensor factors of W.  On diagrams, W for n = 2 is an
overlap product too, (T_m (x) id_2) . (id_m (x) T_2) with the right
factor applied letter by letter, and so is the last factor W of the
depth-r form: ((W . mid) . (T_m (x) id_2)) . (id_m (x) T_2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .config import MODE_QUOTIENT, configure, guard, memo
from .diagram import Morphism, compose_sums, crossing, gen_cap, gen_cup, gen_d, gen_id, gen_u
from .planar import factorize, iota, nested_caps, nested_cups, partial_trace, tensor
from .rep import WeightMap, phi
from .scalar import HALF, I, MINUS_I, accumulate


@dataclass(frozen=True)
class IsoPair:
    """A split isomorphism between images of two idempotents.

    fwd maps the target idempotent's object into the source one's and bwd
    the other way around; the contracts are bwd . fwd == tgt_idem and
    fwd . bwd == src_idem, both up to essential-circle equality.  The
    fields are Morphisms from the public constructors and WeightMaps from
    the WEIGHTS evaluator.
    """

    fwd: Morphism
    bwd: Morphism
    src_idem: Morphism
    tgt_idem: Morphism


@memo(lambda m: m)
def jones_wenzl(m: int) -> Morphism:
    """The m-strand Jones-Wenzl projector (planar, kills all caps)."""
    if m < 1:
        raise ValueError("Jones-Wenzl projectors start at one strand")
    if m == 1:
        return gen_id(1)
    with configure(mode=MODE_QUOTIENT):
        prev = jones_wenzl(m - 1)
        lifted = iota(prev)
        correction = lifted * gen_u(m, m - 1) * lifted
        return lifted + correction.scale(Fraction(m - 1, m))


@memo(lambda m: m)
def extremal(m: int) -> Morphism:
    """The extremal weight projector T_m; T_0 is twice the empty diagram.

    From m = 3 on it is the overlap product iota(T_{m-1}) . (id_{m-2} (x) T_2),
    with the right factor applied letter by letter (`_overlap`): expanded,
    id_k (x) T_2 has 3, 6, 14, 35 and 90 terms for k = 0..4, as each added
    strand crosses the arcs of the U_0 term that wraps the seam, while each
    letter multiplies by one or two terms.
    """
    if m < 0:
        raise ValueError("negative strand count")
    if m == 0:
        return gen_id(0).scale(2)
    if m == 1:
        return gen_id(1)
    with configure(mode=MODE_QUOTIENT):
        if m == 2:
            return gen_id(2) + gen_u(2, 1).scale(HALF) + gen_u(2, 0).scale(HALF)
        return _overlap(iota(extremal(m - 1)), extremal(2))


def _overlap(left: Morphism, base: Morphism) -> Morphism:
    """left . (id_k (x) base) for a two-strand base, one letter at a time.

    For each term c.d of the base, the letters of factorize(d), each with
    id_k tensored on, act on `left` last letter first, and the results add
    up scaled by c.  With N = k + n for a letter of arity n and s_t =
    crossing(N, t), id_k (x) cap_i and id_k (x) cup_i are the cap and cup at
    k + i, and

        x . (id_k (x) D)    = x . D . s_1 ... s_k,
        x . (id_k (x) D^-1) = x . s_k ... s_1 . D^-1.

    `left` is put over one denominator, and each product of a letter acts
    on its int numerators through `compose_sums`, the loop of
    `mor_compose`; the sums that cancel are dropped after each product,
    and each output coefficient is reduced once, after the base's
    coefficients are folded in.  So the terms come out as one `Morphism`
    product per letter would give them, in the same order.  A word resumes
    from the longest prefix that it shares with an earlier word, held only
    until the last word that resumes there (`_resume_points`).

    Only compositions are re-bracketed, so this equals left . tensor(id_k,
    base) as long as that right factor lost no term to the quotient.  It
    does not: for every term d of T_2 and of H_2, iota_prime^j(d) in raw
    mode has no essential term for j <= 7 (tested) and j <= 10 (checked
    once, too slow for the suite), which covers T_m and H_m up to m = 12
    and weight_tensor(m, 2), where left is T_m (x) id_2 and k = m, up to
    m = 10; above that the route rests on the statement unchecked.  It
    fails for larger bases: T_2 (x) T_3 built this way from T_2 (x) id_3
    has 251 terms where tensor(T_2, T_3) has 223, so only the two-strand
    bases go through here.
    """
    guard(max(left.dom, left.cod))
    k = left.dom - base.dom
    den = lcm(*[c.d for c in left.terms.values()])
    start = [(d, c.a * (den // c.d), c.b * (den // c.d), den) for d, c in left.terms.items()]

    def steps(kind, n, a):
        # the generators whose product is the letter with id_k tensored on,
        # in the order they act
        size = k + n
        if kind == "cap":
            return [gen_cap(size, k + a)]
        if kind == "cup":
            return [gen_cup(size, k + a)]
        cross = [crossing(size, t) for t in range(1, k + 1)]
        return [gen_d(size, 1), *cross] if a == 1 else [*reversed(cross), gen_d(size, -1)]

    words = [tuple(reversed(factorize(d))) for d in base.terms]
    plan, last = _resume_points(words)
    held: dict = {}
    acc: dict = {}
    for j, (word, c) in enumerate(zip(words, base.terms.values())):
        point = plan[j]
        xs = held.pop(point) if last.get(point) == j else held.get(point, start)
        for p in range(point[1], len(word)):
            for g in steps(*word[p]):
                xs = [(d, a, b, e) for d, (a, b, e) in compose_sums(xs, g).items() if a or b]
            if (j, p + 1) in last:
                held[j, p + 1] = xs
        ca, cb, cd = c.a, c.b, c.d * den
        for d, a, b, _ in xs:
            accumulate(acc, d, ca * a - cb * b, ca * b + cb * a, cd)
    return Morphism._from_sums(left.dom, left.cod, acc)


def _resume_points(words) -> tuple[list, dict]:
    """Where each word of `_overlap` resumes, and the last word that resumes there.

    Word j resumes at the point (i, n): the product after the first n
    letters of word i, the first word that shares n letters with it, and
    the most that any earlier word shares.  So word i computes that
    product itself.  A word that shares no letter resumes at (None, 0),
    the left factor, which is never held.
    """
    plan, last = [], {}
    for j, word in enumerate(words):
        point = (None, 0)
        for i in range(j):
            n = 0
            for u, v in zip(words[i], word):
                if u != v:
                    break
                n += 1
            if n > point[1]:
                point = (i, n)
        plan.append(point)
        if point[0] is not None:
            last[point] = j
    return plan, last


def extremal_by_recursion(m: int) -> Morphism:
    """The defining recursion, kept as an independent cross-check.

    The recursion edge T_{m+1} = iota(T_m) s_m iota(T_m) only applies on
    top of the two-strand base; crossing a single strand with itself is
    not a thing.
    """
    if m < 1:
        raise ValueError("the recursion starts at one strand")
    if m <= 2:
        return extremal(m)
    with configure(mode=MODE_QUOTIENT):
        prev = iota(extremal_by_recursion(m - 1))
        return prev * crossing(m, m - 1) * prev


@memo(lambda m: m)
def highest_weight(m: int) -> Morphism:
    """Projection onto the all-plus weight string, inside T_m.

    >>> print(highest_weight(1))
    1->1: (1/2) {I0-O0} + (-1/2i) {I0-L0, O0-R0}
    """
    if m < 1:
        raise ValueError("highest weight projectors start at one strand")
    with configure(mode=MODE_QUOTIENT):
        if m == 1:
            return gen_id(1).scale(HALF) + gen_d(1, 1).scale(HALF * MINUS_I)
        if m == 2:
            dinv, u1 = gen_d(2, -1), gen_u(2, 1)
            out = (gen_id(2) + dinv.scale(I)).scale(2) + u1 + gen_u(2, 0)
            out = out + (dinv * u1).scale(I) + (u1 * dinv).scale(I)
            return out.scale(Fraction(1, 4))
        return _overlap(iota(highest_weight(m - 1)), highest_weight(2))


def lowest_weight(m: int) -> Morphism:
    """Projection onto the all-minus weight string, inside T_m.

    L_m is the complex conjugate of H_m, coefficient by coefficient: the
    build of H_m only adds rational structure constants (-2 per circle, 1
    per crossing term and rotation) to the coefficients of H_1 and H_2,
    whose conjugates are L_1 and L_2.  It is not memoized: conjugating
    the memoized H_m takes time linear in its terms.

    >>> print(lowest_weight(1))
    1->1: (1/2) {I0-O0} + (1/2i) {I0-L0, O0-R0}
    """
    if m < 1:
        raise ValueError("lowest weight projectors start at one strand")
    high = highest_weight(m)
    return Morphism(m, m, {d: c.conjugate() for d, c in high.terms.items()})


# -- one formula, two evaluators ---------------------------------------------


class _Evaluator:
    """The product-formula constructions over leaves a subclass supplies.

    A subclass defines `leaf(x)` (a small generator morphism x as this
    evaluator represents it), `extremal(k)` (the projector T_k) and
    `tensor(x, y)`.  Sums, products and scalings are those of the leaf
    type, Morphism or WeightMap alike.
    """

    @memo()
    def weight_tensor(self, m: int, n: int):
        """T_m (x) T_n as the product (T_m (x) id_n) . (id_m (x) T_n)."""
        a = self.tensor(self.extremal(m), self.leaf(gen_id(n)))
        return a * self.tensor(self.leaf(gen_id(m)), self.extremal(n))

    # iso_diff(m, n) reuses the complement that split(m, n) built
    @memo()
    def split(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("both factors need at least one strand")
        if (m, n) == (1, 1):
            u = self.leaf(gen_u(2, 1)) + self.leaf(gen_u(2, 0))
            return u.scale(Fraction(-1, 2))
        # U_m is the cup under the cap at the junction, with no circle
        w = self.weight_tensor(m, n)
        cup, cap = self.leaf(gen_cup(m + n - 2, m - 1)), self.leaf(gen_cap(m + n, m - 1))
        return ((w * cup) * (cap * w)).scale(-1)

    def split_nested(self, m: int, n: int, r: int):
        if not (1 <= r <= min(m, n) and r < max(m, n)):
            raise ValueError("turnback depth out of range")
        w = self.weight_tensor(m, n)
        turn = self.leaf(nested_cups(r)) * self.leaf(nested_caps(r))
        mid = self.tensor(self.tensor(self._block(m - r), turn), self._block(n - r))
        return self._times_weight_tensor(w * mid, m, n).scale((-1) ** r)

    def _times_weight_tensor(self, x, m: int, n: int):
        """x . (T_m (x) T_n)."""
        return x * self.weight_tensor(m, n)

    def _block(self, k: int):
        """T_k as a tensor factor; the empty factor is the empty diagram alone."""
        return self.leaf(gen_id(0)) if k == 0 else self.extremal(k)

    def iso_diff(self, m: int, n: int) -> IsoPair:
        if m == n or m < 1 or n < 1:
            raise ValueError("need distinct strand counts, both positive")
        lo, diff = min(m, n), abs(m - n)
        w = self.weight_tensor(m, n)
        t = self.extremal(diff)
        cups, caps = self.leaf(nested_cups(lo)), self.leaf(nested_caps(lo))
        if m > n:
            into, outof = self.tensor(t, cups), self.tensor(t, caps)
        else:
            into, outof = self.tensor(cups, t), self.tensor(caps, t)
        return IsoPair(w * into, (outof * w).scale((-1) ** lo), self.split(m, n), t)

    def iso_equal(self, m: int) -> tuple[IsoPair, IsoPair]:
        if m < 1:
            raise ValueError("need m >= 1")
        w = self.weight_tensor(m, m)
        sign = (-1) ** m
        f1 = (w * self.leaf(nested_cups(m))).scale(sign)
        g1 = (self.leaf(nested_caps(m)) * w).scale(HALF)
        bent = self.tensor(self.leaf(nested_cups(1)), self.leaf(nested_cups(m - 1)))
        unbent = self.tensor(self.leaf(nested_caps(1)), self.leaf(nested_caps(m - 1)))
        f2 = (w * self.leaf(gen_d(2 * m, 1)) * bent).scale(sign)
        g2 = (unbent * self.leaf(gen_d(2 * m, -1)) * w).scale(HALF)
        empty = self.leaf(gen_id(0))
        return IsoPair(f1, g1, f1 * g1, empty), IsoPair(f2, g2, f2 * g2, empty)

    def kariso_contract(self, m: int, n: int):
        if not m >= n >= 1:
            raise ValueError("need m >= n >= 1")
        w = self.weight_tensor(m, n)
        pad = self.leaf(gen_id(m - n))
        caps = self.tensor(pad, self.leaf(nested_caps(n)))
        cups = self.tensor(pad, self.leaf(nested_cups(n)))
        return (caps * w * cups).scale((-1) ** n)


class _Diagrams(_Evaluator):
    """Leaves are diagrams, and every product is expanded.

    Call it under quotient mode, as the public constructors do.
    """

    def leaf(self, x: Morphism) -> Morphism:
        return x

    def extremal(self, k: int) -> Morphism:
        return extremal(k)

    def tensor(self, x: Morphism, y: Morphism) -> Morphism:
        return tensor(x, y)

    @memo()
    def weight_tensor(self, m: int, n: int) -> Morphism:
        """At n = 2, T_m (x) id_2 times id_m (x) T_2 applied letter by letter."""
        if n == 2:
            return _overlap(tensor(extremal(m), gen_id(2)), extremal(2))
        return _Evaluator.weight_tensor.__wrapped__(self, m, n)

    def _times_weight_tensor(self, x: Morphism, m: int, n: int) -> Morphism:
        """At n = 2, x . (T_m (x) id_2), then id_m (x) T_2 letter by letter."""
        if n == 2:
            return _overlap(x * tensor(extremal(m), gen_id(2)), extremal(2))
        return x * self.weight_tensor(m, n)


class _Weights(_Evaluator):
    """Leaves are weight maps: phi_extremal(k) for T_k, phi of a generator."""

    def leaf(self, x: Morphism) -> WeightMap:
        return phi(x)

    def extremal(self, k: int) -> WeightMap:
        return phi_extremal(k)

    def tensor(self, x: WeightMap, y: WeightMap) -> WeightMap:
        return x.tensor(y)


_DIAGRAMS = _Diagrams()
WEIGHTS = _Weights()


def _on_diagrams(strands: int, build, *args) -> Morphism:
    """Run a construction on diagrams in quotient mode, guard checked first."""
    guard(strands)
    with configure(mode=MODE_QUOTIENT):
        return build(*args)


def weight_tensor(m: int, n: int) -> Morphism:
    """T_m (x) T_n, cached; the ambient projector of the product formula."""
    return _on_diagrams(m + n, _DIAGRAMS.weight_tensor, m, n)


def split_idempotent(m: int, n: int) -> Morphism:
    """The complement e of T_{m+n} inside T_m (x) T_n.

    Computed as -(W . cup_{m-1}) . (cap_{m-1} . W) with W = T_m (x) T_n,
    the memoized weight_tensor(m, n): U_m is the cup under the cap at
    the junction of the factors, so each half composes W with one small
    letter, and only the last product pairs two full-sized sums.
    """
    return _on_diagrams(m + n, _DIAGRAMS.split, m, n)


def split_idempotent_nested(m: int, n: int, r: int) -> Morphism:
    """e_{m,n} written with a depth-r cup/cap turnback between the factors."""
    return _on_diagrams(m + n, _DIAGRAMS.split_nested, m, n, r)


def iso_diff(m: int, n: int) -> IsoPair:
    """The isomorphism between e_{m,n} and T_{|m-n|} for m != n.

    fwd feeds T_{|m-n|} into the big tensor projector through nested cups
    on the min(m,n) matched strands; bwd is the capped mirror with the
    sign (-1)^min(m,n).
    """
    return _on_diagrams(m + n, _DIAGRAMS.iso_diff, m, n)


def iso_equal(m: int) -> tuple[IsoPair, IsoPair]:
    """The two maps splitting e_{m,m} into a pair of copies of id_0.

    Each pair contracts to id_0 one way; the other way gives one of the
    two rank-one summands, and the summands add up to e_{m,m} (checked in
    the verification suite, together with the cross contracts
    g_i f_j = 0 for i != j).
    """
    return _on_diagrams(2 * m, _DIAGRAMS.iso_equal, m)


def kariso_contract(m: int, n: int) -> Morphism:
    """(id (x) caps) (T_m (x) T_n) (id (x) cups), scaled by (-1)^n.

    Equals T_{m-n}, with the convention T_0 = 2 id_0 at m = n.
    """
    return _on_diagrams(m + n, _DIAGRAMS.kariso_contract, m, n)


# -- structural checks -------------------------------------------------------


@memo(lambda m: m)
def phi_extremal(m: int) -> WeightMap:
    """The weight map of T_m, from the overlap product on weight maps:

        phi(T_m) = (phi(T_{m-1}) (x) id_1) . (id_{m-2} (x) phi(T_2)).

    phi is monoidal, so no T_m is expanded.  The loop never calls
    phi_extremal, so a patched one cannot feed a wrong T_{m-1} into the memo.
    """
    base = phi(extremal(2))
    out = phi(extremal(min(m, 2)))
    for k in range(3, m + 1):
        out = out.tensor(WeightMap.identity(1)) * WeightMap.identity(k - 2).tensor(base)
    return out


def iso_diff_maps(m: int, n: int) -> tuple[WeightMap, WeightMap]:
    """The weight maps (fwd, bwd) of the iso_diff pair.

    Same contracts as iso_diff (bwd fwd gives T_{|m-n|}, fwd bwd gives
    e_{m,n}), evaluated on the leaf weight maps, so no size is out of
    reach.
    """
    pair = WEIGHTS.iso_diff(m, n)
    return pair.fwd, pair.bwd


def verify_properties(m: int) -> list[str]:
    """Check the five structural identities of T_m; returns the failures.

    Idempotency, absorption of crossings, annihilation of cap-cups,
    absorption of embedded lower projectors, and rotation invariance,
    all as equalities in the quotient.
    """
    if m < 2:
        raise ValueError("the properties concern m >= 2")
    failures: list[str] = []
    pt = phi_extremal(m)
    if pt * pt != pt:
        failures.append("idempotency")
    for i in range(m):
        s = phi(crossing(m, i))
        if pt * s != pt or s * pt != pt:
            failures.append(f"crossing absorption at {i}")
        u = phi(gen_u(m, i))
        if not (pt * u).is_zero() or not (u * pt).is_zero():
            failures.append(f"cap-cup annihilation at {i}")
    for n in range(1, m):
        pad = phi_extremal(n).tensor(WeightMap.identity(m - n))
        if pt * pad != pt or pad * pt != pt:
            failures.append(f"absorption of T_{n}")
    if phi(gen_d(m, -1)) * pt * phi(gen_d(m, 1)) != pt:
        failures.append("rotation invariance")
    return failures


def linked_check(m: int, n: int) -> bool:
    """(T_m (x) T_n) s_m (T_m (x) T_n) equals T_{m+n} in the quotient."""
    if m + n < 3 or m < 1 or n < 1:
        raise ValueError("need m + n >= 3")
    pw = WEIGHTS.weight_tensor(m, n)
    return pw * phi(crossing(m + n, m)) * pw == phi_extremal(m + n)


def overlap_check(m: int, n: int, r: int) -> bool:
    """Overlapping projectors combine: all four product orders give T_{m+r}."""
    if not (1 <= n <= m and 0 <= r < n):
        raise ValueError("need 1 <= n <= m and 0 <= r < n")
    target = phi_extremal(m + r)
    big, small = phi_extremal(m), phi_extremal(n)
    ident_r, ident_rest = WeightMap.identity(r), WeightMap.identity(m - n + r)
    for left, right in (
        (big.tensor(ident_r), ident_rest.tensor(small)),
        (ident_r.tensor(big), small.tensor(ident_rest)),
    ):
        if left * right != target or right * left != target:
            return False
    return True


def nested_form_check(m: int, n: int, r: int) -> bool:
    """The depth-r turnback form of e_{m,n} agrees with the U_m form."""
    return WEIGHTS.split_nested(m, n, r) == WEIGHTS.split(m, n)


def jw_pair(m: int) -> IsoPair:
    """Witnesses P_{m-1} as the complementary summand of P_{m+1} in iota(P_m).

    bwd . fwd = P_{m-1} and fwd . bwd = iota(P_m) - P_{m+1}; on classes
    this is the product rule [P_m][P_1] = [P_{m+1}] + [P_{m-1}].
    """
    if m < 2:
        raise ValueError("need m >= 2")
    with configure(mode=MODE_QUOTIENT):
        lifted = iota(jones_wenzl(m))
        fwd = (lifted * gen_cup(m - 1, m - 1)).scale(Fraction(-m, m + 1))
        bwd = gen_cap(m + 1, m - 1) * lifted
        return IsoPair(fwd, bwd, lifted - jones_wenzl(m + 1), jones_wenzl(m - 1))


def jw_partial_trace_check(m: int) -> bool:
    """Closing the last strand of P_m gives -((m+1)/m) P_{m-1}."""
    if m < 2:
        raise ValueError("need m >= 2")
    with configure(mode=MODE_QUOTIENT):
        closed = partial_trace(jones_wenzl(m))
        return closed == jones_wenzl(m - 1).scale(Fraction(-(m + 1), m))


def jw_k0_check(m: int) -> bool:
    """Both jw_pair contracts hold on the nose, as planar morphisms.

    The complementary summand is also matched against its closed form
    -(m/(m+1)) iota(P_m) U_m iota(P_m) from the defining recursion.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    pair = jw_pair(m)
    with configure(mode=MODE_QUOTIENT):
        lifted = iota(jones_wenzl(m))
        comp = (lifted * gen_u(m + 1, m) * lifted).scale(Fraction(-m, m + 1))
        return (
            pair.bwd * pair.fwd == pair.tgt_idem
            and pair.fwd * pair.bwd == pair.src_idem
            and pair.src_idem == comp
        )
