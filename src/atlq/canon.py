"""Canonical bases of the quotient hom spaces.

Diagrams from 0 to 2n points (all boundary points on the outer circle)
are in bijection with balanced label strings over {i, o}: walking the
outer boundary clockwise, mark the endpoint where a strand leaves the
boundary heading clockwise with "i" and the endpoint where it comes back
with "o".  The matching is recovered as cyclic bracket matching, which is
unique: each "i" pairs with the "o" that closes it going clockwise.
Pairs that wrap past the base point become seam-crossing arcs, stacked
at seam levels ordered by their "i" position.  There are C(2n, n) such
strings, matching the dimension of the quotient hom space, and the
weight functor keeps their diagrams linearly independent.

A general hom(a, b) flattens into hom(0, a+b) by bending all inputs up
with nested cups (`f_apply`).  `coordinates` does that bend on weight
maps, where phi is strict monoidal, and solves the bent weight vector
exactly against the basis weight vectors; the diagram bend stays as its
independent oracle.
"""

from __future__ import annotations

from itertools import combinations

from .config import memo
from .diagram import AnnularDiagram, Morphism, gen_id, make_diagram
from .planar import nested_caps, nested_cups, tensor
from .rep import _I_POWERS, WeightMap, _phase_table, _phi_cache, _strings_of_length, phi, solve_columns

LabelString = str


def matching_from_labels(labels: LabelString) -> AnnularDiagram:
    """Build the 0 -> len(labels) diagram named by an {i, o} string.

    >>> str(matching_from_labels("io"))
    '{O0-O1}'
    >>> str(matching_from_labels("oi"))
    '{O0-L0, O1-R0}'
    """
    n2 = len(labels)
    if n2 % 2:
        raise ValueError("label string must have even length")
    if set(labels) - {"i", "o"}:
        raise ValueError("labels must be 'i' or 'o'")
    if labels.count("i") != labels.count("o"):
        raise ValueError("label string must be balanced")
    # cyclic bracket matching: an "o" closes the latest open "i"; the "o"s
    # found with nothing open close the "i"s left open, around the base point
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    early: list[int] = []
    for k, label in enumerate(labels):
        if label == "i":
            stack.append(k)
        elif stack:
            pairs.append((stack.pop(), k))
        else:
            early.append(k)
    pairs += zip(reversed(stack), early)
    arcs: list = []
    wraps = sorted((k, l) for k, l in pairs if l < k)
    for level, (k, l) in enumerate(wraps):
        arcs.append((("O", k), ("R", level)))
        arcs.append((("L", level), ("O", l)))
    for k, l in pairs:
        if k < l:
            arcs.append((("O", k), ("O", l)))
    d = make_diagram(0, n2, len(wraps), 0, arcs)
    d.validate()
    return d


def labels_from_matching(d: AnnularDiagram) -> LabelString:
    """Inverse of matching_from_labels on canonical 0 -> 2n diagrams."""
    if d.dom != 0:
        raise ValueError("labels are defined for diagrams out of 0")
    if d.ess:
        raise ValueError("a diagram with an essential circle has no labels")
    # O_j is code j; its partner is an earlier O or an L point where the
    # strand comes back, else a later O or an R point
    n = d.cod
    return "".join(["o" if p < j or n <= p < n + d.seam else "i" for j, p in enumerate(d.codes[:n])])


@memo(lambda n_points: n_points)
def _basis(n_points: int) -> tuple[AnnularDiagram, ...]:
    """The basis of hom(0, n_points), built once per size under the strand guard.

    The positions of the "i"s run through `combinations` in lexicographic
    order, which is the label order, as "i" < "o".
    """
    if n_points % 2:
        raise ValueError("odd point count has no perfect matchings")
    out = []
    for ins in combinations(range(n_points), n_points // 2):
        labels = ["o"] * n_points
        for k in ins:
            labels[k] = "i"
        out.append(matching_from_labels("".join(labels)))
    return tuple(out)


def enumerate_basis(n_points: int) -> list[AnnularDiagram]:
    """All C(2n, n) basis diagrams of hom(0, n_points), in label order.

    Refuses a point count over the strand limit.
    """
    return list(_basis(n_points))


def f_apply(x: Morphism) -> Morphism:
    """Flatten hom(a, b) -> hom(0, a+b) by bending the inputs up."""
    return tensor(x, gen_id(x.dom)) * nested_cups(x.dom)


def f_inverse(y: Morphism, dom: int) -> Morphism:
    """Undo f_apply: hom(0, a+b) -> hom(a, b) with a = dom."""
    if y.dom != 0 or y.cod < dom:
        raise ValueError("shape mismatch in f_inverse")
    cod = y.cod - dom
    return tensor(gen_id(cod), nested_caps(dom)) * tensor(y, gen_id(dom))


def basis_columns(n_points: int) -> list[dict]:
    """The weight vectors of the basis diagrams of hom(0, n_points), in label order.

    Each is read off the diagram's phase table, whose one column is "", so
    a mask there is the row's.  A table that phi has kept is read from
    `_phi_cache`; the others are built and not kept.
    """
    basis = _basis(n_points)
    rows = _strings_of_length(n_points)
    return [{rows[mask]: _I_POWERS[k] for mask, k in _phi_cache.get(b) or _phase_table(b)} for b in basis]


def coordinates(x: Morphism) -> list:
    """Exact coefficients of x in the label-string basis of hom(0, dom+cod).

    The bend is done on weights: phi(f_apply(x)) is
    (phi(x) (x) id_dom) . phi(nested_cups(dom)), summed here entry by entry,
    and then solved against `basis_columns`, which refuses dom + cod over
    the strand limit before anything else is built.
    """
    a = x.dom
    basis = basis_columns(a + x.cod)
    cols = phi(x).columns()
    bent = WeightMap._sum(0, a + x.cod, (
        ((r + s[a:], ""), v * w)
        for (s, _), w in phi(nested_cups(a)).entries.items()
        for r, v in cols.get(s[:a], {}).items()
    ))
    coeffs = solve_columns(basis, bent.columns().get("", {}))
    if coeffs is None:
        raise ValueError("morphism does not lie in the diagram span")
    return coeffs


def ess_equal(x: Morphism, y: Morphism) -> bool:
    """Equality in the essential-circle quotient, decided by the functor.

    Equal terms give equal images, so they decide it before phi is built.
    """
    if x.dom != y.dom or x.cod != y.cod:
        raise ValueError(
            f"shape mismatch: {x.dom}->{x.cod} vs {y.dom}->{y.cod}"
        )
    return x.terms == y.terms or phi(x) == phi(y)


def phi_chain(*factors: Morphism):
    """The weight map of a composite, evaluated factor by factor.

    phi(X_1 . X_2 . ... . X_k) computed as the matrix product of the
    individual weight maps, without expanding the diagrammatic product.
    This is the rule for every identity that holds in the quotient: phi
    is faithful there, so the weight maps of the identity's leaves,
    multiplied, decide it.  Functoriality itself is checked separately,
    on seeded random words and against the expanded diagram constructors
    at small sizes.
    """
    if not factors:
        raise ValueError("need at least one factor")
    out = phi(factors[0])
    for x in factors[1:]:
        out = out * phi(x)
    return out
