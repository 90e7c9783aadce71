"""Chebyshev-type polynomials mirroring the projector calculus.

Both families satisfy p_m = X p_{m-1} - p_{m-2}:

* renormalized first kind  L_0 = 2, L_1 = X   (extremal projectors),
* second kind              J_0 = 1, J_1 = X   (Jones-Wenzl projectors).

Splitting T_m (x) T_n into extremal projectors decategorifies to
L_m L_n = L_{m+n} + L_{|m-n|}, and the Jones-Wenzl fusion rule to
J_m J_n = J_{m+n} + J_{m+n-2} + ... + J_{|m-n|}.

Polynomials are integer coefficient tuples, ascending degree.
"""

from __future__ import annotations

from .config import memo

Poly = tuple[int, ...]

X: Poly = (0, 1)


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, tuple(-c for c in q))


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _trim(cs) -> Poly:
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    return tuple(cs)


@memo()
def _sequence(p0: Poly) -> list[Poly]:
    """p_0 = p0, p_1 = X, ... as far as `_chebyshev` has been asked; it grows in place."""
    return [p0, X]


def _chebyshev(p0: Poly, m: int) -> Poly:
    """p_m = X p_{m-1} - p_{m-2} from the given p_0 and p_1 = X.

    The sequence kept for p0 is extended by the recurrence up to m, so a
    call makes one step per index it has not seen, and recurses not at all.
    """
    if m < 0:
        raise ValueError("negative index")
    seq = _sequence(p0)
    while len(seq) <= m:
        # X p_{m-1} is p_{m-1} one degree up
        seq.append(poly_sub((0, *seq[-1]), seq[-2]))
    return seq[m]


def cheb_l(m: int) -> Poly:
    """Renormalized Chebyshev of the first kind: L_0 = 2, L_1 = X."""
    return _chebyshev((2,), m)


def cheb_j(m: int) -> Poly:
    """Chebyshev of the second kind: J_0 = 1, J_1 = X."""
    return _chebyshev((1,), m)


def poly_str(p: Poly) -> str:
    """Human format, descending degree: "X^4-4X^2+2".

    >>> poly_str(cheb_l(4))
    'X^4-4X^2+2'
    """
    if not p:
        return "0"
    bits = []
    for deg in range(len(p) - 1, -1, -1):
        c = p[deg]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if bits else "")
        mag = abs(c)
        if deg == 0:
            body = str(mag)
        else:
            xpow = "X" if deg == 1 else f"X^{deg}"
            body = xpow if mag == 1 else f"{mag}{xpow}"
        bits.append(sign + body)
    return "".join(bits)


def l_product_identity(m: int, n: int) -> bool:
    """L_m L_n = L_{m+n} + L_{|m-n|}."""
    return poly_mul(cheb_l(m), cheb_l(n)) == poly_add(
        cheb_l(m + n), cheb_l(abs(m - n))
    )


def j_product_identity(m: int, n: int) -> bool:
    """J_m J_n = sum of J_k for k from |m-n| to m+n in steps of 2."""
    rhs: Poly = ()
    for k in range(abs(m - n), m + n + 1, 2):
        rhs = poly_add(rhs, cheb_j(k))
    return poly_mul(cheb_j(m), cheb_j(n)) == rhs


def j_from_l_identity(m: int) -> bool:
    """J_m = L_m + J_{m-2} for m >= 2."""
    return cheb_j(m) == poly_add(cheb_l(m), cheb_j(m - 2))

