"""Seeded random morphisms for the `randomized` workload.

The word generators follow the shape of the test suite's randomized
properties, but live here so the benchmark owns its inputs: every function
takes an explicit random.Random, so one seed reproduces every case.  The
engine only ever sees the morphisms these produce.
"""

from __future__ import annotations

import random

import atlq

MAX_STRANDS = 5


def single_diagram(rng: random.Random, n: int, steps: int):
    """A one-term morphism: `steps` random U_i and D^{+-1} on n strands.

    A step that would create an essential circle (a zero morphism in the
    quotient) is skipped, so the result always has exactly one term.
    """
    out = atlq.gen_id(n)
    for _ in range(steps):
        if n >= 2 and rng.random() < 0.6:
            letter = atlq.gen_u(n, rng.randrange(n))
        else:
            letter = atlq.gen_d(n, rng.choice((1, -1)))
        nxt = out * letter
        if not nxt.is_zero():
            out = nxt
    return out


def word(rng: random.Random, n: int, length: int) -> list:
    """`length` random generator letters on n strands; crossings have two terms."""
    letters = []
    for _ in range(length):
        kind = rng.random()
        if n >= 2 and kind < 0.45:
            letters.append(atlq.gen_u(n, rng.randrange(n)))
        elif n >= 2 and kind < 0.6:
            letters.append(atlq.crossing(n, rng.randrange(n)))
        else:
            letters.append(atlq.gen_d(n, rng.choice((1, -1))))
    return letters


def compose_word(letters: list, n: int):
    out = atlq.gen_id(n)
    for letter in letters:
        out = out * letter
    return out


def cases(seed: str, per_kind: int) -> dict[str, list[tuple]]:
    """`per_kind` inputs for each of the four randomized properties.

    Strand counts and word lengths are uniform, as in the test suite's
    randomized properties, but cycled through in turn rather than drawn:
    the letters alone are random, so the work of one draw varies less from
    seed to seed.  Case k of a property with L lengths uses strand count
    k mod n_max and length (k // n_max) mod L.
    """
    rng = random.Random(seed)
    out: dict[str, list[tuple]] = {
        "roundtrip": [],
        "associativity": [],
        "functoriality": [],
        "interchange": [],
    }
    for k in range(per_kind):
        n, steps = 1 + k % MAX_STRANDS, (k // MAX_STRANDS) % 13
        out["roundtrip"].append((single_diagram(rng, n, steps),))
    for k in range(per_kind):
        n, length = 1 + k % MAX_STRANDS, 1 + (k // MAX_STRANDS) % 4
        out["associativity"].append(
            tuple(compose_word(word(rng, n, length), n) for _ in range(3))
        )
    for k in range(per_kind):
        n, length = 1 + k % MAX_STRANDS, 1 + (k // MAX_STRANDS) % 6
        out["functoriality"].append(
            tuple(compose_word(word(rng, n, length), n) for _ in range(2))
        )
    # (n1, n2) with n1 in 1..3 and n2 in 1..5-n1, each pair in turn
    pairs = [(n1, n2) for n1 in range(1, 4) for n2 in range(1, MAX_STRANDS + 1 - n1)]
    for k in range(per_kind):
        n1, n2 = pairs[k % len(pairs)]
        lx, ly = 1 + (k // len(pairs)) % 3, 1 + (k // (3 * len(pairs))) % 3
        out["interchange"].append(
            (compose_word(word(rng, n1, lx), n1), compose_word(word(rng, n2, ly), n2))
        )
    return out
