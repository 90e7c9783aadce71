"""Label-string basis, flattening, exact coordinates, quotient equality."""

import hashlib
import json
import random

import pytest

from atlq import (
    Morphism,
    WeightMap,
    canon,
    clear_caches,
    configure,
    coordinates,
    enumerate_basis,
    ess_equal,
    extremal,
    f_apply,
    f_inverse,
    gen_cap,
    gen_d,
    gen_id,
    gen_u,
    highest_weight,
    jones_wenzl,
    lowest_weight,
    nested_cups,
    partial_trace,
    phi,
    phi_chain,
    tensor,
)
from atlq import rep
from atlq.canon import basis_columns, labels_from_matching, matching_from_labels
from atlq.diagram import make_diagram
from atlq.rep import extremal_matrix, rank_of_columns, solve_columns
from atlq.scalar import HALF, MINUS_ONE, ONE, TWO, ZERO

from helpers import (
    compose_word,
    projector_family,
    random_single_diagram,
    random_word,
    reference_basis,
    reference_phase_map,
)


def _seeded_morphisms(seed: int, count: int) -> list[Morphism]:
    """Words on 1..4 strands, half of them capped to n -> n-2: dom + cod <= 8."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, 5)
        x = compose_word(random_word(rng, n, 4), n)
        if n >= 2 and rng.random() < 0.5:
            x = gen_cap(n, rng.randrange(n - 1)) * x
        out.append(x)
    return out


def test_label_examples():
    assert str(matching_from_labels("io")) == "{O0-O1}"
    assert str(matching_from_labels("oi")) == "{O0-L0, O1-R0}"
    assert str(matching_from_labels("iioo")) == "{O0-O3, O1-O2}"


def test_label_round_trip_exhaustive():
    for n_points in (2, 4, 6):
        for d in enumerate_basis(n_points):
            assert matching_from_labels(labels_from_matching(d)) is d


def test_labels_refuse_an_essential_circle():
    # the circle-free diagram of this arc has the labels "io"
    d = make_diagram(0, 2, 0, 1, [(("O", 0), ("O", 1))])
    with pytest.raises(ValueError, match="essential circle"):
        labels_from_matching(d)


def test_enumerate_basis_matches_the_label_filter():
    for n_points in range(0, 13, 2):
        assert enumerate_basis(n_points) == reference_basis(n_points)


def test_enumerate_basis_returns_a_fresh_list():
    basis = enumerate_basis(6)
    want = list(basis)
    basis.reverse()
    basis.pop()
    assert enumerate_basis(6) == want


def test_enumerate_basis_is_frozen():
    # sha256 of the JSON of every basis diagram of hom(0, 2n), n <= 6, taken
    # when labels were matched by rescanning for an adjacent "i" "o" pair
    basis = [d.to_json_obj() for n in range(7) for d in enumerate_basis(2 * n)]
    assert len(basis) == 1275
    digest = hashlib.sha256(json.dumps(basis).encode()).hexdigest()
    assert digest == "ce037887c3299c328c2b7c06b693bf50a9a96575ba0978d06ee903cc1d8bf512"


def test_basis_counts():
    assert [len(enumerate_basis(k)) for k in (0, 2, 4, 6)] == [1, 2, 6, 20]
    with pytest.raises(ValueError):
        enumerate_basis(3)


def test_enumerate_basis_refuses_a_count_over_the_strand_limit():
    with configure(max_strands=6):
        assert len(enumerate_basis(6)) == 20
        with pytest.raises(ValueError, match="8 strands exceeds the configured limit of 6"):
            enumerate_basis(8)
        for bad in (3, 5, -1, -2):
            with pytest.raises(ValueError):
                enumerate_basis(bad)


def test_basis_columns_keep_no_phase_tables():
    clear_caches()
    cold = basis_columns(8)
    assert not rep._phi_cache
    for b in enumerate_basis(8):
        phi(Morphism.from_diagram(b))
    assert len(rep._phi_cache) == 70
    warm = basis_columns(8)
    assert [list(col.items()) for col in warm] == [list(col.items()) for col in cold]


_UNITS = {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_basis_pivots_follow_the_labels():
    # eliminated in label order, the basis column labelled L pivots at the
    # row L with i -> + and o -> -, on a unit times 2^seam, and every
    # normalized pivot entry is a unit, so no pivot has a denominator
    to_signs = str.maketrans("io", "+-")
    for n_points in range(0, 11, 2):
        basis = enumerate_basis(n_points)
        pivots = rep._eliminate(basis_columns(n_points))
        assert len(pivots) == len(basis)
        for b, (prow, pden, entries, _, (a, bi, den)) in zip(basis, pivots):
            assert prow == labels_from_matching(b).translate(to_signs)
            assert pden == 1
            assert all((x, y) in _UNITS for _, x, y in entries)
            assert (a, bi) in {(u * den << b.seam, v * den << b.seam) for u, v in _UNITS}


def test_basis_images_independent():
    cols = basis_columns(4)
    assert cols == [phi(Morphism.from_diagram(b)).columns().get("", {}) for b in enumerate_basis(4)]
    assert rank_of_columns(cols) == 6


def test_flatten_round_trip():
    rng = random.Random(11)
    samples = [gen_u(2, 0), gen_d(2, 1), gen_d(1, 1)]
    samples += [random_single_diagram(rng, 3, 5) for _ in range(6)]
    for x in samples:
        flat = f_apply(x)
        assert (flat.dom, flat.cod) == (0, x.dom + x.cod)
        assert ess_equal(f_inverse(flat, x.dom), x)


def test_coordinates_unit_vector():
    assert coordinates(gen_u(2, 1)) == [ZERO, ONE, ZERO, ZERO, ZERO, ZERO]


def test_coordinates_refuse_a_basis_over_the_strand_limit():
    with configure(max_strands=3):
        with pytest.raises(ValueError, match="exceeds the configured limit"):
            coordinates(gen_u(2, 1))


def test_coordinates_linear():
    x = gen_u(2, 1).scale(HALF) + gen_d(2, 1)
    cu = coordinates(gen_u(2, 1))
    cd = coordinates(gen_d(2, 1))
    assert coordinates(x) == [a * HALF + b for a, b in zip(cu, cd)]


def test_coordinates_keep_only_the_phase_tables_kept_before():
    # the tables that phi(x) builds for x's terms are dropped again, and
    # those already kept stay, as the same objects
    clear_caches()
    x = extremal(4) + jones_wenzl(4)
    cold = coordinates(x)
    assert not any(d in rep._phi_cache for d in x.terms)
    phi(x)
    kept = {d: rep._phi_cache[d] for d in x.terms}
    assert coordinates(x) == cold
    assert {d: rep._phi_cache[d] for d in x.terms} == kept
    assert all(rep._phi_cache[d] is table for d, table in kept.items())
    # a one-term operand, cold and warm
    clear_caches()
    (d,) = gen_u(4, 2).terms
    assert d not in rep._phi_cache
    cold = coordinates(gen_u(4, 2))
    assert d not in rep._phi_cache
    phi(gen_u(4, 2))
    assert coordinates(gen_u(4, 2)) == cold and d in rep._phi_cache


def _weight_columns(n: int) -> list[dict]:
    """The basis weight vectors through `reference_phase_map` and `columns()`."""
    return [reference_phase_map(b).columns().get("", {}) for b in enumerate_basis(n)]


def test_basis_columns_match_the_weight_maps():
    # read off the phase tables, with the rows in the weight maps' order
    for n in range(0, 11, 2):
        got, want = basis_columns(n), _weight_columns(n)
        assert [list(col.items()) for col in got] == [list(col.items()) for col in want]


def test_coordinates_match_solving_the_bent_weight_map():
    family = [x for x in projector_family() if x.dom + x.cod <= 10]
    assert len(family) == 14
    for x in family:
        # the bend on weights, as a product of weight maps
        a = x.dom
        bent = phi(x).tensor(WeightMap.identity(a)) * phi(nested_cups(a))
        target = bent.columns().get("", {})
        assert coordinates(x) == solve_columns(_weight_columns(x.dom + x.cod), target)


def test_coordinates_of_basis_diagrams():
    basis = enumerate_basis(4)
    for i, b in enumerate(basis):
        coeffs = coordinates(Morphism.from_diagram(b))
        assert coeffs == [ONE if j == i else ZERO for j in range(len(basis))]


def test_coordinates_read_off_the_bent_diagram():
    # in the quotient, bending x gives label-string basis diagrams only, so
    # the diagram side reads the coordinates off without any elimination
    named = [extremal(3), extremal(4), jones_wenzl(4), highest_weight(3), lowest_weight(3)]
    for x in named + _seeded_morphisms(5, 12):
        flat = f_apply(x)
        for k in flat.terms:
            assert matching_from_labels(labels_from_matching(k)) is k
        basis = enumerate_basis(x.dom + x.cod)
        assert [flat.terms.get(b, ZERO) for b in basis] == coordinates(x)


# sha256 of ",".join(map(str, coordinates(x))) + "\n" over the sizes of each
# kind, taken when the elimination ran on GaussianRational with tag rows
COORDINATE_DIGESTS = {
    "extremal": (
        extremal, range(2, 6),
        "969cb6a3fbf01418a3168b2daa7e352092cee1956d19536631deadb886cf25df",
    ),
    "jw": (
        jones_wenzl, range(2, 7),
        "5110d94d651cce147eb620ab0e81a401fbad2720cc2aae87b4f0d69f3d04cbf0",
    ),
    "highest": (
        highest_weight, range(2, 5),
        "004a3398c527207d460fd1c0a4f4c447faacaf94392a02e0c3b6baec27d90de0",
    ),
    "lowest": (
        lowest_weight, range(2, 5),
        "1180adf528dcd16cc5df5a24333e39d91efcb2fce0cb451cfd9c6e694b9ab83d",
    ),
}


@pytest.mark.parametrize("kind", sorted(COORDINATE_DIGESTS))
def test_coordinates_are_frozen(kind):
    build, sizes, want = COORDINATE_DIGESTS[kind]
    digest = hashlib.sha256()
    for m in sizes:
        digest.update((",".join(map(str, coordinates(build(m)))) + "\n").encode())
    assert digest.hexdigest() == want


def test_coordinates_at_zero_strands():
    assert extremal_matrix(0).rank() == 1
    assert coordinates(extremal(0)) == [TWO]


def test_ess_equal_matches_bent_diagrams():
    # f_apply(x) == f_apply(y) decides quotient equality without phi
    pairs = [(gen_d(1, 1) * gen_d(1, 1), gen_id(1).scale(MINUS_ONE))]
    xs = _seeded_morphisms(13, 60)
    for x, other in zip(xs, reversed(xs)):
        n = x.dom
        # a full turn of the last strand is -1 in the quotient
        twist = tensor(gen_id(n - 1), gen_d(1, 1) * gen_d(1, 1)).scale(MINUS_ONE)
        pairs.append((x, x * twist))
        if (other.dom, other.cod) == (x.dom, x.cod):
            pairs.append((x, other))
    verdicts = [ess_equal(x, y) for x, y in pairs]
    assert verdicts == [f_apply(x) == f_apply(y) for x, y in pairs]
    assert pairs[0][0] != pairs[0][1]
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 5


def test_ess_equal_shape_check():
    with pytest.raises(ValueError):
        ess_equal(gen_id(1), gen_id(2))
    # two zeros have equal (empty) terms; their shapes still decide first
    with pytest.raises(ValueError, match="shape mismatch"):
        ess_equal(Morphism.zero(1, 1), Morphism.zero(2, 0))


def test_ess_equal_reads_equal_terms_without_phi(monkeypatch):
    x = extremal(4)
    same = Morphism.loads(x.dumps())

    def no_phi(m):
        raise AssertionError("phi built for syntactically equal morphisms")

    monkeypatch.setattr(canon, "phi", no_phi)
    assert ess_equal(x, x) and ess_equal(x, same) and ess_equal(Morphism.zero(2, 0), Morphism.zero(2, 0))
    with pytest.raises(AssertionError, match="phi built"):
        ess_equal(x, x.scale(2))


def test_ess_equal_partial_trace_of_t4():
    # the closed T_4 and -T_3 differ term by term but agree in the quotient
    closed, want = partial_trace(extremal(4)), extremal(3).scale(MINUS_ONE)
    assert closed != want
    assert ess_equal(closed, want)


def test_ess_equal_winding():
    # D^2 and -id differ as diagrams but agree in the quotient.
    wind = gen_d(1, 1) * gen_d(1, 1)
    minus_id = gen_id(1).scale(MINUS_ONE)
    assert wind != minus_id
    assert ess_equal(wind, minus_id)
    assert not ess_equal(wind, gen_id(1))


def test_phi_chain_matches_direct():
    word = [gen_u(3, 0), gen_d(3, 1), gen_u(3, 2)]
    x = word[0] * word[1] * word[2]
    assert phi_chain(*word) == phi(x)
    with pytest.raises(ValueError):
        phi_chain()
