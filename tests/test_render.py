"""Rendering: deterministic bytes, valid headers, all three backends."""

import hashlib

import pytest

from atlq import Morphism, configure, crossing, extremal, gen_d, gen_id, gen_u
from atlq.planar import ess_generator
from atlq.render import render_ascii, render_svg, render_tikz
from atlq.scalar import HALF


def sample_morphisms():
    return [
        gen_id(2),
        gen_d(1, 1),
        gen_u(3, 0),
        crossing(2, 1).scale(HALF) + gen_d(2, -1),
    ]


def test_svg_structure():
    text = render_svg(gen_u(2, 0))
    assert text.startswith('<?xml version="1.0"')
    assert 'xmlns="http://www.w3.org/2000/svg"' in text
    assert text.rstrip().endswith("</svg>")


def test_tikz_structure():
    text = render_tikz(gen_d(1, 1))
    assert "\\begin{tikzpicture}" in text and "\\end{tikzpicture}" in text


def test_ascii_shows_coefficients():
    text = render_ascii(crossing(2, 1).scale(HALF))
    assert "1/2" in text


def test_renders_are_deterministic():
    for m in sample_morphisms():
        for renderer in (render_svg, render_tikz, render_ascii):
            first = renderer(m)
            rebuilt = renderer(m + m.scale(HALF).scale(2) - m)
            assert renderer(m) == first == rebuilt


def test_render_seam_and_circles():
    # wound diagrams mark seam points; raw essential circles draw too
    assert render_svg(gen_d(2, 1) * gen_d(2, 1)) != render_svg(gen_d(2, 1))
    with configure(mode="raw"):
        circle = ess_generator(0) * ess_generator(0)
    for renderer in (render_svg, render_tikz, render_ascii):
        assert renderer(circle)


def test_multi_term_panels():
    m = gen_id(2) + gen_u(2, 1).scale(HALF)
    svg = render_svg(m)
    assert svg.count("<rect") >= 2


@pytest.mark.parametrize(
    "renderer, caption",
    [(render_svg, ">0</text>"), (render_tikz, "{$0$}"), (render_ascii, "0 : 2 -> 2\n")],
    ids=["svg", "tikz", "ascii"],
)
def test_zero_morphism_renders_a_zero_panel(renderer, caption):
    text = renderer(Morphism.zero(2, 2))
    assert caption in text
    assert text == renderer(gen_u(2, 1) - gen_u(2, 1)) != renderer(gen_id(2))


def test_renders_are_frozen():
    # sha256 of every backend's text for the samples, a wound U_0, T_3 and
    # two raw essential circles: the pictures do not depend on how a
    # diagram is stored
    xs = sample_morphisms() + [gen_d(2, 1) * gen_d(2, 1) * gen_u(2, 0), extremal(3)]
    with configure(mode="raw"):
        xs.append(ess_generator(0) * ess_generator(0))
    digest = hashlib.sha256()
    for x in xs:
        for renderer in (render_svg, render_tikz, render_ascii):
            digest.update(renderer(x).encode())
    assert digest.hexdigest() == "82739710fa793e2a61a2fe5498653b4e9e1fe42f35f9fa5e1903e659353d4c4e"
