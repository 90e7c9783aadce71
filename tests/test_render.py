"""Rendering: deterministic bytes, valid headers, all three backends."""

import hashlib
import re

import pytest

from atlq import Morphism, configure, crossing, extremal, gen_cap, gen_d, gen_id, gen_u
from atlq.diagram import _POOL
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
    # sha256 of each backend's text for the samples, a wound U_0, T_3 and
    # two raw essential circles: the pictures do not depend on how a
    # diagram is stored
    xs = sample_morphisms() + [gen_d(2, 1) * gen_d(2, 1) * gen_u(2, 0), extremal(3)]
    with configure(mode="raw"):
        xs.append(ess_generator(0) * ess_generator(0))
    digests = {}
    for renderer in (render_svg, render_tikz, render_ascii):
        digest = hashlib.sha256()
        for x in xs:
            digest.update(renderer(x).encode())
        digests[renderer.__name__] = digest.hexdigest()
    assert digests == {
        "render_svg": "81ad43187a7cd917a0f48c989d8d396fbbb848cd1831f4afbb51d86ef238f251",
        "render_tikz": "2073988d366a89443519614eec6b820a02646ff20f4cef79e04c9f024761585f",
        "render_ascii": "2d4406dc7c3811d17e6b1cce3661520859fa7cdc2e9baf6819f3a6544280600d",
    }


_NUM = r"(-?[\d.]+)"
_BOX = re.compile(rf"\\draw\[gray\] \({_NUM},{_NUM}\) rectangle \({_NUM},{_NUM}\);")
_CONTROLS = re.compile(rf"controls \({_NUM},{_NUM}\) and \({_NUM},{_NUM}\)")


@pytest.mark.parametrize("m", [gen_cap(2, 0), gen_u(3, 0)], ids=["cap", "u_3_0"])
def test_tikz_arcs_bend_into_their_box(m):
    # TikZ flips the SVG layout's y axis, normals included, so an arc that
    # ends on I or O bends inward as it does in SVG
    box = None
    seen = 0
    for line in render_tikz(m).splitlines():
        if match := _BOX.search(line):
            x0, y0, x1, y1 = map(float, match.groups())
            box = (min(x0, x1), max(x0, x1)), (min(y0, y1), max(y0, y1))
        if match := _CONTROLS.search(line):
            (xlo, xhi), (ylo, yhi) = box
            coords = list(map(float, match.groups()))
            for x, y in zip(coords[::2], coords[1::2]):
                assert xlo <= x <= xhi and ylo <= y <= yhi, line
                seen += 1
    assert seen == 2 * sum(len(d.arcs) for d in m.terms) > 0


def test_an_empty_panel_interns_no_diagram():
    # a zero morphism's box is sized from its shape alone
    render_svg(Morphism.zero(2, 2))
    render_tikz(Morphism.zero(2, 2))
    for dom, cod, seam, _, codes in _POOL:
        assert len(codes) == dom + cod + 2 * seam
