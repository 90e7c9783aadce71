"""Deterministic pictures of morphisms: ascii, SVG 1.1, and TikZ.

Diagrams are drawn in the cut-rectangle picture: inputs along the bottom
edge, outputs along the top, seam crossings as marked points on the left
and right edges (which are identified in the annulus and therefore drawn
dashed).  Essential circles, when a diagram carries any, appear as dashed
horizontal lines through the middle of the box.

A morphism renders as one panel per term, laid out left to right in
canonical term order with the coefficient printed above each panel, so
the same morphism always produces byte-identical output.  All floating
point coordinates are emitted with a fixed number of decimals.  SVG and
TikZ format one pixel layout (`_panels`, `_arcs`); TikZ flips its y axis.
"""

from __future__ import annotations

from .diagram import AnnularDiagram, Morphism, _point_names

PAD = 30.0
CAP = 18.0
SLOT = 40.0


def _panels(m: Morphism):
    """(caption, diagram, box width, box height) of each panel, in pixels.

    A zero morphism is one empty box captioned 0, whose diagram is None.
    """
    if not m.terms:
        yield "0", None, SLOT * max(m.dom, m.cod, 1), 80.0
    for d, coeff in m.sorted_terms():
        yield str(coeff), d, SLOT * max(d.dom, d.cod, 1), 80.0 + 24.0 * d.seam


def _point_xy(
    d: AnnularDiagram, p: tuple[str, int], box_w: float, box_h: float
) -> tuple[float, float, float, float]:
    """Pixel position and inward normal of a boundary point (y grows down)."""
    kind, j = p
    if kind == "I":
        return box_w * (j + 1) / (d.dom + 1), box_h, 0.0, -1.0
    if kind == "O":
        return box_w * (j + 1) / (d.cod + 1), 0.0, 0.0, 1.0
    y = box_h - box_h * (j + 1) / (d.seam + 1)
    if kind == "L":
        return 0.0, y, 1.0, 0.0
    return box_w, y, -1.0, 0.0


def _arcs(d: AnnularDiagram, box_w: float, box_h: float):
    """Each arc as a pixel Bezier (start, control, control, end) that bends inward."""
    pull = min(0.45 * min(box_w, box_h), 60.0)
    for a, b in d.arcs:
        xa, ya, nxa, nya = _point_xy(d, a, box_w, box_h)
        xb, yb, nxb, nyb = _point_xy(d, b, box_w, box_h)
        yield (xa, ya), (xa + pull * nxa, ya + pull * nya), (xb + pull * nxb, yb + pull * nyb), (xb, yb)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(m: Morphism) -> str:
    panels = []
    x_off = total_h = 0.0
    for caption, d, box_w, box_h in _panels(m):
        panels.append(_svg_panel(d, caption, x_off, box_w, box_h))
        x_off += box_w + 2 * PAD
        total_h = max(total_h, box_h + 2 * PAD + CAP)
    body = "\n".join(panels)
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(x_off)}" height="{_fmt(total_h)}" '
        f'viewBox="0 0 {_fmt(x_off)} {_fmt(total_h)}">'
    )
    return header + "\n" + body + "\n</svg>\n"


def _svg_panel(
    d: AnnularDiagram | None, caption: str, x_off: float, box_w: float, box_h: float
) -> str:
    x0, y0 = x_off + PAD, PAD + CAP
    out = [f'<g transform="translate({_fmt(x0)},{_fmt(y0)})">']
    out.append(
        f'<text x="{_fmt(box_w / 2)}" y="{_fmt(-6.0)}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{_esc(caption)}</text>'
    )
    out.append(
        f'<rect x="0" y="0" width="{_fmt(box_w)}" height="{_fmt(box_h)}" '
        'fill="none" stroke="#888" stroke-width="1"/>'
    )
    for x in (0.0, box_w):
        out.append(
            f'<line x1="{_fmt(x)}" y1="0" x2="{_fmt(x)}" y2="{_fmt(box_h)}" '
            'stroke="#888" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    if d is not None:
        for (xa, ya), (xc, yc), (xe, ye), (xb, yb) in _arcs(d, box_w, box_h):
            out.append(
                f'<path d="M {_fmt(xa)} {_fmt(ya)} C {_fmt(xc)} {_fmt(yc)}, '
                f'{_fmt(xe)} {_fmt(ye)}, {_fmt(xb)} {_fmt(yb)}" '
                'fill="none" stroke="#000" stroke-width="1.5"/>'
            )
        for t in range(d.ess):
            y = box_h * (t + 1) / (d.ess + 1)
            out.append(
                f'<line x1="0" y1="{_fmt(y)}" x2="{_fmt(box_w)}" y2="{_fmt(y)}" '
                'stroke="#b00" stroke-width="1.5" stroke-dasharray="6 4"/>'
            )
        for p in _point_names(d.dom, d.cod, d.seam):
            x, y, nx, ny = _point_xy(d, p, box_w, box_h)
            out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.2" fill="#000"/>')
            label = f"{p[0]}{p[1]}"
            lx, ly = x - 12 * nx, y - 12 * ny
            out.append(
                f'<text x="{_fmt(lx)}" y="{_fmt(ly + 3.5)}" text-anchor="middle" '
                f'font-family="monospace" font-size="10" fill="#444">{label}</text>'
            )
    out.append("</g>")
    return "\n".join(out)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_tikz(m: Morphism) -> str:
    """One tikzpicture; panels share the canvas, x-shifted in cm.

    Each pixel point of the SVG layout maps to cm with y flipped up.
    """
    out = ["\\begin{tikzpicture}[line width=0.8pt]"]
    x_off = 0.0
    for caption, d, box_w, box_h in _panels(m):
        def at(x: float, y: float, x_off=x_off, box_h=box_h) -> str:
            return f"({(x_off + x) / SLOT:.3f},{(box_h - y) / SLOT:.3f})"

        out.append(f"\\node[anchor=south] at {at(box_w / 2, -6.0)} {{${caption}$}};")
        out.append(f"\\draw[gray] {at(0.0, 0.0)} rectangle {at(box_w, box_h)};")
        for x in (0.0, box_w):
            out.append(f"\\draw[gray,dashed] {at(x, 0.0)} -- {at(x, box_h)};")
        if d is not None:
            for a, c, e, b in _arcs(d, box_w, box_h):
                out.append(f"\\draw {at(*a)} .. controls {at(*c)} and {at(*e)} .. {at(*b)};")
            for t in range(d.ess):
                y = box_h * (t + 1) / (d.ess + 1)
                out.append(f"\\draw[red,dashed] {at(0.0, y)} -- {at(box_w, y)};")
            for p in _point_names(d.dom, d.cod, d.seam):
                out.append(f"\\fill {at(*_point_xy(d, p, box_w, box_h)[:2])} circle (1.5pt);")
        x_off += box_w + 2 * PAD
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


def render_ascii(m: Morphism) -> str:
    """Boxes with labeled edge points, arcs listed beneath each panel."""
    if not m.terms:
        return f"0 : {m.dom} -> {m.cod}\n"
    blocks = []
    for diag, coeff in m.sorted_terms():
        blocks.append(_ascii_panel(coeff, diag))
    return "\n".join(blocks)


def _ascii_panel(coeff, d: AnnularDiagram) -> str:
    top = " ".join(f"O{j}" for j in range(d.cod)) or "--"
    bot = " ".join(f"I{j}" for j in range(d.dom)) or "--"
    width = max(len(top), len(bot)) + 4
    lines = [f"({coeff}) . {d.dom} -> {d.cod}, seam {d.seam}, essential {d.ess}"]
    lines.append("+-" + top.center(width) + "-+")
    for t in reversed(range(d.seam)):
        lines.append(f"L{t}".ljust(2) + " " * (width + 2) + f"R{t}")
    if d.seam == 0:
        lines.append("|" + " " * (width + 2) + "|")
    lines.append("+-" + bot.center(width) + "-+")
    for a, b in d.arcs:
        lines.append(f"  {a[0]}{a[1]} - {b[0]}{b[1]}")
    return "\n".join(lines) + "\n"
