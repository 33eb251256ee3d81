"""Deterministic SVG rendering of diagrams.

Drawing conventions: time runs down the left edge with a "0" tick for now,
data circles get dotted borders, sensor bars hatch at -45 degrees and 2D
markers at +45, relationship markers are dotted lines with centered
arrowheads, verbatim boxes draw a double border and descriptive boxes one
border less.  Output is byte-identical for identical input.
"""

from __future__ import annotations

from itertools import groupby

from . import FrozenRecord, Record, gc_paused
from .grammar import Violation, validate
from .model import (
    KIND_FACTS,
    MOTIVATION_LEVELS,
    ROBINSON_CATEGORIES,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    Kind,
)
from .values import fmt_num
from .dsl import binding_literals

__all__ = ["RenderOptions", "InvalidDiagram", "render"]


class InvalidDiagram(Exception):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__(f"{len(violations)} violation(s); render refused")


class RenderOptions(FrozenRecord):
    def __init__(self, color: bool = False, width: int = 960, height: int = 640):
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be positive")
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)


FONT_SIZE = 12
HATCH_SPACING = 6  # between the hatch lines of sensor bars and 2D markers
_TIP = ' marker-end="url(#arrowhead)"'  # an arrowhead at the end of a line


# The class text of each element's and edge's <g>, per kind: reading an
# Enum's .value costs seven lookups here.
_ELEM_CLASS = {k: f"elem kind-{k.value}" for k in Kind}
_EDGE_CLASS = {k: f"edge kind-{k.value}" for k in EdgeKind}

# Grammatical-role hues, used only when options.color is on.
_ROLE_COLORS = {"subject": "#d8ecff", "direct": "#ffe0cc", "indirect": "#e4ffd8"}


class _Numbers(dict):
    """One render's number texts: each distinct number is formatted once.
    fmt_num gives one text for equal numbers of any type (20 and 20.0), so
    a number may stand for every number equal to it.  A miss calls this
    module's fmt_num by name, so a wrapper put there sees each formatting."""

    def __missing__(self, x: float) -> str:
        text = self[x] = fmt_num(x)
        return text


def _esc(s: str) -> str:
    return (
        s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


class _Box(Record):
    def __init__(self, x: float, y: float, w: float, h: float):
        self.x = x
        self.y = y
        self.w = w
        self.h = h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2

    @property
    def cy(self) -> float:
        return self.y + self.h / 2


def _leaf_size(el: Element) -> tuple[float, float]:
    kind = el.kind
    label = el.label or ""
    text_w = max(36.0, len(label) * FONT_SIZE * 0.62 + 12)
    shape = KIND_FACTS[kind].shape
    if shape == "circle":
        side = max(52.0, text_w)
        return side, side
    if shape == "bar":
        return max(84.0, text_w), 18.0
    if kind is Kind.MARKER_0D:
        return 12.0, 12.0
    if kind is Kind.MARKER_1D:
        return 72.0, 6.0
    if kind is Kind.MARKER_2D:
        return 72.0, 48.0
    if kind is Kind.LABEL_STRING:
        return text_w, FONT_SIZE + 8.0
    if kind is Kind.ATTEND_RING:
        return 22.0, 22.0
    if kind is Kind.TIME_ANCHOR:
        return 26.0, FONT_SIZE + 6.0
    if kind is Kind.MOTIVATION_TRIANGLE:
        return 84.0, 72.0
    if kind is Kind.ROBINSON_ICON:
        return 84.0, 84.0
    if shape == "cells":
        cells = getattr(el.payload, "cells", ())
        if cells:
            w = max(x for _, x, _ in cells) + 24
            h = max(y for _, _, y in cells) + 24
            return max(w, 48.0), max(h, 24.0)
        return 96.0, 48.0
    return max(72.0, text_w), 48.0


def _layout(
    d: Diagram, by_owner: dict[str, list[str]]
) -> tuple[dict[str, _Box], list[str]]:
    """Assign a box to every element: explicit positions win, containers
    pack their children, top-level elements are layered left-to-right by
    arrow topology.  Also returns the elements with every container before
    its contents."""
    elements, containment = d.elements, d.containment
    children: dict[str, list[str]] = {}
    for child in sorted(containment):
        children.setdefault(containment[child], []).append(child)

    sizes: dict[str, tuple[float, float]] = {}

    def measure(eid: str) -> tuple[float, float]:
        """Size of an element whose children are all measured."""
        el = elements[eid]
        kids = children.get(eid, [])
        pad = 16.0
        if not kids:
            size = _leaf_size(el)
        elif all(elements[k].position is not None for k in kids):
            right = 0.0
            bottom = 0.0
            for k in kids:
                kw, kh = sizes[k]
                pos = elements[k].position
                right = max(right, pos.x + (pos.w or kw))
                bottom = max(bottom, pos.y + (pos.h or kh))
            size = (right + pad, bottom + pad + FONT_SIZE)
        else:
            x = pad
            tallest = 0.0
            for k in kids:
                kw, kh = sizes[k]
                x += kw + pad
                tallest = max(tallest, kh)
            size = (max(x, 72.0), tallest + 2 * pad + FONT_SIZE)
        # Leave room under the element for its attribute lines.
        n_attrs = len(by_owner.get(eid, []))
        return (size[0], size[1] + n_attrs * (FONT_SIZE + 3))

    roots = sorted(e for e in elements if e not in containment)

    # Containers before their contents, depth first in child order, without
    # recursion: containment may nest deeper than Python's recursion limit.
    order: list[str] = []
    stack = roots[::-1]
    while stack:
        eid = stack.pop()
        order.append(eid)
        stack.extend(reversed(children.get(eid, [])))
    for eid in reversed(order):  # contents first
        sizes[eid] = measure(eid)

    # Layer roots by non-time arrow topology, sources leftmost.
    top = set(roots)
    arrows = []
    for _, edge in sorted(d.edges.items()):
        src, dst = edge.source, edge.target
        if edge.kind is not EdgeKind.TIME and src in top and dst in top and src != dst:
            arrows.append((src, dst))
    layer = _layers(roots, arrows)

    boxes: dict[str, _Box] = {}
    left_margin = 90.0
    top_margin = 40.0
    col_x = left_margin
    by_layer = sorted(roots, key=layer.__getitem__)  # stable: id order in each column
    for _, col_roots in groupby(by_layer, key=layer.__getitem__):
        widest = 0.0
        y = top_margin
        for r in col_roots:
            w, h = sizes[r]
            pos = elements[r].position
            if pos is not None:
                boxes[r] = _Box(left_margin + pos.x, top_margin + pos.y, pos.w or w, pos.h or h)
            else:
                boxes[r] = _Box(col_x, y, w, h)
                y += h + 28.0
            widest = max(widest, boxes[r].w)
        col_x += widest + 64.0

    for parent in order:
        pbox = boxes[parent]
        pad = 16.0
        x = pbox.x + pad
        for k in children.get(parent, []):
            kw, kh = sizes[k]
            pos = elements[k].position
            if pos is not None:
                boxes[k] = _Box(pbox.x + pos.x, pbox.y + pos.y, pos.w or kw, pos.h or kh)
            else:
                boxes[k] = _Box(x, pbox.y + pad + FONT_SIZE, kw, kh)
                x += kw + pad
    return boxes, order


def _layers(roots: list[str], arrows: list[tuple[str, str]]) -> dict[str, int]:
    """Each root's layer, given the arrows between roots in edge-id order:
    its longest path from a source, found in topological order (Kahn 1962).
    A cycle leaves roots unplaced; then layers come from at most len(roots)
    relaxation passes in edge-id order, from zero.  On a cycle that result
    depends on the edge order, so it is part of the output format."""
    layer = dict.fromkeys(roots, 0)
    targets: dict[str, list[str]] = {}
    indegree = dict.fromkeys(roots, 0)
    for src, dst in arrows:
        targets.setdefault(src, []).append(dst)
        indegree[dst] += 1
    ready = [r for r in roots if not indegree[r]]
    while ready:
        src = ready.pop()
        for dst in targets.get(src, ()):
            layer[dst] = max(layer[dst], layer[src] + 1)
            indegree[dst] -= 1
            if not indegree[dst]:
                ready.append(dst)
    if not any(indegree.values()):
        return layer
    layer = dict.fromkeys(roots, 0)
    for _ in range(len(roots)):
        changed = False
        for src, dst in arrows:
            if layer[dst] < layer[src] + 1:
                layer[dst] = layer[src] + 1
                changed = True
        if not changed:
            break
    return layer


@gc_paused
def render(d: Diagram, options: RenderOptions | None = None) -> str:
    """Render a valid diagram to an SVG document string."""
    options = options or RenderOptions()
    violations = validate(d)
    if violations:
        raise InvalidDiagram(violations)
    num = _Numbers()

    # Each owner's escaped attribute lines, in serialize's order (attribute,
    # then value literal) so that equal diagrams render alike.  Each distinct
    # attribute line and label is escaped once per render; ids need no
    # escaping, since the model holds each to ID_RE.
    escaped: dict[str, str] = {}
    by_owner: dict[str, list[str]] = {}
    for owner, attribute, literal in binding_literals(d):
        text = f"{attribute} = {literal}"
        line = escaped.get(text)
        if line is None:
            line = escaped[text] = _esc(text)
        by_owner.setdefault(owner, []).append(line)
    boxes, parents_first = _layout(d, by_owner)
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{num[options.width]}" '
        f'height="{num[options.height]}" font-size="{FONT_SIZE}" font-family="sans-serif">'
    )
    out.append("<defs>")
    hatch = _line(num, 0, 0, 0, HATCH_SPACING, 'stroke="black" stroke-width="1"')
    for name, angle in (("neg45", -45), ("pos45", 45)):
        out.append(
            f'<pattern id="hatch-{name}" width="{HATCH_SPACING}" height="{HATCH_SPACING}" '
            f'patternUnits="userSpaceOnUse" patternTransform="rotate({angle})">{hatch}</pattern>'
        )
    out.append(
        '<marker id="arrowhead" markerWidth="10" markerHeight="8" refX="9" refY="4" '
        'orient="auto"><path d="M0,0 L10,4 L0,8 z" fill="black"/></marker>'
    )
    out.append("</defs>")

    # Time arrows run down the left-hand side, each with its "0" tick.
    top, bottom = 30, options.height - 40
    zero_y = (top + bottom) // 2
    stroke = 'stroke="black" stroke-width="1.5"'
    for i, eid in enumerate(d.edges_of_kind(EdgeKind.TIME)):
        x = 28 + i * 34
        out.append(f'<g id="{eid}" class="edge time-arrow">')
        out.append(_line(num, x, top, x, bottom, stroke + _TIP))
        out.append(_line(num, x - 6, zero_y, x + 6, zero_y, stroke))
        out.append(f'<text x="{x + 9}" y="{num[zero_y + 4]}">0</text>')
        out.append(f'<text x="{x - 6}" y="{top - 8}">t</text>')
        out.append("</g>")

    # Drawn by containment depth, then id, so that contents paint over boxes.
    elements, containment = d.elements, d.containment
    depth: dict[str | None, int] = {None: -1}
    for eid in parents_first:
        depth[eid] = depth[containment.get(eid)] + 1
    for eid in sorted(elements, key=lambda e: (depth[e], e)):
        out.extend(
            _render_element(
                num, escaped, eid, elements[eid], boxes[eid], by_owner.get(eid, []), options
            )
        )

    # A solitary arrow is placed by its ordinal among all edges, Time included.
    for ordinal, (eid, edge) in enumerate(sorted(d.edges.items()), 1):
        if edge.kind is EdgeKind.TIME:
            continue
        out.extend(_render_edge(num, eid, edge, ordinal, boxes, by_owner.get(eid, [])))

    # State-group token markers.
    for gid, group in sorted(d.groups.items()):
        marker = getattr(group, "marker", None)
        if marker and marker in boxes:
            b = boxes[marker]
            out.append(
                f'<circle class="token-marker" cx="{num[b.cx]}" cy="{num[b.cy]}" '
                'r="5" fill="red"/>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render_element(
    num: _Numbers,
    escaped: dict[str, str],
    eid: str,
    el: Element,
    box: _Box,
    attr_lines: list[str],
    options: RenderOptions,
) -> list[str]:
    kind = el.kind
    shape = KIND_FACTS[kind].shape
    out = [f'<g id="{eid}" class="{_ELEM_CLASS[kind]}">']
    fill = "none"
    if options.color and shape == "circle":
        role = getattr(el.payload, "props", {}).get("role")
        fill = _ROLE_COLORS.get(role, "none")

    x, y, w, h, cx, cy = box.x, box.y, box.w, box.h, box.cx, box.cy
    if shape == "circle":
        dashed = ' stroke-dasharray="3,3"' if KIND_FACTS[kind].data else ""
        out.append(
            f'<ellipse cx="{num[cx]}" cy="{num[cy]}" rx="{num[w / 2]}" '
            f'ry="{num[h / 2]}" fill="{fill}" stroke="black"{dashed}/>'
        )
        if kind is Kind.STATE_CIRCLE:
            out.append(_line(num, x + w * 0.2, y + h * 0.85, x + w * 0.8, y + h * 0.15, 'stroke="black"'))
    elif kind is Kind.SENSOR_BAR:
        out.append(_rect(num, x, y, w, h, 'fill="url(#hatch-neg45)" stroke="black"'))
    elif kind is Kind.MARKER_2D:
        out.append(_rect(num, x, y, w, h, 'fill="url(#hatch-pos45)" stroke="none"'))
    elif kind is Kind.MARKER_0D:
        out.append(_circle(num, cx, cy, 6, 'fill="red"'))
    elif kind is Kind.MARKER_1D:
        out.append(_line(num, x, cy, x + w, cy, 'stroke="black" stroke-dasharray="5,4"'))
    elif kind is Kind.VALUE_BAR:
        out.append(_rect(num, x, y, w, h, 'fill="none" stroke="black"'))
        for end in (x, x + w):
            out.append(_line(num, end, y - 3, end, y + h + 3, 'stroke="black"'))
    elif kind is Kind.ATTEND_RING:
        out.append(_circle(num, cx, cy, w / 2, 'fill="none" stroke="black" stroke-width="2"'))
    elif kind is Kind.MOTIVATION_TRIANGLE:
        out.append(
            f'<polygon points="{num[cx]},{num[y]} {num[x]},{num[y + h]} '
            f'{num[x + w]},{num[y + h]}" fill="none" stroke="black"/>'
        )
        for i in range(1, 4):
            ly = y + h * i / 4
            inset = w * i / 8
            out.append(_line(num, cx - inset, ly, cx + inset, ly, 'stroke="black"'))
        for level, valence in sorted(getattr(el.payload, "markers", ())):
            row = MOTIVATION_LEVELS.index(level)
            my = y + h * (3.5 - row) / 4
            mx = cx - 6 if valence == "+" else cx + 6
            out.append(_circle(num, mx, my, 4, 'fill="red"'))
    elif kind is Kind.ROBINSON_ICON:
        out.append(f'<polygon points="{_hexagon(num, box)}" fill="none" stroke="black"/>')
        active = getattr(el.payload, "active", frozenset())
        for i, cat in enumerate(ROBINSON_CATEGORIES):
            filled = "black" if cat in active else "white"
            out.append(_circle(num, *_hex_corner(box, i), 5, f'fill="{filled}" stroke="black"'))
        valence = getattr(el.payload, "valence", "+")  # "+" or "-": nothing to escape
        out.append(f'<text x="{num[cx - 4]}" y="{num[cy + 4]}">{valence}</text>')
    elif shape == "cells":
        out.append(_rect(num, x, y, w, h, 'fill="none" stroke="black" stroke-dasharray="1,2"'))
        active = getattr(el.payload, "active", frozenset())
        for name, dx, dy in getattr(el.payload, "cells", ()):
            filled = "black" if name in active else "white"
            out.append(_circle(num, x + 12 + dx, y + 12 + dy, 5, f'fill="{filled}" stroke="black"'))
    elif kind is Kind.LABEL_STRING:
        pass  # text only, emitted below
    elif kind is Kind.TIME_ANCHOR:
        out.append(_line(num, x, cy, x + 12, cy, 'stroke="black" stroke-width="1.5"'))
    elif kind is Kind.ZOOM_BOX_PAIR:
        # Static depiction: a small pane beside its magnified pane, corners tied.
        small = _Box(x, y + h * 0.3, w * 0.3, h * 0.4)
        big = _Box(x + w * 0.45, y, w * 0.55, h)
        for pane in (small, big):
            out.append(_rect(num, pane.x, pane.y, pane.w, pane.h, 'fill="none" stroke="black"'))
        for sy, by in ((small.y, big.y), (small.y + small.h, big.y + big.h)):
            dashed = 'stroke="black" stroke-dasharray="4,3"'
            out.append(_line(num, small.x + small.w, sy, big.x, by, dashed))
    else:
        out.append(_rect(num, x, y, w, h, f'fill="{fill}" stroke="black"'))
        if kind is Kind.VERBATIM_BOX:  # one border more than the other boxes
            out.append(_rect(num, x + 4, y + 4, w - 8, h - 8, 'fill="none" stroke="black"'))
        if kind is Kind.XOR_BOX:
            for dx, dy in ((4, 4), (w - 4, 4), (4, h - 4), (w - 4, h - 4)):
                out.append(_circle(num, x + dx, y + dy, 2.5, 'fill="black"'))
        if kind is Kind.CORRELATION_BOX:
            out.append(
                f'<path d="M {num[x + 6]} {num[y + h - 8]} Q {num[cx]} '
                f'{num[y + 4]} {num[x + w - 6]} {num[y + 8]}" fill="none" '
                'stroke="black"/>'
            )
        if kind is Kind.CA_AGGREGATION_BOX and getattr(el.payload, "open_ended", False):
            out.append(f'<text x="{num[cx - 8]}" y="{num[cy]}">...</text>')

    label = el.label
    if label:
        ly = y + FONT_SIZE + 2 if shape == "box" else cy + FONT_SIZE / 3
        text = escaped.get(label)
        if text is None:
            text = escaped[label] = _esc(label)
        out.append(f'<text x="{num[x + 6]}" y="{num[ly]}" class="label">{text}</text>')

    # Attribute lines hang under the element.
    ay = y + h + FONT_SIZE
    for text in attr_lines:
        out.append(f'<text x="{num[x + 4]}" y="{num[ay]}" class="attr">{text}</text>')
        ay += FONT_SIZE + 3

    out.append("</g>")
    return out


def _rect(num: _Numbers, x: float, y: float, w: float, h: float, rest: str) -> str:
    return f'<rect x="{num[x]}" y="{num[y]}" width="{num[w]}" height="{num[h]}" {rest}/>'


def _line(num: _Numbers, x1: float, y1: float, x2: float, y2: float, rest: str) -> str:
    return f'<line x1="{num[x1]}" y1="{num[y1]}" x2="{num[x2]}" y2="{num[y2]}" {rest}/>'


def _circle(num: _Numbers, cx: float, cy: float, r: float, rest: str) -> str:
    return f'<circle cx="{num[cx]}" cy="{num[cy]}" r="{num[r]}" {rest}/>'


def _hexagon(num: _Numbers, box: _Box) -> str:
    return " ".join(f"{num[px]},{num[py]}" for px, py in (_hex_corner(box, i) for i in range(6)))


_HEX_UNIT = ((0.5, 0.0), (1.0, 0.25), (1.0, 0.75), (0.5, 1.0), (0.0, 0.75), (0.0, 0.25))


def _hex_corner(box: _Box, i: int) -> tuple[float, float]:
    ux, uy = _HEX_UNIT[i % 6]
    return box.x + ux * box.w, box.y + uy * box.h


# Per arrow kind: its line style, and whether the arrowhead sits mid-line.
_EDGE_STYLE = {
    EdgeKind.MOTION: ('stroke="black" stroke-width="2"' + _TIP, False),
    EdgeKind.FORCE: ('stroke="black" stroke-width="3.5"' + _TIP, False),
    EdgeKind.CAUSATION: ('stroke="black" stroke-width="1.5" stroke-dasharray="8,4"' + _TIP, False),
    EdgeKind.TUBE: ('stroke="black" stroke-width="5" stroke-opacity="0.35"' + _TIP, False),
    EdgeKind.RELATIONSHIP: ('stroke="black" stroke-width="1.5" stroke-dasharray="2,3"', True),
}


def _render_edge(
    num: _Numbers,
    eid: str,
    edge: Edge,
    ordinal: int,
    boxes: dict[str, _Box],
    attr_lines: list[str],
) -> list[str]:
    style, centered_arrow = _EDGE_STYLE[edge.kind]
    out = [f'<g id="{eid}" class="{_EDGE_CLASS[edge.kind]}">']
    a = None if edge.source is None else boxes[edge.source]
    b = None if edge.target is None else boxes[edge.target]
    if a is not None and edge.source == edge.target:  # self loop
        out.append(
            f'<path d="M {num[a.cx]} {num[a.y]} C {num[a.cx + 40]} '
            f'{num[a.y - 36]} {num[a.cx - 40]} {num[a.y - 36]} '
            f'{num[a.cx - 4]} {num[a.y]}" fill="none" {style}/>'
        )
        out.extend(_edge_attr_texts(num, attr_lines, a.cx, a.y - 40))
        out.append("</g>")
        return out
    if a is not None and b is not None:
        x1, y1, x2, y2 = a.cx, a.cy, b.cx, b.cy
    elif a is not None:
        x1, y1, x2, y2 = a.x + a.w, a.cy, a.x + a.w + 48, a.cy
    elif b is not None:
        x1, y1, x2, y2 = b.x - 48, b.cy, b.x, b.cy
    else:  # fully solitary arrow
        x1, y1 = 70.0, 30.0 + ordinal * 26
        x2, y2 = 130.0, 30.0 + ordinal * 26
    out.append(_line(num, x1, y1, x2, y2, style))
    if centered_arrow:
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        out.append(
            f'<path class="centered-arrowhead" d="M {num[mx - 5]} {num[my - 4]} '
            f'L {num[mx + 5]} {num[my]} L {num[mx - 5]} {num[my + 4]} z" '
            'fill="black"/>'
        )
    out.extend(_edge_attr_texts(num, attr_lines, (x1 + x2) / 2, (y1 + y2) / 2 - 8))
    out.append("</g>")
    return out


def _edge_attr_texts(num: _Numbers, attr_lines: list[str], x: float, y: float) -> list[str]:
    return [
        f'<text x="{num[x + 6]}" y="{num[y - i * (FONT_SIZE + 2)]}" class="attr">{text}</text>'
        for i, text in enumerate(attr_lines)
    ]
