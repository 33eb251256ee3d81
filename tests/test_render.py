import gc
import inspect
import random
import re
import time

import pytest

from tumbug.dsl import parse, serialize
from tumbug.grammar import validate
from tumbug.model import (
    AttributeBinding,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    GenericPayload,
    Kind,
)
from tumbug import svg
from tumbug.svg import InvalidDiagram, RenderOptions, render
from tumbug.values import Text

from conftest import random_diagram


def fox_diagram():
    d = Diagram()
    d.add_element(
        Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, payload=GenericPayload(label="fox"), id="o1")
    )
    d.bind_attribute("o1", AttributeBinding("speed", Text("quick")))
    d.bind_attribute("o1", AttributeBinding("color", Text("brown")))
    return d


def test_fox_has_circle_and_three_texts():
    svg = render(fox_diagram())
    assert svg.count("<ellipse") == 1
    texts = re.findall(r"<text[^>]*>([^<]*)</text>", svg)
    assert len(texts) == 3  # label plus two attribute lines
    assert "fox" in texts


def test_empty_diagram_renders():
    svg = render(Diagram())
    assert svg.startswith("<?xml")
    assert "<svg" in svg and svg.rstrip().endswith("</svg>")


def test_deterministic_output():
    d = fox_diagram()
    assert render(d) == render(d)
    rng = random.Random(31)
    for _ in range(10):
        rd = random_diagram(rng)
        assert render(rd) == render(rd)


def _bound_in_order(names):
    d = Diagram()
    for eid in ("o1", "o2"):
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
    d.add_edge(Edge(kind=EdgeKind.MOTION, source="o1", target="o2", id="m1"))
    for owner in ("o1", "m1"):
        for name in names:
            d.bind_attribute(owner, AttributeBinding(name, Text(name)))
    return d


def test_equal_diagrams_render_alike():
    # Attribute lines were drawn in binding order, so these equal diagrams,
    # and a diagram and its serialize round trip, rendered different bytes.
    d, swapped = _bound_in_order(["size", "color"]), _bound_in_order(["color", "size"])
    assert d == swapped
    assert render(d) == render(swapped) == render(parse(serialize(d)))


def test_invalid_diagram_refused():
    d = Diagram()
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o1"))
    d.add_edge(Edge(kind=EdgeKind.TIME, source="o1", id="t1"))
    with pytest.raises(InvalidDiagram) as err:
        render(d)
    assert err.value.violations


def test_every_element_id_appears_exactly_once():
    rng = random.Random(8)
    for _ in range(10):
        d = random_diagram(rng)
        svg = render(d)
        ids = re.findall(r'id="([^"]+)"', svg)
        for eid in d.elements:
            assert ids.count(eid) == 1, eid


def test_time_arrow_conventions():
    d = Diagram()
    d.add_edge(Edge(kind=EdgeKind.TIME, id="t"))
    svg = render(d)
    assert ">0</text>" in svg  # the "now" tick label
    assert 'class="edge time-arrow"' in svg


def test_float_canvas_sizes_render_the_integer_bytes():
    d = Diagram()
    d.add_edge(Edge(kind=EdgeKind.TIME, id="t"))
    assert render(d, RenderOptions(width=960.0, height=640.0)) == render(d)


def test_data_circle_dotted_vs_solid():
    d = Diagram()
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="p"))
    d.add_element(Element(kind=Kind.DATA_OBJECT_CIRCLE, id="q"))
    svg = render(d)
    data_part = svg[svg.index('id="q"') :]
    solid_part = svg[svg.index('id="p"') : svg.index('id="q"')]
    assert "stroke-dasharray" in data_part.split("</g>")[0]
    assert "stroke-dasharray" not in solid_part.split("</g>")[0]


def test_hatch_directions():
    d = Diagram()
    d.add_element(Element(kind=Kind.SENSOR_BAR, id="sb"))
    d.add_element(Element(kind=Kind.MARKER_2D, id="m2"))
    svg = render(d)
    assert 'patternTransform="rotate(-45)"' in svg
    assert 'patternTransform="rotate(45)"' in svg
    assert "url(#hatch-neg45)" in svg[svg.index('id="sb"') :].split("</g>")[0]
    assert "url(#hatch-pos45)" in svg[svg.index('id="m2"') :].split("</g>")[0]


def test_relationship_marker_dotted_with_centered_arrowhead():
    d = Diagram()
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="a"))
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="b"))
    d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="a", target="b", id="r"))
    svg = render(d)
    chunk = svg[svg.index('id="r"') :].split("</g>")[0]
    assert "stroke-dasharray" in chunk
    assert "centered-arrowhead" in chunk


def test_verbatim_double_border_descriptive_single():
    d = Diagram()
    d.add_element(Element(kind=Kind.VERBATIM_BOX, id="v"))
    d.add_element(Element(kind=Kind.DESCRIPTIVE_BOX, id="dsc"))
    svg = render(d)
    verbatim = svg[svg.index('id="v"') :].split("</g>")[0]
    descriptive = svg[svg.index('id="dsc"') :].split("</g>")[0]
    assert verbatim.count("<rect") == 2
    assert descriptive.count("<rect") == 1


def test_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(width=0)


def test_zoom_box_pair_draws_two_panes():
    d = Diagram()
    d.add_element(Element(kind=Kind.ZOOM_BOX_PAIR, id="z"))
    svg = render(d)
    chunk = svg[svg.index('id="z"') :].split("</g>")[0]
    assert chunk.count("<rect") == 2


def test_color_coding_is_optional():
    d = Diagram()
    d.add_element(
        Element(
            kind=Kind.PHYSICAL_OBJECT_CIRCLE,
            payload=GenericPayload(label="he", props={"role": "subject"}),
            id="o",
        )
    )
    plain = render(d)
    colored = render(d, RenderOptions(color=True))
    assert 'fill="none"' in plain[plain.index('id="o"') :].split("</g>")[0]
    assert "#d8ecff" in colored


def test_positions_honored_inside_verbatim():
    d = Diagram()
    d.add_element(Element(kind=Kind.VERBATIM_BOX, id="v"))
    from tumbug.model import Position

    d.add_element(
        Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, position=Position(10, 20), id="o"),
        parent="v",
    )
    svg = render(d)
    assert 'id="o"' in svg


def test_deep_containment_chain_renders():
    # Deeper than Python's recursion limit: layout walks with explicit stacks.
    depth = 2000
    d = Diagram()
    d.add_element(Element(kind=Kind.AGGREGATION_BOX, id="b0"))
    for i in range(1, depth):
        d.add_element(Element(kind=Kind.AGGREGATION_BOX, id=f"b{i}"), parent=f"b{i - 1}")
    svg = render(d)
    rects = re.findall(r'<g id="b(\d+)"[^>]*>\n<rect x="([^"]+)" y="[^"]+" width="([^"]+)"', svg)
    assert [int(i) for i, _, _ in rects] == list(range(depth))
    xs = [float(x) for _, x, _ in rects]
    widths = [float(w) for _, _, w in rects]
    # Each box sits 16 units inside its parent and is 32 units narrower.
    assert all(b - a == 16 for a, b in zip(xs, xs[1:]))
    assert all(a - b == 32 for a, b in zip(widths, widths[1:]))


def test_deep_containment_validates_and_renders_in_linear_time():
    # Walking every element up to its root made a 4,000-deep chain take
    # seconds; the cycle rule and the draw order now visit each element once.
    d = Diagram()
    d.add_element(Element(kind=Kind.AGGREGATION_BOX, id="b0"))
    for i in range(1, 4000):
        d.add_element(Element(kind=Kind.AGGREGATION_BOX, id=f"b{i}"), parent=f"b{i - 1}")
    start = time.perf_counter()
    assert validate(d) == []
    render(d)
    assert time.perf_counter() - start < 0.5


def test_render_runs_with_the_collector_paused(monkeypatch):
    # Render builds the markup of every element and frees little of it, so
    # the cyclic collector is paused while it runs, validate included.
    seen = []

    def recording(d):
        seen.append(gc.isenabled())
        return validate(d)

    monkeypatch.setattr(svg, "validate", recording)
    assert gc.isenabled()
    assert "fox" in render(fox_diagram())
    assert seen == [False]
    assert gc.isenabled()


def test_each_distinct_number_is_formatted_once_per_render(monkeypatch):
    # Render keeps a memo local to the call; a miss calls svg.fmt_num by name,
    # so a wrapper put there sees every formatting.
    from test_pins import EVERY_KIND_SCENE

    d = parse(EVERY_KIND_SCENE)
    expected = render(d)
    calls = []
    fmt_num = svg.fmt_num

    def counting(x):
        calls.append(x)
        return fmt_num(x)

    monkeypatch.setattr(svg, "fmt_num", counting)
    for _ in range(2):
        calls.clear()
        assert render(d) == expected
        assert calls and len(set(calls)) == len(calls)


def test_a_refused_render_enables_the_collector_again():
    d = Diagram()
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o1"))
    d.add_edge(Edge(kind=EdgeKind.TIME, source="o1", id="t1"))
    with pytest.raises(InvalidDiagram):
        render(d)
    assert gc.isenabled()
    gc.disable()
    try:
        render(fox_diagram())
        assert not gc.isenabled()
        with pytest.raises(InvalidDiagram):
            render(d)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_render_signature_and_name_are_unchanged():
    expected = "(d: 'Diagram', options: 'RenderOptions | None' = None) -> 'str'"
    assert str(inspect.signature(render)) == expected
    assert (render.__name__, render.__module__) == ("render", "tumbug.svg")
    assert render.__doc__ == "Render a valid diagram to an SVG document string."
    assert render.__wrapped__ is not render
