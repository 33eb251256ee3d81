import gc
import inspect
import random
import re
import time
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from tumbug.dsl import parse, serialize, value_literal
from tumbug.grammar import validate
from tumbug.model import (
    AttributeBinding,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    GenericPayload,
    InvalidPayload,
    Kind,
    RobinsonIconPayload,
)
from tumbug import svg
from tumbug.svg import InvalidDiagram, RenderOptions, render
from tumbug.values import Text

from conftest import random_diagram

_SVG = "{http://www.w3.org/2000/svg}"


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


def _relaxed_layers(roots, arrows):
    """Root layering as it was before topological order: at most len(roots)
    relaxation passes over the arrows in edge-id order, from zero."""
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


@st.composite
def _root_graphs(draw):
    """Roots and the arrows between them in edge-id order: acyclic when every
    arrow runs up a hidden rank, else any arrows, duplicates included."""
    n = draw(st.integers(1, 12))
    roots = [f"r{i:02d}" for i in range(n)]
    rank = draw(st.permutations(roots))
    pairs = st.tuples(st.sampled_from(roots), st.sampled_from(roots)).filter(lambda p: p[0] != p[1])
    arrows = draw(st.lists(pairs, max_size=3 * n)) if n > 1 else []
    if draw(st.booleans()):
        arrows = [tuple(sorted(p, key=rank.index)) for p in arrows]
    return roots, draw(st.permutations(arrows))


@settings(max_examples=500, deadline=None, database=None)
@given(_root_graphs())
def test_root_layers_are_the_relaxations(graph):
    # On an acyclic root graph, longest-path layering in topological order
    # gives what the relaxation gives; on a cyclic one, the relaxation runs.
    roots, arrows = graph
    assert svg._layers(roots, arrows) == _relaxed_layers(roots, arrows)


def test_root_layering_of_a_reversed_id_chain_is_linear():
    # Edge ids that run against the chain made the relaxation take one pass
    # per root: 4,000 roots took seconds.
    n = 4000
    d = Diagram()
    for i in range(n):
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=f"c{i:05d}"))
    for i in range(n - 1):
        source, target = f"c{i:05d}", f"c{i + 1:05d}"
        d.add_edge(Edge(kind=EdgeKind.CAUSATION, source=source, target=target, id=f"k{n - i:05d}"))
    start = time.perf_counter()
    out = render(d)
    assert time.perf_counter() - start < 0.75
    xs = [float(x) for x in re.findall(r'<g id="c\d+" [^>]*>\n<ellipse cx="([^"]+)"', out)]
    assert len(xs) == n and all(a < b for a, b in zip(xs, xs[1:]))


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


def test_ids_are_written_as_they_are_and_text_is_escaped():
    # The model holds every id to ID_RE, so render writes ids as they are
    # and escapes only text: labels and attribute lines.  A Robinson valence
    # is "+" or "-".
    ids = ["Az09", "a_b-C", "-_9", "0", "ZZ_z-9"]
    label, note = 'fox & "cat" <dog>', 'a<b & c>"d"'
    d = Diagram()
    circle, icon = GenericPayload(label=label), RobinsonIconPayload(label=note, valence="-")
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, payload=circle, id=ids[0]))
    d.add_element(Element(kind=Kind.ROBINSON_ICON, payload=icon, id=ids[1]))
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=ids[3]))
    d.add_edge(Edge(kind=EdgeKind.MOTION, source=ids[0], target=ids[3], id=ids[2]))
    d.add_edge(Edge(kind=EdgeKind.TIME, id=ids[4]))
    d.bind_attribute(ids[0], AttributeBinding("color", Text(note)))
    d.bind_attribute(ids[2], AttributeBinding("speed", Text(label)))
    with pytest.raises(InvalidPayload):
        RobinsonIconPayload(valence="&")

    out = render(d)
    root = ET.fromstring(out.encode("utf-8"))
    groups = {g.get("id"): g for g in root.iter(f"{_SVG}g")}
    assert set(ids) <= set(groups)
    for eid in ids:
        assert out.count(f'<g id="{eid}" ') == 1
    color, speed = f"color = {value_literal(Text(note))}", f"speed = {value_literal(Text(label))}"
    assert [t.text for t in groups[ids[0]].iter(f"{_SVG}text")] == [label, color]
    assert [t.text for t in groups[ids[1]].iter(f"{_SVG}text")] == ["-", note]
    assert [t.text for t in groups[ids[2]].iter(f"{_SVG}text")] == [speed]
    for text in (label, note, color, speed):
        escaped = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        assert ">" + escaped.replace('"', "&quot;") + "</text>" in out
    assert not re.search(r"&(?!amp;|lt;|gt;|quot;)", out)
