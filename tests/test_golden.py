"""Golden bytes: one sha256 over the DSL text, the SVG and the violation lists
of a fixed corpus.

The corpus covers every template builder, 50 seeded random diagrams and a
hand-built scene whose layout depends on edge-id order (solitary arrows
among Time arrows, causation chains whose ids are shuffled against chain
order, a causation cycle between roots, XOR boxes, edge bindings).  A change
to how serialize, render or validate get their answers must leave the bytes
as they are; a change to the bytes themselves updates GOLDEN_SHA256.
"""

import hashlib
import random

from tumbug.dsl import serialize
from tumbug.grammar import validate
from tumbug.model import (
    AttributeBinding,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    GenericPayload,
    Kind,
    Position,
    SplitTimeGroup,
)
from tumbug.svg import RenderOptions, render
from tumbug.templates import (
    ASPECTS,
    TENSES,
    AspectSpec,
    BasicPattern,
    PrimitiveAct,
    build_arithmetic,
    build_aspect,
    build_flowchart,
    build_passive,
    build_pattern,
    build_primitive,
    build_syllogism,
    build_water_pour,
)
from tumbug.values import Scalar, Text, Wildcard

from conftest import random_diagram
from test_templates import ACT_ROLES, PATTERN_LABELS

GOLDEN_SHA256 = "1ad41527bf35ed18f3054b965d0a1b1b8f5fa7a445c2b92b7bff4dd56e512f72"


def _template_diagrams() -> list[Diagram]:
    out = [build_primitive(act, **ACT_ROLES[act]) for act in PrimitiveAct]
    out += [build_pattern(p, *PATTERN_LABELS[p]) for p in BasicPattern]
    for tense in TENSES:
        for aspect in ASPECTS:
            out.append(build_aspect(AspectSpec(tense, aspect), "Ken", "call"))
    for continuation in ("stops", "both"):
        out.append(
            build_aspect(AspectSpec("past", "perfect-progressive", continuation), "dog", "bark")
        )
    for form, terms in (
        ("barbara", ("men", "mortal", "Socrates")),
        ("celarent", ("reptiles", "fur", "snakes")),
        ("darii", ("rabbits", "furry animals", "pets")),
    ):
        for swap in (False, True):
            out += build_syllogism(form, terms, swap)
    for op, nums in (("+", [1, 2]), ("-", [9, 4.5]), ("*", [3, -5]), ("/", [1, 3])):
        out.append(build_arithmetic(op, nums))
    out.append(build_flowchart("sequential", ["S1", "S2", "S3"])[0])
    out.append(
        build_flowchart("loop", ["S1", "S2", "S3", "S4"], {"body": ["S2", "S3"], "iterations": 2})[0]
    )
    out.append(
        build_flowchart(
            "branch", ["S1", "S2", "S3", "S4"], {"then": ["S2"], "else": ["S3"], "take": "else"}
        )[0]
    )
    out.append(build_passive("kicked", "ball"))
    out.append(build_passive("kicked", "ball", agent="He"))
    out.append(build_water_pour())
    return out


def _circle(d: Diagram, eid: str, parent: str | None = None, role: str | None = None) -> str:
    props = {"role": role} if role else {}
    return d.add_element(
        Element(
            kind=Kind.PHYSICAL_OBJECT_CIRCLE,
            payload=GenericPayload(label=eid, props=props),
            id=eid,
        ),
        parent=parent,
    )


def _layout_scene() -> Diagram:
    """Roots layered by causation chains and a cycle, plus solitary arrows."""
    d = Diagram()
    for i in range(12):
        _circle(d, f"o{i:02d}", role=("subject", "direct", "indirect", None)[i % 4])
    d.bind_attribute("o00", AttributeBinding("weight", Scalar(3.5, "kg")))
    d.bind_attribute("o00", AttributeBinding("color", Text("red")))
    d.bind_attribute("o03", AttributeBinding("mood", Wildcard.DK))
    # A chain o00 -> o01 -> o02 -> o03 -> o04 whose ids run against it.
    for eid, (src, dst) in zip(
        ("c9", "c3", "c7", "c1"),
        (("o00", "o01"), ("o01", "o02"), ("o02", "o03"), ("o03", "o04")),
    ):
        d.add_edge(Edge(kind=EdgeKind.CAUSATION, source=src, target=dst, id=eid))
    # A second chain joining the first part way along.
    d.add_edge(Edge(kind=EdgeKind.CAUSATION, source="o10", target="o11", id="c8"))
    d.add_edge(Edge(kind=EdgeKind.CAUSATION, source="o11", target="o02", id="c2"))
    # A cycle o05 -> o06 -> o07 -> o05 between roots.
    for eid, (src, dst) in zip(
        ("k2", "k0", "k1"), (("o05", "o06"), ("o06", "o07"), ("o07", "o05"))
    ):
        d.add_edge(Edge(kind=EdgeKind.CAUSATION, source=src, target=dst, id=eid))
    d.add_edge(Edge(kind=EdgeKind.MOTION, source="o08", target="o09", id="m5"))
    d.add_edge(Edge(kind=EdgeKind.MOTION, source="o09", target="o09", id="m6"))
    d.add_edge(Edge(kind=EdgeKind.FORCE, target="o08", id="f1", role="acted-upon"))
    d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="o08", target="o10", id="r1"))
    # Solitary arrows, with Time arrows and other edges between their ids.
    for eid, kind in (
        ("a1", EdgeKind.MOTION),
        ("a3", EdgeKind.CAUSATION),
        ("a5", EdgeKind.RELATIONSHIP),
        ("b2", EdgeKind.FORCE),
        ("z9", EdgeKind.MOTION),
    ):
        d.add_edge(Edge(kind=kind, id=eid))
    for eid in ("a2", "a4", "t0"):
        d.add_edge(Edge(kind=EdgeKind.TIME, id=eid))
    d.bind_attribute("a1", AttributeBinding("speed", Scalar(2)))
    d.bind_attribute("a1", AttributeBinding("moves", Text("o08")))
    d.bind_attribute("c3", AttributeBinding("label", Text("then")))
    d.bind_attribute("m6", AttributeBinding("laps", Scalar(3)))
    d.bind_attribute("z9", AttributeBinding("who", Text("<&\"'>")))
    # XOR boxes: one with contained alternatives, one fed by a split-time group.
    xor = d.add_element(Element(kind=Kind.XOR_BOX, id="x1"))
    _circle(d, "x1a", parent=xor)
    _circle(d, "x1b", parent=xor, role="subject")
    d.bind_attribute("x1b", AttributeBinding("chosen", Text("yes")))
    d.bind_attribute("x1", AttributeBinding("rule", Text("one of")))
    junction = d.add_element(Element(kind=Kind.XOR_BOX, id="x2"))
    d.add_group(
        SplitTimeGroup(trunk="t0", branches=("a2", "a4"), junction=junction, id="g1")
    )
    box = d.add_element(
        Element(kind=Kind.VERBATIM_BOX, payload=GenericPayload(label="room"), id="v1")
    )
    d.add_element(
        Element(
            kind=Kind.DATA_OBJECT_CIRCLE,
            payload=GenericPayload(label="note"),
            position=Position(10.0, 20.5),
            id="v1a",
        ),
        parent=box,
    )
    d.add_edge(Edge(kind=EdgeKind.CAUSATION, source="v1", target="o04", id="c0"))
    return d


def _faulty_scene() -> Diagram:
    """The layout scene plus faults that the model's writers let through, so
    that validate has a list of violations to report."""
    d = _layout_scene()
    d.add_element(Element(kind=Kind.XOR_BOX, id="x3"))
    _circle(d, "x3a", parent="x3")
    d.add_element(Element(kind=Kind.XOR_BOX, id="x4"))
    d.add_element(Element(kind=Kind.MARKER_0D, id="mk"))
    d.append_binding("mk", AttributeBinding("color", Text("red")))
    d.append_binding("o00", AttributeBinding("color", Text("blue")))
    d.append_binding("o00", AttributeBinding("color", Text("green")))
    d.append_binding("r1", AttributeBinding("strength", Scalar(1)))
    d.add_edge(Edge(kind=EdgeKind.TIME, source="o01", id="t9"))
    d.add_edge(Edge(kind=EdgeKind.FORCE, source="o02", target="o02", id="f9"))
    d.add_edge(Edge(kind=EdgeKind.MOTION, target="o03", id="m9"))
    _circle(d, "v1b", parent="v1")
    return d


def _corpus_bytes():
    rng = random.Random(20240117)
    clean = _template_diagrams() + [random_diagram(rng) for _ in range(50)]
    clean.append(_layout_scene())
    color = RenderOptions(color=True)
    for d in clean:
        yield serialize(d)
        yield render(d)
        yield render(d, color)
    yield serialize(_faulty_scene())
    yield "\n".join(str(v) for v in validate(_faulty_scene()))


def test_layout_scene_is_valid_and_faulty_scene_is_not():
    assert validate(_layout_scene()) == []
    assert validate(_faulty_scene())


def test_golden_bytes():
    h = hashlib.sha256()
    for chunk in _corpus_bytes():
        data = chunk.encode("utf-8")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    assert h.hexdigest() == GOLDEN_SHA256
