"""Behaviour pins for the payload codec, the validator and the SVG writer.

Fixed answers, each taken from the code as it was before the part it pins
was rewritten: the exact violation list of a scene that raises every
ViolationCode, one sha256 over the parse outcomes of seeded documents whose
values are the edge cases in test_dsl's _VALUES, and one sha256 over the SVG
of a valid scene that draws every Kind.  A change to how parse, serialize,
validate or render are written must leave all three as they are.
"""

import hashlib
import random

from tumbug.dsl import ParseError, parse, serialize
from tumbug.grammar import ViolationCode, validate
from tumbug.model import (
    AttributeBinding,
    CAPayload,
    CorrelationBoxPayload,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    GenericPayload,
    Kind,
    MotivationTrianglePayload,
    Position,
    RobinsonIconPayload,
    SplitTimeGroup,
    StateDiagramGroup,
    SwirlyArrayPayload,
    payload_type,
)
from tumbug.svg import RenderOptions, render
from tumbug.values import Scalar, Text

from test_dsl import _VALUES


def _el(d: Diagram, eid: str, kind: Kind, parent: str | None = None, **props) -> str:
    payload = GenericPayload(props=props) if props else None
    return d.add_element(Element(kind=kind, payload=payload, id=eid), parent=parent)


def _every_fault_scene() -> Diagram:
    """Faults of every code; those the model refuses are written into its
    dicts directly."""
    d = Diagram()
    circle = Kind.PHYSICAL_OBJECT_CIRCLE
    for eid in ("o1", "o2", "o3"):
        _el(d, eid, circle)
    _el(d, "data", Kind.DATA_OBJECT_CIRCLE)
    # Containment: a missing parent, a non-container parent, and a cycle
    # b1 -> b2 -> b3 -> b1 with the tail t2 -> t1 -> b1 leading into it.
    for eid in ("b1", "b2", "b3", "t1", "t2"):
        _el(d, eid, Kind.AGGREGATION_BOX)
    d.containment.update({"b1": "b2", "b2": "b3", "b3": "b1", "t1": "b1", "t2": "t1"})
    d.containment["o3"] = "ghost"
    d.containment["o2"] = "o1"
    # A child without a position in a verbatim box, one with a position, and
    # a looser box inside a stricter one.
    _el(d, "v", Kind.VERBATIM_BOX)
    _el(d, "v1", circle, parent="v")
    d.add_element(
        Element(kind=circle, position=Position(1.0, 2.0), id="v2"), parent="v"
    )
    _el(d, "desc", Kind.DESCRIPTIVE_BOX)
    _el(d, "agg", Kind.AGGREGATION_BOX, parent="desc")
    # Arrows in shapes the legality table refuses, and a missing endpoint.
    d.add_edge(Edge(kind=EdgeKind.TIME, source="o1", id="e_time"))
    d.add_edge(Edge(kind=EdgeKind.MOTION, target="o1", id="e_in"))
    d.add_edge(Edge(kind=EdgeKind.FORCE, source="o2", target="o2", id="e_loop"))
    d.edges["e_gone"] = Edge(kind=EdgeKind.CAUSATION, source="o1", target="nowhere", id="e_gone")
    d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="o1", target="o2", id="rel"))
    # Bindings on hosts that cannot carry them, a missing owner, a conflict.
    _el(d, "mk", Kind.MARKER_0D)
    d.bindings.append(("mk", AttributeBinding("color", Text("red"))))
    d.bindings.append(("rel", AttributeBinding("strength", Scalar(1))))
    d.bindings.append(("ghost", AttributeBinding("color", Text("red"))))
    d.bindings.append(("o1", AttributeBinding("color", Text("blue"))))
    d.bindings.append(("o1", AttributeBinding("color", Text("green"))))
    d.bindings.append(("o1", AttributeBinding("color", Text("grey"))))
    # XOR boxes with too few alternatives.
    _el(d, "x0", Kind.XOR_BOX)
    _el(d, "x1", Kind.XOR_BOX)
    _el(d, "x1a", circle, parent="x1")
    # A state diagram with a wrong state, a wrong tube, a tube whose ends are
    # no member states and a marker off the diagram.
    _el(d, "s1", Kind.STATE_CIRCLE)
    _el(d, "s2", Kind.STATE_CIRCLE)
    d.add_edge(Edge(kind=EdgeKind.TUBE, source="s1", target="o3", id="tube"))
    d.add_group(
        StateDiagramGroup(
            states=("s1", "o1"), tubes=("tube", "e_in"), marker="s2", id="g_state"
        )
    )
    # A split-time group with a non-Time member, a junction that is no XOR
    # box, and probabilities set after construction.
    d.add_edge(Edge(kind=EdgeKind.TIME, id="tt"))
    d.add_edge(Edge(kind=EdgeKind.TIME, id="tb"))
    split = SplitTimeGroup(trunk="tt", branches=("tb", "e_in"), junction="o1", id="g_split")
    d.add_group(split)
    split.probabilities = (0.9, 0.9)
    # Attend rings: no edge, a non-motion edge, motion of a non-data element,
    # and one that is fine.
    d.add_edge(Edge(kind=EdgeKind.MOTION, source="o1", target="o2", id="mv"))
    d.add_edge(Edge(kind=EdgeKind.MOTION, source="data", target="o2", id="mv_data"))
    _el(d, "ring0", Kind.ATTEND_RING)
    _el(d, "ring1", Kind.ATTEND_RING, edge="rel")
    _el(d, "ring2", Kind.ATTEND_RING, edge="mv")
    _el(d, "ring3", Kind.ATTEND_RING, edge="mv_data")
    return d


EVERY_FAULT_VIOLATIONS = [
    ('CONTAINMENT_INVALID', ('o2', 'o1'), 'parent o1 is not a container'),
    ('UNKNOWN_REF', ('o3', 'ghost'), 'containment references a missing element'),
    ('CONTAINMENT_INVALID', ('b1',), 'containment cycle'),
    ('CONTAINMENT_INVALID', ('b2',), 'containment cycle'),
    ('CONTAINMENT_INVALID', ('b3',), 'containment cycle'),
    ('CONTAINMENT_INVALID', ('t1',), 'containment cycle'),
    ('CONTAINMENT_INVALID', ('t2',), 'containment cycle'),
    ('UNKNOWN_REF', ('e_gone', 'nowhere'), 'edge endpoint does not exist'),
    ('POSITION_REQUIRED', ('agg', 'desc'), 'elements inside a DescriptiveBox need fixed positions'),
    ('POSITION_REQUIRED', ('v1', 'v'), 'elements inside a VerbatimBox need fixed positions'),
    ('ARROW_SHAPE_ILLEGAL', ('e_in',), 'Motion arrow not meaningful as ArrowIn'),
    ('SELF_LOOP_FORBIDDEN', ('e_loop',), 'Force arrow not meaningful as SelfLoop'),
    ('TIME_ATTACHED', ('e_time',), 'Time arrow not meaningful as ArrowOut'),
    ('ATTR_HOST_ILLEGAL', ('mk',), "Marker0D cannot host attribute 'color'"),
    ('ATTR_HOST_ILLEGAL', ('rel',), 'Relationship edge cannot host attributes'),
    ('UNKNOWN_REF', ('ghost',), 'binding owner does not exist'),
    ('ATTR_CONFLICT', ('o1',), "attribute 'color' bound to conflicting values"),
    ('BOX_NESTING', ('agg', 'desc'), 'AggregationBox is looser than enclosing DescriptiveBox'),
    ('XOR_TOO_FEW', ('x0',), 'XOR box offers 0 alternatives, needs at least 2'),
    ('XOR_TOO_FEW', ('x1',), 'XOR box offers 1 alternatives, needs at least 2'),
    ('GROUP_MEMBER_INVALID', ('g_split', 'e_in'), 'split-time member must be an existing Time edge'),
    ('GROUP_MEMBER_INVALID', ('g_split', 'o1'), 'split-time junction must be an XorBox'),
    ('SPLIT_PROBS_INVALID', ('g_split',), 'branch probabilities must lie in [0,1] and sum to 1'),
    ('GROUP_MEMBER_INVALID', ('g_state', 'o1'), 'state member must be an existing StateCircle'),
    ('STATE_TUBE_ENDPOINT', ('g_state', 'tube'), 'tube endpoint is not a member state'),
    ('GROUP_MEMBER_INVALID', ('g_state', 'e_in'), 'tube member must be an existing Tube edge'),
    ('STATE_MARKER_MISPLACED', ('g_state', 's2'), 'marker must sit on a member state or tube'),
    ('ATTEND_NOT_DATA', ('ring0',), 'attend ring must reference a Motion edge'),
    ('ATTEND_NOT_DATA', ('ring1',), 'attend ring sits on a Relationship edge'),
    ('ATTEND_NOT_DATA', ('ring2',), 'attended motion must move a DataObjectCircle'),
]


def test_every_fault_scene_violations():
    got = [(v.code.value, v.ids, v.message) for v in validate(_every_fault_scene())]
    assert got == EVERY_FAULT_VIOLATIONS
    assert {code for code, _, _ in got} == {c.value for c in ViolationCode}


# Ids are fixed per record kind and each is used at most once in a document,
# so that references resolve and most faults come from the values.  Elements
# take the keys of their payload type, and now and then any key.
_ELEM_KEYS = {
    GenericPayload: "label role target valence",
    CorrelationBoxPayload: "slots eq.a",
    CAPayload: "label ellipsis forced.w detected.w",
    MotivationTrianglePayload: "label markers",
    RobinsonIconPayload: "label active valence target",
    SwirlyArrayPayload: "label cells active",
}
_ANY_KEY = "label pos size slots eq.a cells active markers forced.w detected.w ellipsis valence"


def _value(rng: random.Random, key: str) -> str:
    """Mostly the value the key accepts, else any of its edge cases."""
    values = _VALUES[key]
    return values[0] if rng.random() < 0.75 else rng.choice(values)


def _some(rng: random.Random, pool, least: int, most: int) -> list:
    """Between least and most distinct picks from pool."""
    pool = list(pool)
    return rng.sample(pool, rng.randint(least, min(most, len(pool))))


def _pairs(rng: random.Random, keys: str, least: int, most: int, quoted: bool) -> list[str]:
    out = []
    for key in _some(rng, keys.split(), least, most):
        value = _value(rng, key)
        out.append(f'{key}="{value}"' if quoted else f"{key}={value}")
    return out


def _document(rng: random.Random) -> str:
    lines = []
    elements = ["o1", *_some(rng, ("o2", "x"), 0, 2)]
    for eid in elements:
        kind = rng.choice(list(Kind))
        keys = _ELEM_KEYS[payload_type(kind)] + (" pos" if rng.random() < 0.3 else "")
        if rng.random() < 0.1:
            keys = _ANY_KEY
        lines.append(" ".join(["elem", eid, kind.value, *_pairs(rng, keys, 0, 3, True)]))
    edges = _some(rng, ("t1", "t2"), 0, 2)
    for eid in edges:
        src, dst = elements[0], elements[-1]
        ends = rng.choice(["->", f"{src} ->", f"-> {dst}", f"{src} -> {dst}"])
        role = _pairs(rng, "role", 0, 1, True)
        lines.append(" ".join(["edge", eid, rng.choice(list(EdgeKind)).value, ends, *role]))
    for gid in _some(rng, ("g1", "g2"), 0, 1):
        members = "members=" + ",".join(_some(rng, [*elements, *edges], 1, 2))
        if rng.random() < 0.5:
            keys = _pairs(rng, "marker owner", 0, 2, False)
            lines.append(" ".join(["group", gid, "StateDiagram", members, *keys]))
        else:
            keys = _pairs(rng, "trunk junction", 2, 2, False) + _pairs(rng, "probs", 0, 1, False)
            lines.append(" ".join(["group", gid, "SplitTime", members, *keys]))
    for owner in _some(rng, [*elements, *edges], 0, 2):
        pair = _pairs(rng, "w DK forced.w detected.w", 1, 1, False)
        lines.append(" ".join(["attr", owner, *pair]))
    if len(elements) >= 2 and rng.random() < 0.3:
        lines.append(f"contain {elements[0]} {elements[1]}")
    if rng.random() < 0.3:
        lines.append(" ".join(["meta", *_pairs(rng, "label w DK role", 1, 1, True)]))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _outcome(text: str) -> str:
    try:
        d = parse(text)
    except ParseError as exc:
        span = exc.span
        return f"error {span.line}:{span.col_start}-{span.col_end} {exc.expected!r} {exc.found!r}"
    return serialize(d) + "\n".join(str(v) for v in validate(d))


PARSE_OUTCOMES_SHA256 = "5d1958729bdb118cd843e0673e2b80aa218c6e15d725ce9f6cde87dee654e6f4"


def test_parse_outcomes_of_seeded_documents():
    rng = random.Random(7077)
    h = hashlib.sha256()
    for _ in range(3000):
        data = _outcome(_document(rng)).encode("utf-8")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    assert h.hexdigest() == PARSE_OUTCOMES_SHA256


# A valid scene with one element of every Kind, each payload variant that
# changes the drawing, and an edge of every shape.
EVERY_KIND_SCENE = """\
elem alt1 StateCircle
elem alt2 StateCircle
elem ca CAObjectCircle label="ca"
elem ca_box CAAggregationBox ellipsis="true" forced.w="2:kg" label="ca open"
elem corr CorrelationBox
elem in_descriptive PhysicalObjectCircle label="in_descriptive" pos="5.5,30" size="60,40"
elem in_verbatim PhysicalObjectCircle label="in_verbatim" pos="10,20"
elem k0 PhysicalObjectCircle label="PhysicalObjectCircle" role="subject"
elem k1 DataObjectCircle label="DataObjectCircle" role="direct"
elem k10 VerbatimBox label="VerbatimBox" role="direct"
elem k11 DescriptiveBox label="DescriptiveBox" role="indirect"
elem k12 AggregationBox label="AggregationBox" role="subject"
elem k14 XorBox label="XorBox" role="indirect"
elem k16 ValueBar label="ValueBar" role="direct"
elem k18 TimeAnchor label="TimeAnchor" role="subject"
elem k19 DataSetBox label="DataSetBox" role="direct"
elem k20 LabelString label="LabelString" role="indirect"
elem k21 AttendRing edge="mv" label="AttendRing" role="subject"
elem k24 ModalVerbIcon label="ModalVerbIcon" role="subject"
elem k25 ZoomBoxPair label="ZoomBoxPair" role="direct"
elem k3 DataPoint label="DataPoint" role="subject"
elem k4 StateCircle label="StateCircle" role="direct"
elem k5 Cell label="Cell" role="indirect"
elem k6 SensorBar label="SensorBar" role="subject"
elem k7 Marker0D label="Marker0D" role="direct"
elem k8 Marker1D label="Marker1D" role="indirect"
elem k9 Marker2D label="Marker2D" role="subject"
elem mot MotivationTriangle label="wants" markers="automaton:+,emotional:-,intellectual:+"
elem rob RobinsonIcon active="EventRelated,FutureAppraisal" label="feels" valence="-"
elem swirl SwirlyArray active="c2" cells="c1:0:0,c2:30:10,c3:12.5:40" label="swirl"
elem zoomed PhysicalObjectCircle
contain alt1 k14
contain alt2 k14
contain in_descriptive k11
contain in_verbatim k10
contain zoomed k25
edge in Force -> zoomed
edge loop Causation alt1 -> alt1
edge mv Motion k1 -> ca
edge out Force k0 -> role="exerts"
edge rel Relationship k0 -> swirl
edge solitary Causation ->
edge time Time ->
edge tube Tube alt1 -> alt2
group g1 StateDiagram members=alt1,alt2,tube marker=alt2
attr k0 w=3.25:kg
attr loop n=2
attr mv speed="fast"
"""


EVERY_KIND_SVG_SHA256 = "72ea8a43a8375e14111474b0dd59d5dd47c9956aaae1cf044f58fcba9874036f"


def test_every_kind_scene_svg():
    d = parse(EVERY_KIND_SCENE)
    assert validate(d) == []
    assert {el.kind for el in d.elements.values()} == set(Kind)
    h = hashlib.sha256()
    for options in (RenderOptions(), RenderOptions(color=True)):
        h.update(render(d, options).encode("utf-8"))
    assert h.hexdigest() == EVERY_KIND_SVG_SHA256
