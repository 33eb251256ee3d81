"""Shared generators: seeded random values and random valid diagrams."""

from __future__ import annotations

import random

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
    MOTIVATION_LEVELS,
    NONQUAN_KINDS,
    Position,
    ROBINSON_CATEGORIES,
    RobinsonIconPayload,
    SlotSpec,
    SplitTimeGroup,
    StateDiagramGroup,
    SwirlyArrayPayload,
)
from tumbug.values import (
    BallInRange,
    BinOp,
    Const,
    ExistenceLevel,
    FuzzyLabel,
    Range,
    Scalar,
    SlotRef,
    Text,
    Wildcard,
)
from tumbug.grammar import validate

WORDS = (
    "fox",
    "ball",
    "bottle",
    "cup",
    "students",
    "scholars",
    "worm",
    "fish",
    "stage",
    "pillar",
    "sack",
    "flour",
    "grace",
    "sweater",
)

TEXT_SPICE = '"\\\n\t#= ,:[]()'


def random_text(rng: random.Random) -> str:
    word = rng.choice(WORDS)
    if rng.random() < 0.3:
        word += rng.choice(TEXT_SPICE) + rng.choice(WORDS)
    return word


def random_range(rng: random.Random) -> Range:
    a, b = sorted((round(rng.uniform(-50, 50), 3), round(rng.uniform(-50, 50), 3)))
    lo = None if rng.random() < 0.15 else a
    hi = None if rng.random() < 0.15 else b
    return Range(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def random_value(rng: random.Random):
    roll = rng.randrange(7)
    if roll == 0:
        unit = rng.choice((None, "kg", "m/s", "%"))
        return Scalar(round(rng.uniform(-1e4, 1e4), 4), unit)
    if roll == 1:
        return Text(random_text(rng))
    if roll == 2:
        return ExistenceLevel(round(rng.random(), 6))
    if roll == 3:
        return random_range(rng)
    if roll == 4:
        return BallInRange(random_range(rng))
    if roll == 5:
        a, b, c = sorted(round(rng.uniform(0, 1), 4) for _ in range(3))
        return FuzzyLabel(rng.choice(("few", "many", "most", "all")), a, b, c)
    return rng.choice(list(Wildcard))


LEAF_KINDS = (
    Kind.PHYSICAL_OBJECT_CIRCLE,
    Kind.DATA_OBJECT_CIRCLE,
    Kind.DATA_POINT,
    Kind.STATE_CIRCLE,
    Kind.CELL,
    Kind.SENSOR_BAR,
    Kind.MARKER_0D,
    Kind.MARKER_1D,
    Kind.MARKER_2D,
    Kind.VALUE_BAR,
    Kind.LABEL_STRING,
    Kind.TIME_ANCHOR,
)

NONQUAN_LEAF_KINDS = (
    Kind.PHYSICAL_OBJECT_CIRCLE,
    Kind.DATA_OBJECT_CIRCLE,
    Kind.DATA_POINT,
)


def _typed_element(rng: random.Random, kind: Kind, existing_ids: list[str]) -> Element:
    if kind is Kind.CA_OBJECT_CIRCLE or kind is Kind.CA_AGGREGATION_BOX:
        forced = tuple(
            AttributeBinding(f"in{i}", random_value(rng)) for i in range(rng.randrange(3))
        )
        detected = tuple(
            AttributeBinding(f"out{i}", random_value(rng)) for i in range(rng.randrange(3))
        )
        payload = CAPayload(
            forced=forced,
            detected=detected,
            open_ended=rng.random() < 0.5,
            label=rng.choice(WORDS),
        )
        return Element(kind=kind, payload=payload)
    if kind is Kind.MOTIVATION_TRIANGLE:
        markers = frozenset(
            (rng.choice(MOTIVATION_LEVELS), rng.choice("+-"))
            for _ in range(rng.randrange(3))
        )
        return Element(kind=kind, payload=MotivationTrianglePayload(markers=markers))
    if kind is Kind.ROBINSON_ICON:
        active = set(rng.sample(ROBINSON_CATEGORIES, rng.randrange(3)))
        target = None
        if rng.random() < 0.4 and existing_ids:
            active.add("Cathected")
            target = rng.choice(existing_ids)
        return Element(
            kind=kind,
            payload=RobinsonIconPayload(
                active=frozenset(active),
                valence=rng.choice("+-"),
                subnode=rng.choice((None, "E2", "S2")),
                cathected_target=target,
            ),
        )
    if kind is Kind.SWIRLY_ARRAY:
        n = rng.randrange(1, 5)
        cells = tuple(
            (f"c{i}", float(rng.randrange(0, 100)), float(rng.randrange(0, 100)))
            for i in range(n)
        )
        active = frozenset(name for name, _, _ in cells if rng.random() < 0.5)
        return Element(kind=kind, payload=SwirlyArrayPayload(cells=cells, active=active))
    raise AssertionError(kind)


def random_diagram(rng: random.Random) -> Diagram:
    """A structurally valid diagram that also validates clean."""
    d = Diagram()
    counter = 0

    def fresh(prefix: str = "") -> str:
        nonlocal counter
        counter += 1
        return f"{rng.choice('abcdefgh')}{prefix}{counter}"

    circles: list[str] = []
    states: list[str] = []
    data_objects: list[str] = []

    for _ in range(rng.randrange(1, 8)):
        kind = rng.choice(LEAF_KINDS)
        label = rng.choice(WORDS) if rng.random() < 0.7 else None
        position = None
        if rng.random() < 0.3:
            extent = rng.random() < 0.5
            position = Position(
                round(rng.uniform(0, 400), 2),
                round(rng.uniform(0, 300), 2),
                40.0 if extent else None,
                30.0 if extent else None,
            )
        eid = d.add_element(
            Element(kind=kind, payload=GenericPayload(label=label), position=position, id=fresh())
        )
        if kind in (Kind.PHYSICAL_OBJECT_CIRCLE, Kind.DATA_OBJECT_CIRCLE, Kind.DATA_POINT):
            circles.append(eid)
        if kind is Kind.DATA_OBJECT_CIRCLE:
            data_objects.append(eid)
        if kind is Kind.STATE_CIRCLE:
            states.append(eid)

    # Typed-payload elements.
    for kind in (
        Kind.CA_OBJECT_CIRCLE,
        Kind.CA_AGGREGATION_BOX,
        Kind.MOTIVATION_TRIANGLE,
        Kind.ROBINSON_ICON,
        Kind.SWIRLY_ARRAY,
    ):
        if rng.random() < 0.3:
            el = _typed_element(rng, kind, circles)
            el.id = fresh()
            d.add_element(el)

    # Containers with members; only aggregation-strictness boxes nest freely.
    for _ in range(rng.randrange(0, 3)):
        box_kind = rng.choice((Kind.AGGREGATION_BOX, Kind.DATA_SET_BOX, Kind.VERBATIM_BOX))
        box = d.add_element(
            Element(kind=box_kind, payload=GenericPayload(label=rng.choice(WORDS)), id=fresh())
        )
        for _ in range(rng.randrange(0, 3)):
            member_kind = rng.choice(NONQUAN_LEAF_KINDS)
            position = None
            if box_kind is Kind.VERBATIM_BOX:
                position = Position(
                    float(rng.randrange(0, 200)), float(rng.randrange(0, 150))
                )
            member = d.add_element(
                Element(
                    kind=member_kind,
                    payload=GenericPayload(label=rng.choice(WORDS)),
                    position=position,
                    id=fresh(),
                ),
                parent=box,
            )
            circles.append(member)
            if member_kind is Kind.DATA_OBJECT_CIRCLE:
                data_objects.append(member)

    if rng.random() < 0.3:
        xor = d.add_element(Element(kind=Kind.XOR_BOX, id=fresh()))
        for _ in range(2 + rng.randrange(2)):
            d.add_element(
                Element(
                    kind=Kind.PHYSICAL_OBJECT_CIRCLE,
                    payload=GenericPayload(label=rng.choice(WORDS)),
                    id=fresh(),
                ),
                parent=xor,
            )

    if circles and rng.random() < 0.4:
        payload = CorrelationBoxPayload(
            slots=(
                SlotSpec("u", rng.choice(circles), "weight"),
                SlotSpec("v", rng.choice(circles), "weight"),
            ),
            equations={
                "u": BinOp("-", Const(100.0), SlotRef("v")),
                "v": BinOp("-", Const(100.0), SlotRef("u")),
            },
        )
        d.add_element(Element(kind=Kind.CORRELATION_BOX, payload=payload, id=fresh()))

    # Change arrows in legal shapes only.
    change_edges: list[str] = []
    motion_edges: list[str] = []
    for _ in range(rng.randrange(0, 5)):
        kind = rng.choice(
            (EdgeKind.TIME, EdgeKind.MOTION, EdgeKind.FORCE, EdgeKind.CAUSATION)
        )
        source = target = role = None
        if kind is not EdgeKind.TIME and circles:
            if kind is EdgeKind.MOTION:
                shape = rng.choice(("solitary", "out", "between", "self"))
            elif kind is EdgeKind.FORCE:
                shape = rng.choice(("solitary", "out", "in", "between"))
            else:
                shape = rng.choice(("solitary", "out", "in", "between", "self"))
            if shape == "out":
                source = rng.choice(circles)
            elif shape == "in":
                target = rng.choice(circles)
            elif shape == "between":
                source, target = rng.choice(circles), rng.choice(circles)
                if source == target and kind is EdgeKind.FORCE:
                    target = None
            elif shape == "self":
                source = target = rng.choice(circles)
            if kind is EdgeKind.FORCE and rng.random() < 0.5:
                role = rng.choice(("exerts", "acted-upon"))
        eid = d.add_edge(Edge(kind=kind, source=source, target=target, role=role, id=fresh()))
        change_edges.append(eid)
        if kind is EdgeKind.MOTION:
            motion_edges.append(eid)

    if len(circles) >= 2 and rng.random() < 0.4:
        d.add_edge(
            Edge(
                kind=EdgeKind.RELATIONSHIP,
                source=rng.choice(circles),
                target=rng.choice(circles),
                id=fresh(),
            )
        )

    # An attend ring on a data motion, built correctly.
    if data_objects and circles and rng.random() < 0.4:
        moved = rng.choice(data_objects)
        motion = d.add_edge(
            Edge(kind=EdgeKind.MOTION, source=rng.choice(circles), id=fresh())
        )
        d.bind_attribute(motion, AttributeBinding("moves", Text(moved)))
        d.add_element(
            Element(
                kind=Kind.ATTEND_RING,
                payload=GenericPayload(props={"edge": motion}),
                id=fresh(),
            )
        )

    # State-diagram group over its own private states and tubes.
    if rng.random() < 0.4:
        members = [
            d.add_element(
                Element(kind=Kind.STATE_CIRCLE, payload=GenericPayload(label=f"s{i}"), id=fresh())
            )
            for i in range(rng.randrange(2, 5))
        ]
        tubes = [
            d.add_edge(Edge(kind=EdgeKind.TUBE, source=a, target=b, id=fresh()))
            for a, b in zip(members, members[1:])
        ]
        marker = rng.choice((None, members[0], tubes[0] if tubes else None))
        d.add_group(
            StateDiagramGroup(
                states=tuple(members), tubes=tuple(tubes), marker=marker, id=fresh()
            )
        )

    if rng.random() < 0.3:
        junction = d.add_element(Element(kind=Kind.XOR_BOX, id=fresh()))
        trunk = d.add_edge(Edge(kind=EdgeKind.TIME, id=fresh()))
        branches = tuple(
            d.add_edge(Edge(kind=EdgeKind.TIME, id=fresh())) for _ in range(rng.randrange(2, 4))
        )
        probabilities = None
        if rng.random() < 0.5:
            cuts = sorted(rng.random() for _ in range(len(branches) - 1))
            probs = []
            prev = 0.0
            for c in cuts:
                probs.append(round(c - prev, 6))
                prev = c
            probs.append(1.0 - sum(probs))
            probabilities = tuple(probs)
        d.add_group(
            SplitTimeGroup(
                trunk=trunk,
                branches=branches,
                junction=junction,
                probabilities=probabilities,
                id=fresh(),
            )
        )

    # Attribute bindings on legal hosts.
    hosts = [e for e in d.elements if d.elements[e].kind in NONQUAN_KINDS] + change_edges
    for i in range(rng.randrange(0, 6)):
        if not hosts:
            break
        owner = rng.choice(hosts)
        d.bind_attribute(owner, AttributeBinding(f"attr{i}", random_value(rng)))

    if rng.random() < 0.4:
        d.set_meta("title", random_text(rng))

    issues = validate(d)
    assert issues == [], f"generator produced an invalid diagram: {issues}"
    return d


# S1 -> S2 -> S3 -> S4 with an inner loop S3 -> S2 and an outer loop S4 -> S1.
NESTED_LOOPS = """\
elem s1 StateCircle label="S1"
elem s2 StateCircle label="S2"
elem s3 StateCircle label="S3"
elem s4 StateCircle label="S4"
edge s1-s2 Tube s1 -> s2
edge s2-s3 Tube s2 -> s3
edge s3-s2 Tube s3 -> s2
edge s3-s4 Tube s3 -> s4
edge s4-s1 Tube s4 -> s1
group program StateDiagram members=s1,s2,s3,s4,s1-s2,s2-s3,s3-s4,s3-s2,s4-s1 marker=s1
"""
