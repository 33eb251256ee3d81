import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tumbug.model import (
    AttributeBinding,
    CAPayload,
    ConflictingDuplicate,
    ContainmentCycle,
    CorrelationBoxPayload,
    Diagram,
    DuplicateId,
    Edge,
    EdgeKind,
    Element,
    GenericPayload,
    GroupKind,
    IllegalAttributeHost,
    InvalidId,
    InvalidPayload,
    Kind,
    MotivationTrianglePayload,
    ParentNotContainer,
    PayloadMismatch,
    RobinsonIconPayload,
    SlotSpec,
    SplitTimeGroup,
    StateDiagramGroup,
    SwirlyArrayPayload,
    UnknownEndpoint,
    UnknownMember,
    UnknownOwner,
    UnknownParent,
    new_diagram,
    payload_type,
)
from tumbug.values import Scalar, Text, Wildcard

from conftest import random_diagram


def test_new_diagram_is_empty():
    d = new_diagram()
    assert d.elements == {}
    assert d.edges == {}
    assert d.bindings == []


def test_solitary_element_is_fine():
    d = new_diagram()
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE))
    assert len(d.elements) == 1


def test_add_thousand_elements_count():
    rng = random.Random(0)
    d = new_diagram()
    kinds = list(Kind)
    for i in range(1000):
        kind = rng.choice(kinds)
        d.add_element(Element(kind=kind, payload=None, id=f"e{i}"))
    assert len(d.elements) == 1000


@pytest.mark.parametrize("kind", list(Kind))
def test_every_kind_constructs_with_minimal_payload(kind):
    el = Element(kind=kind)
    assert isinstance(el.payload, payload_type(kind))


def test_payload_must_match_kind():
    with pytest.raises(PayloadMismatch):
        Element(kind=Kind.CORRELATION_BOX, payload=GenericPayload())
    with pytest.raises(PayloadMismatch):
        Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, payload=CorrelationBoxPayload())


class TestPayloadInvariants:
    def test_correlation_equations_on_declared_slots_only(self):
        from tumbug.values import SlotRef

        with pytest.raises(InvalidPayload):
            CorrelationBoxPayload(slots=(), equations={"a": SlotRef("a")})
        with pytest.raises(InvalidPayload):
            CorrelationBoxPayload(
                slots=(SlotSpec("a", "x", "w"),), equations={"a": SlotRef("ghost")}
            )

    def test_ca_forced_detected_disjoint(self):
        with pytest.raises(InvalidPayload):
            CAPayload(
                forced=(AttributeBinding("size", Scalar(1)),),
                detected=(AttributeBinding("size", Scalar(2)),),
            )

    def test_motivation_levels_and_valences(self):
        MotivationTrianglePayload(markers=frozenset({("emotional", "+")}))
        with pytest.raises(InvalidPayload):
            MotivationTrianglePayload(markers=frozenset({("spiritual", "+")}))
        with pytest.raises(InvalidPayload):
            MotivationTrianglePayload(markers=frozenset({("physical", "?")}))

    def test_motivation_marker_error_does_not_depend_on_the_hash_seed(self):
        # A frozenset of strings iterates in an order set by PYTHONHASHSEED.
        code = (
            "from tumbug.dsl import ParseError, parse\n"
            "try:\n"
            "    parse('elem m MotivationTriangle markers=\"a:+,b:+\"')\n"
            "except ParseError as exc:\n"
            "    print(exc.found)\n"
        )
        src = str(Path(__file__).parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        errors = {
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2", "3", "4")
        }
        assert errors == {"unknown motivation level 'a'\n"}

    def test_robinson_cathected_target_requires_category(self):
        RobinsonIconPayload(active=frozenset({"Cathected"}), cathected_target="o1")
        with pytest.raises(InvalidPayload):
            RobinsonIconPayload(active=frozenset({"Social"}), cathected_target="o1")
        with pytest.raises(InvalidPayload):
            RobinsonIconPayload(active=frozenset({"Boredom"}))

    def test_swirly_active_cells_must_exist(self):
        SwirlyArrayPayload(cells=(("c1", 0.0, 0.0),), active=frozenset({"c1"}))
        with pytest.raises(InvalidPayload):
            SwirlyArrayPayload(cells=(("c1", 0.0, 0.0),), active=frozenset({"c9"}))
        with pytest.raises(InvalidPayload):
            SwirlyArrayPayload(cells=(("c1", 0.0, 0.0), ("c1", 1.0, 1.0)))

    def test_swirly_positions_need_no_alignment(self):
        # cells can sit anywhere, no grid
        SwirlyArrayPayload(cells=(("a", 3.7, 91.2), ("b", 40.0, 2.2)))

    def test_binding_not_both_dk(self):
        AttributeBinding("weight", Wildcard.DK)
        AttributeBinding("DK", Scalar(85))
        with pytest.raises(InvalidPayload):
            AttributeBinding("DK", Wildcard.DK)

    def test_split_probabilities(self):
        SplitTimeGroup(trunk="t", branches=("b1", "b2"), junction="x", probabilities=(0.5, 0.5))
        with pytest.raises(InvalidPayload):
            SplitTimeGroup(trunk="t", branches=("b1", "b2"), junction="x", probabilities=(0.9, 0.2))
        with pytest.raises(InvalidPayload):
            SplitTimeGroup(trunk="t", branches=("b1", "b2"), junction="x", probabilities=(0.5,))
        with pytest.raises(InvalidPayload):
            SplitTimeGroup(trunk="t", branches=("b1",), junction="x", probabilities=(1.5,))

    def test_exact_fraction_probabilities_pass(self):
        SplitTimeGroup(
            trunk="t", branches=("b1", "b2"), junction="x", probabilities=(5 / 6, 1 / 6)
        )

    def test_generic_props_reject_reserved_keys(self):
        with pytest.raises(InvalidPayload):
            GenericPayload(props={"pos": "1,2"})

    def test_force_role_vocabulary(self):
        Edge(kind=EdgeKind.FORCE, role="exerts")
        with pytest.raises(InvalidPayload):
            Edge(kind=EdgeKind.FORCE, role="pushes")

    def test_position_extent_all_or_nothing(self):
        from tumbug.model import Position

        Position(1, 2)
        Position(1, 2, 3, 4)
        with pytest.raises(InvalidPayload):
            Position(1, 2, 3, None)


class TestContainment:
    def test_circle_into_aggregation_box(self):
        d = new_diagram()
        box = d.add_element(Element(kind=Kind.AGGREGATION_BOX))
        member = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE), parent=box)
        assert d.containment[member] == box

    def test_parent_must_be_container(self):
        d = new_diagram()
        host = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE))
        with pytest.raises(ParentNotContainer):
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE), parent=host)
        state = d.add_element(Element(kind=Kind.STATE_CIRCLE))
        with pytest.raises(ParentNotContainer):
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE), parent=state)

    def test_unknown_parent(self):
        d = new_diagram()
        with pytest.raises(UnknownParent):
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE), parent="ghost")

    def test_descriptive_inside_aggregation_constructs(self):
        # legal at construction; the validator decides about direction later
        d = new_diagram()
        outer = d.add_element(Element(kind=Kind.AGGREGATION_BOX))
        d.add_element(Element(kind=Kind.DESCRIPTIVE_BOX), parent=outer)

    def test_cycle_rejected(self):
        d = new_diagram()
        a = d.add_element(Element(kind=Kind.AGGREGATION_BOX, id="a"))
        b = d.add_element(Element(kind=Kind.AGGREGATION_BOX, id="b"), parent=a)
        c = d.add_element(Element(kind=Kind.AGGREGATION_BOX, id="c"), parent=b)
        with pytest.raises(ContainmentCycle):
            d.contain(a, c)
        with pytest.raises(ContainmentCycle):
            d.contain(a, a)

    def test_random_insertions_never_build_cycles(self):
        rng = random.Random(17)
        for _ in range(50):
            d = new_diagram()
            boxes = [d.add_element(Element(kind=Kind.AGGREGATION_BOX, id=f"b{i}")) for i in range(8)]
            for _ in range(30):
                child, parent = rng.choice(boxes), rng.choice(boxes)
                try:
                    d.contain(child, parent)
                except ContainmentCycle:
                    continue
            # walking up from any node must terminate
            for node in boxes:
                hops = 0
                while node is not None:
                    node = d.containment.get(node)
                    hops += 1
                    assert hops < 20


class TestEdgesAndIds:
    def test_duplicate_ids_rejected(self):
        d = new_diagram()
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="x"))
        with pytest.raises(DuplicateId):
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="x"))
        with pytest.raises(DuplicateId):
            d.add_edge(Edge(kind=EdgeKind.MOTION, id="x"))

    def test_auto_ids_are_fresh(self):
        d = new_diagram()
        first = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE))
        second = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE))
        assert first != second

    def test_edge_endpoints_must_exist(self):
        d = new_diagram()
        with pytest.raises(UnknownEndpoint):
            d.add_edge(Edge(kind=EdgeKind.MOTION, source="nope"))

    def test_group_members_must_exist(self):
        d = new_diagram()
        with pytest.raises(UnknownMember):
            d.add_group(StateDiagramGroup(states=("ghost",)))


class TestBindAttribute:
    def test_bind_on_circle(self):
        d = new_diagram()
        fox = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE))
        d.bind_attribute(fox, AttributeBinding("speed", Text("quick")))
        assert d.binding_value(fox, "speed") == Text("quick")

    def test_bind_on_change_arrow(self):
        d = new_diagram()
        m = d.add_edge(Edge(kind=EdgeKind.MOTION))
        d.bind_attribute(m, AttributeBinding("speed", Text("fast")))
        assert d.binding_value(m, "speed") == Text("fast")

    def test_marker_cannot_host(self):
        d = new_diagram()
        marker = d.add_element(Element(kind=Kind.MARKER_0D))
        with pytest.raises(IllegalAttributeHost):
            d.bind_attribute(marker, AttributeBinding("color", Text("red")))

    def test_tube_cannot_host(self):
        d = new_diagram()
        t = d.add_edge(Edge(kind=EdgeKind.TUBE))
        with pytest.raises(IllegalAttributeHost):
            d.bind_attribute(t, AttributeBinding("speed", Text("fast")))

    def test_unknown_owner(self):
        d = new_diagram()
        with pytest.raises(UnknownOwner):
            d.bind_attribute("ghost", AttributeBinding("a", Scalar(1)))

    def test_weight_dk_is_legal(self):
        d = new_diagram()
        o = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE))
        d.bind_attribute(o, AttributeBinding("weight", Wildcard.DK))

    def test_conflicting_duplicate(self):
        d = new_diagram()
        o = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE))
        d.bind_attribute(o, AttributeBinding("color", Text("red")))
        d.bind_attribute(o, AttributeBinding("color", Text("red")))  # identical ok
        with pytest.raises(ConflictingDuplicate):
            d.bind_attribute(o, AttributeBinding("color", Text("blue")))


def test_structural_equality_ignores_insertion_order():
    def build(order):
        d = Diagram()
        for eid in order:
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
        d.add_edge(Edge(kind=EdgeKind.MOTION, source="a", target="b", id="m"))
        return d

    assert build(["a", "b"]) == build(["b", "a"])


def test_random_diagrams_equal_themselves_rebuilt():
    rng1, rng2 = random.Random(123), random.Random(123)
    assert random_diagram(rng1) == random_diagram(rng2)


# Literal values taken from the hand-kept tables the kind-facts table replaced.
PARENT_SETS = {
    "CONTAINER_KINDS": {
        "AggregationBox", "CAAggregationBox", "DataSetBox", "DescriptiveBox", "VerbatimBox",
        "XorBox", "ZoomBoxPair",
    },
    "NONQUAN_KINDS": {
        "AggregationBox", "CAAggregationBox", "CAObjectCircle", "DataObjectCircle", "DataPoint",
        "DataSetBox", "DescriptiveBox", "PhysicalObjectCircle", "SwirlyArray", "VerbatimBox",
        "XorBox", "ZoomBoxPair",
    },
    "LOCATION_BOX_FAMILY": {
        "AggregationBox", "CAAggregationBox", "DescriptiveBox", "VerbatimBox", "XorBox",
    },
    "MARKER_KINDS": {"Marker0D", "Marker1D", "Marker2D"},
    "CHANGE_ARROW_KINDS": {"Causation", "Force", "Motion", "Time"},
}
PARENT_SCOVA = {
    "AggregationBox": "O", "AttendRing": "A", "AttributeLine": "A", "CAAggregationBox": "O",
    "CAObjectCircle": "O", "Causation": "C", "Cell": "O", "CorrelationBox": "C",
    "DataObjectCircle": "O", "DataPoint": "O", "DataSetBox": "S", "DescriptiveBox": "O",
    "Force": "C", "LabelString": "O", "Marker0D": "O", "Marker1D": "O", "Marker2D": "O",
    "ModalVerbIcon": "S", "Motion": "C", "MotivationTriangle": "S", "PhysicalObjectCircle": "O",
    "RangeCap": "V", "Relationship": "O", "RobinsonIcon": "S", "SensorBar": "O",
    "SplitTime": "S", "StateCircle": "O", "StateDiagram": "S", "SwirlyArray": "O", "Time": "C",
    "TimeAnchor": "C", "Tube": "O", "ValueBar": "V", "VerbatimBox": "O", "Wildcard": "V",
    "XorBox": "O", "ZoomBoxPair": "S",
}
PARENT_ALIASES = {
    "TimeArrow": "Time", "MotionArrow": "Motion", "ForceArrow": "Force",
    "CausationArrow": "Causation", "PathwayTube": "Tube", "RelationshipMarker": "Relationship",
    "StateDiagramGroup": "StateDiagram", "SplitTimeGroup": "SplitTime",
    "SplitTimeArrow": "SplitTime",
}
PARENT_GENERALIZE = {
    **{k: {"IAM", "Nonquan"} for k in PARENT_SETS["LOCATION_BOX_FAMILY"]},
    **{k: {"Nonquan"} for k in ("CAObjectCircle", "DataObjectCircle", "DataPoint",
                                 "DataSetBox", "PhysicalObjectCircle", "SwirlyArray",
                                 "ZoomBoxPair")},
    **{k: {"ChangeArrow"} for k in PARENT_SETS["CHANGE_ARROW_KINDS"]},
    "StateDiagram": {"IAM"},
}
PARENT_PAYLOADS = {
    "CAObjectCircle": CAPayload, "CAAggregationBox": CAPayload,
    "SwirlyArray": SwirlyArrayPayload, "CorrelationBox": CorrelationBoxPayload,
    "MotivationTriangle": MotivationTrianglePayload, "RobinsonIcon": RobinsonIconPayload,
}
PARENT_REQUIREMENT_NAMES = {
    "AggregationBox", "AnyBox", "AnyMarker", "AttendRing", "CAAggregationBox", "CAObjectCircle",
    "CausationArrow", "Cell", "CorrelationBox", "DataObjectCircle", "DataPoint", "DataSetBox",
    "DescriptiveBox", "ForceArrow", "LabelString", "Marker0D", "Marker1D", "Marker2D",
    "ModalVerbIcon", "MotionArrow", "MotivationTriangle", "PhysicalObjectCircle",
    "RobinsonIcon", "SensorBar", "StateCircle", "SwirlyArray", "TimeAnchor", "TimeArrow",
    "ValueBar", "VerbatimBox", "XorBox", "ZoomBoxPair",
}


def test_kind_facts_table_has_one_row_per_kind_and_keeps_every_derived_fact():
    from tumbug import grammar, heuristics, model

    expected_keys = [*Kind, *EdgeKind, *GroupKind, "AttributeLine", "Wildcard", "RangeCap"]
    assert len(model.KIND_FACTS) == len(expected_keys)
    assert set(model.KIND_FACTS) == set(expected_keys)

    for name, members in PARENT_SETS.items():
        assert {k.value for k in getattr(model, name)} == members, name
    assert {
        k.value: payload_type(k) for k in Kind if payload_type(k) is not GenericPayload
    } == PARENT_PAYLOADS

    assert grammar.all_classifiable_kinds() == sorted(PARENT_SCOVA)
    for name, letter in PARENT_SCOVA.items():
        assert grammar.scova_classify(name).value == letter, name
        assert grammar.generalize(name) == PARENT_GENERALIZE.get(name, {"Other"}), name
    for alias, name in PARENT_ALIASES.items():
        assert grammar.scova_classify(alias) == grammar.scova_classify(name)
        assert grammar.generalize(alias) == grammar.generalize(name)
    with pytest.raises(grammar.UnknownKind):
        grammar.scova_classify("Gizmo")

    candidates = set(PARENT_SCOVA) | set(PARENT_ALIASES) | {"AnyBox", "AnyMarker"}
    accepted = {name for name in candidates if heuristics._known_kind(name)}
    assert accepted == PARENT_REQUIREMENT_NAMES
    assert "PathwayTube" not in accepted and "RelationshipMarker" not in accepted


@pytest.mark.parametrize("bad", ["a b", "", "x.y", 'q"', "a\n", "é"])
def test_ids_outside_identifier_syntax_are_rejected(bad):
    d = new_diagram()
    with pytest.raises(InvalidId):
        d.add_element(Element(kind=Kind.CELL, id=bad))
    d.add_element(Element(kind=Kind.CELL, id="ok_1-2"))
    with pytest.raises(InvalidId):
        d.add_edge(Edge(kind=EdgeKind.TIME, id=bad))
    with pytest.raises(InvalidId):
        d.add_group(StateDiagramGroup(states=("ok_1-2",), id=bad))
    assert list(d.elements) == ["ok_1-2"] and not d.edges and not d.groups


class TestNamesTheDslCanWriteBack:
    @pytest.mark.parametrize("bad", ["a b", "", 'q"', "a=b", "a,b"])
    def test_attribute_names_are_keys(self, bad):
        d = new_diagram()
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o1"))
        with pytest.raises(InvalidPayload):
            d.bind_attribute("o1", AttributeBinding(bad, Text("x")))
        assert not d.bindings
        AttributeBinding("forced.w-2_x", Text("x"))

    @pytest.mark.parametrize("name", ["a,b", "a:b", ""])
    def test_swirly_cell_names_hold_no_separator(self, name):
        with pytest.raises(InvalidPayload):
            SwirlyArrayPayload(cells=((name, 1.0, 2.0),))

    @pytest.mark.parametrize(
        "slot", [("a b", "x", "w"), ("a", "x.y", "w"), ("a", "x", "w,v"), ("a:b", "x", "w")]
    )
    def test_slot_parts_are_ids_and_keys(self, slot):
        with pytest.raises(InvalidPayload):
            SlotSpec(*slot)
        SlotSpec("a", "x", "w.v")


def _in_use(d: Diagram, i: str) -> bool:
    return i in d.elements or i in d.edges or i in d.groups


def _naive_fresh_id(d: Diagram, prefix: str) -> str:
    """The smallest free id with the prefix, probed from 1."""
    n = 1
    while _in_use(d, f"{prefix}{n}"):
        n += 1
    return f"{prefix}{n}"


# One insert: which table, an explicit id (any table's prefix) or None for a
# fresh one, and whether the insert fails after its id is claimed.
_INSERTS = st.lists(
    st.tuples(
        st.sampled_from("nag"),
        st.one_of(st.none(), st.builds("{}{}".format, st.sampled_from("nag"), st.integers(1, 12))),
        st.booleans(),
    ),
    max_size=60,
)


class TestFreshIds:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_INSERTS)
    def test_fresh_ids_match_the_naive_probe(self, inserts):
        d = new_diagram()
        for prefix, explicit, fails in inserts:
            if prefix == "n":
                item = Element(kind=Kind.CELL, id=explicit)
                insert = lambda: d.add_element(item, parent="ghost" if fails else None)
            elif prefix == "a":
                item = Edge(kind=EdgeKind.TIME, source="ghost" if fails else None, id=explicit)
                insert = lambda: d.add_edge(item)
            else:
                item = StateDiagramGroup(states=("ghost",) if fails else (), id=explicit)
                insert = lambda: d.add_group(item)
            expected = explicit or _naive_fresh_id(d, prefix)
            taken = explicit is not None and _in_use(d, explicit)
            try:
                insert()
            except (DuplicateId, UnknownParent, UnknownEndpoint, UnknownMember):
                assert fails or taken
            else:
                assert not fails and not taken
            if not taken:
                assert item.id == expected

    def test_8000_fresh_inserts_take_under_a_second(self):
        d = new_diagram()
        start = time.perf_counter()
        for _ in range(8000):
            d.add_element(Element(kind=Kind.CELL))
        assert time.perf_counter() - start < 1.0
        assert set(d.elements) == {f"n{i}" for i in range(1, 8001)}
