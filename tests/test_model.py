import copy
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

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
from tumbug.dsl import ParseError, parse, serialize
from tumbug.grammar import resolve_query
from tumbug.values import Scalar, Text, Wildcard

from conftest import random_diagram


def test_new_diagram_is_empty():
    d = new_diagram()
    assert d.elements == {}
    assert d.edges == {}
    assert d.bindings == ()


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
        with pytest.raises(UnknownOwner):
            d.host_problem("ghost", "a")

    def test_host_problem_is_the_refusal_text(self):
        d = new_diagram()
        fox = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE))
        mk = d.add_element(Element(kind=Kind.MARKER_0D))
        m = d.add_edge(Edge(kind=EdgeKind.MOTION))
        rel = d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP))
        assert d.host_problem(fox, "color") is None
        assert d.host_problem(m, "speed") is None
        assert d.host_problem(mk, "color") == "Marker0D cannot host attribute 'color'"
        assert d.host_problem(rel, "color") == "Relationship edge cannot host attributes"
        for owner in (mk, rel):
            with pytest.raises(IllegalAttributeHost) as caught:
                d.bind_attribute(owner, AttributeBinding("color", Text("red")))
            assert str(caught.value) == d.host_problem(owner, "color")
        assert d.bindings == ()

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
                assert item.id == explicit  # a refused insert leaves the id alone
            else:
                assert not fails and not taken
                assert item.id == expected

    def test_8000_fresh_inserts_take_under_a_second(self):
        d = new_diagram()
        start = time.perf_counter()
        for _ in range(8000):
            d.add_element(Element(kind=Kind.CELL))
        assert time.perf_counter() - start < 1.0
        assert set(d.elements) == {f"n{i}" for i in range(1, 8001)}


def test_16000_binds_on_one_owner_take_under_half_a_second():
    d = new_diagram()
    o = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE))
    start = time.perf_counter()
    for i in range(8000):
        d.bind_attribute(o, AttributeBinding(f"a{i}", Scalar(i)))
        d.bind_attribute(o, AttributeBinding("same", Text("x")))  # a same-value rebind
    assert time.perf_counter() - start < 0.5
    assert d.binding_value(o, "a7999") == Scalar(7999) and len(d.bindings) == 16000


def test_queries_on_every_owner_of_a_4000_link_chain_take_under_half_a_second():
    # Each owner says nothing, so each query follows its one Relationship hop.
    d = new_diagram()
    ids = [d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE)) for _ in range(4001)]
    for source, target in zip(ids, ids[1:]):
        d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source=source, target=target))
    d.bind_attribute(ids[-1], AttributeBinding("w", Scalar(1)))
    start = time.perf_counter()
    answers = [resolve_query(d, owner, "w") for owner in ids]
    assert time.perf_counter() - start < 0.5
    assert answers == [Wildcard.DK] * 3999 + [Scalar(1)] * 2


# The binding index against a linear scan.  r1 is the Relationship hop that
# resolve_query follows from o1 to o2; Scalar(1) and Scalar(1.0) are equal
# values held by distinct objects.  append_binding also reaches owners that
# bind_attribute refuses: a ghost, a 0D marker and the Relationship edge.
_OWNERS = ("o1", "o2", "m1")
_UNCHECKED_OWNERS = ("ghost", "mk", "r1")
_ATTRIBUTES = ("color", "speed")
_BOUND = (Text("red"), Text("blue"), Scalar(1), Scalar(1.0), Wildcard.DK)
_HOPS = {"o1": "o2"}
_BINDINGS = st.builds(AttributeBinding, st.sampled_from(_ATTRIBUTES), st.sampled_from(_BOUND))
_PAIRS = st.tuples(st.sampled_from(_OWNERS), _BINDINGS)
_ANY_PAIRS = st.tuples(st.sampled_from(_OWNERS + _UNCHECKED_OWNERS), _BINDINGS)


def _scan(ref: list, owner: str | None, attribute: str) -> list:
    return [b.value for o, b in ref if o == owner and b.attribute == attribute]


def _conflicts(ref: list, owner: str, binding: AttributeBinding) -> bool:
    return any(v != binding.value for v in _scan(ref, owner, binding.attribute))


def _conflicting_keys(ref: list) -> list[tuple[str, str]]:
    """Each (owner, attribute) bound to two values, in the order found."""
    first, found = {}, []
    for owner, binding in ref:
        key = (owner, binding.attribute)
        if key in first and first[key] != binding.value and key not in found:
            found.append(key)
        first.setdefault(key, binding.value)
    return found


def _refused(d: Diagram, owner: str, binding: AttributeBinding) -> bool:
    """Whether bind_attribute raises ConflictingDuplicate; else it binds."""
    try:
        d.bind_attribute(owner, binding)
    except ConflictingDuplicate:
        return True
    return False


class BindingIndexMachine(RuleBasedStateMachine):
    """Writes through bind_attribute and append_binding, mirrored into a
    reference list, and after each one, bind_attribute, binding_value,
    conflicting_bindings and resolve_query compared with a scan of that
    list."""

    def __init__(self):
        super().__init__()
        self.d = new_diagram()
        for eid in ("o1", "o2"):
            self.d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
        self.d.add_element(Element(kind=Kind.MARKER_0D, id="mk"))
        self.d.add_edge(Edge(kind=EdgeKind.MOTION, source="o1", target="o2", id="m1"))
        self.d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="o1", target="o2", id="r1"))
        self.ref: list[tuple[str, AttributeBinding]] = []

    @rule(pair=_PAIRS)
    def bind(self, pair):
        conflict = _conflicts(self.ref, *pair)
        assert _refused(self.d, *pair) == conflict
        if not conflict:
            self.ref.append(pair)

    @precondition(lambda self: self.ref)
    @rule(data=st.data())
    def rebind_same_value(self, data):
        owner, binding = data.draw(st.sampled_from(self.ref))
        assume(owner in _OWNERS and not _conflicts(self.ref, owner, binding))
        pair = (owner, AttributeBinding(binding.attribute, binding.value))
        assert not _refused(self.d, *pair)
        self.ref.append(pair)

    @rule(pair=_ANY_PAIRS)
    def append_unchecked(self, pair):
        """Any owner, host or value, conflicting ones included."""
        self.d.append_binding(*pair)
        self.ref.append(pair)

    @rule(pair=st.tuples(st.sampled_from(_UNCHECKED_OWNERS), _BINDINGS))
    def bind_is_refused_where_append_is_not(self, pair):
        with pytest.raises(UnknownOwner if pair[0] == "ghost" else IllegalAttributeHost):
            self.d.bind_attribute(*pair)

    @invariant()
    def agrees_with_a_scan(self):
        # A bind that must raise goes to d itself.  Every bind also goes to a
        # copy of d, whose index starts where d's is, mirrored in probe_ref.
        probe, probe_ref = copy.deepcopy(self.d), list(self.ref)
        for owner in _OWNERS + _UNCHECKED_OWNERS:
            for attribute in _ATTRIBUTES:
                bound = _scan(self.ref, owner, attribute)
                assert self.d.binding_value(owner, attribute) == (bound[0] if bound else None)
                if owner != "ghost":
                    answer = bound or _scan(self.ref, _HOPS.get(owner), attribute) or [Wildcard.DK]
                    assert resolve_query(self.d, owner, attribute) == answer[0]
        for owner in _OWNERS:
            for attribute in _ATTRIBUTES:
                for value in _BOUND:
                    pair = (owner, AttributeBinding(attribute, value))
                    if _conflicts(self.ref, *pair):
                        assert _refused(self.d, *pair)
                    conflict = _conflicts(probe_ref, *pair)
                    assert _refused(probe, *pair) == conflict
                    if not conflict:
                        probe_ref.append(pair)
        assert self.d.conflicting_bindings() == _conflicting_keys(self.ref)
        assert probe.conflicting_bindings() == _conflicting_keys(probe_ref)
        # The parser refuses an owner that names nothing; every other
        # diagram comes back equal.
        if any(owner == "ghost" for owner, _ in self.ref):
            with pytest.raises(ParseError, match="existing owner"):
                parse(serialize(self.d))
        else:
            assert parse(serialize(self.d)) == self.d


BindingIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None, database=None
)
TestBindingIndex = BindingIndexMachine.TestCase


# The Relationship-hop index against a scan of a reference dict of the edges.
# o1 and o5 are bound to nothing and the others to some attributes, so an
# answer may come from the owner, from one of its hops in id order, or be DK.
# put_edge also reaches a ghost endpoint, which hops may leave or point to.
_ENDS = ("o1", "o2", "o3", "o4", "o5")
_HOP_BINDINGS = (("o2", "color", Text("red")), ("o3", "color", Text("blue")),
                 ("o3", "speed", Scalar(1)), ("o4", "speed", Scalar(2)))
_EDGE_KINDS = st.sampled_from((EdgeKind.RELATIONSHIP, EdgeKind.RELATIONSHIP, EdgeKind.MOTION))
_EDGES = st.builds(
    lambda kind, source, target: Edge(kind=kind, source=source, target=target),
    _EDGE_KINDS,
    st.sampled_from(_ENDS),
    st.sampled_from((*_ENDS, None)),
)
_DANGLING_EDGES = st.builds(
    lambda kind, source, target: Edge(kind=kind, source=source, target=target),
    _EDGE_KINDS,
    st.sampled_from((*_ENDS, "ghost", None)),
    st.sampled_from((*_ENDS, "ghost", None)),
)


class HopIndexMachine(RuleBasedStateMachine):
    """Writes through add_edge and put_edge, mirrored into a reference dict,
    and after each one, relationship_hops, resolve_query and the new edges'
    bindings compared with a scan."""

    def __init__(self):
        super().__init__()
        self.d = new_diagram()
        for eid in _ENDS:
            self.d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
        for owner, attribute, value in _HOP_BINDINGS:
            self.d.bind_attribute(owner, AttributeBinding(attribute, value))
        self.ref: dict[str, Edge] = {}
        self.edge_bindings: list[tuple[str, AttributeBinding]] = []
        self.made = 0

    def _new_id(self) -> str:
        self.made += 1
        return f"e{self.made}"

    @rule(edge=_EDGES)
    def add_edge(self, edge):
        edge.id = self._new_id()
        self.ref[self.d.add_edge(edge)] = edge

    @rule(edge=_EDGES, attrs=st.lists(_BINDINGS, max_size=3))
    def add_edge_then_bind(self, edge, attrs):
        """add_edge, then bind_attribute per attr: a refused bind leaves the
        edge and the binds before it."""
        eid = edge.id = self._new_id()
        self.ref[self.d.add_edge(edge)] = edge
        for binding in attrs:
            if edge.kind is EdgeKind.RELATIONSHIP:
                refusal = IllegalAttributeHost
            elif _conflicts(self.edge_bindings, eid, binding):
                refusal = ConflictingDuplicate
            else:
                self.d.bind_attribute(eid, binding)
                self.edge_bindings.append((eid, binding))
                continue
            with pytest.raises(refusal):
                self.d.bind_attribute(eid, binding)
            return

    @rule(edge=_DANGLING_EDGES)
    def put_edge(self, edge):
        edge.id = self._new_id()
        self.ref[self.d.put_edge(edge)] = edge

    @precondition(lambda self: self.ref)
    @rule(data=st.data(), edge=_DANGLING_EDGES)
    def put_over_a_taken_id(self, data, edge):
        edge.id = data.draw(st.sampled_from(list(self.ref)))
        with pytest.raises(DuplicateId):
            self.d.put_edge(edge)

    @invariant()
    def agrees_with_a_scan(self):
        assert dict(self.d.edges) == self.ref
        bound = {(o, a): v for o, a, v in _HOP_BINDINGS}
        for owner in (*_ENDS, "ghost", None):
            hops = sorted(
                eid for eid, edge in self.ref.items()
                if edge.kind is EdgeKind.RELATIONSHIP and edge.source == owner
            )
            assert self.d.relationship_hops(owner) == hops
            if owner not in _ENDS:
                continue
            for attribute in _ATTRIBUTES:
                answers = [bound.get((owner, attribute))]
                answers += [bound.get((self.ref[eid].target, attribute)) for eid in hops]
                expected = next((v for v in answers if v is not None), Wildcard.DK)
                assert resolve_query(self.d, owner, attribute) == expected
        for eid in self.ref:
            for attribute in _ATTRIBUTES:
                bound_here = _scan(self.edge_bindings, eid, attribute)
                assert self.d.binding_value(eid, attribute) == next(iter(bound_here), None)
        assert self.d.conflicting_bindings() == []


HopIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None, database=None
)
TestHopIndex = HopIndexMachine.TestCase


class TestOneWriterPerContainer:
    def test_a_deletion_that_puts_the_last_edge_back_cannot_leave_a_stale_hop(self):
        # Hops indexed over r1 (Relationship a -> b) and m1.  Deleting r1 and
        # putting m1 back last once left relationship_hops("a") == ["r1"], and
        # resolve_query raised KeyError: 'r1'.  Now the first write is refused.
        d = new_diagram()
        for eid in ("a", "b", "c"):
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
        d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="a", target="b", id="r1"))
        d.add_edge(Edge(kind=EdgeKind.MOTION, source="a", target="b", id="m1"))
        assert d.relationship_hops("a") == ["r1"]
        with pytest.raises(TypeError):
            del d.edges["r1"]
        with pytest.raises(TypeError):
            d.edges["r2"] = Edge(kind=EdgeKind.RELATIONSHIP, source="a", target="c")
        for write in (lambda b: b.append(("a", AttributeBinding("w", Scalar(1)))),
                      lambda b: b.pop()):
            with pytest.raises(AttributeError):
                write(d.bindings)
        assert list(d.edges) == ["r1", "m1"] and d.bindings == ()
        assert d.relationship_hops("a") == ["r1"]
        assert resolve_query(d, "a", "color") is Wildcard.DK

    def test_put_edge_indexes_a_relationship_whose_target_dangles(self):
        d = new_diagram()
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="a"))
        d.put_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="a", target="ghost", id="r1"))
        assert d.relationship_hops("a") == ["r1"]
        assert resolve_query(d, "a", "color") is Wildcard.DK
        with pytest.raises(DuplicateId):
            d.put_edge(Edge(kind=EdgeKind.MOTION, id="r1"))
        assert d.edges["r1"].kind is EdgeKind.RELATIONSHIP

    def test_the_constructor_takes_no_containers(self):
        for name in ("elements", "containment", "edges", "groups", "bindings", "meta"):
            with pytest.raises(TypeError):
                Diagram(**{name: {}})

    def test_copies_answer_like_the_original_and_stay_apart(self):
        d = new_diagram()
        for eid in ("a", "b"):
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
        d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="a", target="b", id="r1"))
        d.bind_attribute("b", AttributeBinding("color", Text("red")))
        d.append_binding("a", AttributeBinding("speed", Scalar(1)))
        d.append_binding("a", AttributeBinding("speed", Scalar(2)))
        for twin in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert twin == d
            for owner in ("a", "b"):
                assert twin.relationship_hops(owner) == d.relationship_hops(owner)
                for attribute in ("color", "speed", "size"):
                    assert twin.binding_value(owner, attribute) == d.binding_value(owner, attribute)
            assert twin.conflicting_bindings() == d.conflicting_bindings() == [("a", "speed")]
            twin.bind_attribute("b", AttributeBinding("size", Scalar(3)))
            twin.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="a", target="b", id="r2"))
            assert twin != d
            assert d.binding_value("b", "size") is None and len(d.bindings) == 3
            assert d.relationship_hops("a") == ["r1"] and "r2" not in d.edges


def _refusal_scene() -> Diagram:
    d = new_diagram()
    for eid in ("o1", "o2"):
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
    d.add_element(Element(kind=Kind.CELL, id="c1"))
    d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="o1", target="o2", id="r0"))
    d.bind_attribute("o2", AttributeBinding("color", Text("blue")))
    return d


class TestRefusedWritesLeaveNoTrace:
    """A checked writer checks everything before its first write: a refused
    call leaves the diagram, its indices and the caller's id as they were."""

    @pytest.mark.parametrize(
        "write, item, refusal",
        [
            pytest.param(
                lambda d, e: d.add_edge(e), Edge(kind=EdgeKind.MOTION, source="ghost"),
                UnknownEndpoint, id="edge-endpoint",
            ),
            pytest.param(
                lambda d, e: d.add_edge(e), Edge(kind=EdgeKind.MOTION, source="ghost", id="o2"),
                DuplicateId, id="edge-duplicate-before-endpoint",
            ),
            pytest.param(
                lambda d, e: d.add_edge(e), Edge(kind=EdgeKind.MOTION, source="ghost", id="a b"),
                InvalidId, id="edge-invalid-before-endpoint",
            ),
            pytest.param(
                lambda d, el: d.add_element(el, parent="ghost"),
                Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE), UnknownParent, id="element-parent",
            ),
            pytest.param(
                lambda d, el: d.add_element(el, parent="c1"),
                Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE), ParentNotContainer,
                id="element-container",
            ),
            pytest.param(
                lambda d, g: d.add_group(g), StateDiagramGroup(states=("o1", "ghost")),
                UnknownMember, id="group-member",
            ),
            pytest.param(
                lambda d, g: d.add_group(g), StateDiagramGroup(states=("o1",), owner="ghost"),
                UnknownOwner, id="group-owner",
            ),
            pytest.param(
                lambda d, g: d.add_group(g), SplitTimeGroup("r0", ("ghost",), ""),
                UnknownMember, id="split-time-branch",
            ),
        ],
    )
    def test_refusal(self, write, item, refusal):
        d = _refusal_scene()
        before, requested = copy.deepcopy(d), item.id
        with pytest.raises(refusal):
            write(d, item)
        assert d == before and item.id == requested
        for owner in ("o1", "o2", "r0", "a1"):
            assert d.relationship_hops(owner) == before.relationship_hops(owner)
            for attribute in ("color", "speed"):
                assert d.binding_value(owner, attribute) == before.binding_value(owner, attribute)
        assert d.conflicting_bindings() == before.conflicting_bindings() == []
        fresh = lambda: Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE)
        assert d.add_element(fresh()) == before.add_element(fresh())
