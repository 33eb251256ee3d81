import copy
import random

import pytest

from tumbug.dsl import serialize
from tumbug.grammar import (
    BasicKind,
    Shape,
    UnknownKind,
    ViolationCode,
    all_classifiable_kinds,
    default_legality,
    edge_shape,
    generalize,
    load_legality,
    parse_legality,
    resolve_query,
    scova_classify,
    validate,
)
from tumbug.lexicon import tables_dir
from tumbug.model import (
    AttributeBinding,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    GenericPayload,
    Kind,
    SplitTimeGroup,
    StateDiagramGroup,
    UnknownOwner,
)
from tumbug.values import Text, Wildcard

from conftest import random_diagram

CHANGE_KINDS = (EdgeKind.TIME, EdgeKind.MOTION, EdgeKind.FORCE, EdgeKind.CAUSATION)

# The legal shapes of each Change Arrow, written out by hand: an independent
# reference for the shipped data/legality.tbl that default_legality() reads.
LEGAL_SHAPES = {
    EdgeKind.TIME: {Shape.SOLITARY_ARROW, Shape.SOLITARY_NONQUAN},
    EdgeKind.MOTION: {
        Shape.SOLITARY_ARROW,
        Shape.SOLITARY_NONQUAN,
        Shape.ARROW_OUT,
        Shape.ARROW_BETWEEN,
        Shape.SELF_LOOP,
    },
    EdgeKind.FORCE: {
        Shape.SOLITARY_ARROW,
        Shape.SOLITARY_NONQUAN,
        Shape.ARROW_OUT,
        Shape.ARROW_IN,
        Shape.ARROW_BETWEEN,
    },
    EdgeKind.CAUSATION: set(Shape),
}


def cell_diagram(shape: Shape, kind: EdgeKind) -> Diagram:
    """Minimal diagram exercising one legality-table cell."""
    d = Diagram()
    if shape is Shape.SOLITARY_NONQUAN:
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o1"))
        return d
    if shape is Shape.SOLITARY_ARROW:
        d.add_edge(Edge(kind=kind, id="e1"))
        return d
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o1"))
    if shape is Shape.ARROW_OUT:
        d.add_edge(Edge(kind=kind, source="o1", id="e1"))
    elif shape is Shape.ARROW_IN:
        d.add_edge(Edge(kind=kind, target="o1", id="e1"))
    elif shape is Shape.SELF_LOOP:
        d.add_edge(Edge(kind=kind, source="o1", target="o1", id="e1"))
    else:
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o2"))
        d.add_edge(Edge(kind=kind, source="o1", target="o2", id="e1"))
    return d


def expected_code(shape: Shape, kind: EdgeKind) -> ViolationCode:
    if kind is EdgeKind.TIME:
        return ViolationCode.TIME_ATTACHED
    if shape is Shape.SELF_LOOP:
        return ViolationCode.SELF_LOOP_FORBIDDEN
    return ViolationCode.ARROW_SHAPE_ILLEGAL


class TestLegalityTable:
    def test_table_is_total(self):
        table = default_legality()
        assert len(table) == 24
        assert all(isinstance(v, bool) for v in table.values())

    def test_time_legal_only_solitary(self):
        table = default_legality()
        for shape in Shape:
            legal = table[(shape, EdgeKind.TIME)]
            assert legal == (shape in (Shape.SOLITARY_ARROW, Shape.SOLITARY_NONQUAN))

    @pytest.mark.parametrize("shape", list(Shape))
    @pytest.mark.parametrize("kind", CHANGE_KINDS)
    def test_24_cell_suite(self, shape, kind):
        table = default_legality()
        d = cell_diagram(shape, kind)
        violations = validate(d)
        if table[(shape, kind)]:
            assert violations == []
        else:
            assert len(violations) == 1
            assert violations[0].code is expected_code(shape, kind)

    def test_shipped_table_file_matches_defaults(self):
        assert load_legality(tables_dir() / "legality.tbl") == default_legality()

    def test_default_table_matches_hand_written_reference(self):
        expected = {
            (shape, kind): shape in LEGAL_SHAPES[kind]
            for shape in Shape
            for kind in CHANGE_KINDS
        }
        assert len(expected) == 24
        assert default_legality() == expected

    def test_override_table(self):
        text = "\n".join(
            f"{shape.value} L L L L" for shape in Shape
        )
        table = parse_legality(text)
        d = cell_diagram(Shape.ARROW_OUT, EdgeKind.TIME)
        assert validate(d, table) == []  # everything legal under the override

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            parse_legality("SolitaryArrow L L L L")
        with pytest.raises(ValueError):
            parse_legality("Nonsense L L L L")

    def test_motion_self_loop_is_valid(self):
        # reflexive actions: a person washing themself
        d = Diagram()
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="me"))
        d.add_edge(Edge(kind=EdgeKind.MOTION, source="me", target="me", id="wash"))
        assert validate(d) == []

    def test_edge_shape_classification(self):
        assert edge_shape(Edge(kind=EdgeKind.MOTION)) is Shape.SOLITARY_ARROW
        assert edge_shape(Edge(kind=EdgeKind.MOTION, source="a")) is Shape.ARROW_OUT
        assert edge_shape(Edge(kind=EdgeKind.MOTION, target="a")) is Shape.ARROW_IN
        assert edge_shape(Edge(kind=EdgeKind.MOTION, source="a", target="a")) is Shape.SELF_LOOP
        assert edge_shape(Edge(kind=EdgeKind.MOTION, source="a", target="b")) is Shape.ARROW_BETWEEN


class TestOtherValidations:
    def test_attr_host_violation_reported(self):
        d = Diagram()
        d.add_element(Element(kind=Kind.MARKER_0D, id="m"))
        d.append_binding("m", AttributeBinding("color", Text("red")))
        codes = [v.code for v in validate(d)]
        assert codes == [ViolationCode.ATTR_HOST_ILLEGAL]

    def test_attr_conflict_reported(self):
        d = Diagram()
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o"))
        d.append_binding("o", AttributeBinding("color", Text("red")))
        d.append_binding("o", AttributeBinding("color", Text("blue")))
        codes = [v.code for v in validate(d)]
        assert codes == [ViolationCode.ATTR_CONFLICT]

    def test_looser_box_inside_stricter_box(self):
        d = Diagram()
        v = d.add_element(Element(kind=Kind.VERBATIM_BOX, id="v"))
        d.add_element(
            Element(kind=Kind.DESCRIPTIVE_BOX, id="desc"), parent=v
        )
        d.elements["desc"].position = None
        codes = {x.code for x in validate(d)}
        assert ViolationCode.BOX_NESTING in codes

    def test_stricter_inside_looser_is_fine(self):
        d = Diagram()
        agg = d.add_element(Element(kind=Kind.AGGREGATION_BOX, id="agg"))
        d.add_element(Element(kind=Kind.DESCRIPTIVE_BOX, id="desc"), parent=agg)
        assert validate(d) == []

    def test_position_required_inside_verbatim(self):
        d = Diagram()
        v = d.add_element(Element(kind=Kind.VERBATIM_BOX, id="v"))
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o"), parent=v)
        codes = [x.code for x in validate(d)]
        assert codes == [ViolationCode.POSITION_REQUIRED]

    def test_xor_needs_two_alternatives(self):
        d = Diagram()
        x = d.add_element(Element(kind=Kind.XOR_BOX, id="x"))
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="only"), parent=x)
        codes = [v.code for v in validate(d)]
        assert codes == [ViolationCode.XOR_TOO_FEW]

    def test_xor_satisfied_by_split_branches(self):
        d = Diagram()
        d.add_element(Element(kind=Kind.XOR_BOX, id="x"))
        trunk = d.add_edge(Edge(kind=EdgeKind.TIME, id="t0"))
        b1 = d.add_edge(Edge(kind=EdgeKind.TIME, id="t1"))
        b2 = d.add_edge(Edge(kind=EdgeKind.TIME, id="t2"))
        d.add_group(SplitTimeGroup(trunk=trunk, branches=(b1, b2), junction="x", id="g"))
        assert validate(d) == []

    def test_state_group_rules(self):
        d = Diagram()
        s1 = d.add_element(Element(kind=Kind.STATE_CIRCLE, id="s1"))
        s2 = d.add_element(Element(kind=Kind.STATE_CIRCLE, id="s2"))
        outsider = d.add_element(Element(kind=Kind.STATE_CIRCLE, id="s3"))
        tube = d.add_edge(Edge(kind=EdgeKind.TUBE, source=s1, target=outsider, id="t"))
        d.add_group(
            StateDiagramGroup(states=(s1, s2), tubes=(tube,), marker="s3", id="g")
        )
        codes = {v.code for v in validate(d)}
        assert ViolationCode.STATE_TUBE_ENDPOINT in codes
        assert ViolationCode.STATE_MARKER_MISPLACED in codes

    def test_marker_on_tube_is_in_transition(self):
        d = Diagram()
        s1 = d.add_element(Element(kind=Kind.STATE_CIRCLE, id="s1"))
        s2 = d.add_element(Element(kind=Kind.STATE_CIRCLE, id="s2"))
        tube = d.add_edge(Edge(kind=EdgeKind.TUBE, source=s1, target=s2, id="t"))
        d.add_group(StateDiagramGroup(states=(s1, s2), tubes=(tube,), marker=tube, id="g"))
        assert validate(d) == []

    def test_attend_ring_needs_data_motion(self):
        d = Diagram()
        mover = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o"))
        cargo = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="rock"))
        m = d.add_edge(Edge(kind=EdgeKind.MOTION, source=mover, id="m"))
        d.bind_attribute(m, AttributeBinding("moves", Text(cargo)))
        d.add_element(
            Element(kind=Kind.ATTEND_RING, payload=GenericPayload(props={"edge": m}), id="ring")
        )
        codes = [v.code for v in validate(d)]
        assert codes == [ViolationCode.ATTEND_NOT_DATA]

    def test_attend_ring_on_data_motion_is_clean(self):
        d = Diagram()
        mover = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o"))
        msg = d.add_element(Element(kind=Kind.DATA_OBJECT_CIRCLE, id="msg"))
        m = d.add_edge(Edge(kind=EdgeKind.MOTION, source=mover, id="m"))
        d.bind_attribute(m, AttributeBinding("moves", Text(msg)))
        d.add_element(
            Element(kind=Kind.ATTEND_RING, payload=GenericPayload(props={"edge": m}), id="ring")
        )
        assert validate(d) == []

    def test_validate_is_idempotent_and_pure(self):
        rng = random.Random(77)
        for _ in range(25):
            d = random_diagram(rng)
            before = serialize(d)
            first = validate(d)
            second = validate(d)
            assert first == second
            assert serialize(d) == before


class TestScova:
    def test_motion_is_change_like(self):
        assert scova_classify("MotionArrow") is BasicKind.C
        assert scova_classify(EdgeKind.MOTION) is BasicKind.C

    def test_value_bar_is_value_like(self):
        assert scova_classify("ValueBar") is BasicKind.V
        assert scova_classify(Kind.VALUE_BAR) is BasicKind.V

    def test_total_and_exactly_five_letters(self):
        letters = {scova_classify(name) for name in all_classifiable_kinds()}
        assert letters == set(BasicKind)
        assert len(BasicKind) == 5

    def test_every_element_edge_group_kind_is_classified(self):
        from tumbug.model import GroupKind

        for kind in (*Kind, *EdgeKind, *GroupKind):
            assert scova_classify(kind) in BasicKind

    def test_spot_classifications(self):
        assert scova_classify(Kind.ATTEND_RING) is BasicKind.A
        assert scova_classify("AttributeLine") is BasicKind.A
        assert scova_classify("Wildcard") is BasicKind.V
        assert scova_classify("RangeCap") is BasicKind.V
        assert scova_classify(Kind.CORRELATION_BOX) is BasicKind.C
        assert scova_classify(Kind.MOTIVATION_TRIANGLE) is BasicKind.S
        assert scova_classify(Kind.ZOOM_BOX_PAIR) is BasicKind.S
        assert scova_classify("StateDiagram") is BasicKind.S
        assert scova_classify(EdgeKind.TUBE) is BasicKind.O

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            scova_classify("Frobnicator")

    def test_generalized_blocks_are_not_concrete_inputs(self):
        for abstract in ("Nonquan", "IAM", "ChangeArrow"):
            with pytest.raises(UnknownKind):
                scova_classify(abstract)


class TestGeneralize:
    def test_aggregation_box_is_nonquan_and_iam(self):
        assert generalize(Kind.AGGREGATION_BOX) == {"Nonquan", "IAM"}

    def test_force_arrow_is_change_arrow(self):
        assert generalize("ForceArrow") == {"ChangeArrow"}

    def test_attribute_line_is_other(self):
        assert generalize("AttributeLine") == {"Other"}

    def test_object_circle_is_nonquan(self):
        assert generalize(Kind.PHYSICAL_OBJECT_CIRCLE) == {"Nonquan"}

    def test_state_diagram_group_is_iam(self):
        assert generalize("StateDiagramGroup") == {"IAM"}

    def test_generalized_blocks_themselves_are_not_inputs(self):
        with pytest.raises(UnknownKind):
            generalize("ChangeArrow")


class TestResolveQuery:
    def make_cars(self):
        d = Diagram()
        car = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, payload=GenericPayload(label="Bobs car"), id="car"))
        d.bind_attribute(car, AttributeBinding("color", Text("red")))
        return d

    def test_bound_value(self):
        d = self.make_cars()
        assert resolve_query(d, "car", "color") == Text("red")

    def test_absent_is_dk(self):
        d = self.make_cars()
        assert resolve_query(d, "car", "mileage") is Wildcard.DK

    def test_bound_dk_stays_dk(self):
        d = self.make_cars()
        d.bind_attribute("car", AttributeBinding("weight", Wildcard.DK))
        assert resolve_query(d, "car", "weight") is Wildcard.DK

    def test_one_relationship_hop(self):
        d = Diagram()
        grace = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="grace"))
        sweater = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="sweater"))
        d.bind_attribute(sweater, AttributeBinding("clothing-type", Text("sweater")))
        d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source=grace, target=sweater, id="owns"))
        assert resolve_query(d, "grace", "clothing-type") == Text("sweater")

    def test_lowest_edge_id_wins_between_competing_hops(self):
        d = Diagram()
        for eid in ("grace", "jacket", "sweater", "scarf"):
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
        d.bind_attribute("jacket", AttributeBinding("clothing-type", Text("jacket")))
        d.bind_attribute("sweater", AttributeBinding("clothing-type", Text("sweater")))
        # Inserted in the opposite order to their ids; an edge into an
        # unbound owner and an incoming edge come before both.
        d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="grace", target="jacket", id="r3"))
        d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="grace", target="sweater", id="r2"))
        d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="grace", target="scarf", id="r1"))
        d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="jacket", target="grace", id="r0"))
        d.add_edge(Edge(kind=EdgeKind.MOTION, source="grace", target="jacket", id="m0"))
        assert resolve_query(d, "grace", "clothing-type") == Text("sweater")
        assert resolve_query(d, "jacket", "clothing-type") == Text("jacket")
        assert resolve_query(d, "scarf", "clothing-type") is Wildcard.DK

    def test_unknown_owner(self):
        d = self.make_cars()
        with pytest.raises(UnknownOwner):
            resolve_query(d, "ghost", "color")

    def test_query_does_not_mutate(self):
        d = self.make_cars()
        snapshot = copy.deepcopy(d)
        resolve_query(d, "car", "color")
        resolve_query(d, "car", "nothing-bound")
        assert serialize(d) == serialize(snapshot)
        assert d == snapshot
