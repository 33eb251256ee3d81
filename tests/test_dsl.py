import copy
import gc
import inspect
import math
import pickle
import random
import re
import sys
import threading
import time
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tumbug import dsl
from tumbug.dsl import ParseError, SourceSpan, parse, serialize
from tumbug.model import (
    AttributeBinding,
    CAPayload,
    ConflictingDuplicate,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    GenericPayload,
    GroupKind,
    Kind,
    ModelError,
    MotivationTrianglePayload,
    Position,
    RobinsonIconPayload,
    SplitTimeGroup,
    StateDiagramGroup,
    SwirlyArrayPayload,
)
from tumbug.svg import render
from tumbug.templates import build_syllogism
from tumbug.values import (
    BallInRange,
    Const,
    ExistenceLevel,
    FuzzyLabel,
    Range,
    Scalar,
    IllegalText,
    Text,
    Wildcard,
    legal_text,
)

from conftest import random_diagram


def fox_text():
    return 'elem o1 PhysicalObjectCircle label="fox"\nattr o1 speed="quick"\n'


class TestParse:
    def test_fox(self):
        d = parse(fox_text())
        assert len(d.elements) == 1
        assert d.elements["o1"].label == "fox"
        assert d.bindings == (("o1", AttributeBinding("speed", Text("quick"))),)

    def test_empty_input(self):
        d = parse("")
        assert d == Diagram()
        assert serialize(d) == ""

    def test_comments_and_blanks(self):
        d = parse("# heading\n\n   \nelem a PhysicalObjectCircle # trailing\n")
        assert list(d.elements) == ["a"]

    def test_self_loop_motion(self):
        d = parse("elem o1 PhysicalObjectCircle\nedge m1 Motion o1 -> o1\n")
        edge = d.edges["m1"]
        assert edge.source == edge.target == "o1"

    def test_solitary_and_half_attached_edges(self):
        d = parse(
            "elem o1 PhysicalObjectCircle\n"
            "edge t1 Time ->\n"
            "edge m1 Motion o1 ->\n"
            "edge f1 Force -> o1 role=\"acted-upon\"\n"
        )
        assert d.edges["t1"].source is None and d.edges["t1"].target is None
        assert d.edges["m1"].source == "o1" and d.edges["m1"].target is None
        assert d.edges["f1"].target == "o1" and d.edges["f1"].role == "acted-upon"

    def test_containment_and_groups(self):
        d = parse(
            "elem box AggregationBox\n"
            "elem o1 PhysicalObjectCircle\n"
            "contain o1 box\n"
            "elem s1 StateCircle\n"
            "elem s2 StateCircle\n"
            "edge t1 Tube s1 -> s2\n"
            "group g1 StateDiagram members=s1,s2,t1 marker=s1\n"
        )
        assert d.containment == {"o1": "box"}
        g = d.groups["g1"]
        assert g.states == ("s1", "s2") and g.tubes == ("t1",) and g.marker == "s1"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("elem o1 Wheel\n")
        assert err.value.span.line == 1
        assert "Wheel" in err.value.found

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError):
            parse("elem o1 PhysicalObjectCircle\nelem o1 Cell\n")

    def test_error_spans_are_1_based(self):
        with pytest.raises(ParseError) as err:
            parse("elem o1 PhysicalObjectCircle\nbogus record here\n")
        span = err.value.span
        assert span.line == 2
        assert span.col_start == 1
        assert span.col_end >= span.col_start

    def test_unterminated_quote(self):
        with pytest.raises(ParseError):
            parse('elem o1 PhysicalObjectCircle label="open\n')

    def test_unknown_reference_rejected(self):
        with pytest.raises(ParseError):
            parse("elem o1 PhysicalObjectCircle\ncontain o1 ghost\n")
        with pytest.raises(ParseError):
            parse("edge m1 Motion ghost ->\n")
        with pytest.raises(ParseError):
            parse("attr ghost speed=3\n")

    def test_containment_cycle_rejected(self):
        with pytest.raises(ParseError):
            parse(
                "elem a AggregationBox\nelem b AggregationBox\n"
                "contain a b\ncontain b a\n"
            )

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ParseError):
            parse(
                "elem x XorBox\n"
                "edge t0 Time ->\nedge t1 Time ->\nedge t2 Time ->\n"
                "group g SplitTime members=t1,t2 trunk=t0 junction=x probs=0.9,0.9\n"
            )

    def test_bytes_input(self):
        assert parse(fox_text().encode()) == parse(fox_text())
        with pytest.raises(ParseError):
            parse(b"\xff\xfe\x00bogus")


class TestValueLiterals:
    @pytest.mark.parametrize(
        "literal,value",
        [
            ('"hi"', Text("hi")),
            ("3", Scalar(3)),
            ("-2.5", Scalar(-2.5)),
            ("18446744073709551616", Scalar(2.0**64)),
            ("85:kg", Scalar(85, "kg")),
            ("DK", Wildcard.DK),
            ("DC", Wildcard.DC),
            ("DNE", Wildcard.DNE),
            ("STAR", Wildcard.STAR),
            ("PLUS", Wildcard.PLUS),
            ("OPT", Wildcard.OPT),
            ("range[-5,5]", Range(-5, 5)),
            ("range(-5,5]", Range(-5, 5, False, True)),
            ("range[0,inf)", Range(0, None)),
            ("ball[1,3]", BallInRange(Range(1, 3))),
            ("exist[0.7]", ExistenceLevel(0.7)),
            ("fuzzy[few:0,0.15,0.45]", FuzzyLabel("few", 0, 0.15, 0.45)),
        ],
    )
    def test_literal_round_trip(self, literal, value):
        d = parse(f"elem o1 PhysicalObjectCircle\nattr o1 a={literal}\n")
        assert d.bindings[0][1].value == value
        assert serialize(d) == f"elem o1 PhysicalObjectCircle\nattr o1 a={literal}\n"

    def test_large_integral_scalar_round_trips_in_short_form(self):
        # It printed as 201 digits.
        d = parse("elem o1 PhysicalObjectCircle\nattr o1 w=1e200\n")
        assert serialize(d) == "elem o1 PhysicalObjectCircle\nattr o1 w=1e+200\n"
        assert parse(serialize(d)) == d

    def test_text_escapes(self):
        tricky = 'say "hi"\n\tback\\slash #x'
        d = Diagram()
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o"))
        d.bind_attribute("o", AttributeBinding("quote", Text(tricky)))
        text = serialize(d)
        assert "\n" in text and text.count("\n") == 2  # still two records
        assert parse(text).bindings[0][1].value == Text(tricky)

    def test_bad_literal_rejected(self):
        for bad in ("range[5,-5]", "exist[2]", "fuzzy[x:3,2,1]", "range[a,b]", "nope["):
            with pytest.raises(ParseError):
                parse(f"elem o1 PhysicalObjectCircle\nattr o1 a={bad}\n")

    @pytest.mark.parametrize(
        "record, span, expected, found",
        [
            ("attr o1 w=fuzzy[warm]", (9, 21), "fuzzy[name:lo,peak,hi]", "fuzzy[warm]"),
            ("attr o1 w=5:1m", (9, 14), "unit tag", "1m"),
            ("attr o1 w=range[1]", (9, 18), "range[lo,hi]", "[1]"),
            ("attr o1 w=range[1,2,3]", (9, 22), "two range bounds", "[1,2,3]"),
            (
                'elem m MotivationTriangle markers="automaton"',
                (27, 45), "marker as level:valence", "automaton",
            ),
        ],
    )
    def test_malformed_literal_faults_at_its_word(self, record, span, expected, found):
        with pytest.raises(ParseError) as err:
            parse(f"elem o1 PhysicalObjectCircle\n{record}\n")
        assert (err.value.span, err.value.expected, err.value.found) == (
            SourceSpan(2, *span), expected, found
        )


class TestWholeTokenPatterns:
    """A slot or number must match as a whole: a pattern ending in ``$`` would
    also match before a final newline (test_values checks unit tags)."""

    def test_slot_with_a_final_newline_is_refused(self):
        with pytest.raises(ParseError) as err:
            parse('elem c1 CorrelationBox slots="a:o1.w\\n"\n')
        assert (err.value.expected, err.value.found) == ("slot as name:element.attribute", "a:o1.w\n")

    @pytest.mark.parametrize("slot", ["a:n$1.w", "a:n1.w$", "a.n1:w", "a:n1", ":n1.w", "a:.w"])
    def test_a_malformed_slot_faults_at_the_slots_word(self, slot):
        # SlotSpec alone decides what a slot is, whichever part it refuses.
        with pytest.raises(ParseError) as err:
            parse(f'elem c1 CorrelationBox slots="{slot}"\n')
        span = SourceSpan(1, 24, 31 + len(slot))
        assert (err.value.span, err.value.expected, err.value.found) == (
            span, "slot as name:element.attribute", slot
        )

    @pytest.mark.parametrize(
        "record", ['elem v VerbatimBox pos="1,2\\n"', 'elem s SwirlyArray cells="c:1:2\\n"']
    )
    def test_number_with_a_final_newline_is_refused(self, record):
        with pytest.raises(ParseError) as err:
            parse(record + "\n")
        assert (err.value.expected, err.value.found) == ("number", "2\n")


class TestNonFiniteNumbers:
    """Numbers that overflow to inf (or arrive as nan) have no literal that
    parses back to them, so neither the parser nor the constructors take them."""

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("elem o1 PhysicalObjectCircle\nattr o1 a=range[0,1e999]\n", id="range-hi"),
            pytest.param("elem o1 PhysicalObjectCircle\nattr o1 a=range[1e999,1e999]\n", id="range-both"),
            pytest.param("elem o1 PhysicalObjectCircle\nattr o1 a=range[-1e999,0]\n", id="range-lo"),
            pytest.param("elem o1 PhysicalObjectCircle\nattr o1 a=fuzzy[few:0,1,1e999]\n", id="fuzzy"),
            pytest.param("elem o1 PhysicalObjectCircle\nattr o1 a=1e999\n", id="scalar"),
            pytest.param('elem o1 PhysicalObjectCircle pos="1e999,0"\n', id="pos"),
            pytest.param('elem o1 PhysicalObjectCircle pos="0,0" size="1,1e999"\n', id="size"),
            pytest.param('elem c1 CorrelationBox slots="a:o1.w" eq.a="1e999"\n', id="equation"),
            pytest.param('elem s1 SwirlyArray cells="c:1e999:0"\n', id="cell"),
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda x: Range(x, None), id="Range-lo"),
            pytest.param(lambda x: Range(None, x), id="Range-hi"),
            pytest.param(lambda x: Range(0, x), id="Range-bounded"),
            pytest.param(lambda x: FuzzyLabel("few", 0, 0, x), id="FuzzyLabel-hi"),
            pytest.param(lambda x: FuzzyLabel("few", x, x, x), id="FuzzyLabel-all"),
            pytest.param(lambda x: Position(x, 0), id="Position-x"),
            pytest.param(lambda x: Position(0, x), id="Position-y"),
            pytest.param(lambda x: Position(0, 0, 1, x), id="Position-h"),
            pytest.param(lambda x: Const(x), id="Const"),
        ],
    )
    def test_constructors_reject(self, build, bad):
        with pytest.raises((ValueError, ModelError)):
            build(bad)


class TestDuplicateIds:
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("elem o1 PhysicalObjectCircle\nelem o1 Cell\n", id="element"),
            pytest.param("elem o1 PhysicalObjectCircle\nedge o1 Time ->\n", id="edge-on-element"),
            pytest.param("edge t1 Time ->\nedge t1 Motion ->\n", id="edge"),
            pytest.param(
                "elem x XorBox\nedge t0 Time ->\nedge t1 Time ->\n"
                "group t1 SplitTime members=t1 trunk=t0 junction=x\n",
                id="group-on-edge",
            ),
        ],
    )
    def test_error_points_at_the_second_id(self, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        lines = text.splitlines()
        start = lines[-1].index(" ") + 2  # the id is the second token
        assert err.value.span == SourceSpan(len(lines), start, start + 1)


class TestRepeatedKeys:
    """elem, edge and group records share one key=value reader, which
    refuses a key that comes twice at its second word."""

    @pytest.mark.parametrize(
        "record, key",
        [
            pytest.param('elem o2 Cell label="a" label="b"', "label", id="elem"),
            pytest.param(
                'edge f Force o1 -> o2 role="exerts" role="acted-upon"', "role", id="edge-role"
            ),
            pytest.param("group g StateDiagram members=o1 owner=o1 owner=o2", "owner", id="group"),
        ],
    )
    def test_second_key_is_refused(self, record, key):
        with pytest.raises(ParseError) as err:
            parse(f"elem o1 StateCircle\n{record}\n")
        assert (err.value.expected, err.value.found) == ("unique key", key)
        start = record.rindex(" ") + 2
        assert err.value.span == SourceSpan(2, start, len(record))

    def test_other_edge_key_is_still_a_role_key_error(self):
        with pytest.raises(ParseError) as err:
            parse('edge f Force -> role="exerts" kind="x"\n')
        assert (err.value.expected, err.value.found) == ("role key", "kind")


_GROUP_SCENE = (
    "elem s1 StateCircle\nelem s2 StateCircle\nelem x XorBox\nelem o1 PhysicalObjectCircle\n"
    "edge t0 Time ->\nedge t1 Time ->\nedge t2 Time ->\nedge u1 Tube s1 -> s2\n"
)


class TestGroupRecords:
    """The group record format: each fault's word, expected and found, and
    the bytes serialize writes for both kinds."""

    @pytest.mark.parametrize(
        "record, at, expected, found",
        [
            ("group g StateDiagram", 2, "members=<id,...>", "no members key"),
            ("group g StateDiagram marker=s1 color=red", 2, "members=<id,...>", "no members key"),
            ("group g SplitTime trunk=t0 junction=x", 2, "members=<id,...>", "no members key"),
            ("group g SplitTime members=t1", 2, "trunk= and junction=", "missing keys"),
            ("group g SplitTime members=t1 trunk=t0", 2, "trunk= and junction=", "missing keys"),
            (
                "group g SplitTime members=t1 junction=x probs=z",
                2, "trunk= and junction=", "missing keys",
            ),
            # The model refuses an unknown member, owner, trunk or junction; the
            # fault is at the first word that names it, whatever key holds it.
            ("group g StateDiagram members=s1,ghost", 3, "insertable group", "ghost"),
            (
                "group g StateDiagram marker=s1 owner=ghost members=ghost",
                4, "insertable group", "ghost",
            ),
            ("group g StateDiagram members=s1 owner=ghost", 4, "insertable group", "ghost"),
            (
                "group g StateDiagram members=s1 marker=ghost owner=ghost",
                4, "insertable group", "ghost",
            ),
            ("group g SplitTime members=ghost trunk=t0 junction=x", 3, "insertable group", "ghost"),
            ("group g SplitTime members=t1,ghost trunk=t0 junction=x", 3, "insertable group", "ghost"),
            ("group g SplitTime members=t1 trunk=ghost junction=x", 4, "insertable group", "ghost"),
            ("group g SplitTime junction=o9 trunk=t0 members=t1", 3, "insertable group", "o9"),
            ("group g SplitTime members=t1 trunk= junction=x", 4, "insertable group", ""),
            # A stray key comes before any member.
            (
                "group g StateDiagram zz=1 marker=s1 owner=ghost members=ghost",
                3, "StateDiagram group key", "zz",
            ),
            ("group g StateDiagram members=s1 marker=a,b", 4, "insertable group", "a,b"),
            ("group s1 StateDiagram members=ghost", 1, "insertable group", "s1"),
            ("group s1 StateDiagram members=s2", 1, "insertable group", "s1"),
            ("group g StateDiagram members=s1 color=red", 4, "StateDiagram group key", "color"),
            ("group g StateDiagram members=s1 zz=1 aa=2", 5, "StateDiagram group key", "aa"),
            ("group g StateDiagram members=s1 probs=1", 4, "StateDiagram group key", "probs"),
            (
                "group g SplitTime members=t1 trunk=t0 junction=x marker=t1",
                6, "SplitTime group key", "marker",
            ),
            (
                "group g SplitTime members=t1,t2 trunk=t0 junction=x probs=0.5,x zz=1",
                6, "number", "x",
            ),
            (
                "group g SplitTime members=t1 trunk=t0 junction=x probs=1e999",
                6, "finite number", "1e999",
            ),
            (
                "group g SplitTime members=t1,t2 trunk=t0 junction=x probs=0.9,0.9",
                6, "legal probabilities", "branch probabilities sum to 1.8, not 1",
            ),
            (
                "group g SplitTime members=t1 trunk=t0 junction=x probs=",
                6, "legal probabilities", "one probability per branch required",
            ),
            ("group g StateDiagram members", 3, 'key="value"', "members"),
            ("group g StateDiagram members=s1 members=s2", 4, "unique key", "members"),
            ("group g Tree members=s1", 2, "group kind", "Tree"),
            ("group g", 0, "group <id> <Kind>", "end of record"),
        ],
    )
    def test_fault(self, record, at, expected, found):
        with pytest.raises(ParseError) as err:
            parse(_GROUP_SCENE + record + "\n")
        line = _GROUP_SCENE.count("\n") + 1
        start = sum(len(word) + 1 for word in record.split()[:at]) + 1
        span = SourceSpan(line, start, start + len(record.split()[at]) - 1)
        assert (err.value.span, err.value.expected, err.value.found) == (span, expected, found)

    @pytest.mark.parametrize(
        "group, line",
        [
            (StateDiagramGroup(), "group g StateDiagram members="),
            (
                StateDiagramGroup(("s1", "s2"), ("u1",), marker="u1", owner="o1"),
                "group g StateDiagram members=s1,s2,u1 marker=u1 owner=o1",
            ),
            (StateDiagramGroup(("s1",), marker="s1"), "group g StateDiagram members=s1 marker=s1"),
            (StateDiagramGroup(tubes=("u1",), owner="o1"), "group g StateDiagram members=u1 owner=o1"),
            (SplitTimeGroup("t0"), "group g SplitTime members= trunk=t0 junction="),
            (
                SplitTimeGroup("t0", ("t1", "t2"), "x"),
                "group g SplitTime members=t1,t2 trunk=t0 junction=x",
            ),
            (
                SplitTimeGroup("t0", ("t1", "t2"), "x", (0.25, 0.75)),
                "group g SplitTime members=t1,t2 trunk=t0 junction=x probs=0.25,0.75",
            ),
            (
                SplitTimeGroup("t0", ("t1",), "", (1,)),
                "group g SplitTime members=t1 trunk=t0 junction= probs=1",
            ),
        ],
    )
    def test_serialized_bytes(self, group, line):
        d = parse(_GROUP_SCENE)
        group.id = "g"
        d.add_group(group)
        assert serialize(d).splitlines()[-1] == line


class TestUnwritableNames:
    def test_meta_key_outside_key_syntax_is_refused_by_name(self):
        d = Diagram()
        with pytest.raises(ModelError, match="'a b'"):
            d.set_meta("a b", "x")
        assert d == Diagram()

    def test_bad_attribute_name_is_the_models_error_at_the_token(self):
        text = 'elem o1 PhysicalObjectCircle\nattr o1 a/b="x"\n'
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.span == SourceSpan(2, 9, 15)
        assert "illegal attribute name 'a/b'" in str(err.value)


class TestSerializeCanonical:
    def test_fox_round_trip(self):
        d = parse(fox_text())
        assert serialize(d) == fox_text()
        assert parse(serialize(d)) == d

    def test_insertion_order_does_not_matter(self):
        def build(reverse):
            d = Diagram()
            ids = ["b", "a", "c"] if reverse else ["c", "a", "b"]
            for eid in ids:
                d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
            d.bind_attribute("a", AttributeBinding("z", Scalar(1)))
            d.bind_attribute("a", AttributeBinding("b", Scalar(2)))
            return d

        assert serialize(build(False)) == serialize(build(True))

    def test_canonical_ordering_sections(self):
        d = Diagram()
        d.set_meta("title", "demo")
        d.add_element(Element(kind=Kind.AGGREGATION_BOX, id="zbox"))
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="a"), parent="zbox")
        d.add_edge(Edge(kind=EdgeKind.MOTION, source="a", id="m"))
        d.bind_attribute("a", AttributeBinding("x", Scalar(1)))
        lines = serialize(d).splitlines()
        keywords = [line.split()[0] for line in lines]
        assert keywords == ["meta", "elem", "elem", "contain", "edge", "attr"]

    def test_numbers_shortest_form(self):
        d = Diagram()
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o"))
        d.bind_attribute("o", AttributeBinding("n", Scalar(3.0)))
        assert 'attr o n=3' in serialize(d).splitlines()[-1]

    def test_int_and_float_numbers_print_alike(self):
        def build(x, y, w, h):
            d = Diagram()
            d.add_element(Element(kind=Kind.VERBATIM_BOX, position=Position(x, y, w, h), id="v"))
            return d

        ints, floats = build(1, 2, 30, 40), build(1.0, 2.0, 30.0, 40.0)
        assert ints == floats
        assert serialize(ints) == serialize(floats)
        assert 'pos="1,2" size="30,40"' in serialize(ints)
        assert render(ints) == render(floats)

    def test_attr_lines_are_the_binding_literals(self):
        rng = random.Random(23)
        for _ in range(30):
            d = random_diagram(rng)
            attr_lines = [line for line in serialize(d).splitlines() if line.startswith("attr ")]
            literals = dsl.binding_literals(d)
            assert attr_lines == [f"attr {o} {a}={lit}" for o, a, lit in literals]
            assert literals == sorted(literals)

    @pytest.mark.parametrize("swap", [False, True])
    def test_darii_text_is_a_fixed_point(self, swap):
        for step in build_syllogism("darii", ("rabbits", "furry animals", "pets"), swap):
            text = serialize(step)
            assert serialize(parse(text)) == text

    def test_one_text_is_written_alike_in_every_field(self):
        # serialize quotes each distinct pair text once per call; the text
        # of a label, a prop and a meta value, and a CA binding's literal
        # (itself quoted text), must each keep its own field's form.
        raw = 'a"b\\c\nd\te\u2028f'
        written = '"a\\"b\\\\c\\nd\\te\\u2028f"'
        literal = '"\\"a\\\\\\"b\\\\\\\\c\\\\nd\\\\te\\\\u2028f\\""'
        d = Diagram()
        d.set_meta("title", raw)
        d.add_element(Element(
            kind=Kind.PHYSICAL_OBJECT_CIRCLE, payload=GenericPayload(raw, {"note": raw}), id="o",
        ))
        d.add_element(Element(
            kind=Kind.CA_AGGREGATION_BOX,
            payload=CAPayload(
                forced=(AttributeBinding("f", Text(raw)),),
                detected=(AttributeBinding("t", Text(raw)),),
                label=raw,
            ),
            id="ca",
        ))
        for owner in ("ca", "o"):
            d.append_binding(owner, AttributeBinding("said", Text(raw)))
        text = serialize(d)
        assert text.splitlines() == [
            f"meta title={written}",
            f"elem ca CAAggregationBox detected.t={literal} forced.f={literal} label={written}",
            f"elem o PhysicalObjectCircle label={written} note={written}",
            f"attr ca said={written}",
            f"attr o said={written}",
        ]
        assert parse(text) == d
        assert serialize(parse(text)) == text

    def test_every_kind_is_written_by_its_name(self):
        from test_pins import EVERY_KIND_SCENE

        split = "group g2 SplitTime members=loop,solitary trunk=time junction=k14 probs=0.25,0.75\n"
        scene = EVERY_KIND_SCENE.replace("attr k0", split + "attr k0", 1)
        d = parse(scene)
        assert {el.kind for el in d.elements.values()} == set(Kind)
        assert {e.kind for e in d.edges.values()} == set(EdgeKind)
        assert {type(g) for g in d.groups.values()} == {StateDiagramGroup, SplitTimeGroup}
        text = serialize(d)
        assert text == scene
        lines = text.splitlines()
        kinds = {
            "elem": [el.kind for _, el in sorted(d.elements.items())],
            "edge": [e.kind for _, e in sorted(d.edges.items())],
            "group": [
                GroupKind.STATE_DIAGRAM if isinstance(g, StateDiagramGroup) else GroupKind.SPLIT_TIME
                for _, g in sorted(d.groups.items())
            ],
        }
        for record, expected in kinds.items():
            words = [line.split()[2] for line in lines if line.startswith(record + " ")]
            assert words == [kind.value for kind in expected]
        assert parse(text) == d


def _saved_scene() -> Diagram:
    """Two boxes, an object in the first, a Motion edge, a binding and a
    title, saved once."""
    d = Diagram()
    d.set_meta("title", "first")
    for box in ("b1", "b2"):
        d.add_element(Element(kind=Kind.AGGREGATION_BOX, id=box))
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o"), parent="b1")
    d.add_edge(Edge(kind=EdgeKind.MOTION, source="o", id="m"))
    d.bind_attribute("o", AttributeBinding("w", Scalar(1)))
    serialize(d)
    return d


class TestSavesAfterASave:
    """serialize keeps the line of each element and edge, and the literal of
    each binding, that it wrote; what a writer changes after a save is still
    written.  A copy keeps no lines, so its text is the reference."""

    def test_a_moved_child_is_written_in_its_new_box(self):
        d = _saved_scene()
        d.contain("o", "b2")
        text = serialize(d)
        assert "contain o b2" in text.splitlines() and "contain o b1" not in text
        assert text == serialize(copy.deepcopy(d)) and parse(text) == d

    def test_an_overwritten_meta_value_is_written(self):
        d = _saved_scene()
        d.set_meta("title", "second")
        text = serialize(d)
        assert text.splitlines()[0] == 'meta title="second"'
        assert text == serialize(copy.deepcopy(d)) and parse(text) == d

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))], ids=["deepcopy", "pickle"]
    )
    def test_a_copy_that_grows_after_a_save_writes_its_own_records(self, clone):
        d = _saved_scene()
        saved = serialize(d)
        twin = clone(d)
        assert serialize(twin) == saved
        # Both grow records of the same ids, each with its own text.
        for diagram, label in ((d, "mine"), (twin, "theirs")):
            payload = GenericPayload(label=label)
            diagram.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, payload=payload, id="a"))
            diagram.add_edge(Edge(kind=EdgeKind.MOTION, source="a", target="o", id="e"))
            diagram.bind_attribute("a", AttributeBinding("w", Text(label)))
        twin.add_edge(Edge(kind=EdgeKind.MOTION, source="o", target="a", id="f"))
        for diagram, label in ((d, "mine"), (twin, "theirs")):
            text = serialize(diagram)
            assert f'elem a PhysicalObjectCircle label="{label}"' in text.splitlines()
            assert f'attr a w="{label}"' in text.splitlines()
            assert text == serialize(copy.deepcopy(diagram)) and parse(text) == diagram
        assert "edge f Motion o -> a" in serialize(twin) and "edge f" not in serialize(d)

    def test_equal_literals_written_in_one_call_are_kept_as_one_string(self):
        # A diagram keeps the literals written of it, and bindings share few
        # values, so equal literals are kept once.
        d = Diagram()
        for eid in ("a", "b"):
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
            d.append_binding(eid, AttributeBinding("w", Scalar(1.5, "kg")))
        first, second = (literal for _, _, literal in dsl.binding_literals(d))
        assert first == second == "1.5:kg" and first is second

    def test_a_fill_formats_each_distinct_value_once(self, monkeypatch):
        # Equal values built apart, as a caller's bindings are, still share a literal.
        formatted = []
        monkeypatch.setattr(dsl, "value_literal", lambda v: formatted.append(v) or f"<{v}>")
        values = [Scalar(1.5, "kg"), Text("red"), Wildcard.DK, Range(0, 1), Scalar(2)]
        d = Diagram()
        for i in range(40):
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=f"o{i}"))
            value = copy.deepcopy(values[i % len(values)])
            d.append_binding(f"o{i}", AttributeBinding("w", value))
        literals = [literal for _, _, literal in dsl.binding_literals(d)]
        assert sorted(formatted, key=repr) == sorted(values, key=repr)
        assert len(literals) == 40 and len({id(s) for s in literals}) == len(values)
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="p"))
        d.append_binding("p", AttributeBinding("w", Text("red")))
        assert len(dsl.binding_literals(d)) == 41 and len(formatted) == len(values) + 1

    def test_saves_of_one_diagram_at_once_each_write_the_whole_text(self):
        # Each round grows the diagram, then eight threads save it at once
        # with a short switch interval.  A fill that grew one kept list of
        # literals and indexed it by length could give a thread a literal of
        # another binding.
        d = Diagram()
        texts: list[str] = []

        def save(barrier):
            barrier.wait(timeout=10)
            texts.append(serialize(d))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(12):
                for i in range(round_ * 25, round_ * 25 + 25):
                    eid = d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=f"o{i}"))
                    for attribute in ("v", "w"):
                        d.append_binding(eid, AttributeBinding(attribute, Scalar(i)))
                expected = serialize(copy.deepcopy(d))
                barrier = threading.Barrier(8)
                threads = [threading.Thread(target=save, args=(barrier,)) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert texts == [expected] * 8
                texts.clear()
        finally:
            sys.setswitchinterval(interval)


class TestRoundTripProperty:
    def test_100_random_diagrams(self):
        rng = random.Random(2024)
        for _ in range(100):
            d = random_diagram(rng)
            text = serialize(d)
            again = parse(text)
            assert again == d
            assert serialize(again) == text

    def test_fuzz_smoke(self):
        rng = random.Random(99)
        for _ in range(500):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
            try:
                parse(blob)
            except ParseError:
                pass

    def test_fuzz_printable_smoke(self):
        rng = random.Random(100)
        alphabet = 'elem edge attr group meta contain "= \n\t[](),->#x1'
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 300)))
            try:
                parse(text)
            except ParseError:
                pass

    def test_megabyte_noise_never_panics(self):
        rng = random.Random(101)
        for blob in (
            rng.randbytes(1 << 20),
            (b'elem ' * 200_000)[: 1 << 20],
            ("x" * (1 << 20)).encode(),
        ):
            with pytest.raises(ParseError):
                parse(blob)


class TestOddButLegalInputs:
    def test_empty_label_round_trips(self):
        text = 'elem o1 PhysicalObjectCircle label=""\n'
        d = parse(text)
        assert d.elements["o1"].payload.label == ""
        assert serialize(d) == text

    def test_props_round_trip(self):
        d = Diagram()
        d.add_element(
            Element(
                kind=Kind.ATTEND_RING,
                payload=GenericPayload(props={"edge": "m1", "z.99": "x"}),
                id="ring",
            )
        )
        # dangling edge prop: parses and serializes fine, validator's business
        assert parse(serialize(d)).elements["ring"].payload.props == {"edge": "m1", "z.99": "x"}

    def test_keyword_like_ids(self):
        d = parse("elem elem PhysicalObjectCircle\nelem edge Cell\n")
        assert set(d.elements) == {"elem", "edge"}

    def test_equals_inside_quoted_value(self):
        d = parse('elem o1 PhysicalObjectCircle\nattr o1 note="a=b"\n')
        assert d.bindings[0][1].value == Text("a=b")


# Documents in the DSL's shapes, from its own words: every record keyword and
# kind, few ids (so that references resolve), and per key a value it accepts
# followed by edge cases, most of them wrong for it.  Every record but the
# last takes the accepted values, so that parsing gets deep; the last may take
# any of them.
_VALUES = {
    "label": ["a", "", "\\q", "é"],
    "pos": ["1,2", "1e999,0", "1", ",", "a,b", "-0,.5"],
    "size": ["3,4", "3", "1,1e999"],
    "slots": ["a:o1.w,b:o2.w", "a:o1.", "::", "a:o1.w,a:o1.w", "é:o1.w", ","],
    "eq.a": ["(b+1)*2", "a/0", "1e999", "٣", "((((b", "b+", "a-(-(-1))", "b.c"],
    "cells": ["c:1:2", "c:1:2,c:1:2", ":1:2", "c:1e999:0", "c:1", ","],
    "active": ["c", "d", ","],
    "markers": ["physical:+", "physical:x", "x:+", ":", ","],
    "forced.w": ["3", "-0", "1e999", "range(1,0)", "exist[2]", "fuzzy[a:1,0,2]", "3:", "DK"],
    "detected.w": ["DK", "ball(1,1)", "range[-inf,inf]", "3:kg", "fuzzy[:1,1,1]", "exist[]"],
    "ellipsis": ["true", "false"],
    "valence": ["-", "+", "x"],
    "target": ["o1", ""],
    "role": ["exerts", "acted-upon", "r", ""],
    "marker": ["o1", "t1", "zz"],
    "owner": ["o1", "t1", "zz"],
    "trunk": ["t1", "o1", "zz"],
    "junction": ["x", "o1", ""],
    "probs": ["0.5,0.5", "1", "0.2,0.2", "-1,2", "1e999", ",", "a"],
    "w": ["range[0,1]", '"a"', "range(1,0)", "-0", "1e999", '"\\q"', '"', "DK", "STAR"],
    "DK": ["DK", "1"],
}


def _pairs(keys: str, quoted: bool, bad: bool, min_size: int, max_size: int):
    """key=value words as elem, edge and meta records (quoted) or group and
    attr records (bare) write them."""

    def value_for(key):
        values = st.sampled_from(_VALUES[key]) if bad else st.just(_VALUES[key][0])
        return values.map(lambda value: f'{key}="{value}"' if quoted else f"{key}={value}")

    pair = st.sampled_from(keys.split()).flatmap(value_for)
    return st.lists(
        pair, min_size=min_size, max_size=max_size, unique_by=lambda p: p.partition("=")[0]
    )


def _words(*parts):
    return st.tuples(*parts).map(
        lambda words: " ".join(w for p in words for w in ([p] if isinstance(p, str) else p))
    )


def _record(bad: bool):
    def ids(*good):
        return st.sampled_from([*good, *(["é", "a.b", "-", "1e999"] if bad else [])])

    elem_keys = "label pos size slots eq.a cells active markers forced.w detected.w ellipsis"
    elem = _words(
        st.just("elem"), ids("o1", "o2", "x"), st.sampled_from([k.value for k in Kind]),
        _pairs(elem_keys + " valence target", True, bad, 0, 3),
    )
    records = [
        elem,
        elem,
        _words(
            st.just("edge"), ids("t1", "t2"), st.sampled_from([k.value for k in EdgeKind]),
            st.sampled_from(["->", "-> o1", "o1 ->", "o1 -> o1", "o1 -> o2", "-> t1", "x -> x"]),
            _pairs("role", True, bad, 0, 1),
        ),
        _words(
            st.just("group"), ids("g1", "g2"), st.sampled_from([k.value for k in GroupKind]),
            st.sampled_from(["members=o1,t1", "members=t1", "members=o1"]),
            _pairs("marker owner trunk junction probs", False, bad, 0, 4),
        ),
        _words(
            st.just("attr"), ids("o1", "t1"), _pairs("w DK forced.w detected.w", False, bad, 1, 1)
        ),
        _words(st.just("meta"), _pairs("label w DK role", True, bad, 1, 1)),
    ]
    if bad:
        records.append(_words(st.just("contain"), ids("o1", "x"), ids("o2", "x")))
    return st.one_of(records)


_DOCUMENTS = st.builds(
    lambda good, bad: "\n".join(good + bad),
    st.lists(_record(False), max_size=8),
    st.lists(_record(True), max_size=1),
)


class TestParseRaisesOnlyParseError:
    """parse either returns a Diagram or raises ParseError, on any input."""

    @staticmethod
    def _outcome(text):
        try:
            return parse(text)
        except ParseError as exc:
            return exc

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.one_of(st.binary(max_size=300), st.text(max_size=200)))
    def test_arbitrary_bytes_and_text(self, blob):
        assert isinstance(self._outcome(blob), (Diagram, ParseError))

    @settings(max_examples=1000, deadline=None, database=None)
    @given(_DOCUMENTS)
    def test_dsl_fragments(self, text):
        assert isinstance(self._outcome(text), (Diagram, ParseError))


def reference_tokenize(line: str, lineno: int) -> list[tuple[str, SourceSpan]]:
    """Character-by-character tokenizer: the specification _split and
    _locate must match.  Whitespace separates tokens outside quotes, a
    backslash inside quotes escapes the next character, and ``#`` at the
    start of a token comments out the rest of the line."""
    tokens = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":
            break
        start = i
        in_quotes = False
        while i < n:
            c = line[i]
            if in_quotes:
                if c == "\\":
                    i += 2
                    continue
                if c == '"':
                    in_quotes = False
                i += 1
                continue
            if c == '"':
                in_quotes = True
                i += 1
                continue
            if c.isspace():
                break
            i += 1
        if in_quotes or i > n:
            raise ParseError(
                SourceSpan(lineno, start + 1, min(i, n)), "closing quote", "end of line"
            )
        tokens.append((line[start:i], SourceSpan(lineno, start + 1, i)))
    return tokens


def _tokenize_outcome(tokenize, line: str):
    try:
        return tokenize(line, 7)
    except ParseError as exc:
        return ("error", exc.span, exc.expected, exc.found)


def _tokens(line: str, lineno: int) -> list[tuple[str, SourceSpan]]:
    """Each word parse splits from a line, with the span parse reports for it."""
    return [
        (word, dsl._locate(lineno, line, i, "", "").span)
        for i, word in enumerate(dsl._split(line, lineno))
    ]


def _reference_words(line: str):
    """The reference tokens' texts, or the reference's fault."""
    outcome = _tokenize_outcome(reference_tokenize, line)
    return [text for text, _ in outcome] if isinstance(outcome, list) else outcome


def _split_outcome(line: str):
    """The words parse's splitter reads from a line.  On a line it refuses,
    parse raises the same fault when the line is the document's seventh."""
    try:
        return list(dsl._split(line, 7))
    except ParseError as exc:
        fault = (exc.span, exc.expected, exc.found)
    if line.splitlines() == [line]:
        with pytest.raises(ParseError) as err:
            parse("\n" * 6 + line)
        assert (err.value.span, err.value.expected, err.value.found) == fault
    return ("error", *fault)


# Quotes, backslashes, comment marks and whitespace on which str.isspace and
# the regex class \s could disagree (information separators, NEL, NBSP).
_TOKENIZER_ALPHABET = st.one_of(
    st.sampled_from('ab=#"\\ \t\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000'),
    st.characters(),
)


class TestTokenizer:
    def test_regex_whitespace_is_str_isspace(self):
        every_char = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every_char) == [c for c in every_char if c.isspace()]

    @settings(max_examples=1000, deadline=None, database=None)
    @given(st.text(alphabet=_TOKENIZER_ALPHABET, max_size=40))
    def test_matches_reference_tokenizer(self, line):
        assert _tokenize_outcome(_tokens, line) == _tokenize_outcome(
            reference_tokenize, line
        )
        # The splitter's C-level paths take only lines without a comment mark.
        for text in (line, line.replace("#", "")):
            assert _split_outcome(text) == _reference_words(text)

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "   ",
            "# only a comment",
            'elem o1 Cell label="a b" # trailing',
            'x"a\\"b"y next',
            'open "quote',
            'a "b\\',
            'a "b\\"',
            'a#b "#" #c',
            '""',
            '"',
            'k="v"" w',
            "tab\tsep\x1cinfo\x85nel\xa0nbsp",
            'k="a b"c"d e" w="" "x y"',
            '\u3000"q\x85q"\x1cz"\\""',
            'a "b" "c',
            '#"open',
            'a #"x',
            'a #b "c',
            '"x"#"y',
            'a#b "c',
            '"a" "b"#c "d',
        ],
    )
    def test_matches_reference_on_edge_cases(self, line):
        assert _tokenize_outcome(_tokens, line) == _tokenize_outcome(
            reference_tokenize, line
        )
        assert _split_outcome(line) == _reference_words(line)

    @pytest.mark.parametrize(
        "line, span, expected, found",
        [
            ("a" * 20000 + '"', SourceSpan(1, 1, 20001), "closing quote", "end of line"),
            ('a "b\\' * 4000, SourceSpan(1, 1, 1), "record keyword", "a"),
            ('"x" ' * 5000 + '"', SourceSpan(1, 20001, 20001), "closing quote", "end of line"),
            ('"x" ' * 5000 + '"open # c', SourceSpan(1, 20001, 20009), "closing quote", "end of line"),
            ("# " + '"' * 20000, None, None, None),
        ],
    )
    def test_long_lines_are_split_in_linear_time(self, line, span, expected, found):
        # A whole-line pattern in which a word has more than one reading
        # backtracks exponentially on each of these lines.  The last line is
        # a comment, which parses to an empty diagram.
        start = time.perf_counter()
        try:
            outcome = parse(line)
        except ParseError as exc:
            outcome = (exc.span, exc.expected, exc.found)
        assert time.perf_counter() - start < 1.0
        assert outcome == (Diagram() if span is None else (span, expected, found))


def _pattern_split(line: str, lineno: int) -> tuple[str, ...]:
    """_split with no str.split path: on a line without ``#``, the
    whole-line pattern and findall; else, or where the pattern refuses the
    line, the general path."""
    if "#" not in line and dsl._WORDS_RE.fullmatch(line):
        return tuple(dsl._WORD_RE.findall(line))
    if line.lstrip().startswith("#"):
        return ()
    end = dsl._WORDS_RE.match(line).end()
    if end < len(line) and line[end] != "#":
        raise ParseError(SourceSpan(lineno, end + 1, len(line)), "closing quote", "end of line")
    return tuple(dsl._WORD_RE.findall(line, 0, end))


# Quotes, backslashes, comment marks, separators on which a quoted body may
# or may not hold whitespace (tab, \x0b, \x0c, the information separator
# \x1f, the ideographic space) and the characters of key=value,list words.
_LEXER_ALPHABET = '"\\# \t\x0b\x0c\x1f\u3000=,ab'


class TestSplitPaths:
    @settings(max_examples=3000, deadline=None, database=None)
    @given(st.text(alphabet=_LEXER_ALPHABET, max_size=24))
    def test_split_agrees_with_the_patterns(self, line):
        # The str.split path must give the words, and every fault the same
        # span, as the two word patterns.
        assert _tokenize_outcome(dsl._split, line) == _tokenize_outcome(_pattern_split, line)

    @pytest.mark.parametrize(
        "line",
        [
            'elem o00001 PhysicalObjectCircle label="fox"',
            'attr o00001 color="cup"',
            'meta k="" w=a"b"c"d"e',
            'elem x Cell label=\\"a"',
            '\u3000a="b"\x1fc=""\t',
        ],
    )
    def test_quoted_bodies_without_whitespace_read_no_pattern(self, monkeypatch, line):
        class Refusing:
            def __getattr__(self, name):
                raise AssertionError(f"a pattern read {line!r}")

        expected = _pattern_split(line, 1)
        monkeypatch.setattr(dsl, "_WORD_RE", Refusing())
        monkeypatch.setattr(dsl, "_WORDS_RE", Refusing())
        assert dsl._split(line, 1) == expected == tuple(line.split())


def _lines_split_per_line(text: str):
    """dsl._lines with every line split by dsl._split, whatever the text: the
    reference for the one plain-split decision per text."""
    buckets = {key: [] for key in ("meta", "elem", "contain", "edge", "group", "attr")}
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = dsl._split(line, lineno)
        if not words:
            continue
        if words[0] not in buckets:
            raise dsl._locate(lineno, line, 0, "record keyword", words[0])
        buckets[words[0]].append((lineno, line, words))
    return buckets


def _parse_outcome(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return (exc.span, exc.expected, exc.found)


# Every line break str.splitlines knows is whitespace, and so are \xa0 and
# \u3000; the pieces put record words among them.
_PLAIN_ALPHABET = '"\\#=abl \t\r\n\x0b\x1c\x85\xa0\u3000'
_PLAIN_PIECES = st.one_of(
    st.text(alphabet=_PLAIN_ALPHABET, max_size=4),
    st.sampled_from(
        [
            "elem ", "o1 ", "o2 ", "Cell ", "PhysicalObjectCircle ", "attr ", "w=", "1",
            "edge t1 Force o1 -> ", "edge t2 Tube -> ", "role=", '"exerts"', "contain o1 o2",
            "meta k=", "label=", '"a"', '""', "\n",
        ]
    ),
)


class TestPlainTexts:
    """A text with no ``#``, whose quotes are even and whose quoted bodies
    hold no whitespace and no backslash, is split with str.split line by
    line; that decision is taken once per text.  A backslash outside the
    quotes leaves a text plain."""

    @settings(max_examples=1500, deadline=None, database=None)
    @given(st.lists(_PLAIN_PIECES, max_size=30).map("".join))
    def test_parse_agrees_with_a_split_per_line(self, text):
        expected = _parse_outcome(text)
        with mock.patch.object(dsl, "_lines", _lines_split_per_line):
            assert _parse_outcome(text) == expected

    @pytest.mark.parametrize(
        "text, plain",
        [
            ('elem o1 Cell label="a"\nattr o1 w="b"\n', True),
            ("elem o1 Cell\n", True),
            ('elem o1 Cell label="a b"\n', False),
            ('elem o1 Cell label="a\x85b"\n', False),
            ('elem o1 Cell label="a\\tb"\n', False),
            ("elem o1 Cell label=a\\b\n", True),
            ('elem o1 Cell label="a"\nattr o1 w=a\\b\n', True),
            ('elem o1 Cell label="a"\n# note\n', False),
            ('elem o1 Cell label="a\n', False),
        ],
    )
    def test_only_a_plain_text_skips_the_per_line_split(self, text, plain):
        real, calls = dsl._split, []

        def split(line, lineno):
            calls.append(lineno)
            return real(line, lineno)

        with mock.patch.object(dsl, "_split", split):
            _parse_outcome(text)
        assert (not calls) == plain

    @pytest.mark.parametrize(
        "word, expected, found",
        [
            ('label="\\q"', "known escape", "\\q"),
            ('label="a\x01"', "legal text", None),
            ('a/b="x"', 'key="value"', 'a/b="x"'),
            ("label=x", "quoted string", "x"),
        ],
    )
    def test_a_bad_elem_word_on_two_lines_faults_at_the_first(self, word, expected, found):
        text = f"meta k=\"v\"\nelem o1 Cell {word}\nelem o2 Cell {word}\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.span == SourceSpan(2, 14, 13 + len(word))
        assert err.value.expected == expected
        if found is not None:
            assert err.value.found == found

    @pytest.mark.parametrize(
        "text, span",
        [
            ('elem o1 Cell label="a"\nelem o2 Cell label="a" label="a"\n', (2, 24, 32)),
            ('elem o1 Cell label="a"\nelem o2 Cell label="b" label="a"\n', (2, 24, 32)),
            (
                'edge t1 Force -> role="exerts"\nedge t2 Force -> role="exerts" role="exerts"\n',
                (2, 32, 44),
            ),
        ],
    )
    def test_a_duplicate_key_on_a_shared_word_faults_at_that_word(self, text, span):
        with pytest.raises(ParseError) as err:
            parse(text)
        e = err.value
        assert ((e.span.line, e.span.col_start, e.span.col_end), e.expected) == (span, "unique key")


def _generated_text(n_boxes: int) -> str:
    """A clean document of ten elements per box that uses every record
    keyword and value literal, with quoted strings both with and without
    escapes."""
    literals = [
        '"x"', '"a\\tb \\"c\\""', "3:kg", "-0.5", "DK", "range[0,1)", "ball(-inf,2]",
        "exist[0.5]", "fuzzy[warm:1,2,3]",
    ]
    lines = ['meta title="a \\"quoted\\" scene"', "edge t0 Time ->", "elem x0 XorBox"]
    for b in range(n_boxes):
        o = [f"o{b}-{i}" for i in range(9)]
        lines.append(f'elem b{b} AggregationBox label="box {b}"')
        for i, eid in enumerate(o):
            lines.append(f'elem {eid} PhysicalObjectCircle label="fox" pos="{b},{i}" size="4,3"')
            lines.append(f"contain {eid} b{b}")
        lines += [
            f"edge m{b} Motion {o[0]} -> {o[1]}",
            f'edge f{b} Force {o[2]} -> {o[3]} role="exerts"',
            f"edge s{b} Tube {o[4]} -> {o[5]}",
            f"group g{b} StateDiagram members={o[4]},{o[5]},s{b} marker={o[4]}",
            f"group h{b} SplitTime members=m{b} trunk=t0 junction=x0 probs=1",
            f"attr {o[0]} v={literals[b % len(literals)]}",
            f"attr m{b} speed=2:m/s",
        ]
    return "\n".join(lines) + "\n"


class TestTokensKeepNoSpans:
    def test_clean_parse_builds_no_source_span(self, monkeypatch):
        built = []

        class CountingSpan(SourceSpan):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(dsl, "SourceSpan", CountingSpan)
        text = _generated_text(100)
        assert len(parse(text).elements) == 1001
        rng = random.Random(6)
        for _ in range(30):
            parse(serialize(random_diagram(rng)))
        assert built == []
        with pytest.raises(ParseError) as err:
            parse(text + "elem b0 Cell\n")
        assert built == [err.value.span]

    def test_only_a_faulty_line_is_tokenized_with_positions(self, monkeypatch):
        located = []
        locate = dsl._locate

        def counting(lineno, *args):
            located.append(lineno)
            return locate(lineno, *args)

        monkeypatch.setattr(dsl, "_locate", counting)
        text = _generated_text(100)
        # Comment lines take the splitter's general path and locate nothing.
        commented = "# a whole-line comment\n" + text.replace(
            "elem x0 XorBox", 'elem x0 XorBox # a "trailing" comment'
        )
        assert len(parse(commented).elements) == 1001
        assert located == []
        faulty = text.replace('pos="3,4"', 'pos="3,x"')
        lineno = faulty.splitlines().index(
            'elem o3-4 PhysicalObjectCircle label="fox" pos="3,x" size="4,3"'
        ) + 1
        with pytest.raises(ParseError) as err:
            parse(faulty)
        assert err.value.span == SourceSpan(lineno, 44, 52)
        assert (err.value.expected, err.value.found) == ("number", "x")
        assert located == [lineno]

    def test_every_line_is_tokenized_before_any_record_is_built(self):
        lines = ["elem o1 PhysicalObjectCircle", "elem o2 NoSuchKind"]
        lines += [f"elem o{i} Cell" for i in range(3, 9)]
        text = "\n".join(lines) + "\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.span == SourceSpan(2, 9, 18)
        with pytest.raises(ParseError) as err:
            parse(text + 'elem o9 Cell label="open\n')
        assert err.value.span == SourceSpan(9, 14, 24)
        assert (err.value.expected, err.value.found) == ("closing quote", "end of line")


class TestCollectorIsPaused:
    # Parse builds tens of thousands of objects and frees none of them, so
    # the cyclic collector is paused while it runs and restored after.
    def test_parse_runs_with_the_collector_paused(self, monkeypatch):
        seen = []
        decode = dsl._decode

        def recording(*args):
            seen.append(gc.isenabled())
            return decode(*args)

        monkeypatch.setattr(dsl, "_decode", recording)
        assert gc.isenabled()
        assert len(parse(_generated_text(2)).elements) == 21
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_a_refused_parse_enables_the_collector_again(self):
        with pytest.raises(ParseError):
            parse("elem o1 NoSuchKind\n")
        assert gc.isenabled()
        with pytest.raises(ParseError):
            parse(b"\xff")
        assert gc.isenabled()

    def test_a_collector_the_caller_turned_off_stays_off(self):
        gc.disable()
        try:
            parse(_generated_text(1))
            assert not gc.isenabled()
            with pytest.raises(ParseError):
                parse("elem o1 NoSuchKind\n")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_the_signature_and_name_are_unchanged(self):
        assert str(inspect.signature(parse)) == "(text: 'str | bytes') -> 'Diagram'"
        assert (parse.__name__, parse.__module__) == ("parse", "tumbug.dsl")
        assert parse.__doc__.startswith("Parse DSL text into a diagram")
        assert parse.__wrapped__ is not parse


class TestWholeLineComments:
    @pytest.mark.parametrize(
        "line", ["#", "# note", '  \t# "open', "#" + '"' * 20000], ids=["bare", "note", "open", "long"]
    )
    def test_no_pattern_reads_a_whole_line_comment(self, monkeypatch, line):
        # A comment's words are never read, so no pattern runs through one.
        class Refusing:
            def __getattr__(self, name):
                raise AssertionError(f"a pattern read {line[:20]!r}")

        monkeypatch.setattr(dsl, "_WORD_RE", Refusing())
        monkeypatch.setattr(dsl, "_WORDS_RE", Refusing())
        assert parse(line + "\nelem o1 Cell\n") == parse("elem o1 Cell\n")


_SHARED_TEXT = (
    "elem o1 PhysicalObjectCircle\nelem o2 PhysicalObjectCircle\nedge m Motion o1 -> o2\n"
    'attr o1 color="red"\nattr o2 color="red"\nattr m color="red"\n'
    "attr o1 mass=3:kg\nattr o2 mass=3.0:kg\n"
)


class TestSharedBindings:
    """Equal attr words in one parse share one frozen binding; nothing is
    shared between parses."""

    def test_equal_words_in_one_parse_give_one_binding(self):
        d = parse(_SHARED_TEXT)
        reds = [b for _, b in d.bindings if b.attribute == "color"]
        assert len(reds) == 3 and all(b is reds[0] for b in reds)
        # Equal values written apart are equal, not shared.
        masses = [b for _, b in d.bindings if b.attribute == "mass"]
        assert masses[0] == masses[1] and masses[0] is not masses[1]

    def test_two_parses_share_no_binding(self):
        first, second = parse(_SHARED_TEXT), parse(_SHARED_TEXT)
        assert first == second
        ids = lambda d: {id(b) for _, b in d.bindings} | {id(b.value) for _, b in d.bindings}
        assert not ids(first) & ids(second)

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))], ids=["deepcopy", "pickle"]
    )
    def test_copies_compare_equal(self, clone):
        d = parse(_SHARED_TEXT)
        again = clone(d)
        assert again == d and serialize(again) == serialize(d)
        again.bind_attribute("o1", AttributeBinding("color", Text("red")))
        with pytest.raises(ConflictingDuplicate):
            again.bind_attribute("o2", AttributeBinding("color", Text("blue")))

    def test_a_conflicting_bind_after_parse_is_refused(self):
        d = parse(_SHARED_TEXT)
        d.bind_attribute("o1", AttributeBinding("color", Text("red")))
        for owner in ("o1", "o2", "m"):
            with pytest.raises(ConflictingDuplicate):
                d.bind_attribute(owner, AttributeBinding("color", Text("blue")))
        assert [b.value for o, b in d.bindings if o == "o2"] == [Text("red"), Scalar(3.0, "kg")]

    @pytest.mark.parametrize(
        "word, expected, found",
        [
            ("w=1e999", "finite number", "1e999"),
            ("a/b=1", "legal binding", None),
            ("w=", "attribute=value", "w="),
        ],
    )
    def test_a_bad_word_on_two_lines_faults_at_the_first(self, word, expected, found):
        text = f"elem o1 PhysicalObjectCircle\nattr o1 {word}\nattr o1 {word}\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.span == SourceSpan(2, 9, 8 + len(word))
        assert err.value.expected == expected
        if found is not None:
            assert err.value.found == found


class TestTrailingComments:
    """A word that starts with ``#`` begins the comment; a ``#`` inside a
    quoted string or later in a word does not."""

    @pytest.mark.parametrize(
        "line, outcome",
        [
            pytest.param(
                'elem o1 Cell label="a # b"',
                [("elem", 1, 4), ("o1", 6, 7), ("Cell", 9, 12), ('label="a # b"', 14, 26)],
                id="inside-quotes",
            ),
            pytest.param(
                'attr o1 a#b="#"', [("attr", 1, 4), ("o1", 6, 7), ('a#b="#"', 9, 15)], id="inside-a-word"
            ),
            pytest.param(
                'elem o1 Cell label="x" # "open',
                [("elem", 1, 4), ("o1", 6, 7), ("Cell", 9, 12), ('label="x"', 14, 22)],
                id="after-quotes",
            ),
            pytest.param(
                'elem o1 Cell label="x"#c',
                [("elem", 1, 4), ("o1", 6, 7), ("Cell", 9, 12), ('label="x"#c', 14, 24)],
                id="glued-to-quotes",
            ),
            pytest.param('elem o1 Cell label="open # x', (14, 28), id="after-an-unclosed-quote"),
            pytest.param('elem o1 Cell label="a # "b" # c', (14, 31), id="after-a-reopened-quote"),
            pytest.param(
                "elem o1 Cell # " + '"' * 20000,
                [("elem", 1, 4), ("o1", 6, 7), ("Cell", 9, 12)],
                id="long-comment",
            ),
        ],
    )
    def test_words_and_spans(self, line, outcome):
        if isinstance(outcome, tuple):  # the unclosed quote's span
            outcome = ("error", SourceSpan(7, *outcome), "closing quote", "end of line")
        else:
            outcome = [(word, SourceSpan(7, start, end)) for word, start, end in outcome]
        assert _tokenize_outcome(_tokens, line) == outcome
        assert _tokenize_outcome(reference_tokenize, line) == outcome
        assert _split_outcome(line) == _reference_words(line)

    def test_the_words_pattern_stops_at_the_comment(self):
        # The comment is cut before either pattern reads it, so a long one
        # costs no more than a whole-line comment.
        line = "elem o1 Cell # " + '"' * 20000
        assert dsl._WORDS_RE.match(line).end() == line.index("#")
        assert parse(line + "\n") == parse("elem o1 Cell\n")


def _unquote_outcome(unquote, raw: str):
    try:
        return unquote(0, raw)
    except dsl._Fault as fault:
        return ("error", *fault.args)


# Every character str.splitlines breaks a line on, besides \n and \r.
_LINE_BOUNDARIES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _illegal_chars(s: str) -> list[str]:
    """The characters of s that XML 1.0 or UTF-8 cannot carry: C0 controls
    but tab, newline and carriage return, U+FFFE, U+FFFF and surrogates."""
    return [
        c for c in s
        if (c < " " and c not in "\t\n\r") or c in "\ufffe\uffff" or "\ud800" <= c <= "\udfff"
    ]


# Every text field of the model, each written with one text.
_TEXT_FIELDS = {
    "label": lambda s: GenericPayload(label=s),
    "prop": lambda s: GenericPayload(props={"note": s}),
    "Text": Text,
    "meta": lambda s: Diagram().set_meta("title", s),
    "ca-label": lambda s: CAPayload(label=s),
    "triangle-label": lambda s: MotivationTrianglePayload(label=s),
    "triangle-robinson": lambda s: MotivationTrianglePayload(robinson=s),
    "icon-label": lambda s: RobinsonIconPayload(label=s),
    "icon-subnode": lambda s: RobinsonIconPayload(subnode=s),
    "icon-target": lambda s: RobinsonIconPayload(("Cathected",), cathected_target=s),
    "swirly-label": lambda s: SwirlyArrayPayload(label=s),
    "swirly-cell": lambda s: SwirlyArrayPayload(cells=((s, 0.0, 0.0),)),
}
_TEXT_ALPHABET = st.one_of(
    st.sampled_from("ab \x00\x01\x08\t\n\x0b\r\x1f\x7f\x85\u2028\ud800\udfff\ufffd\ufffe\uffff"),
    st.characters(),
)


class TestTextLegality:
    @pytest.mark.parametrize("field", _TEXT_FIELDS)
    def test_every_text_field_refuses_what_svg_or_utf8_cannot_carry(self, field):
        for char in "\x00\x08\x0b\x0c\x0e\x1f\ud800\udfff\ufffe\uffff":
            with pytest.raises(IllegalText):
                _TEXT_FIELDS[field](f"a{char}b")
        _TEXT_FIELDS[field]("a\t\n\r\x7f\x85\ufffdb")

    @pytest.mark.parametrize("field", ["prop", "Text", "meta"])
    def test_a_required_text_field_refuses_none(self, field):
        # serialize has no text to write for it.
        with pytest.raises(TypeError):
            _TEXT_FIELDS[field](None)

    def test_a_control_character_label_never_reaches_the_svg(self):
        # Such a label once rendered SVG that XML parsers refuse.
        with pytest.raises(IllegalText, match="x01"):
            GenericPayload(label="a\x01b")

    def test_a_surrogate_label_never_reaches_the_text(self):
        # Such a label once serialized to text with no UTF-8 form.
        with pytest.raises(IllegalText, match="ud800"):
            GenericPayload(label="a\ud800b")

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.text(alphabet=_TEXT_ALPHABET, max_size=12))
    def test_text_is_refused_or_carried_to_svg_and_utf8(self, s):
        d = Diagram()
        try:
            payload = GenericPayload(label=s, props={"note": s})
            d.set_meta("title", s)
            d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, payload=payload, id="o1"))
            d.bind_attribute("o1", AttributeBinding("note", Text(s)))
        except IllegalText:
            assert _illegal_chars(s)
            return
        assert not _illegal_chars(s)
        text = serialize(d)
        assert parse(text.encode("utf-8")) == d
        ET.fromstring(render(d).encode("utf-8"))

    @pytest.mark.parametrize(
        "record, at",
        [
            ('meta title="a\\u0001b"', 1),
            ('elem o1 PhysicalObjectCircle pos="1,2" label="a\x01b"', 4),
            ('elem o1 PhysicalObjectCircle label="a\ud800b"', 3),
            ('elem o1 PhysicalObjectCircle note="\\uFFFE"', 3),
            ('elem o1 CAObjectCircle forced.w="\\"a\\\\u0001\\""', 3),
            ('elem s1 SwirlyArray cells="c\x02:1:2"', 3),
            ('elem o1 PhysicalObjectCircle\nattr o1 note="\\uffff"', 2),
        ],
    )
    def test_parse_refuses_illegal_text_at_its_word(self, record, at):
        with pytest.raises(ParseError) as err:
            parse(record + "\n")
        last = record.splitlines()[-1]
        start = sum(len(word) + 1 for word in last.split()[:at]) + 1
        span = SourceSpan(len(record.splitlines()), start, start + len(last.split()[at]) - 1)
        assert (err.value.span, err.value.expected) == (span, "legal text")


class TestQuotedStrings:
    @settings(max_examples=1000, deadline=None, database=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from('"\\nrtuU0aF9g'), st.characters())))
    def test_fast_path_agrees_with_the_checked_loop(self, body):
        # Both read the same text; _unquote alone then refuses illegal text.
        raw = f'"{body}"'
        read, looped = _unquote_outcome(dsl._unquote, raw), _unquote_outcome(dsl._unescape, raw)
        if read[:3] == ("error", 0, "legal text"):
            with pytest.raises(IllegalText):
                legal_text(looped)
        else:
            assert read == looped

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from('"\\\n\r' + _LINE_BOUNDARIES), st.characters())))
    def test_quoted_text_is_one_line_and_reads_back(self, s):
        raw = dsl._quote(s)
        assert raw.splitlines() == [raw]
        if _illegal_chars(s):
            assert _unquote_outcome(dsl._unquote, raw)[:3] == ("error", 0, "legal text")
        else:
            assert _unquote_outcome(dsl._unquote, raw) == s

    def test_line_boundaries_are_the_ones_splitlines_knows(self):
        every_char = "".join(map(chr, range(sys.maxunicode + 1)))
        # Every piece but the last ends at a boundary.
        ends = {line[-1] for line in every_char.splitlines(keepends=True)[:-1]}
        assert ends == set("\n\r" + _LINE_BOUNDARIES)

    # The other line boundaries are C0 controls, which no text may hold.
    @pytest.mark.parametrize("char", "\x85\u2028\u2029", ids=lambda c: f"U+{ord(c):04X}")
    def test_label_text_and_meta_round_trip(self, char):
        s = f"a{char}b"
        d = Diagram()
        d.set_meta("title", s)
        d.add_element(
            Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, payload=GenericPayload(label=s), id="o1")
        )
        d.bind_attribute("o1", AttributeBinding("note", Text(s)))
        text = serialize(d)
        assert text.count(f"a\\u{ord(char):04x}b") == 3
        assert len(text.splitlines()) == 3
        again = parse(text)
        assert again == d
        assert serialize(again) == text

    @pytest.mark.parametrize("char", _LINE_BOUNDARIES, ids=lambda c: f"U+{ord(c):04X}")
    def test_edge_role_reads_the_escape(self, char):
        # The model admits only two roles, so no line boundary round-trips in
        # one; the escape is still read, and the model refuses what it gives.
        head = "elem a PhysicalObjectCircle\nelem b PhysicalObjectCircle\nedge f Force a -> b "
        d = parse(head + 'role="acted\\u002Dupon"\n')
        assert d.edges["f"].role == "acted-upon"
        assert serialize(d).endswith(' role="acted-upon"\n')
        with pytest.raises(ParseError) as err:
            parse(head + f'role="\\u{ord(char):04x}"\n')
        if _illegal_chars(char):
            assert err.value.expected == "legal text"
        else:
            assert err.value.expected == "insertable edge"
            assert err.value.found == f"unknown force role {char!r}"

    @pytest.mark.parametrize(
        "body", ["\\u", "\\u12", "\\u12x4", "\\uZZZZ", "\\u+123", "\\ud800", "\\uDFFF"]
    )
    def test_short_or_bad_unicode_escape_is_refused(self, body):
        with pytest.raises(ParseError) as err:
            parse(f'elem o1 PhysicalObjectCircle label="{body}"\n')
        assert err.value.span == SourceSpan(1, 30, 37 + len(body))
        assert err.value.expected == "\\uXXXX, not a surrogate"
