import math
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tumbug import dsl
from tumbug.dsl import ParseError, SourceSpan, _tokenize_line, parse, serialize
from tumbug.model import (
    AttributeBinding,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    GenericPayload,
    GroupKind,
    Kind,
    ModelError,
    Position,
    new_diagram,
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
    Text,
    Wildcard,
)

from conftest import random_diagram


def fox_text():
    return 'elem o1 PhysicalObjectCircle label="fox"\nattr o1 speed="quick"\n'


class TestParse:
    def test_fox(self):
        d = parse(fox_text())
        assert len(d.elements) == 1
        assert d.elements["o1"].label == "fox"
        assert d.bindings == [("o1", AttributeBinding("speed", Text("quick")))]

    def test_empty_input(self):
        d = parse("")
        assert d == new_diagram()
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

    def test_text_escapes(self):
        tricky = 'say "hi"\n\tback\\slash #x'
        d = new_diagram()
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o"))
        d.bind_attribute("o", AttributeBinding("quote", Text(tricky)))
        text = serialize(d)
        assert "\n" in text and text.count("\n") == 2  # still two records
        assert parse(text).bindings[0][1].value == Text(tricky)

    def test_bad_literal_rejected(self):
        for bad in ("range[5,-5]", "exist[2]", "fuzzy[x:3,2,1]", "range[a,b]", "nope["):
            with pytest.raises(ParseError):
                parse(f"elem o1 PhysicalObjectCircle\nattr o1 a={bad}\n")


class TestWholeTokenPatterns:
    """A slot must match as a whole: a pattern ending in ``$`` would also
    match before a final newline (test_values checks unit tags)."""

    def test_slot_with_a_final_newline_is_refused(self):
        with pytest.raises(ParseError) as err:
            parse('elem c1 CorrelationBox slots="a:o1.w\\n"\n')
        assert (err.value.expected, err.value.found) == ("slot as name:element.attribute", "a:o1.w\n")

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


class TestUnwritableNames:
    def test_meta_key_outside_key_syntax_is_refused_by_name(self):
        d = new_diagram()
        d.meta["a b"] = "x"
        with pytest.raises(ValueError, match="'a b'"):
            serialize(d)

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
            d = new_diagram()
            ids = ["b", "a", "c"] if reverse else ["c", "a", "b"]
            for eid in ids:
                d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id=eid))
            d.bind_attribute("a", AttributeBinding("z", Scalar(1)))
            d.bind_attribute("a", AttributeBinding("b", Scalar(2)))
            return d

        assert serialize(build(False)) == serialize(build(True))

    def test_canonical_ordering_sections(self):
        d = new_diagram()
        d.meta["title"] = "demo"
        d.add_element(Element(kind=Kind.AGGREGATION_BOX, id="zbox"))
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="a"), parent="zbox")
        d.add_edge(Edge(kind=EdgeKind.MOTION, source="a", id="m"))
        d.bind_attribute("a", AttributeBinding("x", Scalar(1)))
        lines = serialize(d).splitlines()
        keywords = [line.split()[0] for line in lines]
        assert keywords == ["meta", "elem", "elem", "contain", "edge", "attr"]

    def test_numbers_shortest_form(self):
        d = new_diagram()
        d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="o"))
        d.bind_attribute("o", AttributeBinding("n", Scalar(3.0)))
        assert 'attr o n=3' in serialize(d).splitlines()[-1]

    def test_int_and_float_numbers_print_alike(self):
        def build(x, y, w, h):
            d = new_diagram()
            d.add_element(Element(kind=Kind.VERBATIM_BOX, position=Position(x, y, w, h), id="v"))
            return d

        ints, floats = build(1, 2, 30, 40), build(1.0, 2.0, 30.0, 40.0)
        assert ints == floats
        assert serialize(ints) == serialize(floats)
        assert 'pos="1,2" size="30,40"' in serialize(ints)
        assert render(ints) == render(floats)

    @pytest.mark.parametrize("swap", [False, True])
    def test_darii_text_is_a_fixed_point(self, swap):
        for step in build_syllogism("darii", ("rabbits", "furry animals", "pets"), swap):
            text = serialize(step)
            assert serialize(parse(text)) == text


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
        d = new_diagram()
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
    """Character-by-character tokenizer: the specification _tokenize_line
    must match.  Whitespace separates tokens outside quotes, a backslash
    inside quotes escapes the next character, and ``#`` at the start of a
    token comments out the rest of the line."""
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
    return [(t[0], SourceSpan(*t[1:])) for t in _tokenize_line(line, lineno)]


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
        ],
    )
    def test_matches_reference_on_edge_cases(self, line):
        assert _tokenize_outcome(_tokens, line) == _tokenize_outcome(
            reference_tokenize, line
        )


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
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

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


def _unquote_outcome(unquote, raw: str):
    try:
        return unquote((raw, 1, 1, len(raw)), raw)
    except ParseError as exc:
        return ("error", exc.span, exc.expected, exc.found)


# Every character str.splitlines breaks a line on, besides \n and \r.
_LINE_BOUNDARIES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestQuotedStrings:
    @settings(max_examples=1000, deadline=None, database=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from('"\\nrtuU0aF9g'), st.characters())))
    def test_fast_path_agrees_with_the_checked_loop(self, body):
        raw = f'"{body}"'
        assert _unquote_outcome(dsl._unquote, raw) == _unquote_outcome(dsl._unescape, raw)

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from('"\\\n\r' + _LINE_BOUNDARIES), st.characters())))
    def test_quoted_text_is_one_line_and_reads_back(self, s):
        raw = dsl._quote(s)
        assert raw.splitlines() == [raw]
        assert _unquote_outcome(dsl._unquote, raw) == s

    def test_line_boundaries_are_the_ones_splitlines_knows(self):
        every_char = "".join(map(chr, range(sys.maxunicode + 1)))
        # Every piece but the last ends at a boundary.
        ends = {line[-1] for line in every_char.splitlines(keepends=True)[:-1]}
        assert ends == set("\n\r" + _LINE_BOUNDARIES)

    @pytest.mark.parametrize("char", _LINE_BOUNDARIES, ids=lambda c: f"U+{ord(c):04X}")
    def test_label_text_and_meta_round_trip(self, char):
        s = f"a{char}b"
        d = new_diagram()
        d.meta["title"] = s
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
