"""Bindings are an unordered multiset: whatever order they are written in,
a diagram compares, serializes, validates, answers queries and renders the
same.  Serialize's order (owner, attribute, value literal) is the one order
that any reader sees, so of two values bound to one key, every reader takes
the one that serialize writes first.

The four tests of the known breaks come first, then a property test over
two insertion orders of one diagram, then a bounded mutation fuzzer over
serialized text.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from tumbug.cli import run
from tumbug.dsl import ParseError, parse, serialize, value_literal
from tumbug.grammar import resolve_query, validate
from tumbug.model import AttributeBinding, Diagram, Edge, EdgeKind, Element, GenericPayload, Kind
from tumbug.svg import render
from tumbug.values import ExistenceLevel, Range, Scalar, Text, Wildcard

from conftest import random_diagram


def _reordered(text: str, *moves: tuple[int, int]) -> str:
    """text with each (i, j) pair of its lines swapped, in turn."""
    lines = text.splitlines()
    for i, j in moves:
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


# -- the four breaks --------------------------------------------------------


def test_a_negative_zero_round_trips_beside_a_negative_number():
    # -0 is written as 0, which sorts after -5:m; the bindings still compare
    # as a multiset.
    d = parse("elem a2 CAObjectCircle\nattr a2 attr1=-0\nattr a2 attr1=-5:m\n")
    assert parse(serialize(d)) == d


_CONFLICTS = """\
elem a PhysicalObjectCircle
elem b PhysicalObjectCircle
elem mk Marker0D
attr a x=1
attr a x=2
attr mk y=1
attr b y=1
attr b y=2
attr mk x=1
"""


def test_equal_files_print_their_violations_in_one_order(tmp_path, capsys):
    swapped = _reordered(_CONFLICTS, (3, 6), (4, 7), (5, 8))
    assert parse(swapped) == parse(_CONFLICTS)
    printed = []
    for n, text in enumerate((_CONFLICTS, swapped)):
        path = tmp_path / f"{n}.tb"
        path.write_text(text, encoding="utf-8")
        assert run(["validate", str(path)]) == 1
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] == (
        "ATTR_HOST_ILLEGAL mk Marker0D cannot host attribute 'x'\n"
        "ATTR_HOST_ILLEGAL mk Marker0D cannot host attribute 'y'\n"
        "ATTR_CONFLICT a attribute 'x' bound to conflicting values\n"
        "ATTR_CONFLICT b attribute 'y' bound to conflicting values\n"
    )


def test_a_query_on_a_conflicting_key_answers_what_serialize_writes_first(tmp_path, capsys):
    text = "elem a PhysicalObjectCircle\nattr a x=5\nattr a x=1\n"
    saved = serialize(parse(text))
    assert saved.endswith("attr a x=1\nattr a x=5\n")
    for n, body in enumerate((text, saved)):
        assert resolve_query(parse(body), "a", "x") == Scalar(1)
        path = tmp_path / f"{n}.tb"
        path.write_text(body, encoding="utf-8")
        assert run(["query", str(path), "--owner", "a", "--attr", "x"]) == 0
        assert capsys.readouterr().out == "1\n"


_ATTENDED = """\
elem d DataObjectCircle
elem p PhysicalObjectCircle
elem r AttendRing edge="m"
edge m Motion p ->
attr m moves="d"
attr m moves="p"
"""


def test_an_attend_ring_reads_the_moved_element_in_one_order():
    # Of moves="d" and moves="p", serialize writes "d" first, a data object,
    # so only the conflict is reported, whichever line comes first.
    swapped = _reordered(_ATTENDED, (4, 5))
    assert parse(swapped) == parse(_ATTENDED)
    for text in (_ATTENDED, swapped):
        assert [(v.code.value, v.ids) for v in validate(parse(text))] == [("ATTR_CONFLICT", ("m",))]


# -- two insertion orders of one diagram --------------------------------------

# A fixed skeleton: hosts that carry attributes, hosts that cannot (a 0D
# marker and a Relationship edge, which is also the hop that resolve_query
# follows from p to q), and an attend ring whose motion's source is drawn.
_ELEMENTS = {
    "d": Kind.DATA_OBJECT_CIRCLE,
    "p": Kind.PHYSICAL_OBJECT_CIRCLE,
    "q": Kind.PHYSICAL_OBJECT_CIRCLE,
    "bx": Kind.AGGREGATION_BOX,
    "mk": Kind.MARKER_0D,
}
_OWNERS = (*_ELEMENTS, "m", "rel")
_ATTRIBUTES = ("w", "moves", "color")
# Equal values with different objects or reprs (-0.0 and 0.0, 1 and 1.0),
# texts that name elements, and values of several types.
_VALUES = (
    Scalar(-0.0), Scalar(0.0), Scalar(0), Scalar(1), Scalar(1.0), Scalar(-5, "m"), Scalar(5),
    Scalar(10, "kg"), Text("d"), Text("p"), Text("q"), Text("a b"), Wildcard.DK, Wildcard.STAR,
    ExistenceLevel(0.5), Range(-1, 1, True, False),
)
_BINDINGS = st.lists(
    st.tuples(st.sampled_from(_OWNERS), st.sampled_from(_ATTRIBUTES), st.sampled_from(_VALUES)),
    max_size=12,
)


@st.composite
def _two_orders(draw):
    """One diagram's parts, drawn once, and two insertion orders of them."""
    elements = [*_ELEMENTS, *(["ring"] if draw(st.booleans()) else [])]
    source = draw(st.sampled_from(("d", "p")))
    contained = draw(st.lists(st.sampled_from(("d", "p", "q")), unique=True))
    bindings = [(o, AttributeBinding(attribute, v)) for o, attribute, v in draw(_BINDINGS)]
    orders = [
        tuple(draw(st.permutations(part)) for part in (elements, contained, bindings))
        for _ in range(2)
    ]
    return source, orders


def _build(source: str, elements, contained, bindings) -> Diagram:
    d = Diagram()
    for eid in elements:
        if eid == "ring":
            payload = GenericPayload(props={"edge": "m"})
            d.add_element(Element(kind=Kind.ATTEND_RING, payload=payload, id=eid))
        else:
            d.add_element(Element(kind=_ELEMENTS[eid], id=eid))
    for child in contained:
        d.contain(child, "bx")
    d.add_edge(Edge(kind=EdgeKind.MOTION, source=source, id="m"))
    d.add_edge(Edge(kind=EdgeKind.RELATIONSHIP, source="p", target="q", id="rel"))
    for owner, binding in bindings:
        d.append_binding(owner, binding)
    return d


def _answers(d: Diagram) -> list[str]:
    """What `tumbug query` prints for every owner and attribute."""
    return [value_literal(resolve_query(d, o, a)) for o in _OWNERS for a in _ATTRIBUTES]


def _first_written(d: Diagram, owner: str, attribute: str) -> str | None:
    """The literal of the first attr line that serialize writes for the key."""
    prefix = f"attr {owner} {attribute}="
    lines = [line for line in serialize(d).splitlines() if line.startswith(prefix)]
    return lines[0][len(prefix):] if lines else None


@settings(max_examples=150, deadline=None, database=None)
@given(_two_orders())
def test_two_insertion_orders_give_one_output(drawn):
    source, (first, second) = drawn
    a, b = _build(source, *first), _build(source, *second)
    assert a == b
    assert serialize(a) == serialize(b)
    assert validate(a) == validate(b)
    assert _answers(a) == _answers(b)
    for owner in _OWNERS:
        for attribute in _ATTRIBUTES:
            written = _first_written(a, owner, attribute)
            if written is not None:
                assert value_literal(a.binding_value(owner, attribute)) == written
    again = parse(serialize(a))
    assert again == a and validate(again) == validate(a) and _answers(again) == _answers(a)
    if not validate(a):
        assert render(a) == render(b) == render(again)


# -- the mutation fuzzer ------------------------------------------------------


def _mutate(rng: random.Random, text: str) -> str:
    """text with one to three word or line edits: a line deleted, doubled or
    moved, or a word deleted, doubled, or replaced by another word of the text."""
    lines = text.splitlines()
    words = text.split()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        edit = rng.randrange(6)
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            lines.insert(rng.randrange(len(lines)), lines.pop(i))
        else:
            line = lines[i].split(" ")
            j = rng.randrange(len(line))
            if edit == 3:
                del line[j]
            elif edit == 4:
                line.insert(j, line[j])
            else:
                line[j] = rng.choice(words)
            lines[i] = " ".join(line)
    return "\n".join(lines) + "\n"


@settings(
    max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(st.integers(0, 2**32 - 1), st.one_of(st.none(), _two_orders()))
def test_a_mutated_text_is_refused_or_round_trips(seed, drawn):
    rng = random.Random(seed)
    if drawn is None:
        base = random_diagram(rng)
    else:
        source, (order, _) = drawn
        base = _build(source, *order)
    text = _mutate(rng, serialize(base))
    try:
        d = parse(text)
    except ParseError:
        return
    saved = serialize(d)
    again = parse(saved)
    assert again == d and serialize(again) == saved
    assert validate(again) == validate(d)
    owners = sorted({*d.elements, *d.edges})
    attributes = sorted({b.attribute for _, b in d.bindings})
    for owner in owners:
        for attribute in attributes:
            assert resolve_query(again, owner, attribute) == resolve_query(d, owner, attribute)
