"""What the package's record classes do as values: their positional and
keyword constructors, repr, equality, hashing, frozenness, pickling and
deep copies.  One sample per record class; together they cover every class
of src/tumbug that defines equality other than an enum, an exception or a
dict."""

import copy
import enum
import gc
import importlib
import inspect
import pickle

import pytest

import tumbug
from tumbug import grammar, heuristics, lexicon, model, svg, templates, values
from tumbug.dsl import SourceSpan
from tumbug.grammar import ViolationCode
from tumbug.heuristics import TriggerTag
from tumbug.lexicon import Cell
from tumbug.model import EdgeKind, Kind
from tumbug.values import BinOp, Const, Range, Scalar, SlotRef, Text

_VECTOR = lexicon.ConceptVector(("a", "b"), (Cell.T, Cell.DC))
_ROW = lexicon.TableRow("lancer", "throw", ("T", "DC"))
_SLOTS = (model.SlotSpec("a", "n1", "w"), model.SlotSpec("b", "n2", "w"))
_MODAL_ROWS = lexicon.load_default_modal_table().rows
_CAN = next(iter(_MODAL_ROWS))


# (class, frozen, field names in order, positional arguments, repr, (field, changed value))
SAMPLES = [
    (Scalar, True, ("value", "unit"), (2, "kg"), "Scalar(value=2.0, unit='kg')", ("unit", None)),
    (Text, True, ("value",), ("hi",), "Text(value='hi')", ("value", "ho")),
    (values.ExistenceLevel, True, ("level",), (1,), "ExistenceLevel(level=1.0)", ("level", 0.5)),
    (
        Range, True, ("lo", "hi", "lo_inclusive", "hi_inclusive"), (1, None, True, True),
        "Range(lo=1.0, hi=None, lo_inclusive=True, hi_inclusive=False)", ("lo", 0),
    ),
    (
        values.BallInRange, True, ("range",), (Range(0, 1),),
        "BallInRange(range=Range(lo=0.0, hi=1.0, lo_inclusive=True, hi_inclusive=True))",
        ("range", Range(0, 2)),
    ),
    (
        values.FuzzyLabel, True, ("name", "lo", "peak", "hi"), ("warm", 10, 20, 30),
        "FuzzyLabel(name='warm', lo=10, peak=20, hi=30)", ("peak", 25),
    ),
    (
        values.FuzzyBand, True, ("label", "lo", "peak", "hi", "domain"),
        ("few", 0.0, 0.15, 0.45, "ratio"),
        "FuzzyBand(label='few', lo=0.0, peak=0.15, hi=0.45, domain='ratio')", ("domain", "count"),
    ),
    (Const, True, ("value",), (2,), "Const(value=2.0)", ("value", 3)),
    (SlotRef, True, ("name",), ("a",), "SlotRef(name='a')", ("name", "b")),
    (
        BinOp, True, ("op", "left", "right"), ("+", SlotRef("a"), Const(1)),
        "BinOp(op='+', left=SlotRef(name='a'), right=Const(value=1.0))", ("op", "*"),
    ),
    (
        model.Position, True, ("x", "y", "w", "h"), (1, 2, 3, 4),
        "Position(x=1, y=2, w=3, h=4)", ("w", 5),
    ),
    (
        model.AttributeBinding, True, ("attribute", "value"), ("color", Text("red")),
        "AttributeBinding(attribute='color', value=Text(value='red'))", ("value", Text("blue")),
    ),
    (
        model.GenericPayload, False, ("label", "props"), ("fox", {"a": "1"}),
        "GenericPayload(label='fox', props={'a': '1'})", ("props", {}),
    ),
    (
        model.SlotSpec, True, ("name", "element", "attribute"), ("s", "n1", "width"),
        "SlotSpec(name='s', element='n1', attribute='width')", ("element", "n2"),
    ),
    (
        model.CorrelationBoxPayload, False, ("slots", "equations"),
        (_SLOTS, {"a": BinOp("*", SlotRef("b"), Const(2))}),
        "CorrelationBoxPayload(slots=(SlotSpec(name='a', element='n1', attribute='w'), "
        "SlotSpec(name='b', element='n2', attribute='w')), equations={'a': BinOp(op='*', "
        "left=SlotRef(name='b'), right=Const(value=2.0))})",
        ("equations", {}),
    ),
    (
        model.CAPayload, False, ("forced", "detected", "open_ended", "label"),
        ((model.AttributeBinding("x", Scalar(1)),), (), True, "ca"),
        "CAPayload(forced=(AttributeBinding(attribute='x', value=Scalar(value=1.0, unit=None)),), "
        "detected=(), open_ended=True, label='ca')",
        ("open_ended", False),
    ),
    (
        model.MotivationTrianglePayload, False, ("markers", "robinson", "label"),
        ([("physical", "+")], "r1", "m"),
        "MotivationTrianglePayload(markers=frozenset({('physical', '+')}), robinson='r1', "
        "label='m')",
        ("robinson", None),
    ),
    (
        model.RobinsonIconPayload, False,
        ("active", "valence", "subnode", "cathected_target", "label"),
        (["Cathected"], "-", "n2", "n3", "joy"),
        "RobinsonIconPayload(active=frozenset({'Cathected'}), valence='-', subnode='n2', "
        "cathected_target='n3', label='joy')",
        ("valence", "+"),
    ),
    (
        model.SwirlyArrayPayload, False, ("cells", "active", "label"),
        ((("a", 0.0, 0.0), ("b", 26.0, 0.0)), ["a"], "arr"),
        "SwirlyArrayPayload(cells=(('a', 0.0, 0.0), ('b', 26.0, 0.0)), active=frozenset({'a'}), "
        "label='arr')",
        ("active", frozenset()),
    ),
    (
        model.KindFacts, True,
        ("scova", "aliases", "payload", "container", "nonquan", "data", "strictness", "iam",
         "shape", "abstract"),
        ("O", ("Alias",), model.CAPayload, True, True, False, 2, True, "box", "AnyBox"),
        "KindFacts(scova='O', aliases=('Alias',), payload=<class 'tumbug.model.CAPayload'>, "
        "container=True, nonquan=True, data=False, strictness=2, iam=True, shape='box', "
        "abstract='AnyBox')",
        ("strictness", 1),
    ),
    (
        model.Element, False, ("kind", "payload", "position", "id"),
        (Kind.PHYSICAL_OBJECT_CIRCLE, model.GenericPayload("fox"), model.Position(1, 2), "n1"),
        "Element(kind=<Kind.PHYSICAL_OBJECT_CIRCLE: 'PhysicalObjectCircle'>, "
        "payload=GenericPayload(label='fox', props={}), "
        "position=Position(x=1, y=2, w=None, h=None), id='n1')",
        ("id", "n2"),
    ),
    (
        model.Edge, False, ("kind", "source", "target", "role", "id"),
        (EdgeKind.FORCE, "n1", "n2", "exerts", "a1"),
        "Edge(kind=<EdgeKind.FORCE: 'Force'>, source='n1', target='n2', role='exerts', id='a1')",
        ("role", "acted-upon"),
    ),
    (
        model.StateDiagramGroup, False, ("states", "tubes", "marker", "owner", "id"),
        (("s1", "s2"), ("t1",), "s1", "n1", "g1"),
        "StateDiagramGroup(states=('s1', 's2'), tubes=('t1',), marker='s1', owner='n1', id='g1')",
        ("marker", "t1"),
    ),
    (
        model.SplitTimeGroup, False, ("trunk", "branches", "junction", "probabilities", "id"),
        ("a1", ("a2", "a3"), "x1", [1, 0], "g2"),
        "SplitTimeGroup(trunk='a1', branches=('a2', 'a3'), junction='x1', "
        "probabilities=(1.0, 0.0), id='g2')",
        ("junction", ""),
    ),
    (
        SourceSpan, True, ("line", "col_start", "col_end"), (3, 1, 4),
        "SourceSpan(line=3, col_start=1, col_end=4)", ("col_end", 5),
    ),
    (
        grammar.Violation, True, ("code", "ids", "message"),
        (ViolationCode.BOX_NESTING, ("n1", "n2"), "looser box"),
        "Violation(code=<ViolationCode.BOX_NESTING: 'BOX_NESTING'>, ids=('n1', 'n2'), "
        "message='looser box')",
        ("message", "other"),
    ),
    (
        heuristics.Trigger, True, ("tag", "cue"), (TriggerTag.CAUSAL_CONNECTIVE, "because"),
        "Trigger(tag=<TriggerTag.CAUSAL_CONNECTIVE: 'causal-connective'>, cue='because')",
        ("cue", None),
    ),
    (
        heuristics.Rule, True, ("index", "tag", "mandatory", "advisory", "mandatory_cues"),
        (11, TriggerTag.CAUSAL_CONNECTIVE, frozenset(), frozenset({"CausationArrow"}),
         frozenset({"because"})),
        "Rule(index=11, tag=<TriggerTag.CAUSAL_CONNECTIVE: 'causal-connective'>, "
        "mandatory=frozenset(), advisory=frozenset({'CausationArrow'}), "
        "mandatory_cues=frozenset({'because'}))",
        ("index", 12),
    ),
    (
        heuristics.Requirement, True, ("mandatory", "advisory"),
        (frozenset({"AnyBox"}), frozenset({"AnyMarker"})),
        "Requirement(mandatory=frozenset({'AnyBox'}), advisory=frozenset({'AnyMarker'}))",
        ("advisory", frozenset()),
    ),
    (
        heuristics.CheckReport, True,
        ("satisfied", "missing", "advisory_satisfied", "advisory_missing"),
        (("AnyBox",), ("TimeArrow",), (), ("AnyMarker",)),
        "CheckReport(satisfied=('AnyBox',), missing=('TimeArrow',), advisory_satisfied=(), "
        "advisory_missing=('AnyMarker',))",
        ("missing", ()),
    ),
    (
        lexicon.ConceptVector, True, ("attributes", "cells"), (("a", "b"), (Cell.T, Cell.DC)),
        "ConceptVector(attributes=('a', 'b'), cells=(<Cell.T: 'T'>, <Cell.DC: 'DC'>))",
        ("cells", (Cell.T, Cell.F)),
    ),
    (
        lexicon.RankedWord, True, ("word", "count", "rank", "tied"), ("lancer", 3, 1, False),
        "RankedWord(word='lancer', count=3, rank=1, tied=False)", ("tied", True),
    ),
    (
        lexicon.Lexicon, False, ("language", "entries", "glosses"),
        ("fr", {"lancer": _VECTOR}, {"lancer": "throw"}),
        "Lexicon(language='fr', entries={'lancer': ConceptVector(attributes=('a', 'b'), "
        "cells=(<Cell.T: 'T'>, <Cell.DC: 'DC'>))}, glosses={'lancer': 'throw'})",
        ("glosses", {}),
    ),
    (
        lexicon.ModalRow, True, ("verb", "meaning", "active", "implied"),
        ("can", "permission", frozenset({"x"}), frozenset()),
        "ModalRow(verb='can', meaning='permission', active=frozenset({'x'}), "
        "implied=frozenset())",
        ("meaning", "ability"),
    ),
    (
        lexicon.ModalConcepts, True, ("active", "implied"), (frozenset({"a"}), frozenset({"b"})),
        "ModalConcepts(active=frozenset({'a'}), implied=frozenset({'b'}))",
        ("implied", frozenset()),
    ),
    (
        lexicon.ModalTable, False, ("rows",), (dict(_MODAL_ROWS),),
        f"ModalTable(rows={dict(_MODAL_ROWS)!r})",
        ("rows", {**_MODAL_ROWS, _CAN: lexicon.ModalRow(*_CAN, frozenset(), frozenset())}),
    ),
    (
        lexicon.TableRow, True, ("word", "meaning", "cells"), ("lancer", "throw", ("T", "DC")),
        "TableRow(word='lancer', meaning='throw', cells=('T', 'DC'))", ("meaning", ""),
    ),
    (
        lexicon.TableData, True, ("attributes", "rows"), (("a", "b"), (_ROW,)),
        "TableData(attributes=('a', 'b'), rows=(TableRow(word='lancer', meaning='throw', "
        "cells=('T', 'DC')),))",
        ("rows", ()),
    ),
    (
        svg.RenderOptions, True, ("color", "width", "height"), (True, 800, 600),
        "RenderOptions(color=True, width=800, height=600)", ("height", 601),
    ),
    (
        svg._Box, False, ("x", "y", "w", "h"), (1.0, 2.0, 3.0, 4.0),
        "_Box(x=1.0, y=2.0, w=3.0, h=4.0)", ("h", 5.0),
    ),
    (
        templates.AspectSpec, True, ("tense", "aspect", "continuation"),
        ("past", "perfect-progressive", "stops"),
        "AspectSpec(tense='past', aspect='perfect-progressive', continuation='stops')",
        ("continuation", "both"),
    ),
]

FROZEN = [s for s in SAMPLES if s[1]]
MUTABLE = [s for s in SAMPLES if not s[1]]


def _ids(sample) -> str:
    return sample[0].__name__


def _build(sample, **changes):
    cls, _, fields, args, _, _ = sample
    return cls(**{**dict(zip(fields, args)), **changes})


def test_the_samples_cover_every_record_class():
    records = {
        cls
        for name in sorted(tumbug._EXPORTS)
        for cls in vars(importlib.import_module(f"tumbug.{name}")).values()
        if isinstance(cls, type)
        and cls.__module__ == f"tumbug.{name}"
        and cls.__eq__ is not object.__eq__
        and not issubclass(cls, (enum.Enum, BaseException, dict))
    }
    assert records == {s[0] for s in SAMPLES} | {model.Diagram}
    assert len(SAMPLES) == 41


@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
def test_repr(sample):
    assert repr(_build(sample)) == sample[4]


@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
def test_positional_arguments_follow_the_field_order(sample):
    cls, _, _, args, text, _ = sample
    built = cls(*args)
    assert built == _build(sample) and repr(built) == text


@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
def test_equality_compares_every_field(sample):
    name, value = sample[5]
    a, b, changed = _build(sample), _build(sample), _build(sample, **{name: value})
    assert a is not b and a == b and not a != b
    assert a != changed and not a == changed and changed != a


@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
def test_equality_reads_each_field(sample):
    # Also holds for the records that spell their methods out.
    for name in sample[2]:
        a, b = _build(sample), _build(sample)
        object.__setattr__(b, name, object())
        assert a != b and not a == b, name


@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
def test_equality_with_another_class_is_not_implemented(sample):
    x = _build(sample)
    assert sample[0].__eq__(x, object()) is NotImplemented
    assert x != object() and (x == object()) is False


@pytest.mark.parametrize("sample", FROZEN, ids=_ids)
def test_frozen_records_hash_their_fields(sample):
    x = _build(sample)
    assert hash(x) == hash(_build(sample))
    assert hash(x) == hash(tuple(getattr(x, name) for name in sample[2]))
    assert {x: 1}[_build(sample)] == 1


@pytest.mark.parametrize("sample", MUTABLE, ids=_ids)
def test_mutable_records_are_unhashable(sample):
    with pytest.raises(TypeError):
        hash(_build(sample))


@pytest.mark.parametrize("sample", MUTABLE, ids=_ids)
def test_mutable_records_take_assignments(sample):
    x = _build(sample)
    name, value = sample[5]
    setattr(x, name, value)
    assert x == _build(sample, **{name: value})


@pytest.mark.parametrize("sample", FROZEN, ids=_ids)
def test_frozen_records_refuse_assignment_and_deletion(sample):
    x = _build(sample)
    name, value = sample[5]
    for attempt in (
        lambda: setattr(x, name, value),
        lambda: delattr(x, name),
        lambda: setattr(x, "extra", 1),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert x == _build(sample) and not hasattr(x, "extra")


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
def test_copies_compare_equal(sample, clone):
    x = _build(sample)
    twin = clone(x)
    # No repr check: a copied set of several items may list them in another order.
    assert twin is not x and twin == x
    if sample[1]:
        assert hash(twin) == hash(x)


def _diagram():
    d = model.Diagram()
    d.add_element(model.Element(Kind.PHYSICAL_OBJECT_CIRCLE, model.GenericPayload("fox"), id="n1"))
    d.bind_attribute("n1", model.AttributeBinding("color", Text("red")))
    return d


def test_diagram_repr_shows_its_public_and_stored_fields():
    assert repr(model.Diagram()) == (
        "Diagram(elements={}, containment={}, _edges={}, groups={}, _bindings=[], meta={})"
    )
    assert repr(_diagram()) == (
        "Diagram(elements={'n1': Element(kind=<Kind.PHYSICAL_OBJECT_CIRCLE: "
        "'PhysicalObjectCircle'>, payload=GenericPayload(label='fox', props={}), position=None, "
        "id='n1')}, containment={}, _edges={}, groups={}, _bindings=[('n1', "
        "AttributeBinding(attribute='color', value=Text(value='red')))], meta={})"
    )


def test_diagram_equality_hash_and_construction():
    a, b = _diagram(), _diagram()
    assert a == b and not a != b
    b.set_meta("title", "t")
    assert a != b and not a == b
    assert model.Diagram.__eq__(a, object()) is NotImplemented
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        model.Diagram({})
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and repr(twin) == repr(a)


def _record_classes() -> set[type]:
    found, todo = set(), [tumbug.Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("tumbug"):
                found.add(sub)
                todo.append(sub)
    return found


def _init_parameters(cls: type) -> tuple[str, ...]:
    named = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return tuple(p.name for p in params if p.kind in named)


def test_the_fields_are_the_init_parameters_in_order():
    for module in tumbug._EXPORTS:
        importlib.import_module(f"tumbug.{module}")
    classes = _record_classes()
    assert len(classes) == 42
    for cls in classes:
        assert cls._fields == _init_parameters(cls), cls
    assert tumbug.FrozenRecord._fields == ()
    assert {s[0]: s[2] for s in SAMPLES} == {s[0]: s[0]._fields for s in SAMPLES}


def test_a_class_whose_init_names_no_parameter_keeps_its_parents_fields():
    class CountingSpan(SourceSpan):
        def __init__(self, *args):
            super().__init__(*args)

    span = CountingSpan(3, 1, 4)
    assert CountingSpan._fields == SourceSpan._fields == ("line", "col_start", "col_end")
    assert repr(span).endswith("CountingSpan(line=3, col_start=1, col_end=4)")
    assert span == CountingSpan(3, 1, 4) and span != CountingSpan(3, 1, 5)
    assert span != SourceSpan(3, 1, 4) and hash(span) == hash((3, 1, 4))


@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
def test_equality_hash_and_repr_give_the_instance_no_dict_of_its_own(sample):
    # CPython keeps an instance's fields in the object until something reads
    # its __dict__, which then holds them; the collector sees either.
    x, y = _build(sample), _build(sample)
    held = [type(r) for r in gc.get_referents(x)]
    assert x == y and not x != y and repr(x) == sample[4]
    if sample[1]:
        hash(x)
    assert [type(r) for r in gc.get_referents(x)] == held
