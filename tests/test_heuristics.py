import random

import pytest

from tumbug import DATA_DIR, tables_dir
from tumbug.heuristics import (
    Requirement,
    RuleSetError,
    Trigger,
    TriggerTag,
    check,
    default_rules,
    load_rules,
    parse_rules,
    requirements_for,
)
from tumbug.model import Diagram, Edge, EdgeKind, Element, Kind
from tumbug.templates import PrimitiveAct, build_primitive

from conftest import random_diagram


def test_exactly_fourteen_rules_load():
    rules = default_rules()
    assert len(rules) == 14
    assert {r.index for r in rules.values()} == set(range(1, 15))
    assert set(rules) == set(TriggerTag)


def test_lift_carry_needs_force_and_motion():
    req = requirements_for({TriggerTag.LIFT_CARRY})
    assert req.mandatory == {"ForceArrow", "MotionArrow"}


def test_because_hardens_causation():
    soft = requirements_for({TriggerTag.CAUSAL_CONNECTIVE})
    assert soft.mandatory == frozenset()
    assert soft.advisory == {"CausationArrow"}
    hard = requirements_for({Trigger(TriggerTag.CAUSAL_CONNECTIVE, "because")})
    assert hard.mandatory == {"CausationArrow"}
    soft_word = requirements_for({Trigger(TriggerTag.CAUSAL_CONNECTIVE, "until")})
    assert soft_word.mandatory == frozenset()


def test_empty_trigger_set():
    req = requirements_for(set())
    assert req == Requirement()


def test_requirements_monotone_under_tag_addition():
    rng = random.Random(4)
    tags = list(TriggerTag)
    for _ in range(100):
        base = set(rng.sample(tags, rng.randrange(0, 6)))
        extra = set(rng.sample(tags, rng.randrange(0, 6)))
        small = requirements_for(base)
        big = requirements_for(base | extra)
        assert small.mandatory <= big.mandatory
        assert small.mandatory | small.advisory <= big.mandatory | big.advisory


def test_advisory_never_duplicates_mandatory():
    for subset_size in (1, 3, 14):
        req = requirements_for(list(TriggerTag)[:subset_size])
        assert not (req.mandatory & req.advisory)


def test_check_against_throw_down_diagram():
    # throwing something straight down: gravity plus motion
    d = Diagram()
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="tom"))
    d.add_element(Element(kind=Kind.PHYSICAL_OBJECT_CIRCLE, id="bag"))
    d.add_edge(Edge(kind=EdgeKind.MOTION, source="tom", target="bag", id="m"))
    d.add_edge(Edge(kind=EdgeKind.FORCE, target="bag", id="g"))
    report = check(d, requirements_for({TriggerTag.DOWNWARD_GRAVITY}))
    assert report.ok
    assert report.missing == ()
    assert set(report.satisfied) == {"ForceArrow", "MotionArrow"}


def test_check_empty_diagram_misses_causation():
    req = requirements_for({Trigger(TriggerTag.CAUSAL_CONNECTIVE, "because")})
    report = check(Diagram(), req)
    assert not report.ok
    assert report.missing == ("CausationArrow",)


def test_anybox_satisfied_by_any_location_box():
    for kind in (Kind.VERBATIM_BOX, Kind.DESCRIPTIVE_BOX, Kind.AGGREGATION_BOX, Kind.XOR_BOX):
        d = Diagram()
        d.add_element(Element(kind=kind))
        report = check(d, Requirement(mandatory=frozenset({"AnyBox"})))
        assert report.ok, kind


def test_information_transfer_matches_mtrans_template():
    d = build_primitive(PrimitiveAct.MTRANS, sender="A", receiver="B")
    report = check(d, requirements_for({TriggerTag.INFORMATION_TRANSFER}))
    assert report.ok


def test_check_agrees_with_direct_census():
    rng = random.Random(12)
    probes = ("MotionArrow", "ForceArrow", "TimeArrow", "CausationArrow",
              "AnyBox", "AnyMarker", "PhysicalObjectCircle", "DataObjectCircle",
              "CorrelationBox", "Marker1D")
    arrow_kinds = {
        "MotionArrow": EdgeKind.MOTION,
        "ForceArrow": EdgeKind.FORCE,
        "TimeArrow": EdgeKind.TIME,
        "CausationArrow": EdgeKind.CAUSATION,
    }
    boxes = {Kind.VERBATIM_BOX, Kind.DESCRIPTIVE_BOX, Kind.AGGREGATION_BOX,
             Kind.CA_AGGREGATION_BOX, Kind.XOR_BOX, Kind.DATA_SET_BOX}
    markers = {Kind.MARKER_0D, Kind.MARKER_1D, Kind.MARKER_2D}
    for _ in range(40):
        d = random_diagram(rng)
        report = check(d, Requirement(mandatory=frozenset(probes)))
        present = set(report.satisfied)
        for name in probes:
            if name in arrow_kinds:
                expected = any(e.kind is arrow_kinds[name] for e in d.edges.values())
            elif name == "AnyBox":
                expected = any(e.kind in boxes for e in d.elements.values())
            elif name == "AnyMarker":
                expected = any(e.kind in markers for e in d.elements.values()) or any(
                    e.kind is EdgeKind.RELATIONSHIP for e in d.edges.values()
                )
            else:
                expected = any(e.kind.value == name for e in d.elements.values())
            assert (name in present) == expected, name


def test_rule_file_errors():
    with pytest.raises(RuleSetError):
        parse_rules("1 barrier MotionArrow -")  # wrong field count
    with pytest.raises(RuleSetError):
        parse_rules("1 barrier MotionArrow - -\n")  # 13 rules missing
    with pytest.raises(RuleSetError):
        parse_rules("1 barrier Gizmo - -\n")


def test_rules_reloadable_from_custom_file(tmp_path):
    source = (tmp_path / "rules.tbl")
    default_text = "\n".join(
        f"{r.index} {r.tag.value} "
        + (",".join(sorted(r.mandatory)) or "-")
        + " "
        + (",".join(sorted(r.advisory)) or "-")
        + " "
        + (",".join(sorted(r.mandatory_cues)) or "-")
        for r in default_rules().values()
    )
    source.write_text(default_text, encoding="utf-8")
    assert load_rules(source) == default_rules()


def test_default_rules_follow_tumbug_tables(tmp_path, monkeypatch):
    # The rules were loaded once per process, so a later TUMBUG_TABLES was ignored.
    shipped = (DATA_DIR / "heuristics.tbl").read_text(encoding="utf-8")
    assert requirements_for([TriggerTag.BARRIER]).mandatory == {"AnyBox", "MotionArrow"}
    (tmp_path / "heuristics.tbl").write_text(
        "\n".join(
            "1 barrier - - -" if line.split()[:2] == ["1", "barrier"] else line
            for line in shipped.splitlines()
        ),
        encoding="utf-8",
    )
    monkeypatch.setenv("TUMBUG_TABLES", str(tmp_path))
    assert load_rules(tables_dir() / "heuristics.tbl")[TriggerTag.BARRIER].mandatory == frozenset()
    assert requirements_for([TriggerTag.BARRIER]) == Requirement()
    assert default_rules() is default_rules()  # loaded once per directory
    monkeypatch.delenv("TUMBUG_TABLES")
    assert requirements_for([TriggerTag.BARRIER]).mandatory == {"AnyBox", "MotionArrow"}
