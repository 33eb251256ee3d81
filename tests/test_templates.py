import random

import pytest

from tumbug.cli import main
from tumbug.dsl import parse, serialize
from tumbug.grammar import validate
from tumbug.model import EdgeKind, Kind, SplitTimeGroup, StateDiagramGroup, evaluate_correlation
from tumbug.templates import (
    ASPECTS,
    AspectSpec,
    BasicPattern,
    EmptyProgram,
    InvalidArithmetic,
    MissingRole,
    PrimitiveAct,
    TENSES,
    TraceError,
    UnsupportedOperator,
    build_arithmetic,
    build_aspect,
    build_flowchart,
    build_passive,
    build_pattern,
    build_primitive,
    build_syllogism,
    build_water_pour,
    draw_flowchart,
    run_trace,
)
from tumbug.values import Scalar, Text

from conftest import NESTED_LOOPS

ACT_ROLES = {
    PrimitiveAct.ATRANS: {"giver": "Ann", "receiver": "Joe"},
    PrimitiveAct.PTRANS_T: {"mover": "Tom", "object": "schoolbag"},
    PrimitiveAct.PTRANS_I: {"mover": "visitor"},
    PrimitiveAct.PROPEL: {"agent": "wind", "object": "leaf"},
    PrimitiveAct.PROPEL_M: {"agent": "wind", "object": "leaf"},
    PrimitiveAct.MTRANS: {"sender": "teacher", "receiver": "student"},
    PrimitiveAct.MBUILD_S: {"thinker": "Ada"},
    PrimitiveAct.MBUILD_C: {"thinker": "Ada", "first": "idea-a", "second": "idea-b"},
    PrimitiveAct.SPEAK: {"speaker": "singer"},
    PrimitiveAct.ATTEND: {"source": "radio", "attender": "listener"},
    PrimitiveAct.MOVE: {"actor": "dancer"},
    PrimitiveAct.GRASP: {"actor": "robot", "object": "cup"},
    PrimitiveAct.INGEST: {"body": "fish", "object": "worm"},
    PrimitiveAct.EXPEL: {"body": "volcano", "object": "ash"},
}

PATTERN_LABELS = {
    BasicPattern.ATTRIBUTE: ("students", "diligent"),
    BasicPattern.SUPERSET: ("students", "scholars"),
    BasicPattern.SELF_MOVE: ("visitors",),
    BasicPattern.CONTACT: ("boy", "shark"),
    BasicPattern.TRANSFER: ("students", "homework", "professor"),
    BasicPattern.SWAP: ("Grace", "me", "sweater", "jacket"),
}


def kinds_census(d, kind):
    return [e for e in d.elements.values() if e.kind is kind]


class TestPrimitiveActs:
    def test_fourteen_variants(self):
        assert len(PrimitiveAct) == 14

    @pytest.mark.parametrize("act", list(PrimitiveAct))
    def test_every_act_validates_clean(self, act):
        d = build_primitive(act, **ACT_ROLES[act])
        assert validate(d) == []

    def test_mtrans_has_attend_ring_on_data_motion(self):
        d = build_primitive(PrimitiveAct.MTRANS, sender="A", receiver="B")
        rings = kinds_census(d, Kind.ATTEND_RING)
        assert len(rings) == 1
        edge_id = rings[0].payload.props["edge"]
        assert d.edges[edge_id].kind is EdgeKind.MOTION
        moved = d.binding_value(edge_id, "moves")
        assert d.elements[moved.value].kind is Kind.DATA_OBJECT_CIRCLE

    def test_speak_has_sound_modality_and_no_ring(self):
        d = build_primitive(PrimitiveAct.SPEAK, speaker="singer")
        assert kinds_census(d, Kind.ATTEND_RING) == []
        motions = d.edges_of_kind(EdgeKind.MOTION)
        assert len(motions) == 1
        assert d.binding_value(motions[0], "modality") == Text("sound")

    def test_ptrans_t_structure(self):
        d = build_primitive(PrimitiveAct.PTRANS_T, mover="Tom", object="bag")
        assert len(kinds_census(d, Kind.PHYSICAL_OBJECT_CIRCLE)) == 2
        assert len(d.edges_of_kind(EdgeKind.MOTION)) == 1

    def test_ingest_three_phases(self):
        d = build_primitive(PrimitiveAct.INGEST, body="fish", object="worm")
        phases = kinds_census(d, Kind.AGGREGATION_BOX)
        assert len(phases) == 3
        locations = [
            b.value.value
            for _, b in d.bindings
            if b.attribute == "location"
        ]
        assert locations == ["outside", "surface", "inside"]

    def test_expel_reverses_phases(self):
        d = build_primitive(PrimitiveAct.EXPEL, body="volcano", object="ash")
        locations = [b.value.value for _, b in d.bindings if b.attribute == "location"]
        assert locations == ["inside", "surface", "outside"]

    def test_atrans_comprehensive_adds_ownership_states(self):
        short = build_primitive(PrimitiveAct.ATRANS, giver="Ann", receiver="Joe")
        assert short.groups == {}
        full = build_primitive(
            PrimitiveAct.ATRANS, giver="Ann", receiver="Joe", comprehensive="true"
        )
        groups = [g for g in full.groups.values() if isinstance(g, StateDiagramGroup)]
        assert len(groups) == 1
        assert len(groups[0].states) == 4
        assert validate(full) == []

    def test_missing_role(self):
        with pytest.raises(MissingRole):
            build_primitive(PrimitiveAct.MTRANS, sender="A")


class TestPatterns:
    def test_six_patterns_with_letter_aliases(self):
        assert len(BasicPattern) == 6
        assert BasicPattern.E is BasicPattern.SELF_MOVE
        assert BasicPattern.C is BasicPattern.CONTACT
        assert BasicPattern.T is BasicPattern.TRANSFER

    @pytest.mark.parametrize("pattern", list(BasicPattern))
    def test_every_pattern_validates_clean(self, pattern):
        d = build_pattern(pattern, *PATTERN_LABELS[pattern])
        assert validate(d) == []

    def test_superset_structure(self):
        d = build_pattern(BasicPattern.SUPERSET, "students", "scholars")
        boxes = kinds_census(d, Kind.AGGREGATION_BOX)
        assert len(boxes) == 1 and boxes[0].label == "scholars"
        member = kinds_census(d, Kind.PHYSICAL_OBJECT_CIRCLE)[0]
        assert member.label == "students"
        assert d.containment[member.id] == boxes[0].id

    def test_attribute_structure(self):
        d = build_pattern(BasicPattern.ATTRIBUTE, "students", "diligent")
        owner = kinds_census(d, Kind.PHYSICAL_OBJECT_CIRCLE)[0]
        assert d.binding_value(owner.id, "diligent") == Text("true")

    def test_arities(self):
        assert len(build_pattern(BasicPattern.SELF_MOVE, "a").elements) == 1
        assert len(build_pattern(BasicPattern.CONTACT, "a", "b").elements) == 2
        transfer = build_pattern(BasicPattern.TRANSFER, "a", "b", "c")
        assert len(transfer.elements) == 3
        assert len(transfer.edges_of_kind(EdgeKind.MOTION)) == 1

    def test_swap_structure(self):
        d = build_pattern(BasicPattern.SWAP, "Grace", "me", "sweater", "jacket")
        assert len(d.elements) == 4
        assert len(d.edges_of_kind(EdgeKind.MOTION)) == 2

    def test_wrong_arity(self):
        with pytest.raises(MissingRole):
            build_pattern(BasicPattern.TRANSFER, "only", "two")


class TestAspects:
    @pytest.mark.parametrize("tense", TENSES)
    @pytest.mark.parametrize("aspect", ASPECTS)
    def test_twelve_configurations_validate(self, tense, aspect):
        d = build_aspect(AspectSpec(tense, aspect), "Ken", "call")
        assert validate(d) == []
        assert d.edges_of_kind(EdgeKind.TIME)  # a timeline is always present

    def test_past_simple_strictly_before_now(self):
        d = build_aspect(AspectSpec("past", "simple"), "Ken", "called")
        event = next(e for e in d.elements.values() if e.kind is Kind.AGGREGATION_BOX)
        start = d.binding_value(event.id, "t_start")
        end = d.binding_value(event.id, "t_end")
        assert start.value < 0 and end.value < 0

    def test_present_perfect_reference_is_now(self):
        d = build_aspect(AspectSpec("present", "perfect"), "dog", "eat")
        event = next(e for e in d.elements.values() if e.kind is Kind.AGGREGATION_BOX)
        assert d.binding_value(event.id, "t_ref") == Scalar(0)

    def test_perfect_progressive_both_forks_timeline(self):
        d = build_aspect(
            AspectSpec("future", "perfect-progressive", "both"), "Denny", "drive"
        )
        splits = [g for g in d.groups.values() if isinstance(g, SplitTimeGroup)]
        assert len(splits) == 1
        assert len(splits[0].branches) == 2
        assert d.elements[splits[0].junction].kind is Kind.XOR_BOX
        assert validate(d) == []

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            AspectSpec("sometime", "simple")
        with pytest.raises(ValueError):
            AspectSpec("past", "gnomic")


class TestGroupIds:
    """A template's group claims its id after the labels have claimed theirs,
    so a label that spells the group's usual id keeps it."""

    @pytest.mark.parametrize(
        "build, label",
        [
            pytest.param(
                lambda: build_flowchart("sequential", ["program", "S2"])[0], "program", id="flowchart"
            ),
            pytest.param(
                lambda: build_primitive(
                    PrimitiveAct.ATRANS, giver="ownership-states", receiver="Joe", comprehensive="y"
                ),
                "ownership-states",
                id="atrans",
            ),
            pytest.param(
                lambda: build_aspect(
                    AspectSpec("future", "perfect-progressive", "both"), "alternatives", "drive"
                ),
                "alternatives",
                id="aspect",
            ),
        ],
    )
    def test_label_spelling_the_group_id(self, build, label):
        d = build()
        assert d.elements[label].label == label
        assert list(d.groups) == [f"{label}-2"]
        assert validate(d) == []

    def test_flowchart_trace_and_cli(self, capsys):
        assert build_flowchart("sequential", ["program", "S2"])[1] == ["program", "S2"]
        assert main(["template", "sequential", "--roles", "statements=program,S2"]) == 0
        assert "group program-2 StateDiagram" in capsys.readouterr().out


class TestSyllogisms:
    def test_barbara_final_structure(self):
        steps = build_syllogism("barbara", ("men", "mortal", "Socrates"))
        assert len(steps) == 3
        final = steps[-1]
        assert final.elements["member"].label == "Socrates"
        assert final.containment["member"] == "major-set"
        assert final.binding_value("major-set", "mortality") == Text("mortal")
        assert final.edges_of_kind(EdgeKind.RELATIONSHIP) == ["insight"]

    def test_barbara_premise_order_invariance(self):
        plain = build_syllogism("barbara", ("men", "mortal", "Socrates"))
        swapped = build_syllogism("barbara", ("men", "mortal", "Socrates"), swap_premises=True)
        assert plain[-1] == swapped[-1]
        assert serialize(plain[-1]) == serialize(swapped[-1])
        assert plain[0] != swapped[0]  # the intermediate pictures differ

    def test_celarent_structure(self):
        final = build_syllogism("celarent", ("reptiles", "fur", "snakes"))[-1]
        assert final.containment["subset"] == "major-set"
        region = final.elements["allowed-region"]
        assert region.kind is Kind.MARKER_2D
        assert region.payload.props["excludes"] == "excluded-set"

    def test_darii_overlapping_boxes(self):
        final = build_syllogism("darii", ("rabbits", "furry animals", "pets"))[-1]
        some = final.elements["some-set"]
        major = final.elements["major-set"]
        assert "some-set" not in final.containment  # overlap, not nesting
        # position rectangles really do overlap
        sx, mx = some.position, major.position
        assert sx.x < mx.x + mx.w and mx.x < sx.x + sx.w

    @pytest.mark.parametrize("form,terms", [
        ("barbara", ("men", "mortal", "Socrates")),
        ("celarent", ("reptiles", "fur", "snakes")),
        ("darii", ("rabbits", "furry animals", "pets")),
    ])
    def test_all_steps_validate(self, form, terms):
        for swap in (False, True):
            for step in build_syllogism(form, terms, swap):
                assert validate(step) == []

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            build_syllogism("bocardo", ("a", "b", "c"))


class TestArithmetic:
    def test_one_plus_two(self):
        d = build_arithmetic("+", [1, 2])
        labels = sorted(e.label for e in d.elements.values() if e.kind is Kind.DATA_OBJECT_CIRCLE)
        assert labels == ["1", "2", "3"]
        assert d.edges_of_kind(EdgeKind.TIME)  # calculation takes time
        causations = d.edges_of_kind(EdgeKind.CAUSATION)
        assert len(causations) == 1
        assert d.binding_value(causations[0], "label") == Text("+")

    def test_zero_case(self):
        d = build_arithmetic("+", [0, 0])
        out = [e.label for e in d.elements.values() if e.id == "out"]
        assert out == ["0"]

    def test_multiplication_matches_oracle(self):
        rng = random.Random(13)
        for _ in range(50):
            a, b = rng.randrange(-40, 40), rng.randrange(-40, 40)
            d = build_arithmetic("*", [a, b])
            expected = float(a) * float(b)
            assert d.elements["out"].label == (
                str(int(expected)) if expected.is_integer() else repr(expected)
            )

    def test_unsupported_operator(self):
        with pytest.raises(UnsupportedOperator):
            build_arithmetic("^", [1, 2])

    @pytest.mark.parametrize(
        "op, nums",
        [("/", [1, 0]), ("/", [0, 2, -0.0]), ("*", [1e200, 1e200]), ("+", [1e308, 1e308]),
         ("-", [float("inf"), 1]), ("+", [1, float("nan")])],
    )
    def test_zero_divisor_and_non_finite_numbers_are_refused(self, op, nums):
        with pytest.raises(InvalidArithmetic):
            build_arithmetic(op, nums)

    def test_zero_dividend_is_fine(self):
        assert build_arithmetic("/", [0, 2]).elements["out"].label == "0"

    def test_all_outputs_validate(self):
        for op, nums in (("+", [1, 2]), ("-", [9, 4]), ("*", [3, 5]), ("/", [8, 2])):
            assert validate(build_arithmetic(op, nums)) == []


class TestFlowcharts:
    def test_sequential_trace(self):
        d, trace = build_flowchart("sequential", ["S1", "S2", "S3", "S4"])
        assert trace == ["S1", "S2", "S3", "S4"]
        assert validate(d) == []

    def test_loop_trace(self):
        d, trace = build_flowchart(
            "loop", ["S1", "S2", "S3", "S4"], {"body": ["S2", "S3"], "iterations": 2}
        )
        assert trace == ["S1", "S2", "S3", "S2", "S3", "S4"]
        assert validate(d) == []

    def test_branch_trace(self):
        d, trace = build_flowchart(
            "branch",
            ["S1", "S2", "S3", "S4"],
            {"then": ["S2"], "else": ["S3"], "take": "else"},
        )
        assert trace == ["S1", "S3", "S4"]
        assert validate(d) == []

    def test_marker_starts_at_first_statement(self):
        d, trace = build_flowchart("sequential", ["S1", "S2"])
        group = next(iter(d.groups.values()))
        assert d.elements[group.marker].label == "S1"

    def test_empty_program(self):
        with pytest.raises(EmptyProgram):
            build_flowchart("sequential", [])
        with pytest.raises(EmptyProgram):
            build_flowchart("loop", ["S1"], {"body": [], "iterations": 2})


def _flowchart_cases():
    """Every sequential, loop and branch program over S1..SN, N = 3..7, with
    the trace its schedule means: (kind, statements, schedule, walker
    arguments, expected trace)."""
    for n in range(3, 8):
        stmts = [f"S{i}" for i in range(1, n + 1)]
        yield "sequential", stmts, {}, {}, stmts
        for i in range(n):
            for j in range(i, n):
                for iterations in (1, 2, 3):
                    schedule = {"body": stmts[i : j + 1], "iterations": iterations}
                    trace = stmts[:i] + stmts[i : j + 1] * iterations + stmts[j + 1 :]
                    yield "loop", stmts, schedule, {"iterations": iterations}, trace
        for i in range(1, n):  # the then arm is stmts[i:j], the else arm stmts[j:k]
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    arms = {"then": stmts[i:j], "else": stmts[j:k]}
                    for take in ("then", "else"):
                        schedule = {**arms, "take": take}
                        trace = stmts[:i] + arms[take] + stmts[k:]
                        yield "branch", stmts, schedule, {"take": arms[take][0]}, trace


FLOWCHART_CASES = list(_flowchart_cases())


def _case_id(case):
    kind, stmts, schedule, _, _ = case
    parts = [f"{k}={','.join(v) if isinstance(v, list) else v}" for k, v in schedule.items()]
    return " ".join([kind, f"S1..{stmts[-1]}", *parts])


def _program(d):
    return next(g for g in d.groups.values() if isinstance(g, StateDiagramGroup))


class TestRunTrace:
    def test_sweep_covers_315_programs(self):
        assert len(FLOWCHART_CASES) == 315

    @pytest.mark.parametrize("case", FLOWCHART_CASES, ids=_case_id)
    def test_walker_on_the_saved_diagram_follows_the_schedule(self, case):
        kind, stmts, schedule, walk, expected = case
        d, trace = build_flowchart(kind, stmts, schedule)
        assert trace == expected
        saved = parse(serialize(d))
        assert run_trace(saved, _program(saved), **walk) == expected
        assert serialize(draw_flowchart(kind, stmts, schedule)) == serialize(d)

    def test_nested_loops_each_repeat_per_entry(self):
        d = parse(NESTED_LOOPS)
        g = _program(d)
        assert run_trace(d, g, iterations=2) == "S1 S2 S3 S2 S3 S4 S1 S2 S3 S2 S3 S4".split()
        assert run_trace(d, g) == ["S1", "S2", "S3", "S4"]

    def test_long_program_walks_without_recursion(self):
        stmts = [f"S{i}" for i in range(5000)]
        d, trace = build_flowchart("loop", stmts, {"body": stmts[1:], "iterations": 2})
        assert trace == stmts + stmts[1:]

    def test_bad_iterations_and_overlong_traces_raise(self):
        d, _ = build_flowchart("loop", ["S1", "S2", "S3"], {"body": ["S2"], "iterations": 2})
        for iterations in (0, -1):
            with pytest.raises(TraceError):
                run_trace(d, _program(d), iterations=iterations)
        with pytest.raises(TraceError):
            run_trace(d, _program(d), iterations=10**9)
        with pytest.raises(TraceError):
            run_trace(d, StateDiagramGroup(id="empty"))

    def test_schedules_that_draw_no_loop_or_branch_are_rejected(self):
        stmts = ["S1", "S2", "S3", "S4"]
        with pytest.raises(EmptyProgram):
            build_flowchart("loop", stmts, {"body": ["S3", "S2"], "iterations": 2})
        with pytest.raises(EmptyProgram):
            build_flowchart("branch", stmts, {"then": ["S2"], "else": ["S3"], "take": "S3"})

    @pytest.mark.parametrize(
        "arms",
        [(["S2"], ["S2"]), (["S2", "S3"], ["S3"]), (["S2"], ["S3", "S2"])],
        ids=["same", "then-holds-else", "else-holds-then"],
    )
    def test_branch_arms_that_share_a_statement_are_rejected(self, arms):
        # Shared arms drew a second S1->S2 tube (s1-s2-2) and no branch.
        schedule = {"then": arms[0], "else": arms[1]}
        for build in (build_flowchart, draw_flowchart):
            with pytest.raises(EmptyProgram, match="share"):
                build("branch", ["S1", "S2", "S3", "S4"], schedule)

    @pytest.mark.parametrize("kind", ["sequential", "loop", "branch"])
    def test_repeated_statements_are_rejected(self, kind):
        # ["a", "b", "a"] drew an orphan StateCircle a, listed a-2 twice in
        # the program group and traced "a b".
        schedule = {"body": ["a", "b"], "then": ["b"], "else": ["c"]}
        for build in (build_flowchart, draw_flowchart):
            with pytest.raises(EmptyProgram, match="repeat"):
                build(kind, ["a", "b", "c", "a"], schedule)

    def test_drawing_ignores_iterations_but_still_rejects_below_one(self):
        schedule = {"body": ["S1", "S3"], "iterations": 40_000}
        once = draw_flowchart("loop", ["S1", "S2", "S3"], {**schedule, "iterations": 1})
        assert serialize(draw_flowchart("loop", ["S1", "S2", "S3"], schedule)) == serialize(once)
        with pytest.raises(TraceError):
            build_flowchart("loop", ["S1", "S2", "S3"], schedule)
        for iterations in (0, -1):
            with pytest.raises(TraceError):
                draw_flowchart("loop", ["S1", "S2", "S3"], {**schedule, "iterations": iterations})


class TestPassive:
    def test_unlabeled_agent_with_foot(self):
        d = build_passive("kicked", "ball")
        unlabeled = [e for e in d.elements.values() if e.label is None]
        assert len(unlabeled) == 1
        labels = {e.label for e in d.elements.values()}
        assert "foot" in labels and "ball" in labels
        assert validate(d) == []

    def test_active_counterpart_has_labeled_agent(self):
        d = build_passive("kicked", "ball", agent="He")
        assert d.elements["agent"].label == "He"
        assert not [e for e in d.elements.values() if e.label is None]


def test_water_pour_ships_the_worked_numbers():
    d = build_water_pour()
    box = next(e for e in d.elements.values() if e.kind is Kind.CORRELATION_BOX)
    assert evaluate_correlation(box.payload, {"w2": 25.0}, "w1") == 75.0
    assert d.binding_value("bottle", "weight") == Scalar(75)
    assert d.binding_value("cup", "weight") == Scalar(25)
    assert validate(d) == []


def test_water_pour_with_int_arguments_serializes_canonically():
    text = serialize(build_water_pour(100, 25))
    assert 'eq.w1="100 - w2"' in text
    assert serialize(parse(text)) == text
