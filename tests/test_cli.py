import contextlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from tumbug import cli
from tumbug.cli import main, run
from tumbug.dsl import ParseError, parse, serialize
from tumbug.grammar import validate
from tumbug.lexicon import tables_dir

from conftest import NESTED_LOOPS

# run() reports a fault in tumbug itself (an exception that is no error about
# the input) as `error: <Type>: <message>`; an error about the input never
# starts with a class name.  Tests that check an exit status also check that
# it did not come from a fault, so a crash still fails them.
_FAULT_LINE = re.compile(r"error: [A-Z]\w*: ")


def _no_fault(err: str) -> None:
    assert not _FAULT_LINE.match(err), err


def _status(argv: list[str]) -> int:
    """run(argv)'s exit status, failing on a fault; for Hypothesis tests,
    which cannot take the function-scoped capsys."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = run(argv)
    _no_fault(err.getvalue())
    return status


@pytest.fixture
def bad_time_fixture(tmp_path):
    path = tmp_path / "bad.tb"
    path.write_text(
        "elem o1 PhysicalObjectCircle\nedge t1 Time -> o1\n", encoding="utf-8"
    )
    return path


@pytest.fixture
def fox_fixture(tmp_path):
    path = tmp_path / "fox.tb"
    path.write_text(
        'elem o1 PhysicalObjectCircle label="fox"\nattr o1 color="red"\n',
        encoding="utf-8",
    )
    return path


class TestValidate:
    def test_clean_file_exits_zero(self, fox_fixture, capsys):
        assert main(["validate", str(fox_fixture)]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one_line_per_violation(self, bad_time_fixture, capsys):
        assert main(["validate", str(bad_time_fixture)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].startswith("TIME_ATTACHED")

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.tb"
        bad.write_text("elem o1 Nonsense\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent/x.tb"]) == 2
        _no_fault(capsys.readouterr().err)

    def test_directory_argument_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        _no_fault(err)

    def test_usage_error_exits_two(self, capsys):
        assert main(["validate"]) == 2
        assert main(["frobnicate"]) == 2


class TestRender:
    def test_renders_file(self, fox_fixture, tmp_path, capsys):
        out = tmp_path / "fox.svg"
        assert main(["render", str(fox_fixture), "-o", str(out)]) == 0
        svg = out.read_text(encoding="utf-8")
        assert svg.startswith("<?xml") and "</svg>" in svg

    def test_unwritable_output_exits_two(self, fox_fixture, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("", encoding="utf-8")
        for output in (tmp_path, not_a_dir / "fox.svg"):
            assert main(["render", str(fox_fixture), "-o", str(output)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            _no_fault(err)

    def test_invalid_diagram_exits_one(self, bad_time_fixture, tmp_path, capsys):
        out = tmp_path / "bad.svg"
        assert main(["render", str(bad_time_fixture), "-o", str(out)]) == 1
        assert "TIME_ATTACHED" in capsys.readouterr().err
        assert not out.exists()


class TestTemplate:
    def test_mtrans_emits_parseable_dsl(self, capsys):
        assert main(["template", "mtrans", "--roles", "sender=A", "receiver=B"]) == 0
        text = capsys.readouterr().out
        d = parse(text)
        assert validate(d) == []
        assert serialize(d) == text

    def test_missing_role_is_usage_error(self, capsys):
        assert main(["template", "mtrans"]) == 2
        _no_fault(capsys.readouterr().err)

    def test_unknown_template_is_usage_error(self, capsys):
        assert main(["template", "zeppelin"]) == 2
        _no_fault(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["template", "transfer", "--roles", "labels=a,b,c"],
            ["template", "barbara", "--roles", "terms=men,mortal,Socrates"],
            ["template", "aspect", "--roles", "tense=present", "aspect=perfect"],
            ["template", "arithmetic", "--roles", "op=+", "inputs=1,2"],
            ["template", "loop", "--roles", "statements=S1,S2,S3,S4", "body=S2,S3", "iterations=2"],
            ["template", "passive", "--roles", "action=kicked", "object=ball"],
            ["template", "water"],
        ],
    )
    def test_registry_templates_emit_valid_dsl(self, argv, capsys):
        assert main(argv) == 0
        d = parse(capsys.readouterr().out)
        assert validate(d) == []

    @pytest.mark.parametrize(
        "roles, err",
        [
            (["op=/", "inputs=1,0"], "error: division by zero: input 2 is 0\n"),
            (["op=*", "inputs=1e200,1e200"], "error: the result of * is not a finite number\n"),
            (["op=+", "inputs=nan,1"], "error: input 1 is nan, not a finite number\n"),
        ],
    )
    def test_arithmetic_refuses_zero_divisors_and_non_finite_numbers(self, roles, err, capsys):
        assert run(["template", "arithmetic", "--roles", *roles]) == 2
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("terms", ["terms=men,mortal", "terms=a,b,c,d", "swap=true"])
    def test_syllogism_without_three_terms_is_usage_error(self, terms, capsys):
        assert run(["template", "barbara", "--roles", terms]) == 2
        assert capsys.readouterr() == ("", "error: 'terms=a,b,c'\n")

    @pytest.mark.parametrize("step", ["0", "-1", "4", "9", "x"])
    def test_syllogism_step_outside_its_steps_is_usage_error(self, step, capsys):
        roles = ["terms=men,mortal,Socrates", f"step={step}"]
        assert run(["template", "barbara", "--roles", *roles]) == 2
        assert capsys.readouterr() == ("", "error: 'step=1..3'\n")

    def test_syllogism_steps_differ_and_the_last_is_the_default(self, capsys):
        outs = []
        for roles in (["step=1"], ["step=2"], ["step=3"], []):
            assert run(["template", "darii", "--roles", "terms=a,b,c", *roles]) == 0
            outs.append(capsys.readouterr().out)
        assert len(set(outs[:3])) == 3 and outs[3] == outs[2]

    def test_loop_drawing_does_not_depend_on_iterations(self, capsys):
        # The drawn graph is the same for any count, so no trace is walked:
        # 40,000 iterations used to fail on the 100,000-state trace cap.
        roles = ["statements=S1,S2,S3", "body=S1,S3"]
        assert main(["template", "loop", "--roles", *roles, "iterations=1"]) == 0
        once = capsys.readouterr().out
        assert main(["template", "loop", "--roles", *roles, "iterations=40000"]) == 0
        assert capsys.readouterr().out == once

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_loop_iterations_below_one_exit_two(self, iterations, capsys):
        roles = ["statements=S1,S2,S3", "body=S1,S3", f"iterations={iterations}"]
        assert main(["template", "loop", "--roles", *roles]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        _no_fault(err)

    def test_branch_arms_sharing_a_statement_exit_two(self, capsys):
        roles = ["statements=S1,S2,S3", "then=S2", "else=S2"]
        assert main(["template", "branch", "--roles", *roles]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: branch arms must not share statements\n"

    def test_repeated_statement_exits_two(self, capsys):
        assert main(["template", "sequential", "--roles", "statements=a,b,a"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: statements must not repeat\n"


class TestMatch:
    def test_shipped_throw_example(self, capsys):
        assert (
            main(
                [
                    "match",
                    "--context",
                    str(tables_dir() / "throw_context.tbl"),
                    "--lexicon",
                    str(tables_dir() / "throw_lexicon_fr.tbl"),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == "lancer 2\njeter 1\n"

    def test_context_table_without_rows_exits_two(self, tmp_path, capsys):
        context = tmp_path / "empty.tbl"
        context.write_text("Grasp,Motion\n", encoding="utf-8")
        lexicon = str(tables_dir() / "throw_lexicon_fr.tbl")
        assert run(["match", "--context", str(context), "--lexicon", lexicon]) == 2
        assert capsys.readouterr() == ("", "context table has no rows\n")


class TestModal:
    def test_can_permission(self, capsys):
        assert main(["modal", "can", "permission"]) == 0
        assert capsys.readouterr().out == "Permission Request\n"

    def test_be_able_to_flags_implied(self, capsys):
        assert main(["modal", "be able to", "ability"]) == 0
        assert capsys.readouterr().out == "Ability (Request)\n"

    def test_unknown_row_exits_two(self, capsys):
        assert main(["modal", "can", "levitate"]) == 2
        _no_fault(capsys.readouterr().err)


class TestClassify:
    @pytest.mark.parametrize(
        "kind,letter",
        [
            ("MotionArrow", "C"),
            ("Motion", "C"),
            ("ValueBar", "V"),
            ("AttendRing", "A"),
            ("AggregationBox", "O"),
            ("StateDiagramGroup", "S"),
        ],
    )
    def test_letters(self, kind, letter, capsys):
        assert main(["classify", kind]) == 0
        assert capsys.readouterr().out.strip() == letter

    def test_unknown_kind_exits_two(self, capsys):
        assert main(["classify", "Gizmo"]) == 2
        _no_fault(capsys.readouterr().err)


class TestQuery:
    def test_bound_value(self, fox_fixture, capsys):
        assert main(["query", str(fox_fixture), "--owner", "o1", "--attr", "color"]) == 0
        assert capsys.readouterr().out == '"red"\n'

    def test_absent_prints_dk(self, fox_fixture, capsys):
        assert main(["query", str(fox_fixture), "--owner", "o1", "--attr", "age"]) == 0
        assert capsys.readouterr().out == "DK\n"

    def test_unknown_owner_exits_two(self, fox_fixture, capsys):
        assert main(["query", str(fox_fixture), "--owner", "zz", "--attr", "x"]) == 2
        _no_fault(capsys.readouterr().err)


class TestHeuristics:
    def test_requirement_output(self, capsys):
        assert main(["heuristics", "--tags", "lift-carry"]) == 0
        out = capsys.readouterr().out
        assert "mandatory: ForceArrow,MotionArrow" in out

    def test_check_against_file(self, fox_fixture, capsys):
        rc = main(["heuristics", "--tags", "causal-connective:because", str(fox_fixture)])
        assert rc == 1
        assert "missing: CausationArrow" in capsys.readouterr().out

    def test_a_missing_advisory_block_is_listed_and_exits_zero(self, fox_fixture, capsys):
        assert main(["heuristics", "--tags", "causal-connective", str(fox_fixture)]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "mandatory: -", "advisory: CausationArrow", "satisfied: -", "missing: -",
            "advisory-missing: CausationArrow",
        ]
        assert err == ""


class TestTrace:
    def _emit(self, tmp_path, capsys, kind, *roles):
        assert main(["template", kind, "--roles", *roles]) == 0
        text = capsys.readouterr().out
        path = tmp_path / f"{kind}.tb"
        path.write_text(text, encoding="utf-8")
        return path

    def test_sequential(self, tmp_path, capsys):
        path = self._emit(tmp_path, capsys, "sequential", "statements=S1,S2,S3,S4")
        assert main(["trace", str(path)]) == 0
        assert capsys.readouterr().out == "S1 S2 S3 S4\n"

    def test_loop(self, tmp_path, capsys):
        path = self._emit(
            tmp_path, capsys, "loop", "statements=S1,S2,S3,S4", "body=S2,S3", "iterations=2"
        )
        assert main(["trace", str(path), "--schedule", "iterations=2"]) == 0
        assert capsys.readouterr().out == "S1 S2 S3 S2 S3 S4\n"

    def test_branch(self, tmp_path, capsys):
        path = self._emit(
            tmp_path, capsys, "branch", "statements=S1,S2,S3,S4", "then=S2", "else=S3"
        )
        assert main(["trace", str(path), "--schedule", "take=S3"]) == 0
        assert capsys.readouterr().out == "S1 S3 S4\n"

    def test_file_without_group_exits_two(self, fox_fixture, capsys):
        assert main(["trace", str(fox_fixture)]) == 2
        _no_fault(capsys.readouterr().err)

    def test_branch_arms_of_different_lengths(self, tmp_path, capsys):
        path = self._emit(
            tmp_path, capsys, "branch", "statements=S1,S2,S3,S4,S5", "then=S2", "else=S3,S4"
        )
        assert main(["trace", str(path), "--schedule", "take=S3"]) == 0
        assert capsys.readouterr().out == "S1 S3 S4 S5\n"

    def test_nested_loops_repeat_per_entry(self, tmp_path, capsys):
        path = tmp_path / "nested.tb"
        path.write_text(NESTED_LOOPS, encoding="utf-8")
        assert main(["trace", str(path), "--schedule", "iterations=2"]) == 0
        assert capsys.readouterr().out == "S1 S2 S3 S2 S3 S4 S1 S2 S3 S2 S3 S4\n"

    @pytest.mark.parametrize(
        "schedule", ["iterations=1000000000", "iterations=0", "iteration=2", "take", "iterations=x"]
    )
    def test_bad_schedule_exits_two_with_one_error_line(self, tmp_path, capsys, schedule):
        path = tmp_path / "nested.tb"
        path.write_text(NESTED_LOOPS, encoding="utf-8")
        assert main(["trace", str(path), "--schedule", schedule]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        _no_fault(err)

    def test_state_diagram_without_states_exits_two(self, tmp_path, capsys):
        path = tmp_path / "stateless.tb"
        path.write_text(
            "elem s1 StateCircle\nedge t1 Tube s1 -> s1\ngroup g StateDiagram members=t1\n",
            encoding="utf-8",
        )
        assert main(["trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        _no_fault(err)


class TestUnexpectedErrors:
    def test_any_exception_is_one_error_line_and_exit_two(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "classify", broken)
        assert run(["classify", "Time"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: RuntimeError: boom\n"
        with pytest.raises(AssertionError):
            _no_fault(err)

    def test_a_bare_key_error_is_a_fault(self, monkeypatch, capsys):
        def broken(args):
            return {}["S9"]

        monkeypatch.setitem(cli._COMMANDS, "classify", broken)
        assert run(["classify", "Time"]) == 2
        assert capsys.readouterr().err == "error: KeyError: 'S9'\n"

    def test_tumbugs_own_key_errors_print_their_message(self, monkeypatch, capsys):
        from tumbug.values import UnboundSlots

        def unbound(args):
            raise UnboundSlots("S9")

        monkeypatch.setitem(cli._COMMANDS, "classify", unbound)
        assert run(["classify", "Time"]) == 2
        assert capsys.readouterr().err == "error: 'S9'\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["template", "mtrans"], "error: 'sender, receiver'\n"),
            (["classify", "Nonsense"], "error: 'Nonsense'\n"),
            (["modal", "cann", "x"], "error: 'cann (x)'\n"),
        ],
    )
    def test_key_errors_keep_their_message(self, argv, err, capsys):
        # MissingRole, UnknownKind and UnknownModalRow are KeyErrors, caught
        # as such, so their lines keep KeyError's quotes and no type name.
        assert run(argv) == 2
        assert capsys.readouterr().err == err

    def test_render_calls_the_patchable_module_level_renderer(
        self, monkeypatch, fox_fixture, tmp_path
    ):
        seen = []
        real = cli.render_svg

        def spy(d, options):
            seen.append(options.width)
            return real(d, options)

        monkeypatch.setattr(cli, "render_svg", spy)
        out = str(tmp_path / "x.svg")
        assert run(["render", str(fox_fixture), "-o", out, "--width", "500"]) == 0
        assert seen == [500]


def test_output_is_byte_stable_across_invocations(capsys):
    main(["template", "mtrans", "--roles", "sender=A", "receiver=B"])
    first = capsys.readouterr().out
    main(["template", "mtrans", "--roles", "sender=A", "receiver=B"])
    second = capsys.readouterr().out
    assert first == second


def test_legality_override_file(bad_time_fixture, tmp_path, capsys):
    permissive = tmp_path / "anything-goes.tbl"
    permissive.write_text(
        "SolitaryArrow L L L L\nSolitaryNonquan L L L L\nArrowOut L L L L\n"
        "ArrowIn L L L L\nArrowBetween L L L L\nSelfLoop L L L L\n",
        encoding="utf-8",
    )
    assert main(["validate", str(bad_time_fixture)]) == 1
    capsys.readouterr()
    assert main(["validate", str(bad_time_fixture), "--legality", str(permissive)]) == 0


def test_tables_env_var_redirects_modal_lookup(tmp_path, monkeypatch, capsys):
    from tumbug.lexicon import MODAL_CONCEPTS, MODAL_VERBS

    header = ",".join(MODAL_CONCEPTS)
    cells = ",".join(["F"] * len(MODAL_CONCEPTS))
    rows = [f"{verb}|testing|{cells}" for verb in MODAL_VERBS]
    (tmp_path / "modal_verbs.tbl").write_text(header + "\n" + "\n".join(rows) + "\n")
    monkeypatch.setenv("TUMBUG_TABLES", str(tmp_path))
    assert main(["modal", "can", "testing"]) == 0
    assert capsys.readouterr().out == "-\n"
    assert main(["modal", "can", "permission"]) == 2  # not in the override table
    _no_fault(capsys.readouterr().err)


def test_long_offending_text_is_cut_in_the_message(tmp_path, capsys):
    chain = "+".join(["a"] * 5000)
    path = tmp_path / "flat.tb"
    path.write_text(
        f'elem o1 PhysicalObjectCircle\nelem c1 CorrelationBox slots="a:o1.w" eq.a="{chain}"\n',
        encoding="utf-8",
    )
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    with pytest.raises(ParseError) as info:
        parse(path.read_text(encoding="utf-8"))
    assert info.value.found == chain and str(info.value).endswith("…")


def test_flat_expression_too_long_is_a_parse_error(tmp_path, capsys):
    # A flat chain nests no parentheses but builds a tree as tall as it has
    # operators; the recursive walkers over that tree used to overflow.
    chain = "+".join(["a"] * 5000)
    path = tmp_path / "flat.tb"
    path.write_text(
        f'elem o1 PhysicalObjectCircle\nelem c1 CorrelationBox slots="a:o1.w" eq.a="{chain}"\n',
        encoding="utf-8",
    )
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: 2:") and "Traceback" not in err


_DSL_FRAGMENTS = st.sampled_from(
    [
        "elem ", "edge ", "contain ", "group ", "attr ", "meta ", "o1 ", "o2 ", "x ", "t1 ",
        "PhysicalObjectCircle ", "AggregationBox ", "XorBox ", "AttendRing ", "StateCircle ",
        "CorrelationBox ", "SwirlyArray ", "RobinsonIcon ", "MotivationTriangle ",
        "CAObjectCircle ", "Time ", "Motion ", "Tube ", "Relationship ", "StateDiagram ",
        "SplitTime ", "-> ", "members=o1,t1 ", "trunk=t1 ", "junction=x ", "probs=0.5,0.5 ",
        "marker=o1 ", 'label="a" ', 'pos="1,2" ', 'size="3,4" ', 'edge="t1" ', 'slots="a:o1.w" ',
        'eq.a="(a+1)*2" ', 'cells="c:1:2" ', 'active="c" ', 'markers="physical:+" ',
        'forced.w=3 ', "w=range[0,1] ", "w=DK ", "moves=\"o1\" ", "\n", "#", '"', "\\", "=",
    ]
)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.lists(_DSL_FRAGMENTS, max_size=40).map(lambda parts: "".join(parts).encode()),
    )
)
def test_validate_exits_0_1_or_2_on_any_file(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "blob.tb"
    path.write_bytes(blob)
    assert _status(["validate", str(path)]) in (0, 1, 2)


_SCHEDULE_FRAGMENTS = st.sampled_from(
    ["iterations", "take", "iteration", "=", ",", "0", "1", "2", "-1", "99999999", "S3", "s2", " "]
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.text(max_size=40), st.lists(_SCHEDULE_FRAGMENTS, max_size=12).map("".join)))
def test_trace_exits_0_1_or_2_on_any_schedule(tmp_path_factory, schedule):
    path = tmp_path_factory.getbasetemp() / "nested.tb"
    path.write_text(NESTED_LOOPS, encoding="utf-8")
    assert _status(["trace", str(path), f"--schedule={schedule}"]) in (0, 1, 2)
