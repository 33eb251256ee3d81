import random

import pytest

from tumbug.values import (
    BallInRange,
    BinOp,
    Const,
    DEFAULT_BANDS,
    DivisionByZero,
    ExistenceLevel,
    FuzzyBand,
    FuzzyLabel,
    Match,
    NoEquationForSlot,
    OutOfDomain,
    Range,
    Scalar,
    SlotRef,
    Text,
    UnboundSlots,
    Wildcard,
    classify_count,
    classify_ratio,
    eval_expr,
    expr_text,
    fmt_num,
    parse_expr,
    wildcard_matches,
)
from tumbug.model import CorrelationBoxPayload, SlotSpec, evaluate_correlation

from conftest import random_value


class TestValueInvariants:
    def test_scalar_must_be_finite(self):
        with pytest.raises(ValueError):
            Scalar(float("inf"))
        with pytest.raises(ValueError):
            Scalar(float("nan"))

    def test_existence_level_bounds(self):
        assert ExistenceLevel(0.0).level == 0.0
        assert ExistenceLevel(1.0).level == 1.0
        with pytest.raises(ValueError):
            ExistenceLevel(1.5)
        with pytest.raises(ValueError):
            ExistenceLevel(-0.1)

    def test_range_order(self):
        with pytest.raises(ValueError):
            Range(5, -5)

    def test_range_unbounded_ends_are_exclusive(self):
        r = Range(None, 3)
        assert not r.lo_inclusive
        assert r.contains(-1e12)

    def test_fuzzy_label_needs_sorted_params(self):
        with pytest.raises(ValueError):
            FuzzyLabel("few", 0.5, 0.2, 0.9)

    @pytest.mark.parametrize("unit", ["a b", "", "1kg", "kg:", "k\"g", "é", "kg\n"])
    def test_scalar_unit_must_be_a_unit_tag(self, unit):
        # The DSL writes a unit unquoted after "number:", so it could not be
        # read back; an empty unit would read back as no unit.
        with pytest.raises(ValueError):
            Scalar(1, unit)

    @pytest.mark.parametrize("unit", [None, "kg", "m/s", "%", "kg_2-x"])
    def test_scalar_units_the_dsl_writes(self, unit):
        assert Scalar(1, unit).unit == unit

    @pytest.mark.parametrize("name", ["a b", "", "a:b", "few]", "é"])
    def test_fuzzy_label_name_must_be_a_key(self, name):
        with pytest.raises(ValueError):
            FuzzyLabel(name, 0, 1, 2)

    def test_wildcard_set_is_exactly_six(self):
        assert {w.value for w in Wildcard} == {"STAR", "OPT", "PLUS", "DK", "DC", "DNE"}


class TestWildcardMatching:
    def test_star_matches_absent(self):
        assert wildcard_matches(Wildcard.STAR, None) is Match.YES

    def test_plus_requires_presence(self):
        assert wildcard_matches(Wildcard.PLUS, None) is Match.NO
        assert wildcard_matches(Wildcard.PLUS, Scalar(1)) is Match.YES

    def test_opt_matches_zero_or_one(self):
        assert wildcard_matches(Wildcard.OPT, None) is Match.YES
        assert wildcard_matches(Wildcard.OPT, Text("x")) is Match.YES

    def test_dne_matches_only_absent(self):
        assert wildcard_matches(Wildcard.DNE, None) is Match.YES
        assert wildcard_matches(Wildcard.DNE, Scalar(0)) is Match.NO

    def test_dk_answers_unknown_not_false(self):
        result = wildcard_matches(Wildcard.DK, Scalar(3))
        assert result is Match.UNKNOWN
        assert not result  # unknown is still falsy as a plain bool

    def test_range_caps(self):
        inclusive = Range(-5, 5)
        assert wildcard_matches(inclusive, Scalar(5)) is Match.YES
        exclusive_hi = Range(-5, 5, True, False)
        assert wildcard_matches(exclusive_hi, Scalar(5)) is Match.NO
        assert wildcard_matches(exclusive_hi, Scalar(4.999)) is Match.YES

    def test_ball_in_range_accepts_scalar_inside(self):
        assert wildcard_matches(BallInRange(Range(0, 2)), Scalar(1)) is Match.YES

    def test_concrete_equality(self):
        assert wildcard_matches(Text("red"), Text("red")) is Match.YES
        assert wildcard_matches(Text("red"), Text("blue")) is Match.NO
        assert wildcard_matches(Scalar(3, "kg"), Scalar(3, "kg")) is Match.YES
        assert wildcard_matches(Scalar(3, "kg"), Scalar(3, "m/s")) is Match.NO

    def test_dc_matches_every_value_variant(self):
        rng = random.Random(42)
        for _ in range(500):
            v = random_value(rng)
            assert wildcard_matches(Wildcard.DC, v) is Match.YES
        assert wildcard_matches(Wildcard.DC, None) is Match.YES


def oracle_triangle(x, lo, peak, hi):
    """Independent piecewise evaluation for cross-checking band memberships."""
    if x == peak:
        return 1.0
    if x <= lo or x >= hi:
        return 0.0
    if x < peak:
        return (x - lo) / (peak - lo)
    return (hi - x) / (hi - peak)


class TestClassifyRatio:
    def test_count_form_multiple(self):
        memberships = dict(classify_count(3))
        assert memberships["multiple"] == 1.0
        assert dict(classify_count(1))["multiple"] == 0.0
        assert dict(classify_count(2))["multiple"] == 1.0

    def test_all_is_full_at_endpoint(self):
        assert dict(classify_ratio(1.0))["all"] == 1.0

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            classify_ratio(1.2)
        with pytest.raises(OutOfDomain):
            classify_ratio(-0.001)

    def test_default_bands_match_oracle_at_0_6(self):
        got = dict(classify_ratio(0.6))
        for band in DEFAULT_BANDS:
            if band.domain != "ratio":
                continue
            expected = oracle_triangle(0.6, band.lo, band.peak, band.hi)
            assert got[band.label] == pytest.approx(expected)
        # spot values computed from the shipped band shapes
        assert got["few"] == 0.0
        assert got["many"] == pytest.approx((0.6 - 0.35) / (0.75 - 0.35))
        assert got["most"] == pytest.approx((0.6 - 0.55) / (0.9 - 0.55))

    def test_memberships_stay_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(1000):
            r = rng.random()
            for _, m in classify_ratio(r):
                assert 0.0 <= m <= 1.0

    def test_custom_band(self):
        bands = (FuzzyBand("half", 0.25, 0.5, 0.75),)
        assert dict(classify_ratio(0.5, bands))["half"] == 1.0


class TestExpressions:
    def test_parse_eval(self):
        e = parse_expr("100 - w2")
        assert eval_expr(e, {"w2": 25}) == 75

    def test_parse_precedence(self):
        e = parse_expr("2 + 3 * 4")
        assert eval_expr(e, {}) == 14
        e = parse_expr("(2 + 3) * 4")
        assert eval_expr(e, {}) == 20

    def test_text_round_trip(self):
        for text in ("100 - w2", "a + b * c", "(a + b) * c", "a - (b - c)", "-5 + x"):
            e = parse_expr(text)
            assert parse_expr(expr_text(e)) == e

    def test_random_tree_round_trip(self):
        rng = random.Random(11)

        def tree(depth):
            if depth == 0 or rng.random() < 0.3:
                if rng.random() < 0.5:
                    return Const(float(rng.randrange(-20, 20)))
                return SlotRef(rng.choice("xyz"))
            return BinOp(rng.choice("+-*/"), tree(depth - 1), tree(depth - 1))

        for _ in range(300):
            e = tree(4)
            assert parse_expr(expr_text(e)) == e

    @pytest.mark.parametrize("op", ["", "+-", "*/", "%"])
    def test_binop_refuses_unknown_operators(self, op):
        # A substring test once let "" and "+-" through, and serialize then
        # wrote equations that parse refuses or reads back differently.
        with pytest.raises(ValueError, match="unsupported operator"):
            BinOp(op, Const(6.0), SlotRef("w2"))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            eval_expr(parse_expr("1 / x"), {"x": 0})

    def test_deep_nesting_rejected(self):
        with pytest.raises(ValueError):
            parse_expr("(" * 500 + "1" + ")" * 500)


def water_payload(total=100.0):
    return CorrelationBoxPayload(
        slots=(SlotSpec("w1", "bottle", "weight"), SlotSpec("w2", "cup", "weight")),
        equations={
            "w1": BinOp("-", Const(total), SlotRef("w2")),
            "w2": BinOp("-", Const(total), SlotRef("w1")),
        },
    )


class TestEvaluateCorrelation:
    def test_water_example(self):
        assert evaluate_correlation(water_payload(), {"w2": 25.0}, "w1") == 75.0

    def test_boundary(self):
        assert evaluate_correlation(water_payload(), {"w2": 100.0}, "w1") == 0.0

    def test_conservation_property(self):
        rng = random.Random(5)
        payload = water_payload()
        for _ in range(10_000):
            w2 = rng.uniform(0, 100)
            w1 = evaluate_correlation(payload, {"w2": w2}, "w1")
            assert abs(w1 + w2 - 100.0) <= 1e-9

    def test_inverse_recovers_input(self):
        rng = random.Random(9)
        payload = water_payload()
        for _ in range(1000):
            w1 = rng.uniform(0, 100)
            w2 = evaluate_correlation(payload, {"w1": w1}, "w2")
            back = evaluate_correlation(payload, {"w2": w2}, "w1")
            assert abs(back - w1) <= 1e-9

    def test_unbound_and_missing_equation(self):
        payload = water_payload()
        with pytest.raises(UnboundSlots):
            evaluate_correlation(payload, {}, "w1")
        with pytest.raises(NoEquationForSlot):
            evaluate_correlation(payload, {"w2": 5.0}, "w3")

    def test_invertible_flag(self):
        assert water_payload().invertible
        partial = CorrelationBoxPayload(
            slots=(SlotSpec("a", "x", "v"), SlotSpec("b", "y", "v")),
            equations={"a": SlotRef("b")},
        )
        assert not partial.invertible

    def test_equation_must_use_declared_slots(self):
        with pytest.raises(Exception):
            CorrelationBoxPayload(
                slots=(SlotSpec("a", "x", "v"),),
                equations={"a": SlotRef("mystery")},
            )


class TestNumberFormatting:
    @pytest.mark.parametrize("x", [0.0, 1.0, -3.0, 0.833, 0.1, 1e-7, 123456.789])
    def test_shortest_round_trip(self, x):
        assert float(fmt_num(x)) == x

    def test_integers_print_bare(self):
        assert fmt_num(3.0) == "3"
        assert fmt_num(-2.0) == "-2"

    @pytest.mark.parametrize(
        "x, text",
        [(1e200, "1e+200"), (-1e200, "-1e+200"), (2.0**64, "18446744073709551616"), (1e16, "1e+16")],
    )
    def test_large_integers_print_the_shorter_form(self, x, text):
        # 1e200 printed as 201 digits; repr is not always shorter: 2**64 is
        # 20 characters as an integer and 22 as 1.8446744073709552e+19.
        assert fmt_num(x) == text
        assert float(text) == x
