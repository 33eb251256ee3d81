"""Value system: scalars, ranges, wildcards, fuzzy bands, correlation equations.

Values are what attribute bindings carry. Matching against wildcards is
tri-state: ``DK`` (don't know) is deliberately not collapsed into a plain
mismatch, because "don't know" and "don't care" mean different things.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

__all__ = [
    "Scalar",
    "Text",
    "ExistenceLevel",
    "Range",
    "BallInRange",
    "FuzzyLabel",
    "Wildcard",
    "Value",
    "Match",
    "wildcard_matches",
    "FuzzyBand",
    "DEFAULT_BANDS",
    "classify_ratio",
    "OutOfDomain",
    "Const",
    "SlotRef",
    "BinOp",
    "Expr",
    "parse_expr",
    "expr_text",
    "expr_slots",
    "eval_expr",
    "UnboundSlots",
    "NoEquationForSlot",
    "DivisionByZero",
    "ExprSyntaxError",
    "fmt_num",
    "classify_count",
    "KEY_RE",
    "UNIT_RE",
]


class ValueError_(ValueError):
    """Base for value construction errors."""


# Syntax of keys (property keys, attribute names, fuzzy label names) and of
# unit tags, the names the DSL can write back unquoted.
KEY_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z%][A-Za-z0-9_%/-]*")


def fmt_num(x: float) -> str:
    """Shortest decimal that round-trips through float(), the same for equal
    numbers of any type: 20 and 20.0 both print as 20."""
    x = float(x)
    if x.is_integer():
        return str(int(x))
    return repr(x)


@dataclass(frozen=True)
class Scalar:
    value: float
    unit: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError_("scalar values must be finite")
        if self.unit is not None and not UNIT_RE.fullmatch(self.unit):
            raise ValueError_(f"unit {self.unit!r} is not a unit tag")
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Text:
    value: str


@dataclass(frozen=True)
class ExistenceLevel:
    """Likelihood of existence, 0 (does not exist) through 1 (exists)."""

    level: float

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
            raise ValueError_(f"existence level {self.level} outside [0, 1]")
        object.__setattr__(self, "level", float(self.level))


@dataclass(frozen=True)
class Range:
    """Numeric interval.  ``None`` at either end means unbounded (arrow tip).

    Caps mark whether the end point is included; unbounded ends are always
    exclusive.
    """

    lo: float | None
    hi: float | None
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.lo, self.hi) if x is not None):
            raise ValueError_("range ends must be finite or None (unbounded)")
        if self.lo is not None:
            object.__setattr__(self, "lo", float(self.lo))
        if self.hi is not None:
            object.__setattr__(self, "hi", float(self.hi))
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError_(f"range lo {self.lo} > hi {self.hi}")
        if self.lo is None:
            object.__setattr__(self, "lo_inclusive", False)
        if self.hi is None:
            object.__setattr__(self, "hi_inclusive", False)

    def contains(self, x: float) -> bool:
        if self.lo is not None:
            if x < self.lo or (x == self.lo and not self.lo_inclusive):
                return False
        if self.hi is not None:
            if x > self.hi or (x == self.hi and not self.hi_inclusive):
                return False
        return True


@dataclass(frozen=True)
class BallInRange:
    """An arbitrary but specific point somewhere within a range."""

    range: Range


@dataclass(frozen=True)
class FuzzyLabel:
    """Linguistic value with a triangular membership over [lo, hi]."""

    name: str
    lo: float
    peak: float
    hi: float

    def __post_init__(self):
        if not KEY_RE.fullmatch(self.name):
            raise ValueError_(f"fuzzy label name {self.name!r} is not a key")
        if not all(map(math.isfinite, (self.lo, self.peak, self.hi))):
            raise ValueError_("fuzzy label bounds must be finite")
        if not self.lo <= self.peak <= self.hi:
            raise ValueError_("fuzzy label needs lo <= peak <= hi")

    def membership(self, x: float) -> float:
        return triangular(x, self.lo, self.peak, self.hi)


class Wildcard(enum.Enum):
    STAR = "STAR"  # any value, matches even 0 values
    OPT = "OPT"  # any value, matches 0 or 1 values
    PLUS = "PLUS"  # any value, matches at least 1 value
    DK = "DK"  # don't know
    DC = "DC"  # don't care
    DNE = "DNE"  # does not exist


Value = Union[Scalar, Text, ExistenceLevel, Range, BallInRange, FuzzyLabel, Wildcard]


class Match(enum.Enum):
    """Tri-state match outcome; DK patterns answer UNKNOWN, not False."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        return self is Match.YES


def wildcard_matches(pattern: Value, observed: Value | None) -> Match:
    """Match an observed value (None = absent) against a pattern value.

    STAR and OPT accept absent or present, PLUS requires presence, DNE
    requires absence, DC accepts anything, DK answers UNKNOWN.  Range-like
    patterns accept scalars that fall inside their caps; concrete patterns
    require equality.
    """
    if pattern is Wildcard.DK:
        return Match.UNKNOWN
    if pattern is Wildcard.DC:
        return Match.YES
    if pattern in (Wildcard.STAR, Wildcard.OPT):
        return Match.YES
    if pattern is Wildcard.PLUS:
        return Match.YES if observed is not None else Match.NO
    if pattern is Wildcard.DNE:
        return Match.YES if observed is None else Match.NO
    if observed is None:
        return Match.NO
    if isinstance(pattern, Range):
        if isinstance(observed, Scalar):
            return Match.YES if pattern.contains(observed.value) else Match.NO
        return Match.NO
    if isinstance(pattern, BallInRange):
        if isinstance(observed, Scalar):
            return Match.YES if pattern.range.contains(observed.value) else Match.NO
        return Match.YES if pattern == observed else Match.NO
    if isinstance(pattern, FuzzyLabel):
        if isinstance(observed, Scalar):
            return Match.YES if pattern.membership(observed.value) > 0.0 else Match.NO
        return Match.YES if pattern == observed else Match.NO
    return Match.YES if pattern == observed else Match.NO


# --------------------------------------------------------------------------
# Fuzzy quantifier bands ("few", "many", ...)


class OutOfDomain(ValueError):
    """Ratio outside [0, 1] handed to a ratio band."""


def triangular(x: float, lo: float, peak: float, hi: float) -> float:
    """Triangular membership; degenerate lo==peak / peak==hi give shoulders."""
    if x == peak:
        return 1.0
    if x <= lo or x >= hi:
        return 0.0
    if x < peak:
        return (x - lo) / (peak - lo)
    return (hi - x) / (hi - peak)


@dataclass(frozen=True)
class FuzzyBand:
    """One quantifier band.

    ``domain`` is "ratio" (triangular membership over [0, 1]) or "count"
    (crisp threshold: counts >= lo are members, like "multiple" meaning 2+).
    """

    label: str
    lo: float
    peak: float | None = None
    hi: float | None = None
    domain: str = "ratio"

    def membership(self, x: float) -> float:
        if self.domain == "count":
            return 1.0 if x >= self.lo else 0.0
        if not 0.0 <= x <= 1.0:
            raise OutOfDomain(f"ratio {x} outside [0, 1]")
        return triangular(x, self.lo, self.peak, self.hi)


# Default quantifier bands.  The exact shapes are configuration, not a fixed
# rule: they approximate common intuition and can be replaced wholesale.
DEFAULT_BANDS: tuple[FuzzyBand, ...] = (
    FuzzyBand("few", 0.0, 0.15, 0.45),
    FuzzyBand("many", 0.35, 0.75, 1.0),
    FuzzyBand("most", 0.55, 0.9, 1.0),
    FuzzyBand("all", 0.95, 1.0, 1.0),
    FuzzyBand("multiple", 2.0, domain="count"),
)


def classify_ratio(
    r: float, bands: tuple[FuzzyBand, ...] = DEFAULT_BANDS
) -> list[tuple[str, float]]:
    """Memberships of r in every configured ratio band.

    Count-domain bands are skipped here; feed counts through
    :func:`classify_count` instead.
    """
    out = []
    for band in bands:
        if band.domain != "ratio":
            continue
        out.append((band.label, band.membership(r)))
    return out


def classify_count(
    n: float, bands: tuple[FuzzyBand, ...] = DEFAULT_BANDS
) -> list[tuple[str, float]]:
    """Memberships of a count in every count-domain band."""
    return [(b.label, b.membership(n)) for b in bands if b.domain == "count"]


# --------------------------------------------------------------------------
# Correlation equations: rational arithmetic expression trees over slots.


class UnboundSlots(KeyError):
    """A referenced slot has no bound value."""


class NoEquationForSlot(KeyError):
    """No equation solves the requested slot."""


class DivisionByZero(ZeroDivisionError):
    pass


class ExprSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError_("constants must be finite")
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class SlotRef:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in "+-*/":
            raise ValueError_(f"unsupported operator {self.op!r}")


Expr = Union[Const, SlotRef, BinOp]


def eval_expr(e: Expr, env: Mapping[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, SlotRef):
        if e.name not in env:
            raise UnboundSlots(e.name)
        return env[e.name]
    left = eval_expr(e.left, env)
    right = eval_expr(e.right, env)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if right == 0:
        raise DivisionByZero(f"{left} / 0")
    return left / right


def expr_slots(e: Expr) -> set[str]:
    if isinstance(e, SlotRef):
        return {e.name}
    if isinstance(e, BinOp):
        return expr_slots(e.left) | expr_slots(e.right)
    return set()


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def expr_text(e: Expr) -> str:
    """Canonical rendering; parse_expr(expr_text(e)) == e."""
    if isinstance(e, Const):
        return fmt_num(e.value)
    if isinstance(e, SlotRef):
        return e.name
    left = expr_text(e.left)
    right = expr_text(e.right)
    if isinstance(e.left, BinOp) and _PRECEDENCE[e.left.op] < _PRECEDENCE[e.op]:
        left = f"({left})"
    # Right operand needs parens at equal precedence too: a - (b - c).
    if isinstance(e.right, BinOp) and _PRECEDENCE[e.right.op] <= _PRECEDENCE[e.op]:
        right = f"({right})"
    return f"{left} {e.op} {right}"


def _height(e: Expr) -> int:
    """Operator nesting depth of an expression tree, found without recursion."""
    height, stack = 0, [(e, 0)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        if isinstance(node, BinOp):
            stack += (node.left, depth + 1), (node.right, depth + 1)
    return height


class _ExprParser:
    # Bounds the parser's recursion (parentheses, unary minus) and the height
    # of the tree, which the recursive walkers above descend: a+a+... is flat
    # text but a tree as tall as it has operators.
    _MAX_DEPTH = 200

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def parse(self) -> Expr:
        e = self.sum()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError(f"trailing input at {self.pos}: {self.text[self.pos:]!r}")
        if _height(e) > self._MAX_DEPTH:
            raise ExprSyntaxError("expression nests too deeply")
        return e

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def sum(self) -> Expr:
        e = self.term()
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                op = self.text[self.pos]
                self.pos += 1
                e = BinOp(op, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.atom()
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] in "*/":
                op = self.text[self.pos]
                self.pos += 1
                e = BinOp(op, e, self.atom())
            else:
                return e

    def atom(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ExprSyntaxError("unexpected end of expression")
        self.depth += 1
        if self.depth > self._MAX_DEPTH:
            raise ExprSyntaxError("expression nests too deeply")
        try:
            return self._atom_inner()
        finally:
            self.depth -= 1

    def _atom_inner(self) -> Expr:
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            e = self.sum()
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                raise ExprSyntaxError("missing closing paren")
            self.pos += 1
            return e
        if ch == "-":
            # Unary minus folds into the constant or negates the atom.
            self.pos += 1
            inner = self.atom()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return BinOp("-", Const(0.0), inner)
        if ch.isdigit() or ch == ".":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isdigit() or self.text[self.pos] in ".eE+-"
            ):
                # Stop at +/- unless part of an exponent.
                if self.text[self.pos] in "+-" and self.text[self.pos - 1] not in "eE":
                    break
                self.pos += 1
            try:
                return Const(float(self.text[start : self.pos]))
            except ValueError as exc:
                raise ExprSyntaxError(f"bad number {self.text[start:self.pos]!r}") from exc
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] in "_."
            ):
                self.pos += 1
            return SlotRef(self.text[start : self.pos])
        raise ExprSyntaxError(f"unexpected character {ch!r} at {self.pos}")


def parse_expr(text: str) -> Expr:
    return _ExprParser(text).parse()
