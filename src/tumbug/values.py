"""Value system: scalars, ranges, wildcards, fuzzy bands, correlation equations.

Values are what attribute bindings carry. Matching against wildcards is
tri-state: ``DK`` (don't know) is deliberately not collapsed into a plain
mismatch, because "don't know" and "don't care" mean different things.
``OPERATORS`` is the one table of the equation operators: the parser, the
evaluator and the printer here, and the arithmetic template, all read it.
"""

from __future__ import annotations

import enum
import math
import operator
import re
from typing import Mapping, Union

from . import FrozenRecord

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
    "OPERATORS",
    "IllegalText",
    "legal_text",
]


# Syntax of keys (property keys, attribute names, fuzzy label names) and of
# unit tags, the names the DSL can write back unquoted.
KEY_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z%][A-Za-z0-9_%/-]*")

# The characters no text field may hold: the C0 controls but tab, newline and
# carriage return, and U+FFFE and U+FFFF, which are no XML 1.0 characters; and
# the surrogates, which have no UTF-8 form.
_ILLEGAL_TEXT_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class IllegalText(ValueError):
    """A text holding a character that SVG or UTF-8 cannot carry."""


def legal_text(s: str) -> str:
    """s, unless it holds a character of _ILLEGAL_TEXT_RE: the one check of
    every text field (labels, properties, Text values, meta values).  No such
    character is printable, so most texts pass on str.isprintable alone; a
    value that is no str, None included, raises TypeError."""
    if str.isprintable(s):
        return s
    bad = _ILLEGAL_TEXT_RE.search(s)
    if bad is not None:
        raise IllegalText(f"text holds {bad.group()!r}, which SVG or UTF-8 cannot carry")
    return s


def fmt_num(x: float) -> str:
    """Shortest decimal that round-trips through float(), the same for equal
    numbers of any type: 20 and 20.0 both print as 20."""
    x = float(x)
    if not x.is_integer():
        return repr(x)
    if -1e16 < x < 1e16:
        return str(int(x))
    return min(str(int(x)), repr(x), key=len)  # a tie keeps the integer form


class Scalar(FrozenRecord):
    def __init__(self, value: float, unit: str | None = None):
        if not math.isfinite(value):
            raise ValueError("scalar values must be finite")
        if unit is not None and not UNIT_RE.fullmatch(unit):
            raise ValueError(f"unit {unit!r} is not a unit tag")
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "unit", unit)


class Text(FrozenRecord):
    def __init__(self, value: str):
        object.__setattr__(self, "value", legal_text(value))


class ExistenceLevel(FrozenRecord):
    """Likelihood of existence, 0 (does not exist) through 1 (exists)."""

    def __init__(self, level: float):
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"existence level {level} outside [0, 1]")
        object.__setattr__(self, "level", float(level))


class Range(FrozenRecord):
    """Numeric interval.  ``None`` at either end means unbounded (arrow tip).

    Caps mark whether the end point is included; unbounded ends are always
    exclusive.
    """

    def __init__(
        self,
        lo: float | None,
        hi: float | None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ):
        if not all(math.isfinite(x) for x in (lo, hi) if x is not None):
            raise ValueError("range ends must be finite or None (unbounded)")
        if lo is None:
            lo_inclusive = False
        else:
            lo = float(lo)
        if hi is None:
            hi_inclusive = False
        else:
            hi = float(hi)
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"range lo {lo} > hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_inclusive", lo_inclusive)
        object.__setattr__(self, "hi_inclusive", hi_inclusive)

    def contains(self, x: float) -> bool:
        if self.lo is not None:
            if x < self.lo or (x == self.lo and not self.lo_inclusive):
                return False
        if self.hi is not None:
            if x > self.hi or (x == self.hi and not self.hi_inclusive):
                return False
        return True


class BallInRange(FrozenRecord):
    """An arbitrary but specific point somewhere within a range."""

    def __init__(self, range: Range):
        object.__setattr__(self, "range", range)


class FuzzyLabel(FrozenRecord):
    """Linguistic value with a triangular membership over [lo, hi]."""

    def __init__(self, name: str, lo: float, peak: float, hi: float):
        if not KEY_RE.fullmatch(name):
            raise ValueError(f"fuzzy label name {name!r} is not a key")
        if not all(map(math.isfinite, (lo, peak, hi))):
            raise ValueError("fuzzy label bounds must be finite")
        if not lo <= peak <= hi:
            raise ValueError("fuzzy label needs lo <= peak <= hi")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "peak", peak)
        object.__setattr__(self, "hi", hi)

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


class FuzzyBand(FrozenRecord):
    """One quantifier band.

    ``domain`` is "ratio" (triangular membership over [0, 1]) or "count"
    (crisp threshold: counts >= lo are members, like "multiple" meaning 2+).
    """

    def __init__(
        self,
        label: str,
        lo: float,
        peak: float | None = None,
        hi: float | None = None,
        domain: str = "ratio",
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "peak", peak)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "domain", domain)

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
    return [(b.label, b.membership(r)) for b in bands if b.domain == "ratio"]


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


# The operators of an equation: precedence (higher binds tighter) and function.
OPERATORS = {
    "+": (1, operator.add),
    "-": (1, operator.sub),
    "*": (2, operator.mul),
    "/": (2, operator.truediv),
}


class Const(FrozenRecord):
    def __init__(self, value: float):
        if not math.isfinite(value):
            raise ValueError("constants must be finite")
        object.__setattr__(self, "value", float(value))


class SlotRef(FrozenRecord):
    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class BinOp(FrozenRecord):
    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in OPERATORS:  # op is a key of OPERATORS
            raise ValueError(f"unsupported operator {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


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
    if e.op == "/" and right == 0:
        raise DivisionByZero(f"{left} / 0")
    return OPERATORS[e.op][1](left, right)


def expr_slots(e: Expr) -> set[str]:
    if isinstance(e, SlotRef):
        return {e.name}
    if isinstance(e, BinOp):
        return expr_slots(e.left) | expr_slots(e.right)
    return set()


def expr_text(e: Expr) -> str:
    """Canonical rendering; parse_expr(expr_text(e)) == e."""
    if isinstance(e, Const):
        return fmt_num(e.value)
    if isinstance(e, SlotRef):
        return e.name
    left = expr_text(e.left)
    right = expr_text(e.right)
    if isinstance(e.left, BinOp) and OPERATORS[e.left.op][0] < OPERATORS[e.op][0]:
        left = f"({left})"
    # Right operand needs parens at equal precedence too: a - (b - c).
    if isinstance(e.right, BinOp) and OPERATORS[e.right.op][0] <= OPERATORS[e.op][0]:
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

    def parse(self) -> Expr:
        e = self.operation(1, 0)
        if self.peek():
            raise ExprSyntaxError(f"trailing input at {self.pos}: {self.text[self.pos:]!r}")
        if _height(e) > self._MAX_DEPTH:
            raise ExprSyntaxError("expression nests too deeply")
        return e

    def peek(self) -> str:
        """The next character after any whitespace, or "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos : self.pos + 1]

    def operation(self, level: int, depth: int) -> Expr:
        """Operands joined left to right by the operators of precedence
        ``level``; an operand is an operation one level up, past 2 an atom.
        ``depth`` atoms enclose the operation."""
        e = self.operation(2, depth) if level == 1 else self.atom(depth + 1)
        while (op := self.peek()) in OPERATORS and OPERATORS[op][0] == level:
            self.pos += 1
            e = BinOp(op, e, self.operation(2, depth) if level == 1 else self.atom(depth + 1))
        return e

    def atom(self, depth: int) -> Expr:
        """The atom at the next character; ``depth`` counts it and the atoms enclosing it."""
        if not self.peek():
            raise ExprSyntaxError("unexpected end of expression")
        if depth > self._MAX_DEPTH:
            raise ExprSyntaxError("expression nests too deeply")
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            e = self.operation(1, depth)
            if self.peek() != ")":
                raise ExprSyntaxError("missing closing paren")
            self.pos += 1
            return e
        if ch == "-":
            # Unary minus folds into the constant or negates the atom.
            self.pos += 1
            inner = self.atom(depth + 1)
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
