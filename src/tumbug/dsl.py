"""Line-oriented text format for diagrams with bit-exact round-trip.

Records, one per line, ``#`` comments:

    meta <key>="<value>"
    elem <id> <Kind> [key="value"]...
    contain <child-id> <parent-id>
    edge <id> <Time|Motion|Force|Causation|Tube|Relationship> [<src>] -> [<dst>] [role="..."]
    group <id> <StateDiagram|SplitTime> members=<id,...> [marker=<id>] [owner=<id>]
                                        [trunk=<id>] [junction=<id>] [probs=<p,...>]
    attr <owner-id> <attribute>=<value>

Attribute values are ``"text"``, a number (``:unit`` suffix allowed),
a wildcard keyword (``DK DC DNE STAR PLUS OPT``), ``range[lo,hi]`` with
``(`` / ``)`` for excluded end points, ``ball[lo,hi]``, ``exist[x]``, or
``fuzzy[name:lo,peak,hi]``.

Inside ``"..."`` a backslash escapes: ``\\\\`` and ``\\"`` for themselves,
``\\n \\r \\t`` for newline, carriage return and tab, and ``\\uXXXX`` (four
hex digits) for any code point but a surrogate.  Serialization writes
``\\uXXXX`` for the other characters ``str.splitlines`` breaks on (``\\x0b
\\x0c \\x1c \\x1d \\x1e \\x85 \\u2028 \\u2029``), so a quoted string never
spans two lines.  A quoted string whose text values.legal_text refuses (a
C0 control among them) is a fault at its word.

An element's payload keys and a group's keys are read and written by one
table, ``_CODEC``: per payload or group class, one row per key (``label``,
``slots``, ``eq.<slot>``, ``forced.<attribute>``, ``members``, ``probs``,
...), so a field is one row.  ``_decode`` reads and ``_encode`` writes
every row; a group's keys are written in row order.  One reader takes the
key=value words of every elem, edge and group record, and refuses a key
that comes twice.

Serialization is canonical: elements sort by id, then containment, edges,
groups, and bindings by (owner, attribute).  Numbers print as the shortest
decimal that round-trips.  parse(serialize(d)) reproduces d exactly for
every diagram.
"""

from __future__ import annotations

import math
import re
from itertools import islice
from typing import Mapping

from . import FrozenRecord, gc_paused, list_items
from .model import (
    AttributeBinding,
    CAPayload,
    CorrelationBoxPayload,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    GenericPayload,
    GroupKind,
    ModelError,
    MotivationTrianglePayload,
    Position,
    RobinsonIconPayload,
    SlotSpec,
    SplitTimeGroup,
    StateDiagramGroup,
    SwirlyArrayPayload,
    Kind,
    payload_type,
)
from .values import (
    KEY_RE,
    UNIT_RE,
    BallInRange,
    ExistenceLevel,
    ExprSyntaxError,
    FuzzyLabel,
    IllegalText,
    Range,
    Scalar,
    Text,
    Value,
    Wildcard,
    expr_text,
    fmt_num,
    legal_text,
    parse_expr,
)

__all__ = ["SourceSpan", "ParseError", "parse", "serialize", "binding_literals", "value_literal"]

_NUMBER_RE = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")

# Each line boundary str.splitlines knows is escaped, so a quoted string is one line.
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_ESCAPES.update((c, f"\\u{ord(c):04x}") for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
_ESCAPE_RE = re.compile("[" + re.escape("".join(_ESCAPES)) + "]")
_UNESCAPES = {text[1]: c for c, text in _ESCAPES.items() if len(text) == 2}
_HEX4_RE = re.compile(r"[0-9A-Fa-f]{4}")


class SourceSpan(FrozenRecord):
    def __init__(self, line: int, col_start: int, col_end: int):
        if line < 1 or col_start < 1 or col_end < col_start:
            raise ValueError("spans are 1-based with end >= start")
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "col_start", col_start)
        object.__setattr__(self, "col_end", col_end)


class ParseError(Exception):
    """A fault at ``span``; the message cuts ``found`` to 60 characters."""

    def __init__(self, span: SourceSpan, expected: str, found: str):
        self.span = span
        self.expected = expected
        self.found = found
        shown = found if len(found) <= 60 else found[:59] + "…"
        super().__init__(
            f"{span.line}:{span.col_start}-{span.col_end}: expected {expected}, found {shown}"
        )


class _Fault(Exception):
    """A fault at word ``at`` of the record being built, with ``expected``
    and ``found``; parse raises it as a ParseError at that word's span."""


def _escape(m: re.Match) -> str:
    return _ESCAPES[m.group()]


def _quote(s: str) -> str:
    return '"' + _ESCAPE_RE.sub(_escape, s) + '"'


def _unquote(at: int, raw: str) -> str:
    """The text of the quoted string ``raw``, which values.legal_text passes."""
    if len(raw) < 2 or not raw.startswith('"') or not raw.endswith('"'):
        raise _Fault(at, "quoted string", raw)
    body = raw[1:-1]
    if "\\" in body or '"' in body:
        body = _unescape(at, raw)
    try:
        return legal_text(body)
    except IllegalText as exc:
        raise _Fault(at, "legal text", str(exc)) from exc


def _unescape(at: int, raw: str) -> str:
    """The body of the quoted string ``raw`` with its escapes resolved."""
    out = []
    i = 1
    while i < len(raw) - 1:
        c = raw[i]
        if c == "\\":
            if i + 1 >= len(raw) - 1:
                raise _Fault(at, "escape sequence", raw)
            esc = raw[i + 1]
            if esc == "u":
                # The closing quote is no hex digit, so a cut-short escape fails
                # here.  A lone surrogate could not be written as UTF-8.
                digits = raw[i + 2 : i + 6]
                if not _HEX4_RE.fullmatch(digits) or 0xD800 <= int(digits, 16) <= 0xDFFF:
                    raise _Fault(at, "\\uXXXX, not a surrogate", f"\\u{digits}")
                out.append(chr(int(digits, 16)))
                i += 6
                continue
            if esc not in _UNESCAPES:
                raise _Fault(at, "known escape", f"\\{esc}")
            out.append(_UNESCAPES[esc])
            i += 2
        elif c == '"':
            raise _Fault(at, "escaped quote", raw)
        else:
            out.append(c)
            i += 1
    return "".join(out)


# A word: a run of non-space characters and complete quoted strings, in which
# a backslash escapes the next character.  It is spelled as a plain run, then
# (quoted string, plain run)*, so that each word has one reading and a
# whole-line match cannot backtrack exponentially.  The words of a line stop
# before the first word that starts with ``#``: the comment, never read.
_QUOTED = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_WORD = rf'[^\s"]+(?:{_QUOTED}[^\s"]*)*|(?:{_QUOTED}[^\s"]*)+'
_WORD_RE = re.compile(_WORD, re.DOTALL)
_WORDS_RE = re.compile(rf"\s*(?:(?!#)(?:{_WORD})(?:\s+|\Z))*", re.DOTALL)


def _plain(s: str) -> bool:
    """Whether str.split gives the words of s, a line or a whole text.  The
    odd parts of s split at the quotes are the quoted bodies; with no
    backslash in a body each quote closes the one before, so with no ``#``,
    even quotes and no whitespace in a body, the words are str.split's.  A
    line break is whitespace, so each line of a plain text is plain."""
    if "#" in s:
        return False
    if '"' not in s:
        return True
    parts = s.split('"')
    quoted = "".join(parts[1::2])
    return len(parts) % 2 == 1 and "\\" not in quoted and (not quoted or quoted.split() == [quoted])


def _split(line: str, lineno: int) -> tuple[str, ...]:
    """The words of a line before its comment, split by one C-level call
    when the line is plain, else read with the word patterns."""
    if _plain(line):
        return tuple(line.split())
    if line.lstrip().startswith("#"):  # a whole-line comment: no pattern reads it
        return ()
    # The words run up to the comment or to the first token that no word
    # reads; a token that does not start with ``#`` holds a quote that is
    # never closed.
    end = _WORDS_RE.match(line).end()
    if end < len(line) and line[end] != "#":
        raise ParseError(SourceSpan(lineno, end + 1, len(line)), "closing quote", "end of line")
    return tuple(_WORD_RE.findall(line, 0, end))


# --------------------------------------------------------------------------
# Value literals.


def value_literal(v: Value) -> str:
    if isinstance(v, Text):
        return _quote(v.value)
    if isinstance(v, Scalar):
        if v.unit is not None:
            return f"{fmt_num(v.value)}:{v.unit}"
        return fmt_num(v.value)
    if isinstance(v, Wildcard):
        return v.value
    if isinstance(v, ExistenceLevel):
        return f"exist[{fmt_num(v.level)}]"
    if isinstance(v, Range):
        return "range" + _range_body(v)
    if isinstance(v, BallInRange):
        return "ball" + _range_body(v.range)
    if isinstance(v, FuzzyLabel):
        return (
            f"fuzzy[{v.name}:{fmt_num(v.lo)},{fmt_num(v.peak)},{fmt_num(v.hi)}]"
        )
    raise TypeError(f"not a value: {v!r}")


def _range_body(r: Range) -> str:
    open_cap = "[" if r.lo_inclusive else "("
    close_cap = "]" if r.hi_inclusive else ")"
    lo = "-inf" if r.lo is None else fmt_num(r.lo)
    hi = "inf" if r.hi is None else fmt_num(r.hi)
    return f"{open_cap}{lo},{hi}{close_cap}"


def _parse_value_literal(at: int, raw: str) -> Value:
    if raw.startswith('"'):
        return Text(_unquote(at, raw))
    if raw in Wildcard.__members__:
        return Wildcard[raw]
    for prefix in ("range", "ball"):
        if raw.startswith(prefix) and len(raw) > len(prefix) and raw[len(prefix)] in "[(":
            r = _parse_range_body(at, raw[len(prefix):])
            return r if prefix == "range" else BallInRange(r)
    if raw.startswith("exist[") and raw.endswith("]"):
        level = _parse_number(at, raw[6:-1])
        try:
            return ExistenceLevel(level)
        except ValueError as exc:
            raise _Fault(at, "existence level in [0,1]", raw) from exc
    if raw.startswith("fuzzy[") and raw.endswith("]"):
        body = raw[6:-1]
        if ":" not in body:
            raise _Fault(at, "fuzzy[name:lo,peak,hi]", raw)
        name, _, nums = body.partition(":")
        parts = nums.split(",")
        if len(parts) != 3 or not KEY_RE.fullmatch(name):
            raise _Fault(at, "fuzzy[name:lo,peak,hi]", raw)
        lo, peak, hi = (_parse_number(at, p) for p in parts)
        try:
            return FuzzyLabel(name, lo, peak, hi)
        except ValueError as exc:
            raise _Fault(at, "lo <= peak <= hi", raw) from exc
    number, _, unit = raw.partition(":")
    if _NUMBER_RE.fullmatch(number):
        if unit and not UNIT_RE.fullmatch(unit):
            raise _Fault(at, "unit tag", unit)
        return Scalar(_parse_number(at, number), unit or None)
    raise _Fault(at, "value literal", raw)


def _parse_number(at: int, raw: str) -> float:
    if not _NUMBER_RE.fullmatch(raw):
        raise _Fault(at, "number", raw)
    value = float(raw)
    if not math.isfinite(value):
        raise _Fault(at, "finite number", raw)
    return value


def _parse_range_body(at: int, body: str) -> Range:
    if len(body) < 4 or body[0] not in "[(" or body[-1] not in "])":
        raise _Fault(at, "range[lo,hi]", body)
    lo_inc = body[0] == "["
    hi_inc = body[-1] == "]"
    parts = body[1:-1].split(",")
    if len(parts) != 2:
        raise _Fault(at, "two range bounds", body)
    lo = None if parts[0] == "-inf" else _parse_number(at, parts[0])
    hi = None if parts[1] == "inf" else _parse_number(at, parts[1])
    try:
        return Range(lo, hi, lo_inc, hi_inc)
    except ValueError as exc:
        raise _Fault(at, "lo <= hi", body) from exc


# --------------------------------------------------------------------------
# Codec: per payload or group class, one row per DSL key, in decode order.
#
# A row is (key, attribute, encode, decode).  For a plain key, encode gives
# the text to write, or None to write nothing, and decode(at, text) gives
# the attribute; an absent key leaves the class's default, or raises its
# fault in _REQUIRED.  A prefix key (ending in "." or empty) holds every key
# that starts with it: encode gives (suffix, text) pairs, and decode gets the
# [(suffix, at, text)] pairs in key order.


def _same(value):
    return value


def _text(at: int, text: str) -> str:
    return text


def _list(key: str, attribute: str, show, read, collect=tuple, empty=None):
    """The row of a comma-separated list: show writes one item and
    read(at, part) reads one; a set (collect=frozenset) is written sorted,
    and an empty list as ``empty``."""
    order = sorted if collect is frozenset else tuple
    return (
        key,
        attribute,
        lambda items: None if items is None else ",".join(map(show, order(items))) or empty,
        lambda at, text: collect(read(at, part) for part in list_items(text)),
    )


def _slot(at: int, part: str) -> SlotSpec:
    name, _, rest = part.partition(":")
    element, _, attribute = rest.partition(".")
    try:
        return SlotSpec(name, element, attribute)
    except ModelError as exc:
        raise _Fault(at, "slot as name:element.attribute", part) from exc


def _marker(at: int, part: str) -> tuple[str, str]:
    level, sep, valence = part.partition(":")
    if not sep:
        raise _Fault(at, "marker as level:valence", part)
    return level, valence


def _cell(at: int, part: str) -> tuple[str, float, float]:
    bits = part.split(":")
    if len(bits) != 3:
        raise _Fault(at, "cell as name:x:y", part)
    return bits[0], _parse_number(at, bits[1]), _parse_number(at, bits[2])


def _expr(at: int, text: str):
    try:
        return parse_expr(text)
    except ExprSyntaxError as exc:
        raise _Fault(at, "arithmetic expression", text) from exc


def _literals(bindings) -> list[tuple[str, str]]:
    return [(b.attribute, value_literal(b.value)) for b in bindings]


def _bindings(items) -> tuple[AttributeBinding, ...]:
    return tuple(AttributeBinding(s, _parse_value_literal(at, text)) for s, at, text in items)


_LABEL = ("label", "label", _same, _text)
_ACTIVE = _list("active", "active", str, _text, frozenset)

_CODEC = {
    GenericPayload: (_LABEL, ("", "props", dict.items, lambda items: {s: t for s, _, t in items})),
    CorrelationBoxPayload: (
        _list("slots", "slots", lambda s: f"{s.name}:{s.element}.{s.attribute}", _slot),
        (
            "eq.",
            "equations",
            lambda eqs: [(name, expr_text(eqs[name])) for name in sorted(eqs)],
            lambda items: {s: _expr(at, text) for s, at, text in items},
        ),
    ),
    CAPayload: (
        _LABEL,
        ("ellipsis", "open_ended", lambda on: "true" if on else None, lambda at, text: text == "true"),
        ("detected.", "detected", _literals, _bindings),
        ("forced.", "forced", _literals, _bindings),
    ),
    MotivationTrianglePayload: (
        _LABEL,
        ("robinson", "robinson", _same, _text),
        _list("markers", "markers", ":".join, _marker, frozenset),
    ),
    RobinsonIconPayload: (
        _LABEL,
        _ACTIVE,
        ("valence", "valence", _same, lambda at, text: text or "+"),
        ("subnode", "subnode", _same, _text),
        ("target", "cathected_target", _same, _text),
    ),
    SwirlyArrayPayload: (
        _LABEL,
        _list("cells", "cells", lambda c: f"{c[0]}:{fmt_num(c[1])}:{fmt_num(c[2])}", _cell),
        _ACTIVE,
    ),
    StateDiagramGroup: (
        _list("members", "members", str, _text, empty=""),
        ("marker", "marker", _same, _text),
        ("owner", "owner", _same, _text),
    ),
    SplitTimeGroup: (
        _list("members", "branches", str, _text, empty=""),
        ("trunk", "trunk", _same, _text),
        ("junction", "junction", _same, _text),
        _list("probs", "probabilities", fmt_num, _parse_number, empty=""),
    ),
}
# The rows of each element kind's payload class.
_ROWS = {kind: _CODEC[payload_type(kind)] for kind in Kind}
# The keys a group record must hold, each with its fault at the kind word.
_REQUIRED = {
    "members": ("members=<id,...>", "no members key"),
    "trunk": ("trunk= and junction=", "missing keys"),
    "junction": ("trunk= and junction=", "missing keys"),
}


def _encode(obj, rows) -> dict[str, str]:
    """The key/text pairs the rows write for obj, in row order."""
    pairs: dict[str, str] = {}
    for key, attribute, encode, _ in rows:
        written = encode(getattr(obj, attribute))
        if not key or key[-1] == ".":
            for suffix, text in written:
                pairs[key + suffix] = text
        elif written is not None:
            pairs[key] = written
    return pairs


def _decode(rows, pairs: dict[str, tuple[int, str]]) -> dict:
    """The attributes the rows read from key/value pairs (consumes them)."""
    fields = {}
    for key, attribute, _, decode in rows:
        if not pairs and key not in _REQUIRED:
            continue  # the row keeps its default
        if not key or key[-1] == ".":
            taken = [(k[len(key):], *pairs.pop(k)) for k in sorted(pairs) if k.startswith(key)]
            fields[attribute] = decode(taken)
        elif key in pairs:
            fields[attribute] = decode(*pairs.pop(key))
        elif key in _REQUIRED:
            raise _Fault(2, *_REQUIRED[key])
    return fields


# --------------------------------------------------------------------------
# Parsing.

# The kinds by their DSL names: a dict lookup costs a twentieth of an Enum call.
_KINDS = {k.value: k for k in Kind}
_EDGE_KINDS = {k.value: k for k in EdgeKind}
_GROUP_KIND = {StateDiagramGroup: GroupKind.STATE_DIAGRAM, SplitTimeGroup: GroupKind.SPLIT_TIME}
_GROUP_KINDS = {k.value: cls for cls, k in _GROUP_KIND.items()}  # the classes by name
# And the DSL name of every kind: reading .value costs seven lookups here.
_NAMES = {k: k.value for kinds in (Kind, EdgeKind, GroupKind) for k in kinds}


def _lines(text: str) -> dict[str, list[tuple[int, str, tuple[str, ...]]]]:
    """The records of a text by keyword, each as (lineno, line, words).
    Every line is split before any record is built, so a syntax fault
    anywhere is reported before a fault in a record on an earlier line.  A
    record holds str and int only, so the cyclic GC stops tracking it.  A
    plain text is split line by line with str.split: decided once per text."""
    plain = _plain(text)
    buckets: dict[str, list[tuple[int, str, tuple[str, ...]]]] = {
        key: [] for key in ("meta", "elem", "contain", "edge", "group", "attr")
    }
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = tuple(line.split()) if plain else _split(line, lineno)
        if not words:
            continue
        bucket = buckets.get(words[0])
        if bucket is None:
            raise _locate(lineno, line, 0, "record keyword", words[0])
        bucket.append((lineno, line, words))
    return buckets


@gc_paused
def parse(text: str | bytes) -> Diagram:
    """Parse DSL text into a diagram; raises ParseError at the first fault."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(SourceSpan(1, 1, 1), "UTF-8 text", "invalid bytes") from exc
    buckets = _lines(text)

    # A _Fault names a word of the record being built, and a writer's
    # refusal names an id; each loop below binds that record's lineno, line
    # and words, so the handlers can locate the word.  The diagram's views
    # are live, so each is read once.
    d = Diagram()
    elements, meta = d.elements, d.meta
    try:
        for lineno, line, words in buckets["meta"]:
            if len(words) != 2:
                raise _Fault(0, "meta key=\"value\"", " ".join(words))
            key, value = _split_pair(words, 1, quoted=True)
            if key in meta:
                raise _Fault(1, "unique meta key", key)
            d.set_meta(key, value)

        # Elem pair words and edge role words repeat, so each distinct one
        # is decoded once, to its key and text.  Only a word that decoded
        # goes in, so a bad word faults on each line that holds it.  The
        # dict dies with the parse.
        decoded: dict[str, tuple[str, str]] = {}
        for lineno, line, words in buckets["elem"]:
            eid, kind = _record_head(words, _KINDS, "elem <id> <Kind>", "element kind")
            pairs = _read_pairs(words, 3, decoded, quoted=True)
            position = _take_position(pairs)
            try:
                payload = payload_type(kind)(**_decode(_ROWS[kind], pairs))
            except (ModelError, ValueError) as exc:
                raise _Fault(2, "well-formed payload", str(exc)) from exc
            if pairs:
                stray = sorted(pairs)[0]
                raise _Fault(pairs[stray][0], f"no {stray!r} key on {kind.value}", stray)
            d.add_element(Element(kind=kind, payload=payload, position=position, id=eid))

        for lineno, line, words in buckets["contain"]:
            if len(words) != 3:
                raise _Fault(0, "contain <child> <parent>", "record shape")
            d.contain(words[1], words[2])

        for lineno, line, words in buckets["edge"]:
            _parse_edge(d, words, decoded)

        for lineno, line, words in buckets["group"]:
            _parse_group(d, elements, words)

        # Equal attr words share one binding: it and its value are frozen.
        # Only a word that built a binding goes in, and the dict dies with
        # the parse.
        shared: dict[str, AttributeBinding] = {}
        for lineno, line, words in buckets["attr"]:
            if len(words) != 3:
                raise _Fault(0, "attr <owner> <attribute>=<value>", "record shape")
            binding = shared.get(words[2])
            if binding is None:
                name, _, raw = words[2].partition("=")
                if not raw:
                    raise _Fault(2, "attribute=value", words[2])
                value = _parse_value_literal(2, raw)
                try:
                    binding = shared[words[2]] = AttributeBinding(name, value)
                except ModelError as exc:
                    raise _Fault(2, "legal binding", str(exc)) from exc
            # Hosting legality and conflicts are the validator's concern.
            d.append_binding(words[1], binding)
    except _Fault as fault:
        raise _locate(lineno, line, *fault.args) from fault.__cause__
    except ModelError as exc:
        found = str(exc)
        raise _locate(lineno, line, _naming(words, found), _REFUSED[words[0]], found) from exc

    return d


# What each record's writer expects, for a refusal that no _Fault places.
_REFUSED = {
    "elem": "insertable element",
    "contain": "legal containment",
    "edge": "insertable edge",
    "group": "insertable group",
    "attr": "existing owner",
}


def _naming(words: tuple[str, ...], name: str) -> int:
    """The first word from word 1 on that names ``name``, the id a writer
    refused: the whole word, the value of a key=value word, or one item of
    that value's list.  Word 1 if none does, as for a refusal that names
    no id."""
    for at in range(1, len(words)):
        _, sep, value = words[at].partition("=")
        if words[at] == name or (sep and (value == name or name in list_items(value))):
            return at
    return 1


def _locate(lineno: int, line: str, at: int, expected: str, found: str) -> ParseError:
    """The ParseError at word ``at`` of a line.  Only here, on a fault, are
    a split line's words found again: before any comment, they are the
    matches of _WORD_RE."""
    word = next(islice(_WORD_RE.finditer(line), at, None))
    return ParseError(SourceSpan(lineno, word.start() + 1, word.end()), expected, found)


def _record_head(words: tuple[str, ...], kinds: dict, shape: str, expected: str) -> tuple:
    """The id and kind of an elem, edge or group record."""
    if len(words) < 3:
        raise _Fault(0, shape, "end of record")
    kind = kinds.get(words[2])
    if kind is None:
        raise _Fault(2, expected, words[2])
    return words[1], kind


def _split_pair(words: tuple[str, ...], at: int, quoted: bool) -> tuple[str, str]:
    key, sep, raw = words[at].partition("=")
    if not sep or not KEY_RE.fullmatch(key):
        raise _Fault(at, "key=\"value\"", words[at])
    if quoted:
        return key, _unquote(at, raw)
    return key, raw


def _read_pairs(
    words: tuple[str, ...],
    start: int,
    decoded: dict[str, tuple[str, str]],
    quoted: bool,
    only: str | None = None,
) -> dict[str, tuple[int, str]]:
    """The key=value words of an elem, edge or group record from ``start`` on,
    by key, each with its index.  A key may come once, and when ``only`` is
    given no other key.  ``decoded`` holds each word already split, and
    takes each word that splits."""
    pairs: dict[str, tuple[int, str]] = {}
    for at in range(start, len(words)):
        pair = decoded.get(words[at])
        if pair is None:
            pair = decoded[words[at]] = _split_pair(words, at, quoted)
        key, value = pair
        if key in pairs:
            raise _Fault(at, "unique key", key)
        if only is not None and key != only:
            raise _Fault(at, f"{only} key", key)
        pairs[key] = (at, value)
    return pairs


def _take_position(pairs: dict[str, tuple[int, str]]) -> Position | None:
    pos = pairs.pop("pos", None)
    size = pairs.pop("size", None)
    if pos is None:
        if size is not None:
            raise _Fault(size[0], "pos together with size", "size alone")
        return None
    x, y = _number_pair(*pos, "pos as x,y")
    w, h = (None, None) if size is None else _number_pair(*size, "size as w,h")
    return Position(x, y, w, h)


def _number_pair(at: int, text: str, expected: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _Fault(at, expected, text)
    return _parse_number(at, parts[0]), _parse_number(at, parts[1])


def _parse_edge(d: Diagram, words: tuple[str, ...], decoded: dict[str, tuple[str, str]]) -> None:
    eid, kind = _record_head(words, _EDGE_KINDS, "edge <id> <Kind> [src] -> [dst]", "edge kind")
    source = target = None
    n = len(words)
    at = 3
    if at < n and words[at] != "->" and "=" not in words[at]:
        source = words[at]
        at += 1
    if at >= n or words[at] != "->":
        raise _Fault(min(at, n - 1), "'->'", words[at] if at < n else "end of record")
    at += 1
    if at < n and "=" not in words[at]:
        target = words[at]
        at += 1
    role = None
    if at < n:  # what is left is key=value words, of which only role= is read
        at, role = _read_pairs(words, at, decoded, quoted=True, only="role")["role"]
    try:
        edge = Edge(kind=kind, source=source, target=target, role=role, id=eid)
    except ModelError as exc:  # only a role is refused
        raise _Fault(at, "insertable edge", str(exc)) from exc
    d.add_edge(edge)


def _parse_group(d: Diagram, elements: Mapping[str, Element], words: tuple[str, ...]) -> None:
    gid, cls = _record_head(words, _GROUP_KINDS, "group <id> <Kind>", "group kind")
    pairs = _read_pairs(words, 3, {}, quoted=False)  # group words seldom repeat
    probs = pairs.get("probs")  # _decode consumes pairs
    fields = _decode(_CODEC[cls], pairs)
    if cls is StateDiagramGroup:
        # A member that names an element is a state; any other, a tube.
        members = fields.pop("members")
        fields["states"] = tuple(m for m in members if m in elements)
        fields["tubes"] = tuple(m for m in members if m not in elements)
    if pairs:
        stray = min(pairs)
        raise _Fault(pairs[stray][0], f"{words[2]} group key", stray)
    try:
        group = cls(id=gid, **fields)
    except ModelError as exc:  # only a split-time group's probabilities are refused
        raise _Fault(probs[0], "legal probabilities", str(exc)) from exc
    d.add_group(group)


# --------------------------------------------------------------------------
# Serialization.


def binding_literals(d: Diagram) -> list[tuple[str, str, str]]:
    """``(owner, attribute, value literal)`` per binding, sorted: the order in
    which serialize writes the bindings and render draws each owner's.

    The diagram keeps the literal of each binding by its place in
    ``d.bindings``, which only grows, so a call writes the literals of the
    bindings added since the last.  Bindings share few values, so a call
    writes each distinct value once and keeps one string for equal values.
    It stores a new list in place of extending the kept one, so two calls
    at once each read true literals."""
    bindings = d.bindings
    known = d._written_literals
    if len(known) < len(bindings):
        written: dict[Value, str] = {}
        fresh = []
        for _, b in bindings[len(known):]:
            literal = written.get(b.value)
            if literal is None:
                literal = written[b.value] = value_literal(b.value)
            fresh.append(literal)
        known = d._written_literals = known + fresh
    return sorted([(owner, b.attribute, literal) for (owner, b), literal in zip(bindings, known)])


def _element_line(eid: str, el: Element, quoted: dict[str, str]) -> str:
    """The elem line of an element; ``quoted`` holds each pair text quoted."""
    pairs = _encode(el.payload, _ROWS[el.kind])
    if el.position is not None:
        pairs["pos"] = f"{fmt_num(el.position.x)},{fmt_num(el.position.y)}"
        if el.position.w is not None and el.position.h is not None:
            pairs["size"] = f"{fmt_num(el.position.w)},{fmt_num(el.position.h)}"
    parts = ["elem", eid, _NAMES[el.kind]]
    for key, text in sorted(pairs.items()):
        q = quoted.get(text)
        if q is None:
            q = quoted[text] = _quote(text)
        parts.append(f"{key}={q}")
    return " ".join(parts)


def _edge_line(eid: str, e: Edge) -> str:
    """The edge line of an edge."""
    parts = ["edge", eid, _NAMES[e.kind]]
    if e.source is not None:
        parts.append(e.source)
    parts.append("->")
    if e.target is not None:
        parts.append(e.target)
    if e.role is not None:
        parts.append(f"role={_quote(e.role)}")
    return " ".join(parts)


def serialize(d: Diagram) -> str:
    """Canonical text for a diagram; stable across runs and insert orders.
    The text of every diagram parses back to an equal diagram.

    The diagram keeps the line written for each element and edge id: no
    writer replaces either, so a call encodes only the records added since
    the last.  Containment, meta and group lines are written afresh."""
    lines = [f"meta {key}={_quote(value)}" for key, value in sorted(d.meta.items())]
    written = d._written_lines
    # Labels and values repeat, so each distinct element pair text is quoted
    # once per call.  A plain dict: a miss costs one get and one store.
    quoted: dict[str, str] = {}
    elements = d.elements
    for eid in sorted(elements):
        line = written.get(eid)
        if line is None:
            line = written[eid] = _element_line(eid, elements[eid], quoted)
        lines.append(line)
    lines.extend(f"contain {child} {parent}" for child, parent in sorted(d.containment.items()))
    edges = d.edges
    for eid in sorted(edges):
        line = written.get(eid)
        if line is None:
            line = written[eid] = _edge_line(eid, edges[eid])
        lines.append(line)
    for gid, g in sorted(d.groups.items()):
        parts = [f"{k}={v}" for k, v in _encode(g, _CODEC[type(g)]).items()]
        lines.append(" ".join(["group", gid, _NAMES[_GROUP_KIND[type(g)]], *parts]))
    lines.extend(f"attr {owner} {attr}={literal}" for owner, attr, literal in binding_literals(d))
    return "\n".join(lines) + ("\n" if lines else "")
