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
spans two lines.

An element's payload keys are read and written by one table, ``_CODEC``:
per payload type, one row per key (``label``, ``slots``, ``eq.<slot>``,
``forced.<attribute>``, ...), so a payload field is one row.  Group fields
are codec rows too: ``_GROUP_CODEC`` holds, per group kind, one row per key
in write order.  One reader takes the key=value words of every elem, edge
and group record, and refuses a key that comes twice.

Serialization is canonical: elements sort by id, then containment, edges,
groups, and bindings by (owner, attribute).  Numbers print as the shortest
decimal that round-trips.  parse(serialize(d)) reproduces d exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .model import (
    ID_RE,
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
    Range,
    Scalar,
    Text,
    Value,
    Wildcard,
    expr_text,
    fmt_num,
    parse_expr,
)

__all__ = ["SourceSpan", "ParseError", "parse", "serialize", "value_literal", "parse_value_literal"]

_NUMBER_RE = re.compile(r"^-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

# Each line boundary str.splitlines knows is escaped, so a quoted string is one line.
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_ESCAPES.update((c, f"\\u{ord(c):04x}") for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
_ESCAPE_RE = re.compile("[" + re.escape("".join(_ESCAPES)) + "]")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_HEX4_RE = re.compile(r"[0-9A-Fa-f]{4}")


@dataclass(frozen=True)
class SourceSpan:
    line: int
    col_start: int
    col_end: int

    def __post_init__(self):
        if self.line < 1 or self.col_start < 1 or self.col_end < self.col_start:
            raise ValueError("spans are 1-based with end >= start")


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


# A token is a tuple (text, line, col_start, col_end) of str and int only, so
# the cyclic GC stops tracking it; a record is a tuple of tokens.
_Token = tuple[str, int, int, int]


def _span(tok: _Token) -> SourceSpan:
    """The one place a SourceSpan is built, so that a clean parse builds none."""
    return SourceSpan(tok[1], tok[2], tok[3])


def _quote(s: str) -> str:
    return '"' + _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group()], s) + '"'


def _unquote(tok: _Token, raw: str) -> str:
    if len(raw) < 2 or not raw.startswith('"') or not raw.endswith('"'):
        raise ParseError(_span(tok), "quoted string", raw)
    body = raw[1:-1]
    if "\\" in body or '"' in body:
        return _unescape(tok, raw)
    return body


def _unescape(tok: _Token, raw: str) -> str:
    """The body of the quoted string ``raw`` with its escapes resolved."""
    out = []
    i = 1
    while i < len(raw) - 1:
        c = raw[i]
        if c == "\\":
            if i + 1 >= len(raw) - 1:
                raise ParseError(_span(tok), "escape sequence", raw)
            esc = raw[i + 1]
            if esc == "u":
                # The closing quote is no hex digit, so a cut-short escape fails
                # here.  A lone surrogate could not be written as UTF-8.
                digits = raw[i + 2 : i + 6]
                if not _HEX4_RE.fullmatch(digits) or 0xD800 <= int(digits, 16) <= 0xDFFF:
                    raise ParseError(_span(tok), "\\uXXXX, not a surrogate", f"\\u{digits}")
                out.append(chr(int(digits, 16)))
                i += 6
                continue
            if esc not in _UNESCAPES:
                raise ParseError(_span(tok), "known escape", f"\\{esc}")
            out.append(_UNESCAPES[esc])
            i += 2
        elif c == '"':
            raise ParseError(_span(tok), "escaped quote", raw)
        else:
            out.append(c)
            i += 1
    return "".join(out)


# One token per match, after leading whitespace: a ``#`` that starts a
# comment, a run of non-space characters and complete quoted strings (a
# backslash inside quotes escapes the next character), a lone ``"`` that
# opens a string never closed, or the end of the line.
_TOKEN_RE = re.compile(r'\s*(?:(#)|((?:[^\s"]+|"[^"\\]*(?:\\.[^"\\]*)*")+)|(")|\Z)', re.DOTALL)


def _tokenize_line(line: str, lineno: int) -> tuple[_Token, ...]:
    tokens = []
    n = len(line)
    pos = 0
    while True:
        m = _TOKEN_RE.match(line, pos)
        text = m.group(2)
        if text is None:
            if m.group(3) is not None:
                unclosed = ('"', lineno, m.start(3) + 1, n)
                raise ParseError(_span(unclosed), "closing quote", "end of line")
            return tuple(tokens)
        start, pos = m.span(2)
        if pos < n and line[pos] == '"':
            # The run stopped at a quote that no later quote closes.
            raise ParseError(_span((text, lineno, start + 1, n)), "closing quote", "end of line")
        tokens.append((text, lineno, start + 1, pos))


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


def parse_value_literal(tok: _Token, raw: str) -> Value:
    if raw.startswith('"'):
        return Text(_unquote(tok, raw))
    if raw in Wildcard.__members__:
        return Wildcard[raw]
    for prefix in ("range", "ball"):
        if raw.startswith(prefix) and len(raw) > len(prefix) and raw[len(prefix)] in "[(":
            r = _parse_range_body(tok, raw[len(prefix):])
            return r if prefix == "range" else BallInRange(r)
    if raw.startswith("exist[") and raw.endswith("]"):
        level = _parse_number(tok, raw[6:-1])
        try:
            return ExistenceLevel(level)
        except ValueError as exc:
            raise ParseError(_span(tok), "existence level in [0,1]", raw) from exc
    if raw.startswith("fuzzy[") and raw.endswith("]"):
        body = raw[6:-1]
        if ":" not in body:
            raise ParseError(_span(tok), "fuzzy[name:lo,peak,hi]", raw)
        name, _, nums = body.partition(":")
        parts = nums.split(",")
        if len(parts) != 3 or not KEY_RE.fullmatch(name):
            raise ParseError(_span(tok), "fuzzy[name:lo,peak,hi]", raw)
        lo, peak, hi = (_parse_number(tok, p) for p in parts)
        try:
            return FuzzyLabel(name, lo, peak, hi)
        except ValueError as exc:
            raise ParseError(_span(tok), "lo <= peak <= hi", raw) from exc
    number, _, unit = raw.partition(":")
    if _NUMBER_RE.match(number):
        if unit and not UNIT_RE.fullmatch(unit):
            raise ParseError(_span(tok), "unit tag", unit)
        return Scalar(_parse_number(tok, number), unit or None)
    raise ParseError(_span(tok), "value literal", raw)


def _parse_number(tok: _Token, raw: str) -> float:
    if not _NUMBER_RE.match(raw):
        raise ParseError(_span(tok), "number", raw)
    value = float(raw)
    if not math.isfinite(value):
        raise ParseError(_span(tok), "finite number", raw)
    return value


def _parse_range_body(tok: _Token, body: str) -> Range:
    if len(body) < 4 or body[0] not in "[(" or body[-1] not in "])":
        raise ParseError(_span(tok), "range[lo,hi]", body)
    lo_inc = body[0] == "["
    hi_inc = body[-1] == "]"
    parts = body[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(_span(tok), "two range bounds", body)
    lo = None if parts[0] == "-inf" else _parse_number(tok, parts[0])
    hi = None if parts[1] == "inf" else _parse_number(tok, parts[1])
    try:
        return Range(lo, hi, lo_inc, hi_inc)
    except ValueError as exc:
        raise ParseError(_span(tok), "lo <= hi", body) from exc


# --------------------------------------------------------------------------
# Payload codec: per payload type, one row per DSL key, in decode order.
#
# A row is (key, attribute, encode, decode).  For a plain key, encode gives
# the text to write, or None to write nothing, and decode(tok, text) gives
# the attribute; an absent key leaves the payload's default.  A prefix key
# (ending in "." or empty) holds every key that starts with it: encode gives
# (suffix, text) pairs, and decode gets the [(suffix, tok, text)] pairs in
# key order.


def _same(value):
    return value


def _text(tok: _Token, text: str) -> str:
    return text


def _list(key: str, attribute: str, show, read, collect=tuple):
    """The row of a comma-separated list: show writes one item and
    read(tok, part) reads one; a set (collect=frozenset) is written sorted."""
    order = sorted if collect is frozenset else tuple
    return (
        key,
        attribute,
        lambda items: ",".join(map(show, order(items))) or None,
        lambda tok, text: collect(read(tok, part) for part in text.split(",") if part),
    )


_SLOT_RE = re.compile(r"([A-Za-z0-9_-]+):([A-Za-z0-9_-]+)\.(.+)")


def _slot(tok: _Token, part: str) -> SlotSpec:
    m = _SLOT_RE.fullmatch(part)
    if not m:
        raise ParseError(_span(tok), "slot as name:element.attribute", part)
    return SlotSpec(*m.groups())


def _marker(tok: _Token, part: str) -> tuple[str, str]:
    level, sep, valence = part.partition(":")
    if not sep:
        raise ParseError(_span(tok), "marker as level:valence", part)
    return level, valence


def _cell(tok: _Token, part: str) -> tuple[str, float, float]:
    bits = part.split(":")
    if len(bits) != 3:
        raise ParseError(_span(tok), "cell as name:x:y", part)
    return bits[0], _parse_number(tok, bits[1]), _parse_number(tok, bits[2])


def _expr(tok: _Token, text: str):
    try:
        return parse_expr(text)
    except ExprSyntaxError as exc:
        raise ParseError(_span(tok), "arithmetic expression", text) from exc


def _literals(bindings) -> list[tuple[str, str]]:
    return [(b.attribute, value_literal(b.value)) for b in bindings]


def _bindings(items) -> tuple[AttributeBinding, ...]:
    return tuple(AttributeBinding(s, parse_value_literal(tok, text)) for s, tok, text in items)


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
            lambda items: {s: _expr(tok, text) for s, tok, text in items},
        ),
    ),
    CAPayload: (
        _LABEL,
        ("ellipsis", "open_ended", lambda on: "true" if on else None, lambda tok, text: text == "true"),
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
        ("valence", "valence", _same, lambda tok, text: text or "+"),
        ("subnode", "subnode", _same, _text),
        ("target", "cathected_target", _same, _text),
    ),
    SwirlyArrayPayload: (
        _LABEL,
        _list("cells", "cells", lambda c: f"{c[0]}:{fmt_num(c[1])}:{fmt_num(c[2])}", _cell),
        _ACTIVE,
    ),
}


def _encode_payload(el: Element) -> dict[str, str]:
    payload = el.payload
    pairs: dict[str, str] = {}
    for key, attribute, encode, _ in _CODEC[payload_type(el.kind)]:
        written = encode(getattr(payload, attribute))
        if not key or key[-1] == ".":
            for suffix, text in written:
                pairs[key + suffix] = text
        elif written is not None:
            pairs[key] = written
    return pairs


def _decode_payload(kind: Kind, pairs: dict[str, tuple[_Token, str]]):
    """Build the kind's payload from decoded key/value pairs (consumes them)."""
    ptype = payload_type(kind)
    fields = {}
    for key, attribute, _, decode in _CODEC[ptype]:
        if not pairs:
            break  # every row left would decode to the payload's default
        if not key or key[-1] == ".":
            taken = [(k[len(key):], *pairs.pop(k)) for k in sorted(pairs) if k.startswith(key)]
            fields[attribute] = decode(taken)
        elif key in pairs:
            fields[attribute] = decode(*pairs.pop(key))
    return ptype(**fields)


# --------------------------------------------------------------------------
# Group codec: per group kind, its constructor and one row per DSL key, in
# write order.  A row is (key, attribute, encode, decode): encode(group) gives
# the text to write, or None to write nothing, and decode(d, tok, text) gives
# the constructor's argument ``attribute``.  An absent key keeps its default,
# or raises its fault in _GROUP_MISSING.


def _items(d: Diagram, tok: _Token, text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part)


def _word(d: Diagram, tok: _Token, text: str) -> str:
    return text


def _numbers(d: Diagram, tok: _Token, text: str) -> tuple[float, ...]:
    return tuple(_parse_number(tok, part) for part in _items(d, tok, text))


def _states_and_tubes(d: Diagram, tok: _Token, text: str) -> tuple[tuple[str, ...], ...]:
    """An id that names an element is a state, one that names an edge a tube."""
    members = _items(d, tok, text)
    for m in members:
        if m not in d.elements and m not in d.edges:
            raise ParseError(_span(tok), "existing member id", m)
    states = tuple(m for m in members if m in d.elements)
    return states, tuple(m for m in members if m not in d.elements)


def _probs(g: SplitTimeGroup) -> str | None:
    return None if g.probabilities is None else ",".join(map(fmt_num, g.probabilities))


_GROUP_CODEC = {
    GroupKind.STATE_DIAGRAM: (
        lambda members, **fields: StateDiagramGroup(*members, **fields),
        (
            ("members", "members", lambda g: ",".join((*g.states, *g.tubes)), _states_and_tubes),
            ("marker", "marker", lambda g: g.marker, _word),
            ("owner", "owner", lambda g: g.owner, _word),
        ),
    ),
    GroupKind.SPLIT_TIME: (
        SplitTimeGroup,
        (
            ("members", "branches", lambda g: ",".join(g.branches), _items),
            ("trunk", "trunk", lambda g: g.trunk, _word),
            ("junction", "junction", lambda g: g.junction, _word),
            ("probs", "probabilities", _probs, _numbers),
        ),
    ),
}
_GROUP_KIND = {StateDiagramGroup: GroupKind.STATE_DIAGRAM, SplitTimeGroup: GroupKind.SPLIT_TIME}
_GROUP_MISSING = {
    "members": ("members=<id,...>", "no members key"),
    "trunk": ("trunk= and junction=", "missing keys"),
    "junction": ("trunk= and junction=", "missing keys"),
}


# --------------------------------------------------------------------------
# Parsing.


def parse(text: str | bytes) -> Diagram:
    """Parse DSL text into a diagram; raises ParseError at the first fault."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(_span(("", 1, 1, 1)), "UTF-8 text", "invalid bytes") from exc

    # Every line is tokenized before any record is built, so a syntax fault
    # anywhere is reported before a fault in a record on an earlier line.
    buckets: dict[str, list[tuple[_Token, ...]]] = {
        key: [] for key in ("meta", "elem", "contain", "edge", "group", "attr")
    }
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(line, lineno)
        if not tokens:
            continue
        head = tokens[0]
        if head[0] not in buckets:
            raise ParseError(_span(head), "record keyword", head[0])
        buckets[head[0]].append(tokens)

    d = Diagram()

    for tokens in buckets["meta"]:
        if len(tokens) != 2:
            raise ParseError(_span(tokens[0]), "meta key=\"value\"", " ".join(t[0] for t in tokens))
        key, value = _split_pair(tokens[1], quoted=True)
        if key in d.meta:
            raise ParseError(_span(tokens[1]), "unique meta key", key)
        d.meta[key] = value

    for tokens in buckets["elem"]:
        eid, kind = _record_head(tokens, Kind, "elem <id> <Kind>", "element kind")
        pairs = _read_pairs(tokens[3:], quoted=True)
        position = _take_position(pairs)
        try:
            payload = _decode_payload(kind, pairs)
        except (ModelError, ValueError) as exc:
            raise ParseError(_span(tokens[2]), "well-formed payload", str(exc)) from exc
        if pairs:
            stray = sorted(pairs)[0]
            raise ParseError(_span(pairs[stray][0]), f"no {stray!r} key on {kind.value}", stray)
        try:
            d.add_element(Element(kind=kind, payload=payload, position=position, id=eid))
        except ModelError as exc:
            raise ParseError(_span(tokens[1]), "insertable element", str(exc)) from exc

    for tokens in buckets["contain"]:
        if len(tokens) != 3:
            raise ParseError(_span(tokens[0]), "contain <child> <parent>", "record shape")
        child, parent = _require_id(tokens[1]), _require_id(tokens[2])
        try:
            d.contain(child, parent)
        except ModelError as exc:
            raise ParseError(_span(tokens[1]), "legal containment", str(exc)) from exc

    for tokens in buckets["edge"]:
        _parse_edge(d, tokens)

    for tokens in buckets["group"]:
        _parse_group(d, tokens)

    for tokens in buckets["attr"]:
        if len(tokens) != 3:
            raise ParseError(_span(tokens[0]), "attr <owner> <attribute>=<value>", "record shape")
        owner = _require_id(tokens[1])
        if owner not in d.elements and owner not in d.edges:
            raise ParseError(_span(tokens[1]), "existing owner", owner)
        name, _, raw = tokens[2][0].partition("=")
        if not raw:
            raise ParseError(_span(tokens[2]), "attribute=value", tokens[2][0])
        value = parse_value_literal(tokens[2], raw)
        try:
            binding = AttributeBinding(name, value)
        except ModelError as exc:
            raise ParseError(_span(tokens[2]), "legal binding", str(exc)) from exc
        # Hosting legality is the validator's concern, not the parser's.
        d.bindings.append((owner, binding))

    return d


def _require_id(tok: _Token) -> str:
    if not ID_RE.fullmatch(tok[0]):
        raise ParseError(_span(tok), "identifier", tok[0])
    return tok[0]


def _record_head(tokens: tuple[_Token, ...], kinds: type, shape: str, expected: str) -> tuple:
    """The id and kind of an elem, edge or group record."""
    if len(tokens) < 3:
        raise ParseError(_span(tokens[0]), shape, "end of record")
    eid = _require_id(tokens[1])
    try:
        return eid, kinds(tokens[2][0])
    except ValueError:
        raise ParseError(_span(tokens[2]), expected, tokens[2][0]) from None


def _split_pair(tok: _Token, quoted: bool) -> tuple[str, str]:
    key, sep, raw = tok[0].partition("=")
    if not sep or not KEY_RE.fullmatch(key):
        raise ParseError(_span(tok), "key=\"value\"", tok[0])
    if quoted:
        return key, _unquote(tok, raw)
    return key, raw


def _read_pairs(
    tokens: tuple[_Token, ...], quoted: bool, only: str | None = None
) -> dict[str, tuple[_Token, str]]:
    """The key=value words of an elem, edge or group record, by key, each with
    its token.  A key may come once, and when ``only`` is given no other key."""
    pairs: dict[str, tuple[_Token, str]] = {}
    for tok in tokens:
        key, value = _split_pair(tok, quoted)
        if key in pairs:
            raise ParseError(_span(tok), "unique key", key)
        if only is not None and key != only:
            raise ParseError(_span(tok), f"{only} key", key)
        pairs[key] = (tok, value)
    return pairs


def _take_position(pairs: dict[str, tuple[_Token, str]]) -> Position | None:
    pos = pairs.pop("pos", None)
    size = pairs.pop("size", None)
    if pos is None:
        if size is not None:
            raise ParseError(_span(size[0]), "pos together with size", "size alone")
        return None
    x, y = _number_pair(*pos, "pos as x,y")
    w, h = (None, None) if size is None else _number_pair(*size, "size as w,h")
    return Position(x, y, w, h)


def _number_pair(tok: _Token, text: str, expected: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(_span(tok), expected, text)
    return _parse_number(tok, parts[0]), _parse_number(tok, parts[1])


def _parse_edge(d: Diagram, tokens: tuple[_Token, ...]) -> None:
    eid, kind = _record_head(tokens, EdgeKind, "edge <id> <Kind> [src] -> [dst]", "edge kind")
    rest = tokens[3:]
    source = target = None
    i = 0
    if i < len(rest) and rest[i][0] != "->" and "=" not in rest[i][0]:
        source = _require_id(rest[i])
        i += 1
    if i >= len(rest) or rest[i][0] != "->":
        if i < len(rest):
            raise ParseError(_span(rest[i]), "'->'", rest[i][0])
        raise ParseError(_span(tokens[-1]), "'->'", "end of record")
    i += 1
    if i < len(rest) and "=" not in rest[i][0]:
        target = _require_id(rest[i])
        i += 1
    pairs = _read_pairs(rest[i:], quoted=True, only="role")
    role = pairs["role"][1] if pairs else None
    try:
        d.add_edge(Edge(kind=kind, source=source, target=target, role=role, id=eid))
    except (ModelError, ValueError) as exc:
        raise ParseError(_span(tokens[1]), "insertable edge", str(exc)) from exc


def _parse_group(d: Diagram, tokens: tuple[_Token, ...]) -> None:
    gid, gkind = _record_head(tokens, GroupKind, "group <id> <Kind>", "group kind")
    pairs = _read_pairs(tokens[3:], quoted=False)
    make, rows = _GROUP_CODEC[gkind]
    fields = {"id": gid}
    for key, attribute, _, decode in rows:
        entry = pairs.pop(key, None)
        if entry is not None:
            fields[attribute] = decode(d, *entry)
        elif key in _GROUP_MISSING:
            raise ParseError(_span(tokens[2]), *_GROUP_MISSING[key])
    if pairs:
        stray = min(pairs)
        raise ParseError(_span(pairs[stray][0]), f"{gkind.value} group key", stray)
    try:
        group = make(**fields)
    except (ModelError, ValueError) as exc:
        raise ParseError(_span(tokens[1]), "legal probabilities", str(exc)) from exc
    try:
        d.add_group(group)
    except ModelError as exc:
        raise ParseError(_span(tokens[1]), "resolvable group members", str(exc)) from exc


# --------------------------------------------------------------------------
# Serialization.


def serialize(d: Diagram) -> str:
    """Canonical text for a diagram; stable across runs and insert orders."""
    lines: list[str] = []
    for key in sorted(d.meta):
        if not KEY_RE.fullmatch(key):
            raise ValueError(f"meta key {key!r} is not a key the DSL can write")
        lines.append(f"meta {key}={_quote(d.meta[key])}")
    for eid in sorted(d.elements):
        el = d.elements[eid]
        pairs = _encode_payload(el)
        if el.position is not None:
            pairs["pos"] = f"{fmt_num(el.position.x)},{fmt_num(el.position.y)}"
            if el.position.w is not None and el.position.h is not None:
                pairs["size"] = f"{fmt_num(el.position.w)},{fmt_num(el.position.h)}"
        parts = [f"{k}={_quote(v)}" for k, v in sorted(pairs.items())]
        lines.append(" ".join(["elem", eid, el.kind.value] + parts))
    for child in sorted(d.containment):
        lines.append(f"contain {child} {d.containment[child]}")
    for eid in sorted(d.edges):
        e = d.edges[eid]
        parts = ["edge", eid, e.kind.value]
        if e.source is not None:
            parts.append(e.source)
        parts.append("->")
        if e.target is not None:
            parts.append(e.target)
        if e.role is not None:
            parts.append(f"role={_quote(e.role)}")
        lines.append(" ".join(parts))
    for gid in sorted(d.groups):
        g = d.groups[gid]
        kind = _GROUP_KIND[type(g)]
        parts = ["group", gid, kind.value]
        for key, _, encode, _ in _GROUP_CODEC[kind][1]:
            text = encode(g)
            if text is not None:
                parts.append(f"{key}={text}")
        lines.append(" ".join(parts))
    rendered = [
        (owner, binding.attribute, value_literal(binding.value))
        for owner, binding in d.bindings
    ]
    for owner, attribute, literal in sorted(rendered):
        lines.append(f"attr {owner} {attribute}={literal}")
    return "\n".join(lines) + ("\n" if lines else "")
