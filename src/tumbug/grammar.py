"""Combination grammar: diagram validation, SCOVA classification, queries.

Arrows and object-like blocks combine in six shapes (solitary arrow,
solitary nonquan, arrow out, arrow in, arrow between, self loop).  Which
shape is meaningful for which arrow kind is data, not code: the legality
table ships with defaults and can be overridden from a plain-text file.

``validate`` runs the rules of ``RULES`` in order.  Each rule is a function
of the diagram and the legality table that yields its violations, so the
order of ``RULES`` is the order of every violation list.
"""

from __future__ import annotations

import enum
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from . import DATA_DIR, FrozenRecord, read_table, table_lines
from .model import (
    CHANGE_ARROW_KINDS,
    KIND_FACTS,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    Kind,
    SplitTimeGroup,
    StateDiagramGroup,
    UnknownOwner,
)
from .values import Text, Value, Wildcard

__all__ = [
    "Shape",
    "LegalityTable",
    "default_legality",
    "load_legality",
    "parse_legality",
    "ViolationCode",
    "Violation",
    "validate",
    "RULES",
    "BasicKind",
    "scova_classify",
    "generalize",
    "resolve_query",
    "UnknownKind",
    "edge_shape",
]


class Shape(str, enum.Enum):
    SOLITARY_ARROW = "SolitaryArrow"
    SOLITARY_NONQUAN = "SolitaryNonquan"
    ARROW_OUT = "ArrowOut"
    ARROW_IN = "ArrowIn"
    ARROW_BETWEEN = "ArrowBetween"
    SELF_LOOP = "SelfLoop"


_ARROW_COLUMNS = tuple(k for k in EdgeKind if k in CHANGE_ARROW_KINDS)

LegalityTable = dict[tuple[Shape, EdgeKind], bool]


def default_legality() -> LegalityTable:
    """The shipped table, data/legality.tbl: time never attaches, motion never
    points into its mover from nowhere, force never self-loops; solitary
    anything is fine.  Each call returns a fresh copy."""
    return dict(read_table(DATA_DIR, "legality.tbl", parse_legality))


def parse_legality(text: str) -> LegalityTable:
    """Parse a 6x4 L/I table: one row per shape, columns Time Motion Force
    Causation.  ``#`` starts a comment."""
    table: LegalityTable = {}
    for _, raw, line in table_lines(text):
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"expected '<Shape> L/I L/I L/I L/I', got {raw!r}")
        try:
            shape = Shape(parts[0])
        except ValueError as exc:
            raise ValueError(f"unknown shape {parts[0]!r}") from exc
        for kind, cell in zip(_ARROW_COLUMNS, parts[1:]):
            if cell not in ("L", "I"):
                raise ValueError(f"cell must be L or I, got {cell!r}")
            table[(shape, kind)] = cell == "L"
    missing = [
        (s.value, k.value)
        for s in Shape
        for k in _ARROW_COLUMNS
        if (s, k) not in table
    ]
    if missing:
        raise ValueError(f"legality table incomplete, missing cells: {missing}")
    return table


def load_legality(path: str | Path) -> LegalityTable:
    return parse_legality(Path(path).read_text(encoding="utf-8"))


class ViolationCode(str, enum.Enum):
    TIME_ATTACHED = "TIME_ATTACHED"
    ARROW_SHAPE_ILLEGAL = "ARROW_SHAPE_ILLEGAL"
    SELF_LOOP_FORBIDDEN = "SELF_LOOP_FORBIDDEN"
    ATTR_HOST_ILLEGAL = "ATTR_HOST_ILLEGAL"
    ATTR_CONFLICT = "ATTR_CONFLICT"
    POSITION_REQUIRED = "POSITION_REQUIRED"
    BOX_NESTING = "BOX_NESTING"
    XOR_TOO_FEW = "XOR_TOO_FEW"
    GROUP_MEMBER_INVALID = "GROUP_MEMBER_INVALID"
    STATE_MARKER_MISPLACED = "STATE_MARKER_MISPLACED"
    STATE_TUBE_ENDPOINT = "STATE_TUBE_ENDPOINT"
    ATTEND_NOT_DATA = "ATTEND_NOT_DATA"


class Violation(FrozenRecord):
    def __init__(self, code: ViolationCode, ids: tuple[str, ...], message: str):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "message", message)

    # The inherited methods, spelled out for speed (see tumbug.Record).
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.code, self.ids, self.message) == (other.code, other.ids, other.message)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.code, self.ids, self.message))

    def __str__(self) -> str:
        return f"{self.code.value} {','.join(self.ids)} {self.message}"


def edge_shape(edge: Edge) -> Shape:
    if edge.source is None and edge.target is None:
        return Shape.SOLITARY_ARROW
    if edge.source is not None and edge.target is None:
        return Shape.ARROW_OUT
    if edge.source is None and edge.target is not None:
        return Shape.ARROW_IN
    if edge.source == edge.target:
        return Shape.SELF_LOOP
    return Shape.ARROW_BETWEEN


def _legality_code(kind: EdgeKind, shape: Shape) -> ViolationCode:
    if kind is EdgeKind.TIME:
        return ViolationCode.TIME_ATTACHED
    if shape is Shape.SELF_LOOP:
        return ViolationCode.SELF_LOOP_FORBIDDEN
    return ViolationCode.ARROW_SHAPE_ILLEGAL


# --------------------------------------------------------------------------
# Validation: each rule yields its violations; RULES fixes their order.


def _fixed_positions(d: Diagram, table: LegalityTable) -> Iterator[Violation]:
    """Elements inside Verbatim and Descriptive boxes need fixed positions."""
    elements = d.elements
    for child, parent in sorted(d.containment.items()):
        pkind = elements[parent].kind
        if (KIND_FACTS[pkind].strictness or 0) > 1 and elements[child].position is None:
            yield Violation(
                ViolationCode.POSITION_REQUIRED,
                (child, parent),
                f"elements inside a {pkind.value} need fixed positions",
            )


def _arrow_shapes(d: Diagram, table: LegalityTable) -> Iterator[Violation]:
    """The legality table over change arrows."""
    for eid, edge in sorted(d.edges.items()):
        if edge.kind not in CHANGE_ARROW_KINDS:
            continue
        shape = edge_shape(edge)
        if not table[(shape, edge.kind)]:
            yield Violation(
                _legality_code(edge.kind, shape),
                (eid,),
                f"{edge.kind.value} arrow not meaningful as {shape.value}",
            )


def _attribute_hosts(d: Diagram, table: LegalityTable) -> Iterator[Violation]:
    """One violation per binding on a host that cannot carry it, in
    serialize's order; owner and attribute fix the message."""
    for owner, attribute in d.misplaced_bindings():
        yield Violation(ViolationCode.ATTR_HOST_ILLEGAL, (owner,), d.host_problem(owner, attribute))


def _attribute_conflicts(d: Diagram, table: LegalityTable) -> Iterator[Violation]:
    """One violation per (owner, attribute) bound to two different values."""
    for owner, attribute in d.conflicting_bindings():
        yield Violation(
            ViolationCode.ATTR_CONFLICT, (owner,), f"attribute {attribute!r} bound to conflicting values"
        )


def _box_nesting(d: Diagram, table: LegalityTable) -> Iterator[Violation]:
    """No location box directly inside a stricter one."""
    elements = d.elements
    for child, parent in sorted(d.containment.items()):
        ck, pk = elements[child].kind, elements[parent].kind
        cs, ps = KIND_FACTS[ck].strictness, KIND_FACTS[pk].strictness
        if cs is not None and ps is not None and cs < ps:
            yield Violation(
                ViolationCode.BOX_NESTING,
                (child, parent),
                f"{ck.value} is looser than enclosing {pk.value}",
            )


def _xor_alternatives(d: Diagram, table: LegalityTable) -> Iterator[Violation]:
    """XOR boxes need something to choose between: contained alternatives or
    split-time branches forking at the box."""
    branch_counts: Counter[str] = Counter()
    for group in d.groups.values():
        if isinstance(group, SplitTimeGroup) and group.junction:
            branch_counts[group.junction] += len(group.branches)
    child_counts = Counter(d.containment.values())
    for xid in d.elements_of_kind(Kind.XOR_BOX):
        alternatives = child_counts[xid] + branch_counts[xid]
        if alternatives < 2:
            yield Violation(
                ViolationCode.XOR_TOO_FEW,
                (xid,),
                f"XOR box offers {alternatives} alternatives, needs at least 2",
            )


def _groups(d: Diagram, table: LegalityTable) -> Iterator[Violation]:
    """Each group's members, tube endpoints and marker.  The model has
    checked that each member, junction and owner exists."""
    groups, elements, edges = d.groups, d.elements, d.edges
    for gid in sorted(groups):
        group = groups[gid]
        if isinstance(group, StateDiagramGroup):
            yield from _state_group(elements, edges, gid, group)
        else:
            yield from _split_group(elements, edges, gid, group)


def _state_group(
    elements: Mapping[str, Element], edges: Mapping[str, Edge], gid: str, group: StateDiagramGroup
) -> Iterator[Violation]:
    for sid in group.states:
        if elements[sid].kind is not Kind.STATE_CIRCLE:
            yield Violation(
                ViolationCode.GROUP_MEMBER_INVALID,
                (gid, sid),
                "state member must be an existing StateCircle",
            )
    for tid in group.tubes:
        tube = edges[tid]
        if tube.kind is not EdgeKind.TUBE:
            yield Violation(
                ViolationCode.GROUP_MEMBER_INVALID,
                (gid, tid),
                "tube member must be an existing Tube edge",
            )
            continue
        for endpoint in (tube.source, tube.target):
            if endpoint not in group.states:
                yield Violation(
                    ViolationCode.STATE_TUBE_ENDPOINT, (gid, tid), "tube endpoint is not a member state"
                )
    if group.marker is not None and group.marker not in group.members:
        yield Violation(
            ViolationCode.STATE_MARKER_MISPLACED,
            (gid, group.marker),
            "marker must sit on a member state or tube",
        )


def _split_group(
    elements: Mapping[str, Element], edges: Mapping[str, Edge], gid: str, group: SplitTimeGroup
) -> Iterator[Violation]:
    for tid in (group.trunk, *group.branches):
        if edges[tid].kind is not EdgeKind.TIME:
            yield Violation(
                ViolationCode.GROUP_MEMBER_INVALID,
                (gid, tid),
                "split-time member must be an existing Time edge",
            )
    junction = group.junction
    if junction and elements[junction].kind is not Kind.XOR_BOX:
        yield Violation(
            ViolationCode.GROUP_MEMBER_INVALID, (gid, junction), "split-time junction must be an XorBox"
        )


def _attend_rings(d: Diagram, table: LegalityTable) -> Iterator[Violation]:
    """Attend rings flag attention on data motion only.  What a motion edge
    moves is its 'moves' attribute if that names an element (shorthand
    transfer notation), otherwise its source."""
    elements, edges = d.elements, d.edges
    for rid in d.elements_of_kind(Kind.ATTEND_RING):
        edge_id = elements[rid].payload.props.get("edge")
        edge = edges.get(edge_id)
        if edge is None:
            problem = "attend ring must reference a Motion edge"
        elif edge.kind is not EdgeKind.MOTION:
            problem = f"attend ring sits on a {edge.kind.value} edge"
        else:
            moves = d.binding_value(edge_id, "moves")
            named = moves.value if isinstance(moves, Text) else None
            moved = named if named in elements else edge.source
            if moved is not None and elements[moved].kind is Kind.DATA_OBJECT_CIRCLE:
                continue
            problem = "attended motion must move a DataObjectCircle"
        yield Violation(ViolationCode.ATTEND_NOT_DATA, (rid,), problem)


# The grammar's rules in reporting order; violation lists are part of the
# output format, so the order is too.
RULES: tuple[Callable[[Diagram, LegalityTable], Iterable[Violation]], ...] = (
    _fixed_positions,
    _arrow_shapes,
    _attribute_hosts,
    _attribute_conflicts,
    _box_nesting,
    _xor_alternatives,
    _groups,
    _attend_rings,
)


def validate(d: Diagram, table: LegalityTable | None = None) -> list[Violation]:
    """Check a diagram against the combination grammar: every rule of
    ``RULES``, in order, against ``table`` (default: the shipped one).

    Returns violations as data; an empty list means the diagram is clean.
    Pure: equal diagrams, whatever order built them, yield equal lists.
    """
    table = table if table is not None else default_legality()
    return [violation for rule in RULES for violation in rule(d, table)]


# --------------------------------------------------------------------------
# SCOVA: the five Basic Building Blocks.


class BasicKind(str, enum.Enum):
    S = "S"  # system-like
    C = "C"  # change-like
    O = "O"  # object-like
    V = "V"  # value-like
    A = "A"  # attribute-like


class UnknownKind(KeyError):
    pass


# Every kind name and Building Block alias, to its row key in KIND_FACTS.
_KEYS = {
    name: key
    for key, facts in KIND_FACTS.items()
    for name in (getattr(key, "value", key), *facts.aliases)
}


def all_classifiable_kinds() -> list[str]:
    """Every canonical name scova_classify accepts (aliases excluded)."""
    return sorted(getattr(key, "value", key) for key in KIND_FACTS)


def _key(kind):
    name = kind.value if isinstance(kind, enum.Enum) else str(kind)
    try:
        return _KEYS[name]
    except KeyError:
        raise UnknownKind(name) from None


def scova_classify(kind) -> BasicKind:
    """Reduce any concrete Building Block to its Basic Building Block."""
    return BasicKind(KIND_FACTS[_key(kind)].scova)


def generalize(kind) -> frozenset[str]:
    """Place a block on the generalization axes: Nonquan, IAM, ChangeArrow.

    Location boxes sit on two axes at once (they are both nonquantified
    objects and interchangeably actualizable maps), so the result is a set.
    """
    key = _key(kind)
    facts = KIND_FACTS[key]
    axes = set()
    if facts.nonquan:
        axes.add("Nonquan")
    if facts.iam:
        axes.add("IAM")
    if key in CHANGE_ARROW_KINDS:
        axes.add("ChangeArrow")
    if not axes:
        axes.add("Other")
    return frozenset(axes)


def resolve_query(d: Diagram, owner: str, attribute: str) -> Value:
    """Answer a placed 0D-marker query: the value of owner's attribute.

    Unbound attributes answer DK.  When the owner itself says nothing, one
    hop along an outgoing Relationship marker is followed before giving up.
    """
    value = d.binding_value(owner, attribute)
    if value is not None:  # the model binds only an owner that exists
        return value
    if owner not in d.elements and owner not in d.edges:
        raise UnknownOwner(owner)
    for eid in d.relationship_hops(owner):
        target = d.edges[eid].target
        value = None if target is None else d.binding_value(target, attribute)
        if value is not None:
            return value
    return Wildcard.DK
