"""Core diagram model: Building Block elements, edges, groups, containment.

A Diagram is a scene graph: elements in a containment forest, arrows between
them, and attribute bindings hanging off elements or arrows.  Construction
methods enforce referential integrity (ids must exist, parents must be
containers, containment stays acyclic); grammar-level legality is the
validator's job and lives in :mod:`tumbug.grammar`.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .values import (
    KEY_RE,
    Expr,
    NoEquationForSlot,
    UnboundSlots,
    Value,
    Wildcard,
    eval_expr,
    expr_slots,
)

__all__ = [
    "Kind",
    "EdgeKind",
    "GroupKind",
    "KindFacts",
    "KIND_FACTS",
    "ID_RE",
    "CHANGE_ARROW_KINDS",
    "CONTAINER_KINDS",
    "NONQUAN_KINDS",
    "LOCATION_BOX_FAMILY",
    "MARKER_KINDS",
    "Position",
    "AttributeBinding",
    "GenericPayload",
    "SlotSpec",
    "CorrelationBoxPayload",
    "CAPayload",
    "MotivationTrianglePayload",
    "RobinsonIconPayload",
    "SwirlyArrayPayload",
    "Element",
    "Edge",
    "StateDiagramGroup",
    "SplitTimeGroup",
    "Group",
    "Diagram",
    "new_diagram",
    "evaluate_correlation",
    "ModelError",
    "UnknownParent",
    "ParentNotContainer",
    "ContainmentCycle",
    "DuplicateId",
    "InvalidId",
    "UnknownEndpoint",
    "UnknownOwner",
    "UnknownMember",
    "IllegalAttributeHost",
    "ConflictingDuplicate",
    "PayloadMismatch",
    "InvalidPayload",
]


class ModelError(Exception):
    """Base class for diagram construction errors."""


class UnknownParent(ModelError):
    pass


class ParentNotContainer(ModelError):
    pass


class ContainmentCycle(ModelError):
    pass


class DuplicateId(ModelError):
    pass


class InvalidId(ModelError):
    pass


class UnknownEndpoint(ModelError):
    pass


class UnknownOwner(ModelError):
    pass


class UnknownMember(ModelError):
    pass


class IllegalAttributeHost(ModelError):
    pass


class ConflictingDuplicate(ModelError):
    pass


class PayloadMismatch(ModelError):
    pass


class InvalidPayload(ModelError):
    pass


class Kind(str, enum.Enum):
    """Every concrete Building Block that can appear as a diagram element."""

    PHYSICAL_OBJECT_CIRCLE = "PhysicalObjectCircle"
    DATA_OBJECT_CIRCLE = "DataObjectCircle"
    CA_OBJECT_CIRCLE = "CAObjectCircle"
    DATA_POINT = "DataPoint"
    STATE_CIRCLE = "StateCircle"
    CELL = "Cell"
    SENSOR_BAR = "SensorBar"
    MARKER_0D = "Marker0D"
    MARKER_1D = "Marker1D"
    MARKER_2D = "Marker2D"
    VERBATIM_BOX = "VerbatimBox"
    DESCRIPTIVE_BOX = "DescriptiveBox"
    AGGREGATION_BOX = "AggregationBox"
    CA_AGGREGATION_BOX = "CAAggregationBox"
    XOR_BOX = "XorBox"
    SWIRLY_ARRAY = "SwirlyArray"
    VALUE_BAR = "ValueBar"
    CORRELATION_BOX = "CorrelationBox"
    TIME_ANCHOR = "TimeAnchor"
    DATA_SET_BOX = "DataSetBox"
    LABEL_STRING = "LabelString"
    ATTEND_RING = "AttendRing"
    MOTIVATION_TRIANGLE = "MotivationTriangle"
    ROBINSON_ICON = "RobinsonIcon"
    MODAL_VERB_ICON = "ModalVerbIcon"
    ZOOM_BOX_PAIR = "ZoomBoxPair"


class EdgeKind(str, enum.Enum):
    TIME = "Time"
    MOTION = "Motion"
    FORCE = "Force"
    CAUSATION = "Causation"
    TUBE = "Tube"
    RELATIONSHIP = "Relationship"


class GroupKind(str, enum.Enum):
    STATE_DIAGRAM = "StateDiagram"
    SPLIT_TIME = "SplitTime"


@dataclass(frozen=True)
class Position:
    """Layout hint; mandatory only inside Verbatim and Descriptive boxes."""

    x: float
    y: float
    w: float | None = None
    h: float | None = None

    def __post_init__(self):
        if (self.w is None) != (self.h is None):
            raise InvalidPayload("extent needs both w and h")
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w, self.h) if v is not None):
            raise InvalidPayload("position and extent must be finite")


@dataclass(frozen=True)
class AttributeBinding:
    """Attribute name paired with a value; at most one side may be DK."""

    attribute: str
    value: Value

    def __post_init__(self):
        if not KEY_RE.fullmatch(self.attribute):
            raise InvalidPayload(f"illegal attribute name {self.attribute!r}")
        if self.attribute == "DK" and self.value is Wildcard.DK:
            raise InvalidPayload("attribute and value cannot both be DK")


# Identifier syntax of element, edge and group ids; keys (values.KEY_RE) may
# also hold dots.
ID_RE = re.compile(r"[A-Za-z0-9_-]+")

_RESERVED_PROP_KEYS = frozenset({"label", "pos", "size"})


@dataclass
class GenericPayload:
    """Payload for ordinary elements: a label plus free-form properties."""

    label: str | None = None
    props: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for key in self.props:
            if key in _RESERVED_PROP_KEYS or not KEY_RE.fullmatch(key):
                raise InvalidPayload(f"illegal property key {key!r}")


@dataclass(frozen=True)
class SlotSpec:
    """One correlation slot: local name bound to an element attribute."""

    name: str
    element: str
    attribute: str

    def __post_init__(self):
        if not (
            ID_RE.fullmatch(self.name)
            and ID_RE.fullmatch(self.element)
            and KEY_RE.fullmatch(self.attribute)
        ):
            raise InvalidPayload(f"illegal slot name, element or attribute in {self!r}")


@dataclass
class CorrelationBoxPayload:
    """Equations relating slot values; each equation solves one slot."""

    slots: tuple[SlotSpec, ...] = ()
    equations: dict[str, Expr] = field(default_factory=dict)

    def __post_init__(self):
        declared = {s.name for s in self.slots}
        for target, expr in self.equations.items():
            if target not in declared:
                raise InvalidPayload(f"equation targets undeclared slot {target!r}")
            undeclared = expr_slots(expr) - declared
            if undeclared:
                raise InvalidPayload(
                    f"equation for {target!r} references undeclared slots {sorted(undeclared)}"
                )

    @property
    def invertible(self) -> bool:
        return all(s.name in self.equations for s in self.slots)


def evaluate_correlation(
    payload: CorrelationBoxPayload, bound: Mapping[str, float], free: str
) -> float:
    """Solve the free slot from the other slots' bound values.

    Raises UnboundSlots when a referenced slot is missing, NoEquationForSlot
    when no equation solves ``free``, DivisionByZero on a zero divisor.
    """
    if free not in payload.equations:
        raise NoEquationForSlot(free)
    needed = {s.name for s in payload.slots} - {free}
    missing = needed - set(bound)
    if missing:
        raise UnboundSlots(", ".join(sorted(missing)))
    return eval_expr(payload.equations[free], bound)


@dataclass
class CAPayload:
    """Concrete-abstract payload: forced inputs above, detected outputs below."""

    forced: tuple[AttributeBinding, ...] = ()
    detected: tuple[AttributeBinding, ...] = ()
    open_ended: bool = False
    label: str | None = None

    def __post_init__(self):
        forced_names = {b.attribute for b in self.forced}
        detected_names = {b.attribute for b in self.detected}
        overlap = forced_names & detected_names
        if overlap:
            raise InvalidPayload(f"forced/detected attribute overlap: {sorted(overlap)}")


MOTIVATION_LEVELS = ("automaton", "physical", "emotional", "intellectual")
VALENCES = ("+", "-")


@dataclass
class MotivationTrianglePayload:
    """Quadrune want hierarchy; one marker maximum per (level, valence) cell."""

    markers: frozenset[tuple[str, str]] = frozenset()
    robinson: str | None = None  # embedded RobinsonIcon element id
    label: str | None = None

    def __post_init__(self):
        for level, valence in sorted(self.markers):
            if level not in MOTIVATION_LEVELS:
                raise InvalidPayload(f"unknown motivation level {level!r}")
            if valence not in VALENCES:
                raise InvalidPayload(f"valence must be + or -, got {valence!r}")
        # frozenset already forbids two markers in the same cell; reject the
        # sneaky path of passing a collection with duplicates pre-merged away.
        object.__setattr__(self, "markers", frozenset(self.markers))


ROBINSON_CATEGORIES = (
    "ObjectProperties",
    "FutureAppraisal",
    "EventRelated",
    "SelfAppraisal",
    "Social",
    "Cathected",
)


@dataclass
class RobinsonIconPayload:
    """Emotion icon over six categories with a +/- valence layer."""

    active: frozenset[str] = frozenset()
    valence: str = "+"
    subnode: str | None = None
    cathected_target: str | None = None
    label: str | None = None

    def __post_init__(self):
        unknown = set(self.active) - set(ROBINSON_CATEGORIES)
        if unknown:
            raise InvalidPayload(f"unknown emotion categories {sorted(unknown)}")
        if self.valence not in VALENCES:
            raise InvalidPayload(f"valence must be + or -, got {self.valence!r}")
        if self.cathected_target is not None and "Cathected" not in self.active:
            raise InvalidPayload("cathected target requires the Cathected category")
        object.__setattr__(self, "active", frozenset(self.active))


@dataclass
class SwirlyArrayPayload:
    """Named cells at arbitrary fixed positions, a subset of which are lit."""

    cells: tuple[tuple[str, float, float], ...] = ()
    active: frozenset[str] = frozenset()
    label: str | None = None

    def __post_init__(self):
        names = [c[0] for c in self.cells]
        bad = [n for n in names if not n or "," in n or ":" in n]
        if bad:
            raise InvalidPayload(f"cell name {bad[0]!r} is empty or holds ',' or ':'")
        if len(names) != len(set(names)):
            raise InvalidPayload("duplicate cell names in swirly array")
        missing = set(self.active) - set(names)
        if missing:
            raise InvalidPayload(f"active cells not in array: {sorted(missing)}")
        object.__setattr__(self, "active", frozenset(self.active))


@dataclass(frozen=True)
class KindFacts:
    """What the package knows about one Building Block kind, short of how
    svg draws each one."""

    scova: str  # the Basic Building Block it reduces to: S, C, O, V or A
    aliases: tuple[str, ...] = ()  # Building Block names accepted besides the kind's own
    payload: type = GenericPayload  # payload class of elements of this kind
    container: bool = False  # may hold other elements
    nonquan: bool = False  # Nonquantified: the only elements that may host attributes
    data: bool = False  # information rather than matter: drawn with a dotted outline
    # Location boxes only: a looser box directly inside a stricter one would
    # invert the stricter box's constraints; boxes above 1 fix child positions.
    strictness: int | None = None
    iam: bool = False  # interchangeably actualizable map
    shape: str | None = None  # svg drawing class: circle, box (label on top), bar or cells
    abstract: str | None = None  # heuristics requirement it meets: AnyBox or AnyMarker


def _location_box(strictness: int, payload: type = GenericPayload) -> KindFacts:
    """Location boxes are Nonquan containers and IAMs, drawn as boxes."""
    return KindFacts(
        "O", payload=payload, container=True, nonquan=True, strictness=strictness,
        iam=True, shape="box", abstract="AnyBox",
    )


# One row per element, edge and group kind, plus the grammar's pseudo-kinds:
# concepts that are classifiable but are not diagram elements themselves.
KIND_FACTS: dict[Kind | EdgeKind | GroupKind | str, KindFacts] = {
    Kind.PHYSICAL_OBJECT_CIRCLE: KindFacts("O", nonquan=True, shape="circle"),
    Kind.DATA_OBJECT_CIRCLE: KindFacts("O", nonquan=True, data=True, shape="circle"),
    Kind.CA_OBJECT_CIRCLE: KindFacts("O", payload=CAPayload, nonquan=True, shape="circle"),
    Kind.DATA_POINT: KindFacts("O", nonquan=True, data=True, shape="circle"),
    Kind.STATE_CIRCLE: KindFacts("O", shape="circle"),
    Kind.CELL: KindFacts("O", shape="circle"),
    Kind.SENSOR_BAR: KindFacts("O", shape="bar"),
    Kind.MARKER_0D: KindFacts("O", abstract="AnyMarker"),
    Kind.MARKER_1D: KindFacts("O", abstract="AnyMarker"),
    Kind.MARKER_2D: KindFacts("O", abstract="AnyMarker"),
    Kind.VERBATIM_BOX: _location_box(3),
    Kind.DESCRIPTIVE_BOX: _location_box(2),
    Kind.AGGREGATION_BOX: _location_box(1),
    Kind.CA_AGGREGATION_BOX: _location_box(1, CAPayload),
    Kind.XOR_BOX: _location_box(1),
    Kind.SWIRLY_ARRAY: KindFacts("O", payload=SwirlyArrayPayload, nonquan=True, shape="cells"),
    Kind.VALUE_BAR: KindFacts("V", shape="bar"),
    Kind.CORRELATION_BOX: KindFacts("C", payload=CorrelationBoxPayload, shape="box"),
    Kind.TIME_ANCHOR: KindFacts("C"),
    Kind.DATA_SET_BOX: KindFacts(
        "S", container=True, nonquan=True, shape="box", abstract="AnyBox"
    ),
    Kind.LABEL_STRING: KindFacts("O"),
    Kind.ATTEND_RING: KindFacts("A"),
    Kind.MOTIVATION_TRIANGLE: KindFacts("S", payload=MotivationTrianglePayload),
    Kind.ROBINSON_ICON: KindFacts("S", payload=RobinsonIconPayload),
    Kind.MODAL_VERB_ICON: KindFacts("S", shape="cells"),
    Kind.ZOOM_BOX_PAIR: KindFacts("S", container=True, nonquan=True, shape="box"),
    EdgeKind.TIME: KindFacts("C", ("TimeArrow",)),
    EdgeKind.MOTION: KindFacts("C", ("MotionArrow",)),
    EdgeKind.FORCE: KindFacts("C", ("ForceArrow",)),
    EdgeKind.CAUSATION: KindFacts("C", ("CausationArrow",)),
    EdgeKind.TUBE: KindFacts("O", ("PathwayTube",)),
    EdgeKind.RELATIONSHIP: KindFacts("O", ("RelationshipMarker",), abstract="AnyMarker"),
    GroupKind.STATE_DIAGRAM: KindFacts("S", ("StateDiagramGroup",), iam=True),
    GroupKind.SPLIT_TIME: KindFacts("S", ("SplitTimeGroup", "SplitTimeArrow")),
    "AttributeLine": KindFacts("A"),
    "Wildcard": KindFacts("V"),
    "RangeCap": KindFacts("V"),
}

# Change Arrows are the change-like (C) arrows.
CHANGE_ARROW_KINDS = frozenset(k for k in EdgeKind if KIND_FACTS[k].scova == "C")
CONTAINER_KINDS = frozenset(k for k in Kind if KIND_FACTS[k].container)
NONQUAN_KINDS = frozenset(k for k in Kind if KIND_FACTS[k].nonquan)
LOCATION_BOX_FAMILY = frozenset(k for k in Kind if KIND_FACTS[k].strictness is not None)
MARKER_KINDS = frozenset(k for k in Kind if KIND_FACTS[k].abstract == "AnyMarker")


def payload_type(kind: Kind) -> type:
    return KIND_FACTS[kind].payload


def can_host(kind: Kind | EdgeKind) -> bool:
    """Whether elements or edges of this kind may carry attribute bindings:
    Nonquan elements and Change Arrows may."""
    return kind in NONQUAN_KINDS or kind in CHANGE_ARROW_KINDS


@dataclass
class Element:
    """One Building Block instance."""

    kind: Kind
    payload: object | None = None
    position: Position | None = None
    id: str | None = None

    def __post_init__(self):
        expected = payload_type(self.kind)
        if self.payload is None:
            self.payload = expected()
        if not isinstance(self.payload, expected):
            raise PayloadMismatch(
                f"{self.kind.value} expects {expected.__name__}, "
                f"got {type(self.payload).__name__}"
            )

    @property
    def label(self) -> str | None:
        return getattr(self.payload, "label", None)


@dataclass
class Edge:
    """An arrow: Time/Motion/Force/Causation change arrows, Pathway Tubes,
    or dotted Relationship Markers.  Endpoints are optional; a fully
    detached arrow is the "solitary" form."""

    kind: EdgeKind
    source: str | None = None
    target: str | None = None
    role: str | None = None  # Force only: "exerts" or "acted-upon"
    id: str | None = None

    def __post_init__(self):
        if self.role is not None and self.role not in ("exerts", "acted-upon"):
            raise InvalidPayload(f"unknown force role {self.role!r}")


@dataclass
class StateDiagramGroup:
    """States plus transitions with (at most) a single token marker."""

    states: tuple[str, ...] = ()
    tubes: tuple[str, ...] = ()
    marker: str | None = None  # state id or tube id (in-transition)
    owner: str | None = None  # element the whole diagram is an attribute of
    id: str | None = None

    @property
    def members(self) -> tuple[str, ...]:
        """The states, then the tubes."""
        return (*self.states, *self.tubes)


@dataclass
class SplitTimeGroup:
    """A trunk timeline forking into alternative branch timelines."""

    trunk: str = ""
    branches: tuple[str, ...] = ()
    junction: str = ""  # XorBox element id
    probabilities: tuple[float, ...] | None = None
    id: str | None = None

    def __post_init__(self):
        if self.probabilities is not None:
            self.probabilities = tuple(float(p) for p in self.probabilities)
            problem = self.probabilities_problem()
            if problem is not None:
                raise InvalidPayload(problem)

    def probabilities_problem(self) -> str | None:
        """What is wrong with the branch probabilities, or None when they are
        absent or one per branch, each in [0, 1], summing to 1."""
        probs = self.probabilities
        if probs is None:
            return None
        if len(probs) != len(self.branches):
            return "one probability per branch required"
        if any(not 0.0 <= p <= 1.0 for p in probs):
            return "branch probabilities must lie in [0, 1]"
        if abs(sum(probs) - 1.0) > 1e-9:
            return f"branch probabilities sum to {sum(probs)}, not 1"
        return None


Group = StateDiagramGroup | SplitTimeGroup


def _differ(a: Value, b: Value) -> bool:
    """Whether two values bound to one (owner, attribute) conflict."""
    return a is not b and a != b


@dataclass(eq=False)
class Diagram:
    """The scene graph: elements, containment forest, edges, bindings.

    ``edges`` is a read-only mapping and ``bindings`` a tuple of (owner,
    binding) pairs, an ordered multiset.  Each has one writer pair:
    ``add_edge`` and ``bind_attribute`` check what they add, while
    ``put_edge`` (any endpoints) and ``append_binding`` (any owner, host or
    value) do not, so the parser and callers can build diagrams that
    :func:`tumbug.grammar.validate` reports.  No edge id is ever overwritten.
    The writers keep private indices of the first value per (owner,
    attribute), of the keys bound to two values, and of Relationship edges
    by source.  An Edge whose ``kind`` or ``source`` is changed in place is
    not followed.

    Equality is structural and order-insensitive: two diagrams built by
    different insertion orders compare equal when their dicts are equal and
    they hold the same bindings in any order.
    """

    elements: dict[str, Element] = field(default_factory=dict, init=False)
    containment: dict[str, str] = field(default_factory=dict, init=False)  # child -> parent
    _edges: dict[str, Edge] = field(default_factory=dict, init=False)
    groups: dict[str, Group] = field(default_factory=dict, init=False)
    _bindings: list[tuple[str, AttributeBinding]] = field(default_factory=list, init=False)
    meta: dict[str, str] = field(default_factory=dict, init=False)
    # Per id prefix, where the next _fresh_id probe starts.  No method frees
    # an id, so the smallest free one never goes down and probing resumes.
    _fresh_from: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # The first value bound per (owner, attribute); in order, the keys also
    # bound to another; and each source's Relationship edge ids.
    _first: dict[tuple[str, str], Value] = field(default_factory=dict, init=False, repr=False)
    _conflicting: dict[tuple[str, str], None] = field(default_factory=dict, init=False, repr=False)
    _hops: dict[str | None, list[str]] = field(default_factory=dict, init=False, repr=False)

    @property
    def edges(self) -> Mapping[str, Edge]:
        return MappingProxyType(self._edges)

    @property
    def bindings(self) -> tuple[tuple[str, AttributeBinding], ...]:
        return tuple(self._bindings)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        dicts = lambda d: (d.elements, d.containment, d._edges, d.groups, d.meta)
        key = lambda ob: (ob[0], ob[1].attribute, repr(ob[1].value))
        return dicts(self) == dicts(other) and (
            sorted(self._bindings, key=key) == sorted(other._bindings, key=key)
        )

    # -- id allocation ----------------------------------------------------

    def _taken(self, i: str) -> bool:
        return i in self.elements or i in self._edges or i in self.groups

    def _fresh_id(self, prefix: str) -> str:
        n = self._fresh_from.get(prefix, 1)
        while self._taken(f"{prefix}{n}"):
            n += 1
        self._fresh_from[prefix] = n
        return f"{prefix}{n}"

    def _claim_id(self, requested: str | None, prefix: str) -> str:
        if requested is None:
            return self._fresh_id(prefix)
        if not ID_RE.fullmatch(requested):
            raise InvalidId(f"{requested!r} is not an identifier")
        if self._taken(requested):
            raise DuplicateId(requested)
        return requested

    # -- construction ------------------------------------------------------

    def add_element(self, element: Element, parent: str | None = None) -> str:
        """Insert an element, optionally inside a container, and return its id."""
        eid = self._claim_id(element.id, "n")
        if parent is not None:
            if parent not in self.elements:
                raise UnknownParent(parent)
            if self.elements[parent].kind not in CONTAINER_KINDS:
                raise ParentNotContainer(
                    f"{parent} is a {self.elements[parent].kind.value}, not a container"
                )
            self.containment[eid] = parent
        element.id = eid
        self.elements[eid] = element
        return eid

    def contain(self, child: str, parent: str) -> None:
        """Record child-inside-parent, rejecting cycles and non-containers."""
        if child not in self.elements:
            raise UnknownMember(child)
        if parent not in self.elements:
            raise UnknownParent(parent)
        if self.elements[parent].kind not in CONTAINER_KINDS:
            raise ParentNotContainer(parent)
        # Walk up from the parent; reaching the child would close a loop.
        seen = parent
        while seen is not None:
            if seen == child:
                raise ContainmentCycle(f"{child} inside {parent} closes a cycle")
            seen = self.containment.get(seen)
        self.containment[child] = parent

    def add_edge(self, edge: Edge) -> str:
        """Insert an edge whose endpoints exist, and return its id."""
        eid = self._claim_id(edge.id, "a")
        missing = self.missing_endpoints(edge)
        if missing:
            raise UnknownEndpoint(missing[0])
        edge.id = eid
        self._store_edge(edge)
        return eid

    def put_edge(self, edge: Edge) -> str:
        """Insert an edge whose endpoints need not exist, and return its id."""
        edge.id = self._claim_id(edge.id, "a")
        self._store_edge(edge)
        return edge.id

    def _store_edge(self, edge: Edge) -> None:
        self._edges[edge.id] = edge
        if edge.kind is EdgeKind.RELATIONSHIP:
            self._hops.setdefault(edge.source, []).append(edge.id)

    def add_group(self, group: Group) -> str:
        gid = self._claim_id(group.id, "g")
        if isinstance(group, StateDiagramGroup):
            for sid in group.states:
                if sid not in self.elements:
                    raise UnknownMember(sid)
            for tid in group.tubes:
                if tid not in self._edges:
                    raise UnknownMember(tid)
            if group.owner is not None and group.owner not in self.elements:
                raise UnknownOwner(group.owner)
        else:
            for tid in (group.trunk, *group.branches):
                if tid not in self._edges:
                    raise UnknownMember(tid)
            if group.junction and group.junction not in self.elements:
                raise UnknownMember(group.junction)
        group.id = gid
        self.groups[gid] = group
        return gid

    def bind_attribute(self, owner: str, binding: AttributeBinding) -> None:
        """Attach an attribute-value pair to a Nonquan element or Change Arrow.

        Rebinding the same attribute is allowed only with an identical value.
        """
        problem = self.host_problem(owner, binding.attribute)
        if problem is not None:
            raise IllegalAttributeHost(problem)
        key = (owner, binding.attribute)
        if key in self._conflicting or _differ(self._first.get(key, binding.value), binding.value):
            raise ConflictingDuplicate(
                f"{owner}.{binding.attribute} already bound to a different value"
            )
        self.append_binding(owner, binding)

    def append_binding(self, owner: str, binding: AttributeBinding) -> None:
        """Append the pair unchecked: owner need not exist or host attributes,
        and the value may conflict with one already bound."""
        self._bindings.append((owner, binding))
        key = (owner, binding.attribute)
        if _differ(self._first.setdefault(key, binding.value), binding.value):
            self._conflicting[key] = None

    # -- integrity checks, shared with grammar.validate --------------------

    def host_problem(self, owner: str, attribute: str) -> str | None:
        """Why owner cannot carry the attribute, or None if it can; raises
        ``UnknownOwner`` if owner names no element or edge."""
        host = self.elements.get(owner) or self._edges.get(owner)
        if host is None:
            raise UnknownOwner(owner)
        if can_host(host.kind):
            return None
        if isinstance(host.kind, EdgeKind):
            return f"{host.kind.value} edge cannot host attributes"
        return f"{host.kind.value} cannot host attribute {attribute!r}"

    def missing_endpoints(self, edge: Edge) -> list[str]:
        """The edge's endpoints that name no element."""
        return [e for e in (edge.source, edge.target) if e is not None and e not in self.elements]

    # -- queries -----------------------------------------------------------

    def bindings_of(self, owner: str) -> list[AttributeBinding]:
        return [b for o, b in self._bindings if o == owner]

    def binding_value(self, owner: str, attribute: str) -> Value | None:
        """The first value bound to owner's attribute, or None."""
        return self._first.get((owner, attribute))

    def conflicting_bindings(self) -> list[tuple[str, str]]:
        """Each (owner, attribute) bound to two values, in the order found."""
        return list(self._conflicting)

    def relationship_hops(self, owner: str) -> list[str]:
        """The sorted ids of the Relationship edges leaving owner."""
        return sorted(self._hops.get(owner, ()))

    def children_of(self, parent: str) -> list[str]:
        return sorted(c for c, p in self.containment.items() if p == parent)

    def elements_of_kind(self, kind: Kind) -> list[str]:
        return sorted(i for i, e in self.elements.items() if e.kind == kind)

    def edges_of_kind(self, kind: EdgeKind) -> list[str]:
        return sorted(i for i, e in self._edges.items() if e.kind == kind)


def new_diagram() -> Diagram:
    """Fresh empty diagram."""
    return Diagram()
