"""Core diagram model: Building Block elements, edges, groups, containment.

A Diagram is a scene graph: elements in a containment forest, arrows between
them, and attribute bindings hanging off elements or arrows.  Construction
methods enforce referential integrity (ids must exist, parents must be
containers, containment stays acyclic); grammar-level legality is the
validator's job and lives in :mod:`tumbug.grammar`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .values import (
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


CHANGE_ARROW_KINDS = frozenset(
    {EdgeKind.TIME, EdgeKind.MOTION, EdgeKind.FORCE, EdgeKind.CAUSATION}
)

LOCATION_BOX_FAMILY = frozenset(
    {
        Kind.VERBATIM_BOX,
        Kind.DESCRIPTIVE_BOX,
        Kind.AGGREGATION_BOX,
        Kind.CA_AGGREGATION_BOX,
        Kind.XOR_BOX,
    }
)

CONTAINER_KINDS = LOCATION_BOX_FAMILY | {Kind.DATA_SET_BOX, Kind.ZOOM_BOX_PAIR}

# Nonquantified objects: the only elements that may host attribute bindings.
NONQUAN_KINDS = frozenset(
    {
        Kind.PHYSICAL_OBJECT_CIRCLE,
        Kind.DATA_OBJECT_CIRCLE,
        Kind.CA_OBJECT_CIRCLE,
        Kind.DATA_POINT,
        Kind.SWIRLY_ARRAY,
    }
) | CONTAINER_KINDS

MARKER_KINDS = frozenset({Kind.MARKER_0D, Kind.MARKER_1D, Kind.MARKER_2D})


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


@dataclass(frozen=True)
class AttributeBinding:
    """Attribute name paired with a value; at most one side may be DK."""

    attribute: str
    value: Value

    def __post_init__(self):
        if self.attribute == "DK" and self.value is Wildcard.DK:
            raise InvalidPayload("attribute and value cannot both be DK")


_RESERVED_PROP_KEYS = frozenset({"label", "pos", "size"})
_PROP_KEY_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass
class GenericPayload:
    """Payload for ordinary elements: a label plus free-form properties."""

    label: str | None = None
    props: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for key in self.props:
            if key in _RESERVED_PROP_KEYS or not _PROP_KEY_RE.match(key):
                raise InvalidPayload(f"illegal property key {key!r}")


@dataclass(frozen=True)
class SlotSpec:
    """One correlation slot: local name bound to an element attribute."""

    name: str
    element: str
    attribute: str


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
        for level, valence in self.markers:
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
        if len(names) != len(set(names)):
            raise InvalidPayload("duplicate cell names in swirly array")
        missing = set(self.active) - set(names)
        if missing:
            raise InvalidPayload(f"active cells not in array: {sorted(missing)}")
        object.__setattr__(self, "active", frozenset(self.active))


Payload = object  # any of the payload classes above

_PAYLOAD_TYPES: dict[Kind, type] = {
    Kind.CORRELATION_BOX: CorrelationBoxPayload,
    Kind.CA_OBJECT_CIRCLE: CAPayload,
    Kind.CA_AGGREGATION_BOX: CAPayload,
    Kind.MOTIVATION_TRIANGLE: MotivationTrianglePayload,
    Kind.ROBINSON_ICON: RobinsonIconPayload,
    Kind.SWIRLY_ARRAY: SwirlyArrayPayload,
}


def payload_type(kind: Kind) -> type:
    return _PAYLOAD_TYPES.get(kind, GenericPayload)


def default_payload(kind: Kind):
    return payload_type(kind)()


@dataclass
class Element:
    """One Building Block instance."""

    kind: Kind
    payload: object | None = None
    position: Position | None = None
    id: str | None = None

    def __post_init__(self):
        if self.payload is None:
            self.payload = default_payload(self.kind)
        expected = payload_type(self.kind)
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
            probs = tuple(float(p) for p in self.probabilities)
            if len(probs) != len(self.branches):
                raise InvalidPayload("one probability per branch required")
            if any(not 0.0 <= p <= 1.0 for p in probs):
                raise InvalidPayload("branch probabilities must lie in [0, 1]")
            if abs(sum(probs) - 1.0) > 1e-9:
                raise InvalidPayload(f"branch probabilities sum to {sum(probs)}, not 1")
            self.probabilities = probs


Group = StateDiagramGroup | SplitTimeGroup


@dataclass(eq=False)
class Diagram:
    """The scene graph: elements, containment forest, edges, bindings.

    ``bindings`` is an ordered multiset of (owner, binding) pairs.  It may
    hold duplicates and conflicting values (the parser and callers append
    to it directly), which :func:`tumbug.grammar.validate` reports.  Readers
    that need the bindings per owner group the list once per call instead
    of keeping an index that appends could leave stale.

    Equality is structural and order-insensitive: two diagrams built by
    different insertion orders compare equal when their canonical forms
    coincide.
    """

    elements: dict[str, Element] = field(default_factory=dict)
    containment: dict[str, str] = field(default_factory=dict)  # child -> parent
    edges: dict[str, Edge] = field(default_factory=dict)
    groups: dict[str, Group] = field(default_factory=dict)
    bindings: list[tuple[str, AttributeBinding]] = field(default_factory=list)
    meta: dict[str, str] = field(default_factory=dict)

    def canonical_key(self):
        return (
            sorted(self.elements.items(), key=lambda kv: kv[0]),
            sorted(self.containment.items()),
            sorted(self.edges.items(), key=lambda kv: kv[0]),
            sorted(self.groups.items(), key=lambda kv: kv[0]),
            sorted(self.bindings, key=lambda ob: (ob[0], ob[1].attribute, repr(ob[1].value))),
            sorted(self.meta.items()),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    # -- id allocation ----------------------------------------------------

    def _taken(self, i: str) -> bool:
        return i in self.elements or i in self.edges or i in self.groups

    def _fresh_id(self, prefix: str) -> str:
        n = 1
        while self._taken(f"{prefix}{n}"):
            n += 1
        return f"{prefix}{n}"

    def _claim_id(self, requested: str | None, prefix: str) -> str:
        if requested is None:
            return self._fresh_id(prefix)
        if self._taken(requested):
            raise DuplicateId(requested)
        return requested

    # -- construction ------------------------------------------------------

    def add_element(self, element: Element, parent: str | None = None) -> str:
        """Insert an element, optionally inside a container, and return its id."""
        element.id = self._claim_id(element.id, "n")
        if parent is not None:
            if parent not in self.elements:
                raise UnknownParent(parent)
            if self.elements[parent].kind not in CONTAINER_KINDS:
                raise ParentNotContainer(
                    f"{parent} is a {self.elements[parent].kind.value}, not a container"
                )
        self.elements[element.id] = element
        if parent is not None:
            self.containment[element.id] = parent
        return element.id

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

    def add_edge(
        self, edge: Edge, attrs: Iterable[AttributeBinding] | None = None
    ) -> str:
        edge.id = self._claim_id(edge.id, "a")
        for endpoint in (edge.source, edge.target):
            if endpoint is not None and endpoint not in self.elements:
                raise UnknownEndpoint(endpoint)
        self.edges[edge.id] = edge
        for binding in attrs or ():
            self.bind_attribute(edge.id, binding)
        return edge.id

    def add_group(self, group: Group) -> str:
        group.id = self._claim_id(group.id, "g")
        if isinstance(group, StateDiagramGroup):
            for sid in group.states:
                if sid not in self.elements:
                    raise UnknownMember(sid)
            for tid in group.tubes:
                if tid not in self.edges:
                    raise UnknownMember(tid)
            if group.owner is not None and group.owner not in self.elements:
                raise UnknownOwner(group.owner)
        else:
            for tid in (group.trunk, *group.branches):
                if tid not in self.edges:
                    raise UnknownMember(tid)
            if group.junction and group.junction not in self.elements:
                raise UnknownMember(group.junction)
        self.groups[group.id] = group
        return group.id

    def bind_attribute(self, owner: str, binding: AttributeBinding) -> None:
        """Attach an attribute-value pair to a Nonquan element or Change Arrow.

        Rebinding the same attribute is allowed only with an identical value.
        """
        if owner in self.elements:
            kind = self.elements[owner].kind
            if kind not in NONQUAN_KINDS:
                raise IllegalAttributeHost(
                    f"{kind.value} cannot host attribute-value pairs"
                )
        elif owner in self.edges:
            if self.edges[owner].kind not in CHANGE_ARROW_KINDS:
                raise IllegalAttributeHost(
                    f"{self.edges[owner].kind.value} edges cannot host attributes"
                )
        else:
            raise UnknownOwner(owner)
        for existing_owner, existing in self.bindings:
            if existing_owner == owner and existing.attribute == binding.attribute:
                if existing.value != binding.value:
                    raise ConflictingDuplicate(
                        f"{owner}.{binding.attribute} already bound to a different value"
                    )
        self.bindings.append((owner, binding))

    # -- queries -----------------------------------------------------------

    def bindings_of(self, owner: str) -> list[AttributeBinding]:
        return [b for o, b in self.bindings if o == owner]

    def binding_value(self, owner: str, attribute: str) -> Value | None:
        for o, b in self.bindings:
            if o == owner and b.attribute == attribute:
                return b.value
        return None

    def children_of(self, parent: str) -> list[str]:
        return sorted(c for c, p in self.containment.items() if p == parent)

    def elements_of_kind(self, kind: Kind) -> list[str]:
        return sorted(i for i, e in self.elements.items() if e.kind == kind)

    def edges_of_kind(self, kind: EdgeKind) -> list[str]:
        return sorted(i for i, e in self.edges.items() if e.kind == kind)


def new_diagram() -> Diagram:
    """Fresh empty diagram."""
    return Diagram()
