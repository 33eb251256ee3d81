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
from collections import Counter
from types import MappingProxyType
from typing import Mapping

from . import FrozenRecord, Record
from .values import (
    KEY_RE,
    Expr,
    NoEquationForSlot,
    UnboundSlots,
    Value,
    Wildcard,
    eval_expr,
    expr_slots,
    legal_text,
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


class Position(FrozenRecord):
    """Layout hint; mandatory only inside Verbatim and Descriptive boxes."""

    def __init__(self, x: float, y: float, w: float | None = None, h: float | None = None):
        if (w is None) != (h is None):
            raise InvalidPayload("extent needs both w and h")
        if not all(math.isfinite(v) for v in (x, y, w, h) if v is not None):
            raise InvalidPayload("position and extent must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", h)


class AttributeBinding(FrozenRecord):
    """Attribute name paired with a value; at most one side may be DK."""

    def __init__(self, attribute: str, value: Value):
        if not KEY_RE.fullmatch(attribute):
            raise InvalidPayload(f"illegal attribute name {attribute!r}")
        if attribute == "DK" and value is Wildcard.DK:
            raise InvalidPayload("attribute and value cannot both be DK")
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "value", value)


# Identifier syntax of element, edge and group ids; keys (values.KEY_RE) may
# also hold dots.
ID_RE = re.compile(r"[A-Za-z0-9_-]+")

_RESERVED_PROP_KEYS = frozenset({"label", "pos", "size"})


def _optional_text(s: str | None) -> str | None:
    """An optional text field: None, or a text that values.legal_text passes."""
    return s if s is None else legal_text(s)


class GenericPayload(Record):
    """Payload for ordinary elements: a label plus free-form properties."""

    def __init__(self, label: str | None = None, props: dict[str, str] | None = None):
        if props is None:
            props = {}
        for key, text in props.items():
            if key in _RESERVED_PROP_KEYS or not KEY_RE.fullmatch(key):
                raise InvalidPayload(f"illegal property key {key!r}")
            legal_text(text)
        self.label = _optional_text(label)
        self.props = props


class SlotSpec(FrozenRecord):
    """One correlation slot: local name bound to an element attribute."""

    def __init__(self, name: str, element: str, attribute: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "attribute", attribute)
        if not (ID_RE.fullmatch(name) and ID_RE.fullmatch(element) and KEY_RE.fullmatch(attribute)):
            raise InvalidPayload(f"illegal slot name, element or attribute in {self!r}")


class CorrelationBoxPayload(Record):
    """Equations relating slot values; each equation solves one slot."""

    def __init__(self, slots: tuple[SlotSpec, ...] = (), equations: dict[str, Expr] | None = None):
        if equations is None:
            equations = {}
        declared = {s.name for s in slots}
        for target, expr in equations.items():
            if target not in declared:
                raise InvalidPayload(f"equation targets undeclared slot {target!r}")
            undeclared = expr_slots(expr) - declared
            if undeclared:
                raise InvalidPayload(
                    f"equation for {target!r} references undeclared slots {sorted(undeclared)}"
                )
        self.slots = slots
        self.equations = equations

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


class CAPayload(Record):
    """Concrete-abstract payload: forced inputs above, detected outputs below."""

    def __init__(
        self,
        forced: tuple[AttributeBinding, ...] = (),
        detected: tuple[AttributeBinding, ...] = (),
        open_ended: bool = False,
        label: str | None = None,
    ):
        overlap = {b.attribute for b in forced} & {b.attribute for b in detected}
        if overlap:
            raise InvalidPayload(f"forced/detected attribute overlap: {sorted(overlap)}")
        self.forced = forced
        self.detected = detected
        self.open_ended = open_ended
        self.label = _optional_text(label)


MOTIVATION_LEVELS = ("automaton", "physical", "emotional", "intellectual")
VALENCES = ("+", "-")


class MotivationTrianglePayload(Record):
    """Quadrune want hierarchy; one marker maximum per (level, valence) cell."""

    def __init__(
        self,
        markers: frozenset[tuple[str, str]] = frozenset(),
        robinson: str | None = None,  # embedded RobinsonIcon element id
        label: str | None = None,
    ):
        for level, valence in sorted(markers):
            if level not in MOTIVATION_LEVELS:
                raise InvalidPayload(f"unknown motivation level {level!r}")
            if valence not in VALENCES:
                raise InvalidPayload(f"valence must be + or -, got {valence!r}")
        # frozenset already forbids two markers in the same cell; reject the
        # sneaky path of passing a collection with duplicates pre-merged away.
        self.markers = frozenset(markers)
        self.robinson = _optional_text(robinson)
        self.label = _optional_text(label)


ROBINSON_CATEGORIES = (
    "ObjectProperties",
    "FutureAppraisal",
    "EventRelated",
    "SelfAppraisal",
    "Social",
    "Cathected",
)


class RobinsonIconPayload(Record):
    """Emotion icon over six categories with a +/- valence layer."""

    def __init__(
        self,
        active: frozenset[str] = frozenset(),
        valence: str = "+",
        subnode: str | None = None,
        cathected_target: str | None = None,
        label: str | None = None,
    ):
        unknown = set(active) - set(ROBINSON_CATEGORIES)
        if unknown:
            raise InvalidPayload(f"unknown emotion categories {sorted(unknown)}")
        if valence not in VALENCES:
            raise InvalidPayload(f"valence must be + or -, got {valence!r}")
        if cathected_target is not None and "Cathected" not in active:
            raise InvalidPayload("cathected target requires the Cathected category")
        self.active = frozenset(active)
        self.valence = valence
        self.subnode = _optional_text(subnode)
        self.cathected_target = _optional_text(cathected_target)
        self.label = _optional_text(label)


class SwirlyArrayPayload(Record):
    """Named cells at arbitrary fixed positions, a subset of which are lit."""

    def __init__(
        self,
        cells: tuple[tuple[str, float, float], ...] = (),
        active: frozenset[str] = frozenset(),
        label: str | None = None,
    ):
        names = [legal_text(c[0]) for c in cells]
        bad = [n for n in names if not n or "," in n or ":" in n]
        if bad:
            raise InvalidPayload(f"cell name {bad[0]!r} is empty or holds ',' or ':'")
        if len(names) != len(set(names)):
            raise InvalidPayload("duplicate cell names in swirly array")
        missing = set(active) - set(names)
        if missing:
            raise InvalidPayload(f"active cells not in array: {sorted(missing)}")
        self.cells = cells
        self.active = frozenset(active)
        self.label = _optional_text(label)


class KindFacts(FrozenRecord):
    """What the package knows about one Building Block kind, short of how
    svg draws each one."""

    def __init__(
        self,
        scova: str,  # the Basic Building Block it reduces to: S, C, O, V or A
        aliases: tuple[str, ...] = (),  # Building Block names accepted besides the kind's own
        payload: type = GenericPayload,  # payload class of elements of this kind
        container: bool = False,  # may hold other elements
        nonquan: bool = False,  # Nonquantified: the only elements that may host attributes
        data: bool = False,  # information rather than matter: drawn with a dotted outline
        # Location boxes only: a looser box directly inside a stricter one would
        # invert the stricter box's constraints; boxes above 1 fix child positions.
        strictness: int | None = None,
        iam: bool = False,  # interchangeably actualizable map
        shape: str | None = None,  # svg drawing class: circle, box (label on top), bar or cells
        abstract: str | None = None,  # heuristics requirement it meets: AnyBox or AnyMarker
    ):
        object.__setattr__(self, "scova", scova)
        object.__setattr__(self, "aliases", aliases)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "container", container)
        object.__setattr__(self, "nonquan", nonquan)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "strictness", strictness)
        object.__setattr__(self, "iam", iam)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "abstract", abstract)


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


class Element(Record):
    """One Building Block instance."""

    def __init__(
        self,
        kind: Kind,
        payload: object | None = None,
        position: Position | None = None,
        id: str | None = None,
    ):
        expected = payload_type(kind)
        if payload is None:
            payload = expected()
        elif not isinstance(payload, expected):
            raise PayloadMismatch(
                f"{kind.value} expects {expected.__name__}, got {type(payload).__name__}"
            )
        self.kind = kind
        self.payload = payload
        self.position = position
        self.id = id

    @property
    def label(self) -> str | None:
        return getattr(self.payload, "label", None)


class Edge(Record):
    """An arrow: Time/Motion/Force/Causation change arrows, Pathway Tubes,
    or dotted Relationship Markers.  Endpoints are optional; a fully
    detached arrow is the "solitary" form."""

    def __init__(
        self,
        kind: EdgeKind,
        source: str | None = None,
        target: str | None = None,
        role: str | None = None,  # Force only: "exerts" or "acted-upon"
        id: str | None = None,
    ):
        if role is not None:
            if role not in ("exerts", "acted-upon"):
                raise InvalidPayload(f"unknown force role {role!r}")
            if kind is not EdgeKind.FORCE:
                raise InvalidPayload(f"force role {role!r} on a {kind.value} edge")
        self.kind = kind
        self.source = source
        self.target = target
        self.role = role
        self.id = id


class StateDiagramGroup(Record):
    """States plus transitions with (at most) a single token marker."""

    def __init__(
        self,
        states: tuple[str, ...] = (),
        tubes: tuple[str, ...] = (),
        marker: str | None = None,  # state id or tube id (in-transition)
        owner: str | None = None,  # element the whole diagram is an attribute of
        id: str | None = None,
    ):
        self.states = states
        self.tubes = tubes
        self.marker = marker
        self.owner = owner
        self.id = id

    @property
    def members(self) -> tuple[str, ...]:
        """The states, then the tubes."""
        return (*self.states, *self.tubes)


class SplitTimeGroup(Record):
    """A trunk timeline forking into alternative branch timelines."""

    def __init__(
        self,
        trunk: str = "",
        branches: tuple[str, ...] = (),
        junction: str = "",  # XorBox element id
        probabilities: tuple[float, ...] | None = None,
        id: str | None = None,
    ):
        # Probabilities are absent, or one per branch, each in [0, 1], summing to 1.
        if probabilities is not None:
            probabilities = tuple(float(p) for p in probabilities)
            if len(probabilities) != len(branches):
                raise InvalidPayload("one probability per branch required")
            if any(not 0.0 <= p <= 1.0 for p in probabilities):
                raise InvalidPayload("branch probabilities must lie in [0, 1]")
            if abs(sum(probabilities) - 1.0) > 1e-9:
                raise InvalidPayload(f"branch probabilities sum to {sum(probabilities)}, not 1")
        self.trunk = trunk
        self.branches = branches
        self.junction = junction
        self.probabilities = probabilities
        self.id = id


Group = StateDiagramGroup | SplitTimeGroup


def _differ(a: Value, b: Value) -> bool:
    """Whether two values bound to one (owner, attribute) conflict."""
    return a is not b and a != b


# What Diagram._attach builds, and a copy or pickle of a diagram leaves out.
_ATTACHED = frozenset({
    "_elements_view", "_containment_view", "_edges_view", "_groups_view", "_meta_view",
    "_written_lines", "_written_literals",
})


class Diagram:
    """The scene graph: elements, containment forest, edges, bindings.

    ``elements``, ``containment`` (child -> parent), ``edges``, ``groups``
    and ``meta`` are read-only views, built once with the diagram and live:
    each shows every later write.  ``bindings`` is a tuple of (owner,
    binding) pairs, a multiset in the order written, copied on each read.

    Only the writers below change a diagram.  None overwrites an id, and
    each refuses an id that names nothing, a parent that is no container, a
    containment cycle and a meta key the DSL cannot write, so
    parse(serialize(d)) == d for every diagram.  ``bind_attribute`` also
    refuses a host that cannot carry the attribute and a conflicting value;
    ``append_binding`` keeps both, so the parser and callers can build
    diagrams that :func:`tumbug.grammar.validate` reports.  The writers keep
    private indices of the value per (owner, attribute) that serialize writes
    first, of the keys bound to two values, of the bindings on hosts that
    cannot carry them, and of Relationship edges by source.  A record
    changed in place after it is stored (an Edge's endpoints or kind, an
    Element's kind or payload, a group's fields) is outside this contract,
    and the indices do not follow it.

    The diagram also holds what :mod:`tumbug.dsl` has written of it, which
    only the dsl fills: the line of each element and edge that serialize
    wrote, and the value literal of each binding.  No writer overwrites an
    element or edge or removes a binding, so those texts stay true and live
    as long as the diagram, and a save encodes only the records added since
    the last; an in-place change to a stored record is not read again.
    Containment, group and meta lines are written afresh on each save, as
    ``contain`` moves a child and ``set_meta`` overwrites a value.  A copy
    or pickle leaves the views and these texts out and starts without texts.

    Equality is structural and order-insensitive: two diagrams built by
    different insertion orders compare equal when their dicts are equal and
    they hold the same multiset of bindings.
    """

    def __init__(self):
        self._elements: dict[str, Element] = {}
        self._containment: dict[str, str] = {}  # child -> parent
        self._edges: dict[str, Edge] = {}
        self._groups: dict[str, Group] = {}
        self._bindings: list[tuple[str, AttributeBinding]] = []
        self._meta: dict[str, str] = {}
        # Per id prefix, where the next _fresh_id probe starts.  No method frees
        # an id, so the smallest free one never goes down and probing resumes.
        self._fresh_from: dict[str, int] = {}
        # Per (owner, attribute), the value that serialize writes first; the
        # keys bound to two values; and each source's Relationship edge ids.
        self._first: dict[tuple[str, str], Value] = {}
        self._conflicting: set[tuple[str, str]] = set()
        self._hops: dict[str | None, list[str]] = {}
        # (owner, attribute) per binding on a host that cannot carry it.
        self._misplaced: list[tuple[str, str]] = []
        self._attach()

    def _attach(self) -> None:
        """Build what a copy leaves out: the views and the dsl's empty record
        of what it wrote (the line per element and edge id, which share one
        namespace, and the literal per binding, in binding order)."""
        self._elements_view = MappingProxyType(self._elements)
        self._containment_view = MappingProxyType(self._containment)
        self._edges_view = MappingProxyType(self._edges)
        self._groups_view = MappingProxyType(self._groups)
        self._meta_view = MappingProxyType(self._meta)
        self._written_lines: dict[str, str] = {}
        self._written_literals: list[str] = []

    def __getstate__(self) -> dict:
        # A view neither pickles nor deep-copies; the written texts are not state.
        return {k: v for k, v in self.__dict__.items() if k not in _ATTACHED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._attach()

    def __repr__(self) -> str:  # the indices are left out
        return (
            f"Diagram(elements={self._elements!r}, containment={self._containment!r}, "
            f"_edges={self._edges!r}, groups={self._groups!r}, _bindings={self._bindings!r}, "
            f"meta={self._meta!r})"
        )

    @property
    def elements(self) -> Mapping[str, Element]:
        return self._elements_view

    @property
    def containment(self) -> Mapping[str, str]:
        return self._containment_view

    @property
    def edges(self) -> Mapping[str, Edge]:
        return self._edges_view

    @property
    def groups(self) -> Mapping[str, Group]:
        return self._groups_view

    @property
    def meta(self) -> Mapping[str, str]:
        return self._meta_view

    @property
    def bindings(self) -> tuple[tuple[str, AttributeBinding], ...]:
        return tuple(self._bindings)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        mine = (self._elements, self._containment, self._edges, self._groups, self._meta)
        theirs = (other._elements, other._containment, other._edges, other._groups, other._meta)
        return mine == theirs and Counter(self._bindings) == Counter(other._bindings)

    # -- id allocation ----------------------------------------------------

    def _taken(self, i: str) -> bool:
        return i in self._elements or i in self._edges or i in self._groups

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
            raise InvalidId(requested)
        if self._taken(requested):
            raise DuplicateId(requested)
        return requested

    # -- construction ------------------------------------------------------

    def set_meta(self, key: str, value: str) -> None:
        """Set a metadata entry under a key the DSL can write."""
        if not KEY_RE.fullmatch(key):
            raise ModelError(f"meta key {key!r} is not a key the DSL can write")
        self._meta[key] = legal_text(value)

    def _check_parent(self, parent: str) -> None:
        """Refuse a parent that is not a container element of this diagram."""
        if parent not in self._elements:
            raise UnknownParent(parent)
        if self._elements[parent].kind not in CONTAINER_KINDS:
            raise ParentNotContainer(parent)

    def add_element(self, element: Element, parent: str | None = None) -> str:
        """Insert an element, optionally inside a container, and return its id."""
        eid = self._claim_id(element.id, "n")
        if parent is not None:
            self._check_parent(parent)
            self._containment[eid] = parent
        element.id = eid
        self._elements[eid] = element
        return eid

    def contain(self, child: str, parent: str) -> None:
        """Record child-inside-parent, rejecting cycles and non-containers."""
        if child not in self._elements:
            raise UnknownMember(child)
        self._check_parent(parent)
        # Walk up from the parent; reaching the child would close a loop.
        seen = parent
        while seen is not None:
            if seen == child:
                raise ContainmentCycle(f"{child} inside {parent} closes a cycle")
            seen = self._containment.get(seen)
        self._containment[child] = parent

    def add_edge(self, edge: Edge) -> str:
        """Insert an edge whose endpoints exist, and return its id."""
        eid = self._claim_id(edge.id, "a")
        for end in (edge.source, edge.target):
            if end is not None and end not in self._elements:
                raise UnknownEndpoint(end)
        edge.id = eid
        self._edges[eid] = edge
        if edge.kind is EdgeKind.RELATIONSHIP:
            self._hops.setdefault(edge.source, []).append(eid)
        return eid

    def add_group(self, group: Group) -> str:
        gid = self._claim_id(group.id, "g")
        if isinstance(group, StateDiagramGroup):
            for sid in group.states:
                if sid not in self._elements:
                    raise UnknownMember(sid)
            for tid in group.tubes:
                if tid not in self._edges:
                    raise UnknownMember(tid)
            if group.owner is not None and group.owner not in self._elements:
                raise UnknownOwner(group.owner)
            # The DSL writes the marker bare, so it must read back as one word.
            if group.marker and not ID_RE.fullmatch(group.marker):
                raise InvalidId(group.marker)
        else:
            for tid in (group.trunk, *group.branches):
                if tid not in self._edges:
                    raise UnknownMember(tid)
            if group.junction and group.junction not in self._elements:
                raise UnknownMember(group.junction)
        group.id = gid
        self._groups[gid] = group
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
        self._append(owner, binding)

    def append_binding(self, owner: str, binding: AttributeBinding) -> None:
        """Append the pair to an owner that exists; it may be a host that
        cannot carry the attribute, and the value may conflict with one
        already bound.  Raises ``UnknownOwner`` if owner names no element or
        edge."""
        if self.host_problem(owner, binding.attribute) is not None:
            self._misplaced.append((owner, binding.attribute))
        self._append(owner, binding)

    def _append(self, owner: str, binding: AttributeBinding) -> None:
        self._bindings.append((owner, binding))
        key = (owner, binding.attribute)
        first = self._first.setdefault(key, binding.value)
        if _differ(first, binding.value):
            from .dsl import value_literal  # serialize writes the least literal first
            self._conflicting.add(key)
            self._first[key] = min(first, binding.value, key=value_literal)

    # -- integrity checks, shared with grammar.validate --------------------

    def host_problem(self, owner: str, attribute: str) -> str | None:
        """Why owner cannot carry the attribute, or None if it can; raises
        ``UnknownOwner`` if owner names no element or edge."""
        host = self._elements.get(owner) or self._edges.get(owner)
        if host is None:
            raise UnknownOwner(owner)
        if can_host(host.kind):
            return None
        if isinstance(host.kind, EdgeKind):
            return f"{host.kind.value} edge cannot host attributes"
        return f"{host.kind.value} cannot host attribute {attribute!r}"

    # -- queries -----------------------------------------------------------

    def bindings_of(self, owner: str) -> list[AttributeBinding]:
        return [b for o, b in self._bindings if o == owner]

    def binding_value(self, owner: str, attribute: str) -> Value | None:
        """The value of owner's attribute that serialize writes first, or None."""
        return self._first.get((owner, attribute))

    def misplaced_bindings(self) -> list[tuple[str, str]]:
        """(owner, attribute) per binding whose owner cannot carry the
        attribute, sorted; only append_binding keeps such a binding."""
        return sorted(self._misplaced)

    def conflicting_bindings(self) -> list[tuple[str, str]]:
        """Each (owner, attribute) bound to two different values, sorted."""
        return sorted(self._conflicting)

    def relationship_hops(self, owner: str) -> list[str]:
        """The sorted ids of the Relationship edges leaving owner."""
        return sorted(self._hops.get(owner, ()))

    def children_of(self, parent: str) -> list[str]:
        return sorted(c for c, p in self._containment.items() if p == parent)

    def elements_of_kind(self, kind: Kind) -> list[str]:
        return sorted(i for i, e in self._elements.items() if e.kind == kind)

    def edges_of_kind(self, kind: EdgeKind) -> list[str]:
        return sorted(i for i, e in self._edges.items() if e.kind == kind)
