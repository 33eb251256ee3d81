"""Ready-made diagram constructions.

Each builder returns a diagram that passes validation with zero violations.
Ids derive from role labels, so the same inputs always produce the same
diagram regardless of construction order.
"""

from __future__ import annotations

import enum
import math
import re
from functools import reduce

from . import FrozenRecord
from .model import (
    AttributeBinding,
    CorrelationBoxPayload,
    Diagram,
    Edge,
    EdgeKind,
    Element,
    GenericPayload,
    Kind,
    Position,
    SlotSpec,
    SplitTimeGroup,
    StateDiagramGroup,
    payload_type,
)
from .values import OPERATORS, BinOp, Const, Scalar, SlotRef, Text, fmt_num

__all__ = [
    "PrimitiveAct",
    "BasicPattern",
    "AspectSpec",
    "MissingRole",
    "UnsupportedOperator",
    "InvalidArithmetic",
    "EmptyProgram",
    "build_primitive",
    "build_pattern",
    "build_aspect",
    "build_syllogism",
    "build_arithmetic",
    "build_flowchart",
    "draw_flowchart",
    "run_trace",
    "TraceError",
    "build_passive",
    "build_water_pour",
]


class MissingRole(KeyError):
    pass


class UnsupportedOperator(ValueError):
    pass


class InvalidArithmetic(ValueError):
    """An arithmetic input or result that is not finite, or a zero divisor."""


class EmptyProgram(ValueError):
    pass


class TraceError(ValueError):
    """A marker walk that cannot run: no states, iterations < 1, or too long."""


class PrimitiveAct(enum.Enum):
    """Conceptual-dependency primitive acts, with transitive/intransitive,
    moved/unmoved, and scratch/combination variants split out."""

    ATRANS = "atrans"
    PTRANS_T = "ptrans-t"
    PTRANS_I = "ptrans-i"
    PROPEL = "propel"
    PROPEL_M = "propel-m"
    MTRANS = "mtrans"
    MBUILD_S = "mbuild-s"
    MBUILD_C = "mbuild-c"
    SPEAK = "speak"
    ATTEND = "attend"
    MOVE = "move"
    GRASP = "grasp"
    INGEST = "ingest"
    EXPEL = "expel"


class BasicPattern(enum.Enum):
    """The basic visual sentence patterns; E/C/T are the valency letters."""

    ATTRIBUTE = "attribute"
    SUPERSET = "superset"
    SELF_MOVE = "self-move"
    CONTACT = "contact"
    TRANSFER = "transfer"
    SWAP = "swap"

    # valency-letter aliases
    E = "self-move"
    C = "contact"
    T = "transfer"


TENSES = ("past", "present", "future")
ASPECTS = ("simple", "progressive", "perfect", "perfect-progressive")


class AspectSpec(FrozenRecord):
    def __init__(
        self,
        tense: str,
        aspect: str,
        continuation: str = "continues",  # perfect-progressive: continues|stops|both
    ):
        if tense not in TENSES:
            raise ValueError(f"tense must be one of {TENSES}")
        if aspect not in ASPECTS:
            raise ValueError(f"aspect must be one of {ASPECTS}")
        if continuation not in ("continues", "stops", "both"):
            raise ValueError("continuation must be continues, stops, or both")
        object.__setattr__(self, "tense", tense)
        object.__setattr__(self, "aspect", aspect)
        object.__setattr__(self, "continuation", continuation)


def _slug(label: str, taken: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9_-]+", "-", label.strip().lower()).strip("-") or "x"
    candidate = base
    n = 2
    while candidate in taken:
        candidate = f"{base}-{n}"
        n += 1
    taken.add(candidate)
    return candidate


class _Builder:
    """Small convenience layer over Diagram with label-derived ids."""

    def __init__(self):
        self.d = Diagram()
        self.taken: set[str] = set()

    def elem(
        self,
        kind: Kind,
        label: str | None = None,
        parent: str | None = None,
        id_hint: str | None = None,
        payload=None,
        position: Position | None = None,
        props: dict[str, str] | None = None,
    ) -> str:
        if payload is None and payload_type(kind) is GenericPayload:
            payload = GenericPayload(label=label, props=dict(props or {}))
        eid = _slug(id_hint or label or kind.value, self.taken)
        return self.d.add_element(
            Element(kind=kind, payload=payload, position=position, id=eid), parent=parent
        )

    def circle(self, label: str | None, **kw) -> str:
        return self.elem(Kind.PHYSICAL_OBJECT_CIRCLE, label, **kw)

    def data(self, label: str | None, **kw) -> str:
        return self.elem(Kind.DATA_OBJECT_CIRCLE, label, **kw)

    def edge(
        self,
        kind: EdgeKind,
        source: str | None = None,
        target: str | None = None,
        id_hint: str = "",
        attrs: dict[str, object] | None = None,
        role: str | None = None,
    ) -> str:
        eid = _slug(id_hint or kind.value, self.taken)
        self.d.add_edge(Edge(kind=kind, source=source, target=target, role=role, id=eid))
        for name, value in (attrs or {}).items():
            self.bind(eid, name, value)
        return eid

    def timeline(self, id_hint: str = "timeline") -> str:
        return self.edge(EdgeKind.TIME, id_hint=id_hint)

    def bind(self, owner: str, name: str, value) -> None:
        self.d.bind_attribute(owner, AttributeBinding(name, value))

    def group(self, group: StateDiagramGroup | SplitTimeGroup, id_hint: str) -> str:
        group.id = _slug(id_hint, self.taken)
        return self.d.add_group(group)


def _roles(given: dict[str, str], *needed: str) -> list[str]:
    missing = [r for r in needed if not given.get(r)]
    if missing:
        raise MissingRole(", ".join(missing))
    return [given[r] for r in needed]


def build_primitive(act: PrimitiveAct, **roles: str) -> Diagram:
    """Diagram for one primitive act; role labels are keyword arguments."""
    b = _Builder()
    if act is PrimitiveAct.SPEAK:
        (speaker,) = _roles(roles, "speaker")
        s = b.circle(speaker)
        msg = b.data(roles.get("message", "utterance"))
        b.edge(
            EdgeKind.MOTION,
            source=s,
            id_hint="emit",
            attrs={"moves": Text(msg), "modality": Text("sound")},
        )
    elif act is PrimitiveAct.PTRANS_I:
        (mover,) = _roles(roles, "mover")
        m = b.circle(mover)
        b.edge(EdgeKind.MOTION, source=m, id_hint="travel")
        b.timeline()
    elif act is PrimitiveAct.PTRANS_T:
        mover, obj = _roles(roles, "mover", "object")
        m = b.circle(mover)
        o = b.circle(obj)
        b.edge(EdgeKind.MOTION, source=m, id_hint="transfer", attrs={"moves": Text(o)})
    elif act is PrimitiveAct.MOVE:
        (actor,) = _roles(roles, "actor")
        body = b.circle(actor)
        part = b.circle(roles.get("part", "appendage"))
        b.edge(EdgeKind.RELATIONSHIP, source=body, target=part, id_hint="part-of")
        b.edge(EdgeKind.MOTION, source=part, id_hint="motion")
        b.timeline()
    elif act is PrimitiveAct.GRASP:
        actor, obj = _roles(roles, "actor", "object")
        body = b.circle(actor)
        part = b.circle(roles.get("part", "appendage"))
        effector = b.circle(roles.get("effector", "end-effector"))
        o = b.circle(obj)
        b.edge(EdgeKind.RELATIONSHIP, source=body, target=part, id_hint="part-of")
        b.edge(EdgeKind.RELATIONSHIP, source=part, target=effector, id_hint="tip-of")
        b.edge(EdgeKind.MOTION, source=effector, target=o, id_hint="reach")
        b.edge(EdgeKind.FORCE, source=effector, target=o, id_hint="grip")
    elif act in (PrimitiveAct.PROPEL, PrimitiveAct.PROPEL_M):
        agent, obj = _roles(roles, "agent", "object")
        a = b.circle(agent)
        o = b.circle(obj)
        b.edge(EdgeKind.FORCE, source=a, target=o, id_hint="push", role="exerts")
        if act is PrimitiveAct.PROPEL_M:
            b.edge(EdgeKind.MOTION, source=o, id_hint="displacement")
    elif act in (PrimitiveAct.INGEST, PrimitiveAct.EXPEL):
        body, obj = _roles(roles, "body", "object")
        stations = ("outside", "surface", "inside")
        if act is PrimitiveAct.EXPEL:
            stations = ("inside", "surface", "outside")
        b.timeline()
        for i, station in enumerate(stations):
            phase = b.elem(Kind.AGGREGATION_BOX, f"phase {i + 1}", id_hint=f"phase-{i + 1}")
            body_el = b.circle(body, parent=phase, id_hint=f"{body}-{i + 1}")
            obj_el = b.circle(obj, parent=phase, id_hint=f"{obj}-{i + 1}")
            b.bind(obj_el, "location", Text(station))
            if station == "surface":
                b.edge(EdgeKind.MOTION, source=obj_el, target=body_el, id_hint=f"entry-{i + 1}")
    elif act in (PrimitiveAct.MTRANS, PrimitiveAct.ATTEND):
        first, second = ("sender", "receiver") if act is PrimitiveAct.MTRANS else ("source", "attender")
        a_label, b_label = _roles(roles, first, second)
        a = b.circle(a_label)
        r = b.circle(b_label)
        msg = b.data(roles.get("message", "message"))
        motion = b.edge(
            EdgeKind.MOTION, source=a, target=r, id_hint="stream", attrs={"moves": Text(msg)}
        )
        b.elem(Kind.ATTEND_RING, id_hint="attend", props={"edge": motion})
    elif act is PrimitiveAct.ATRANS:
        giver, receiver = _roles(roles, "giver", "receiver")
        g = b.circle(giver)
        r = b.circle(receiver)
        ownership = b.data(roles.get("object", "ownership"), id_hint="ownership")
        b.edge(
            EdgeKind.MOTION, source=g, target=r, id_hint="handover", attrs={"moves": Text(ownership)}
        )
        if roles.get("comprehensive"):
            _ownership_states(b, giver, receiver, ownership)
    elif act is PrimitiveAct.MBUILD_S:
        (thinker,) = _roles(roles, "thinker")
        t = b.circle(thinker)
        thought = b.data(roles.get("thought", "thought"))
        b.edge(EdgeKind.CAUSATION, source=t, target=thought, id_hint="conceive")
        b.timeline()
    elif act is PrimitiveAct.MBUILD_C:
        thinker, first, second = _roles(roles, "thinker", "first", "second")
        t = b.circle(thinker)
        box = b.elem(Kind.AGGREGATION_BOX, "old thoughts", id_hint="old-thoughts")
        b.data(first, parent=box)
        b.data(second, parent=box)
        merged = b.data(roles.get("thought", "new thought"), id_hint="new-thought")
        b.edge(EdgeKind.CAUSATION, source=box, target=merged, id_hint="combine")
        b.edge(EdgeKind.RELATIONSHIP, source=t, target=merged, id_hint="thinker-of")
    else:  # pragma: no cover - enum is closed
        raise MissingRole(act)
    return b.d


def _ownership_states(b: _Builder, giver: str, receiver: str, owner_of: str) -> None:
    labels = (f"{giver} owns", f"{receiver} owns", "both own", "neither owns")
    states = [b.elem(Kind.STATE_CIRCLE, lbl, id_hint=f"own-{i + 1}") for i, lbl in enumerate(labels)]
    tubes = [
        b.edge(EdgeKind.TUBE, source=states[0], target=states[1], id_hint="own-transfer"),
        b.edge(EdgeKind.TUBE, source=states[1], target=states[0], id_hint="own-return"),
        b.edge(EdgeKind.TUBE, source=states[0], target=states[2], id_hint="own-share"),
        b.edge(EdgeKind.TUBE, source=states[1], target=states[3], id_hint="own-release"),
    ]
    group = StateDiagramGroup(
        states=tuple(states),
        tubes=tuple(tubes),
        marker=states[1],
        owner=owner_of,
    )
    b.group(group, "ownership-states")


def build_pattern(pattern: BasicPattern, *labels: str) -> Diagram:
    """One of the basic sentence patterns, filled with the given labels."""
    b = _Builder()
    if pattern is BasicPattern.ATTRIBUTE:
        subject, quality = _arity(pattern, labels, 2)
        s = b.circle(subject)
        b.bind(s, quality, Text("true"))
    elif pattern is BasicPattern.SUPERSET:
        member, superset = _arity(pattern, labels, 2)
        box = b.elem(Kind.AGGREGATION_BOX, superset)
        b.circle(member, parent=box)
    elif pattern is BasicPattern.SELF_MOVE:
        (actor,) = _arity(pattern, labels, 1)
        a = b.circle(actor)
        b.edge(EdgeKind.MOTION, source=a, id_hint="move")
    elif pattern is BasicPattern.CONTACT:
        actor, obj = _arity(pattern, labels, 2)
        a = b.circle(actor)
        o = b.circle(obj)
        b.edge(EdgeKind.MOTION, source=a, target=o, id_hint="contact")
    elif pattern is BasicPattern.TRANSFER:
        subject, obj, recipient = _arity(pattern, labels, 3)
        s = b.circle(subject)
        o = b.circle(obj)
        r = b.circle(recipient)
        b.edge(EdgeKind.MOTION, source=s, target=r, id_hint="transfer", attrs={"moves": Text(o)})
    elif pattern is BasicPattern.SWAP:
        left, right, gives, returns = _arity(pattern, labels, 4)
        p1 = b.circle(left)
        p2 = b.circle(right)
        o1 = b.circle(gives)
        o2 = b.circle(returns)
        b.edge(EdgeKind.MOTION, source=p1, target=p2, id_hint="trade-out", attrs={"moves": Text(o1)})
        b.edge(EdgeKind.MOTION, source=p2, target=p1, id_hint="trade-back", attrs={"moves": Text(o2)})
    return b.d


def _arity(pattern: BasicPattern, labels: tuple[str, ...], n: int) -> tuple[str, ...]:
    if len(labels) != n or any(not l for l in labels):
        raise MissingRole(f"{pattern.value} needs {n} labels, got {len(labels)}")
    return labels


# Event placement along the timeline, in abstract time units relative to 0.
_TENSE_OFFSET = {"past": -4.0, "present": 0.0, "future": 4.0}


def build_aspect(spec: AspectSpec, actor: str, action: str) -> Diagram:
    """Timeline diagram for a tense/aspect combination.

    Simple aspect is a point event, progressive a span, perfect adds a
    reference tick at which the action has completed (coinciding with now
    for the present perfect), and perfect-progressive marks whether the
    action then continues; "both" forks the timeline under an XOR box.
    """
    b = _Builder()
    trunk = b.timeline()
    b.elem(Kind.TIME_ANCHOR, "0", id_hint="now")
    a = b.circle(actor)

    offset = _TENSE_OFFSET[spec.tense]
    event = b.elem(Kind.AGGREGATION_BOX, action, id_hint="event")
    b.edge(EdgeKind.RELATIONSHIP, source=a, target=event, id_hint="acts-in")

    if spec.aspect == "simple":
        start = end = offset if spec.tense != "past" else -2.0
    elif spec.aspect == "progressive":
        start, end = offset - 1.0, offset + 1.0
        if spec.tense == "present":
            start, end = -1.0, 1.0
    else:
        # Perfect forms: action ran up to a reference time.
        reference = 0.0 if spec.tense == "present" else offset
        start, end = reference - 3.0, reference - 1.0
        b.elem(Kind.TIME_ANCHOR, "ref", id_hint="reference")
        b.bind(event, "t_ref", Scalar(reference))
    b.bind(event, "t_start", Scalar(start))
    b.bind(event, "t_end", Scalar(end))

    if spec.aspect == "perfect-progressive":
        if spec.continuation == "both":
            junction = b.elem(Kind.XOR_BOX, id_hint="fork")
            branch_a = b.edge(EdgeKind.TIME, id_hint="branch-continues")
            branch_b = b.edge(EdgeKind.TIME, id_hint="branch-stops")
            b.bind(branch_a, "outcome", Text("continues"))
            b.bind(branch_b, "outcome", Text("stops"))
            group = SplitTimeGroup(trunk=trunk, branches=(branch_a, branch_b), junction=junction)
            b.group(group, "alternatives")
        else:
            b.bind(event, "continues", Text("true" if spec.continuation == "continues" else "false"))
    return b.d


def build_syllogism(
    form: str, terms: tuple[str, str, str], swap_premises: bool = False
) -> list[Diagram]:
    """Three incremental diagrams, one per sentence of the syllogism.

    Supported forms: barbara (all M are P; S is an M), celarent (no M is P;
    all S are M), darii (all M are P; some S are M).  Each step diagram is
    rebuilt from the facts stated so far, so swapping the premises changes
    the intermediate pictures but never the final one.
    """
    builders = {"barbara": _barbara, "celarent": _celarent, "darii": _darii}
    try:
        assemble = builders[form.lower()]
    except KeyError:
        raise ValueError(f"unsupported syllogism form {form!r}") from None
    premises = ["premise1", "premise2"]
    if swap_premises:
        premises.reverse()
    stages = [
        {premises[0]},
        {premises[0], premises[1]},
        {premises[0], premises[1], "conclusion"},
    ]
    return [assemble(terms, facts) for facts in stages]


def _barbara(terms: tuple[str, str, str], facts: set[str]) -> Diagram:
    set_label, quality, member = terms
    b = _Builder()
    box = b.elem(Kind.AGGREGATION_BOX, set_label, id_hint="major-set")
    if "premise1" in facts:  # all <set> are <quality>
        b.bind(box, f"{quality}ity", Text(quality))
    if "premise2" in facts:  # <member> is one of <set>
        b.circle(member, parent=box, id_hint="member")
    if "conclusion" in facts:  # <member> inherits the set-level attribute
        b.edge(EdgeKind.RELATIONSHIP, source="member", target=box, id_hint="insight")
    return b.d


def _celarent(terms: tuple[str, str, str], facts: set[str]) -> Diagram:
    set_label, excluded, subset = terms
    b = _Builder()
    box = b.elem(Kind.AGGREGATION_BOX, set_label, id_hint="major-set")
    if "premise1" in facts:  # no member of <set> is in <excluded>
        forbidden = b.elem(Kind.AGGREGATION_BOX, excluded, id_hint="excluded-set")
        b.elem(Kind.MARKER_2D, id_hint="allowed-region", props={"excludes": forbidden})
    if "premise2" in facts:  # all <subset> are <set>
        b.elem(Kind.AGGREGATION_BOX, subset, parent=box, id_hint="subset")
    if "conclusion" in facts:  # subset members stay out of the excluded set
        b.edge(
            EdgeKind.RELATIONSHIP, source="subset", target="excluded-set", id_hint="insight"
        )
    return b.d


def _darii(terms: tuple[str, str, str], facts: set[str]) -> Diagram:
    set_label, quality_set, some_set = terms
    b = _Builder()
    outer = b.elem(
        Kind.AGGREGATION_BOX,
        quality_set,
        id_hint="quality-set",
        position=Position(0, 0, 260, 180),
    )
    if "premise1" in facts:  # all <set> are <quality-set>
        b.elem(
            Kind.AGGREGATION_BOX,
            set_label,
            parent=outer,
            id_hint="major-set",
            position=Position(20, 20, 140, 120),
        )
    if "premise2" in facts:  # some <some-set> are <set>: overlap, not nesting
        b.elem(
            Kind.AGGREGATION_BOX,
            some_set,
            id_hint="some-set",
            position=Position(120, 60, 220, 140),
        )
    if "conclusion" in facts:
        b.edge(EdgeKind.RELATIONSHIP, source="some-set", target=outer, id_hint="insight")
    return b.d


def build_arithmetic(op: str, inputs: list[float]) -> Diagram:
    """Data objects flowing into a virtual operator that causes the result.

    A timeline is always present: calculation takes time.  A zero divisor,
    or an input or result that is not finite, raises InvalidArithmetic.
    """
    if op not in OPERATORS:
        raise UnsupportedOperator(op)
    if not inputs:
        raise MissingRole("at least one input number")
    numbers = [float(x) for x in inputs]
    for i, x in enumerate(numbers, start=1):
        if not math.isfinite(x):
            raise InvalidArithmetic(f"input {i} is {x}, not a finite number")
        if op == "/" and i > 1 and x == 0:
            raise InvalidArithmetic(f"division by zero: input {i} is 0")
    result = reduce(OPERATORS[op][1], numbers)
    if not math.isfinite(result):
        raise InvalidArithmetic(f"the result of {op} is not a finite number")

    b = _Builder()
    b.timeline()
    box = b.elem(Kind.AGGREGATION_BOX, "operands", id_hint="operands")
    for i, x in enumerate(numbers, start=1):
        b.data(fmt_num(x), parent=box, id_hint=f"in-{i}")
    out = b.data(fmt_num(result), id_hint="out")
    b.edge(EdgeKind.CAUSATION, source=box, target=out, id_hint="apply", attrs={"label": Text(op)})
    return b.d


def build_flowchart(
    kind: str, statements: list[str], schedule: dict | None = None
) -> tuple[Diagram, list[str]]:
    """Pathway-tube program graph plus the 0D-marker execution trace.

    kinds: sequential; loop (schedule: body=[...], iterations=n); branch
    (schedule: then=[...], else=[...], take="then"|"else").  The marker
    starts on the first statement, and the trace is `run_trace` of the
    drawn graph, given the loop's iterations or the chosen arm's first state.
    """
    d, gid, iterations, take = _flowchart(kind, statements, schedule)
    return d, run_trace(d, d.groups[gid], iterations, take)


def draw_flowchart(kind: str, statements: list[str], schedule: dict | None = None) -> Diagram:
    """The graph of `build_flowchart` without walking its trace."""
    return _flowchart(kind, statements, schedule)[0]


def _flowchart(
    kind: str, statements: list[str], schedule: dict | None
) -> tuple[Diagram, str, int, str | None]:
    """The flowchart graph, the id of its program group, the loop's iterations
    and the id of the taken branch arm's first state."""
    if not statements:
        raise EmptyProgram("no statements")
    if len(set(statements)) < len(statements):
        raise EmptyProgram("statements must not repeat")
    schedule = schedule or {}
    b = _Builder()
    states = {s: b.elem(Kind.STATE_CIRCLE, s, id_hint=s) for s in statements}
    tubes: list[str] = []
    iterations, take = 1, None

    def chain(path: list[str]) -> None:
        """A tube from each statement of the path to the next."""
        for a, z in zip(path, path[1:]):
            tubes.append(
                b.edge(EdgeKind.TUBE, source=states[a], target=states[z], id_hint=f"{a}-{z}")
            )

    if kind == "sequential":
        chain(statements)
    elif kind == "loop":
        body = list(schedule.get("body") or ())
        iterations = int(schedule.get("iterations", 1))
        if not body or any(s not in statements for s in body):
            raise EmptyProgram("loop needs a body drawn from the statements")
        first, last = body[0], body[-1]
        if statements.index(last) < statements.index(first):
            raise EmptyProgram("loop body must not end before its first statement")
        if iterations < 1:
            raise TraceError(f"iterations must be >= 1, not {iterations}")
        chain(statements)
        chain([last, first])  # the loop-back pathway
    elif kind == "branch":
        then_stmts = list(schedule.get("then") or ())
        else_stmts = list(schedule.get("else") or ())
        chosen = schedule.get("take", "then")
        branch_set = set(then_stmts) | set(else_stmts)
        if not then_stmts or not else_stmts or not branch_set <= set(statements):
            raise EmptyProgram("branch needs then/else statements drawn from the statements")
        if set(then_stmts) & set(else_stmts):
            raise EmptyProgram("branch arms must not share statements")
        if chosen not in ("then", "else"):
            raise EmptyProgram(f"branch take must be 'then' or 'else', not {chosen!r}")
        positions = [statements.index(s) for s in branch_set]
        before = statements[: min(positions)]
        after = statements[max(positions) + 1 :]
        if not before or not after:
            raise EmptyProgram("branch needs a statement before and after the fork")
        fork, join = before[-1], after[0]
        chain(before)
        for arm in (then_stmts, else_stmts):
            chain([fork, *arm, join])
        chain(after)
        take = states[(then_stmts if chosen == "then" else else_stmts)[0]]
    else:
        raise EmptyProgram(f"unknown flowchart kind {kind!r}")

    group = StateDiagramGroup(
        states=tuple(states[s] for s in statements),
        tubes=tuple(tubes),
        marker=states[statements[0]],
    )
    return b.d, b.group(group, "program"), iterations, take


def run_trace(
    d: Diagram, group: StateDiagramGroup, iterations: int = 1, take: str | None = None
) -> list[str]:
    """Walk a statement graph the way a 0D marker would; returns state labels.

    The walk starts at the marker, else at the first state without an incoming
    tube.  A back edge, a tube to a state on the depth-first stack (Tarjan
    1972), is taken while its target has repeated fewer than ``iterations - 1``
    times since it was entered by a forward tube.  At a fork the forward tube
    to the state whose id or label is ``take`` wins, else the least id.
    """
    if iterations < 1:
        raise TraceError(f"iterations must be >= 1, not {iterations}")
    if not group.states:
        raise TraceError("state diagram has no states")
    elements, edges = d.elements, d.edges
    succ: dict[str, list[str]] = {s: [] for s in group.states}
    for tube in (edges[t] for t in group.tubes):
        if tube.source in succ and tube.target in succ:
            succ[tube.source].append(tube.target)
    succ = {s: sorted(set(targets)) for s, targets in succ.items()}
    incoming = {t for targets in succ.values() for t in targets}
    roots = [s for s in group.states if s not in incoming] or sorted(group.states)
    start = group.marker if group.marker in succ else roots[0]

    back: set[tuple[str, str]] = set()
    open_, stack = {start: True}, [(start, iter(succ[start]))]  # visited -> still on stack
    while stack:
        node, todo = stack[-1]
        nxt = next(todo, None)
        if nxt is None:
            open_[stack.pop()[0]] = False
        elif open_.get(nxt):
            back.add((node, nxt))
        elif nxt not in open_:
            open_[nxt] = True
            stack.append((nxt, iter(succ[nxt])))

    labels = {s: elements[s].label or s for s in group.states}
    repeats: dict[str, int] = {}  # loop header -> back edges taken since its entry
    current, trace = start, [labels[start]]
    while True:
        loops = [n for n in succ[current] if (current, n) in back]
        forward = [n for n in succ[current] if (current, n) not in back]
        header = next((n for n in loops if repeats.get(n, 0) < iterations - 1), None)
        if header is not None:
            repeats[header] = repeats.get(header, 0) + 1
            current = header
        elif forward:
            current = next((n for n in forward if take in (n, labels[n])), forward[0])
            repeats[current] = 0
        else:
            return trace
        trace.append(labels[current])
        if len(trace) > 100_000:
            raise TraceError("trace longer than 100,000 states; lower the iterations")


# Body parts implied by particular actions; anything else gets a plain
# effector bump on the agent's border.
_INSTRUMENTS = {"kick": "foot", "kicked": "foot", "hit": "hand", "threw": "arm", "throw": "arm"}


def build_passive(action: str, direct_object: str, agent: str | None = None) -> Diagram:
    """Passive-voice scene: the unnamed doer still appears, as an unlabeled
    circle, because the action implies somebody performed it.  Passing an
    agent label gives the active-voice counterpart."""
    b = _Builder()
    doer = b.circle(agent, id_hint="agent")
    instrument = _INSTRUMENTS.get(action.lower(), "effector")
    part = b.circle(instrument, id_hint="instrument")
    obj = b.circle(direct_object, id_hint="object")
    b.edge(EdgeKind.RELATIONSHIP, source=doer, target=part, id_hint="part-of")
    b.edge(EdgeKind.MOTION, source=part, target=obj, id_hint="strike", attrs={"label": Text(action)})
    b.timeline()
    return b.d


def build_water_pour(total: float = 100.0, cup_share: float = 25.0) -> Diagram:
    """Two containers whose contents trade off through a correlation box."""
    b = _Builder()
    b.timeline()
    bottle = b.circle("bottle")
    cup = b.circle("cup")
    b.bind(bottle, "weight", Scalar(total - cup_share))
    b.bind(cup, "weight", Scalar(cup_share))
    payload = CorrelationBoxPayload(
        slots=(
            SlotSpec("w1", bottle, "weight"),
            SlotSpec("w2", cup, "weight"),
        ),
        equations={
            "w1": BinOp("-", Const(total), SlotRef("w2")),
            "w2": BinOp("-", Const(total), SlotRef("w1")),
        },
    )
    b.elem(Kind.CORRELATION_BOX, payload=payload, id_hint="conservation")
    b.edge(EdgeKind.MOTION, source=bottle, target=cup, id_hint="pour")
    return b.d
