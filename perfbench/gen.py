"""Seeded input generator for the tumbug benchmark.

Standard library only: it never imports tumbug, so every answer it plants
(violation codes, parse-error lines, query answers, SVG ids, canonical text,
CLI exit codes) comes from its own model of the inputs, not from the program
under test.

Values are plain tuples:
    ("text", s)  ("num", x, unit|None)  ("exist", x)  ("wild", name)
    ("range", lo|None, hi|None, lo_inclusive, hi_inclusive)
    ("fuzzy", name, lo, peak, hi)

Usage: python3 perfbench/gen.py --workload small-corpus --seed 7
prints a summary of what the seed generates.
"""

from __future__ import annotations

import argparse
import json
import math
import random

WORKLOADS = ("large-scene", "small-corpus", "edit-session", "cli-cold")

WORDS = ("fox", "ball", "bottle", "cup", "students", "scholars", "worm", "fish",
         "stage", "pillar", "sack", "flour", "grace", "sweater")
TEXT_SPICE = '"\\\n\t#= ,:[]()'

CONTAINERS = {"VerbatimBox", "DescriptiveBox", "AggregationBox", "CAAggregationBox",
              "XorBox", "DataSetBox", "ZoomBoxPair"}
NONQUAN = {"PhysicalObjectCircle", "DataObjectCircle", "CAObjectCircle", "DataPoint",
           "SwirlyArray"} | CONTAINERS
LEAF_KINDS = ("PhysicalObjectCircle", "DataObjectCircle", "DataPoint", "StateCircle", "Cell",
              "SensorBar", "Marker0D", "Marker1D", "Marker2D", "ValueBar", "LabelString",
              "TimeAnchor")
OBJECT_KINDS = ("PhysicalObjectCircle", "DataObjectCircle", "DataPoint")
NOT_NONQUAN_LEAVES = ("StateCircle", "Cell", "SensorBar", "Marker0D", "Marker1D", "Marker2D",
                      "ValueBar", "LabelString", "TimeAnchor")

# Heuristic rules this benchmark relies on, as the paper states them:
# trigger tag -> mandatory Building Blocks (the cue "because" promotes the
# causal-connective rule's advisory CausationArrow).
HEURISTIC_RULES = {
    "relative-time": ("TimeArrow",),
    "speed": ("MotionArrow",),
    "interior": ("AnyBox",),
    "transfer-travel": ("MotionArrow", "PhysicalObjectCircle"),
    "information-transfer": ("DataObjectCircle", "MotionArrow"),
    "lift-carry": ("ForceArrow", "MotionArrow"),
    "causal-connective:because": ("CausationArrow",),
}
ANYBOX = {"VerbatimBox", "DescriptiveBox", "AggregationBox", "CAAggregationBox", "XorBox",
          "DataSetBox"}
ARROW_NAMES = {"TimeArrow": "Time", "MotionArrow": "Motion", "ForceArrow": "Force",
               "CausationArrow": "Causation"}

# Modal-verb crossbar rows from the paper: (verb, meaning) -> printed concepts.
MODAL_ANSWERS = {
    ("can", "permission"): "Permission Request",
    ("be able to", "ability"): "Ability (Request)",
    ("must", "obligation"): "Obligation",
    ("might", "suggestion"): "Suggestion",
    ("had better", "advice"): "Advice Formality",
    ("could", "habit-past"): "Habit",
    ("may", "likelihood"): "Likelihood",
}

# Passive voice: the action names the effector the doer strikes with.
INSTRUMENTS = {"kick": "foot", "kicked": "foot", "hit": "hand", "threw": "arm", "throw": "arm"}

# Grammar faults a small-corpus document can carry, one violation code each.
FAULTS = ("TIME_ATTACHED", "XOR_TOO_FEW", "ATTR_HOST_ILLEGAL", "ATTR_CONFLICT",
          "BOX_NESTING", "POSITION_REQUIRED")


# --------------------------------------------------------------------------
# Canonical text.


def fmt_num(x: float) -> str:
    x = float(x)
    if x.is_integer() and math.isfinite(x):
        return str(int(x))
    return repr(x)


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def quote(s: str) -> str:
    return '"' + "".join(_ESCAPES.get(c, c) for c in s) + '"'


def literal(v: tuple) -> str:
    tag = v[0]
    if tag == "text":
        return quote(v[1])
    if tag == "num":
        return fmt_num(v[1]) + (f":{v[2]}" if v[2] else "")
    if tag == "wild":
        return v[1]
    if tag == "exist":
        return f"exist[{fmt_num(v[1])}]"
    if tag == "range":
        _, lo, hi, lo_inc, hi_inc = v
        return "range{}{},{}{}".format("[" if lo_inc else "(",
                                       "-inf" if lo is None else fmt_num(lo),
                                       "inf" if hi is None else fmt_num(hi),
                                       "]" if hi_inc else ")")
    if tag == "fuzzy":
        return f"fuzzy[{v[1]}:{fmt_num(v[2])},{fmt_num(v[3])},{fmt_num(v[4])}]"
    raise ValueError(v)


class Doc:
    """Shadow of one diagram, able to print its canonical DSL text."""

    def __init__(self):
        self.elems: dict[str, tuple[str, dict[str, str]]] = {}
        self.contain: dict[str, str] = {}
        self.edges: dict[str, tuple[str, str | None, str | None, str | None]] = {}
        self.groups: dict[str, str] = {}  # id -> record tail after "group <id> "
        self.attrs: list[tuple[str, str, tuple]] = []
        self._bound: dict[tuple[str, str], list[tuple]] = {}
        self.meta: dict[str, str] = {}

    def elem(self, eid, kind, parent=None, **pairs):
        assert eid not in self.elems and eid not in self.edges, eid
        self.elems[eid] = (kind, {k.replace("__", "."): v for k, v in pairs.items()})
        if parent is not None:
            self.contain[eid] = parent
        return eid

    def edge(self, eid, kind, src=None, dst=None, role=None):
        assert eid not in self.elems and eid not in self.edges, eid
        self.edges[eid] = (kind, src, dst, role)
        return eid

    def attr(self, owner, name, value):
        self.attrs.append((owner, name, value))
        self._bound.setdefault((owner, name), []).append(value)

    def value(self, owner, name):
        """The binding of owner.name that binding_value finds first.

        Parsing appends bindings in canonical (literal) order; later binds
        only ever repeat an equal value, so the smallest literal wins.
        """
        values = self._bound.get((owner, name))
        return min(values, key=literal) if values else None

    def kind_of(self, eid):
        return self.elems[eid][0]

    def lines(self) -> list[str]:
        out = [f"meta {k}={quote(self.meta[k])}" for k in sorted(self.meta)]
        for eid in sorted(self.elems):
            kind, pairs = self.elems[eid]
            out.append(" ".join(["elem", eid, kind] +
                                [f"{k}={quote(v)}" for k, v in sorted(pairs.items())]))
        out += [f"contain {c} {self.contain[c]}" for c in sorted(self.contain)]
        for eid in sorted(self.edges):
            kind, src, dst, role = self.edges[eid]
            parts = ["edge", eid, kind] + ([src] if src else []) + ["->"] + ([dst] if dst else [])
            if role:
                parts.append(f"role={quote(role)}")
            out.append(" ".join(parts))
        out += [f"group {g} {self.groups[g]}" for g in sorted(self.groups)]
        out += [f"attr {o} {n}={lit}" for o, n, lit in
                sorted((o, n, literal(v)) for o, n, v in self.attrs)]
        return out

    def text(self) -> str:
        lines = self.lines()
        return "\n".join(lines) + ("\n" if lines else "")

    def ids(self) -> list[str]:
        return sorted(self.elems) + sorted(self.edges)


# --------------------------------------------------------------------------
# Random values.


def random_text(rng):
    word = rng.choice(WORDS)
    if rng.random() < 0.3:
        word += rng.choice(TEXT_SPICE) + rng.choice(WORDS)
    return word


def random_range(rng):
    a, b = sorted((round(rng.uniform(-50, 50), 3), round(rng.uniform(-50, 50), 3)))
    lo = None if rng.random() < 0.15 else a
    hi = None if rng.random() < 0.15 else b
    return ("range", lo, hi, lo is not None and rng.random() < 0.5,
            hi is not None and rng.random() < 0.5)


def random_value(rng):
    roll = rng.randrange(6)
    if roll == 0:
        return ("num", round(rng.uniform(-1e4, 1e4), 4), rng.choice((None, "kg", "m/s", "%")))
    if roll == 1:
        return ("text", random_text(rng))
    if roll == 2:
        return ("exist", round(rng.random(), 6))
    if roll == 3:
        return random_range(rng)
    if roll == 4:
        a, b, c = sorted(round(rng.uniform(0, 1), 4) for _ in range(3))
        return ("fuzzy", rng.choice(("few", "many", "most", "all")), a, b, c)
    return ("wild", rng.choice(("STAR", "OPT", "PLUS", "DK", "DC", "DNE")))


def in_range(range_value, x):
    _, lo, hi, lo_inc, hi_inc = range_value
    if lo is not None and (x < lo or (x == lo and not lo_inc)):
        return False
    if hi is not None and (x > hi or (x == hi and not hi_inc)):
        return False
    return True


def wildcard_match(pattern, observed):
    """The documented tri-state match: 'yes', 'no' or 'unknown'."""
    if pattern[0] == "wild":
        name = pattern[1]
        if name == "DK":
            return "unknown"
        if name in ("DC", "STAR", "OPT"):
            return "yes"
        if name == "PLUS":
            return "yes" if observed is not None else "no"
        return "yes" if observed is None else "no"  # DNE
    if observed is None:
        return "no"
    if pattern[0] == "range":
        return "yes" if observed[0] == "num" and in_range(pattern, observed[1]) else "no"
    return "yes" if pattern == observed else "no"


# --------------------------------------------------------------------------
# Query oracle: direct binding, else one Relationship hop, else DK.


def query_answer(doc: Doc, owner: str, attr: str):
    value = doc.value(owner, attr)
    if value is not None:
        return value, "direct"
    for eid in sorted(doc.edges):
        kind, src, dst, _ = doc.edges[eid]
        if kind == "Relationship" and src == owner and dst is not None:
            value = doc.value(dst, attr)
            if value is not None:
                return value, "hop"
    return ("wild", "DK"), "dk"


def plant_query(rng, doc: Doc, owners: list[str]):
    """A query whose answer is direct, one hop away, or DK, about evenly."""
    roll = rng.random()
    if roll < 0.4:
        bound = [(o, n) for o, n, _ in doc.attrs if o in doc.elems]
        if bound:
            owner, attr = rng.choice(bound)
            return (owner, attr) + query_answer(doc, owner, attr)
    if roll < 0.7:
        hops = [(src, dst) for kind, src, dst, _ in doc.edges.values()
                if kind == "Relationship" and src and dst]
        rng.shuffle(hops)
        for src, dst in hops:
            for o, n, _ in doc.attrs:
                if o == dst and doc.value(src, n) is None:
                    return (src, n) + query_answer(doc, src, n)
    owner = rng.choice(owners)
    return (owner, "unbound") + query_answer(doc, owner, "unbound")


def heuristics_answer(doc: Doc, tags: list[str]):
    """Mandatory kinds for the tags and which of them the doc lacks."""
    mandatory = sorted({k for t in tags for k in HEURISTIC_RULES[t]})
    kinds = {k for k, _ in doc.elems.values()}
    edge_kinds = {e[0] for e in doc.edges.values()}

    def present(name):
        if name in ARROW_NAMES:
            return ARROW_NAMES[name] in edge_kinds
        if name == "AnyBox":
            return bool(kinds & ANYBOX)
        return name in kinds

    return mandatory, [k for k in mandatory if not present(k)]


# --------------------------------------------------------------------------
# small-corpus documents, in the shapes of the test-suite's random diagrams.


def small_doc(rng, n: int, faults: list[str], syntax_error: bool):
    """One document; returns (Doc, text, parse_error_line)."""
    d = Doc()
    counter = 0

    def fresh():
        nonlocal counter
        counter += 1
        return f"{rng.choice('abcdefgh')}{counter}"

    objects, data_objects = [], []
    for _ in range(max(1, n // 2)):
        kind = rng.choice(LEAF_KINDS)
        pairs = {}
        if rng.random() < 0.7:
            pairs["label"] = random_text(rng) if rng.random() < 0.2 else rng.choice(WORDS)
        if rng.random() < 0.3:
            pairs["pos"] = f"{fmt_num(round(rng.uniform(0, 400), 2))},{fmt_num(round(rng.uniform(0, 300), 2))}"
            if rng.random() < 0.5:
                pairs["size"] = "40,30"
        eid = d.elem(fresh(), kind, **pairs)
        if kind in OBJECT_KINDS:
            objects.append(eid)
        if kind == "DataObjectCircle":
            data_objects.append(eid)

    if rng.random() < 0.3:
        forced = {f"forced__in{i}": literal(("num", float(rng.randrange(100)), None))
                  for i in range(rng.randrange(3))}
        d.elem(fresh(), "CAObjectCircle", label=rng.choice(WORDS), **forced)
    if rng.random() < 0.3:
        markers = sorted({f"{rng.choice(('automaton', 'physical', 'emotional', 'intellectual'))}:"
                          f"{rng.choice('+-')}" for _ in range(1 + rng.randrange(2))})
        d.elem(fresh(), "MotivationTriangle", markers=",".join(markers))
    if rng.random() < 0.3:
        cells = [f"c{i}:{rng.randrange(100)}:{rng.randrange(100)}" for i in range(1 + rng.randrange(4))]
        d.elem(fresh(), "SwirlyArray", cells=",".join(cells), active="c0")

    boxes = []
    while len(d.elems) < n - 2:
        box_kind = rng.choice(("AggregationBox", "DataSetBox", "VerbatimBox"))
        box = d.elem(fresh(), box_kind, label=rng.choice(WORDS))
        boxes.append(box)
        for _ in range(rng.randrange(1, 4)):
            kind = rng.choice(OBJECT_KINDS)
            pairs = {"label": rng.choice(WORDS)}
            if box_kind == "VerbatimBox":
                pairs["pos"] = f"{rng.randrange(200)},{rng.randrange(150)}"
            member = d.elem(fresh(), kind, parent=box, **pairs)
            objects.append(member)
            if kind == "DataObjectCircle":
                data_objects.append(member)

    if rng.random() < 0.3:
        xor = d.elem(fresh(), "XorBox")
        for _ in range(2 + rng.randrange(2)):
            d.elem(fresh(), "PhysicalObjectCircle", parent=xor, label=rng.choice(WORDS))

    if len(objects) >= 2 and rng.random() < 0.4:
        u, v = rng.sample(objects, 2)
        d.elem(fresh(), "CorrelationBox", eq__u="100 - v", eq__v="100 - u",
               slots=f"u:{u}.weight,v:{v}.weight")

    change_edges = []
    for _ in range(rng.randrange(0, 5)):
        kind = rng.choice(("Time", "Motion", "Force", "Causation"))
        src = dst = role = None
        if kind != "Time" and objects:
            shapes = {"Motion": ("solitary", "out", "between", "self"),
                      "Force": ("solitary", "out", "in", "between"),
                      "Causation": ("solitary", "out", "in", "between", "self")}[kind]
            shape = rng.choice(shapes)
            if shape == "out":
                src = rng.choice(objects)
            elif shape == "in":
                dst = rng.choice(objects)
            elif shape == "between":
                src, dst = rng.sample(objects, 2) if len(objects) > 1 else (objects[0], None)
            elif shape == "self":
                src = dst = rng.choice(objects)
            if kind == "Force" and rng.random() < 0.5:
                role = rng.choice(("exerts", "acted-upon"))
        change_edges.append(d.edge(fresh(), kind, src, dst, role))

    for _ in range(rng.randrange(0, 3)):
        if len(objects) >= 2:
            src, dst = rng.sample(objects, 2)
            d.edge(fresh(), "Relationship", src, dst)

    if data_objects and rng.random() < 0.4:
        motion = d.edge(fresh(), "Motion", rng.choice(objects))
        d.attr(motion, "moves", ("text", rng.choice(data_objects)))
        d.elem(fresh(), "AttendRing", edge=motion)

    if rng.random() < 0.4:
        members = [d.elem(fresh(), "StateCircle", label=f"s{i}") for i in range(rng.randrange(2, 5))]
        tubes = [d.edge(fresh(), "Tube", a, b) for a, b in zip(members, members[1:])]
        tail = "StateDiagram members=" + ",".join(members + tubes)
        marker = rng.choice((None, members[0], tubes[0]))
        if marker:
            tail += f" marker={marker}"
        d.groups[fresh()] = tail

    if rng.random() < 0.3:
        junction = d.elem(fresh(), "XorBox")
        trunk = d.edge(fresh(), "Time")
        branches = [d.edge(fresh(), "Time") for _ in range(rng.randrange(2, 4))]
        tail = f"SplitTime members={','.join(branches)} trunk={trunk} junction={junction}"
        if rng.random() < 0.5:
            share = 1 / len(branches)
            probs = [share] * (len(branches) - 1)
            probs.append(1.0 - sum(probs))
            tail += " probs=" + ",".join(fmt_num(p) for p in probs)
        d.groups[fresh()] = tail

    hosts = [e for e in d.elems if d.kind_of(e) in NONQUAN] + change_edges
    for i in range(rng.randrange(0, 6)):
        if hosts:
            d.attr(rng.choice(hosts), f"attr{i}", random_value(rng))
    if rng.random() < 0.4:
        d.meta["title"] = random_text(rng)

    for fault in faults:
        plant_fault(rng, d, fault, fresh, objects)

    text = d.text()
    error_line = None
    if syntax_error:
        lines = text.splitlines()
        error_line = rng.randrange(len(lines)) + 1
        broken = rng.choice(('elemx {} PhysicalObjectCircle', 'elem {} Circle',
                             'elem {} Cell label="open'))
        lines.insert(error_line - 1, broken.format(fresh()))
        text = "\n".join(lines) + "\n"
    return d, text, error_line


def plant_fault(rng, d: Doc, fault: str, fresh, objects):
    """Add one construct that the grammar reports with exactly this code."""
    if fault == "TIME_ATTACHED":
        target = rng.choice(objects) if objects else d.elem(fresh(), "PhysicalObjectCircle")
        d.edge(fresh(), "Time", target, None)
    elif fault == "XOR_TOO_FEW":
        xor = d.elem(fresh(), "XorBox")
        d.elem(fresh(), "PhysicalObjectCircle", parent=xor, label="only")
    elif fault == "ATTR_HOST_ILLEGAL":
        host = d.elem(fresh(), rng.choice(NOT_NONQUAN_LEAVES))
        d.attr(host, "color", ("text", rng.choice(WORDS)))
    elif fault == "ATTR_CONFLICT":
        host = d.elem(fresh(), "PhysicalObjectCircle", label=rng.choice(WORDS))
        d.attr(host, "mass", ("num", 1.0, "kg"))
        d.attr(host, "mass", ("num", 2.0, "kg"))
    elif fault == "BOX_NESTING":
        outer = d.elem(fresh(), "VerbatimBox", label="strict")
        d.elem(fresh(), "AggregationBox", parent=outer, pos="10,10")
    elif fault == "POSITION_REQUIRED":
        outer = d.elem(fresh(), "VerbatimBox", label="fixed")
        d.elem(fresh(), "PhysicalObjectCircle", parent=outer, label="loose")
    else:
        raise ValueError(fault)


def template_request(rng):
    """A build_* call with seeded roles, its CLI argv, and the planted text."""
    which = rng.choice(("arithmetic", "water", "passive"))
    if which == "arithmetic":
        op = rng.choice("+-*")
        inputs = [float(rng.randrange(1, 50)) + rng.choice((0.0, 0.5)) for _ in range(rng.randrange(1, 5))]
        result = inputs[0]
        for x in inputs[1:]:
            result = {"+": result + x, "-": result - x, "*": result * x}[op]
        d = Doc()
        d.elem("operands", "AggregationBox", label="operands")
        for i, x in enumerate(inputs):
            d.elem(f"in-{i + 1}", "DataObjectCircle", parent="operands", label=fmt_num(x))
        d.elem("out", "DataObjectCircle", label=fmt_num(result))
        d.edge("apply", "Causation", "operands", "out")
        d.edge("timeline", "Time")
        d.attr("apply", "label", ("text", op))
        roles = {"op": op, "inputs": ",".join(fmt_num(x) for x in inputs)}
    elif which == "water":
        total = float(rng.randrange(50, 200))
        cup = float(rng.randrange(1, 50))
        d = Doc()
        d.elem("bottle", "PhysicalObjectCircle", label="bottle")
        d.elem("cup", "PhysicalObjectCircle", label="cup")
        d.elem("conservation", "CorrelationBox", eq__w1=f"{fmt_num(total)} - w2",
               eq__w2=f"{fmt_num(total)} - w1", slots="w1:bottle.weight,w2:cup.weight")
        d.edge("pour", "Motion", "bottle", "cup")
        d.edge("timeline", "Time")
        d.attr("bottle", "weight", ("num", total - cup, None))
        d.attr("cup", "weight", ("num", cup, None))
        roles = {"total": fmt_num(total), "cup": fmt_num(cup)}
    else:
        action = rng.choice(("kicked", "hit", "threw", "pushed", "lifted"))
        obj = rng.choice(WORDS)
        agent = rng.choice((None, "Ann", "Joe"))
        d = Doc()
        d.elem("agent", "PhysicalObjectCircle", **({"label": agent} if agent else {}))
        d.elem("instrument", "PhysicalObjectCircle", label=INSTRUMENTS.get(action, "effector"))
        d.elem("object", "PhysicalObjectCircle", label=obj)
        d.edge("part-of", "Relationship", "agent", "instrument")
        d.edge("strike", "Motion", "instrument", "object")
        d.edge("timeline", "Time")
        d.attr("strike", "label", ("text", action))
        roles = {"action": action, "object": obj}
        if agent:
            roles["agent"] = agent
    return {"template": which, "roles": roles, "text": d.text()}


def match_request(rng):
    """A context vector and a lexicon, with the planted ranking."""
    attrs = [f"f{i}" for i in range(rng.randrange(2, 6))]
    cells = ("T", "F", "DC")
    context = [rng.choice(cells) for _ in attrs]
    words = sorted(rng.sample(WORDS, rng.randrange(2, 6)))
    rows = {w: [rng.choice(cells) for _ in attrs] for w in words}
    counts = {w: sum(1 for a, b in zip(context, r) if a == "DC" or b == "DC" or a == b)
              for w, r in rows.items()}
    ranked = sorted(counts.items(), key=lambda wc: (-wc[1], wc[0]))
    freq = {}
    for _, c in ranked:
        freq[c] = freq.get(c, 0) + 1
    expected = [f"{w} {c}{' tie' if freq[c] > 1 else ''}" for w, c in ranked]
    header = ",".join(attrs)
    context_text = f"{header}\nscene|seeded context|{','.join(context)}\n"
    lexicon_text = header + "\n" + "".join(f"{w}|gloss|{','.join(r)}\n" for w, r in rows.items())
    return {"context": context_text, "lexicon": lexicon_text, "expected": expected}


MIX = (("validate", 0.35), ("render", 0.30), ("template", 0.15), ("query", 0.10),
       ("heuristics", 0.05), ("modal", 0.025), ("match", 0.025))
EDIT_MIX = (("add_element", 0.15), ("bind", 0.3), ("add_edge", 0.1), ("contain", 0.05),
            ("query", 0.2), ("wildcard", 0.1), ("correlate", 0.1))


def shuffled_mix(rng, mix, n: int) -> list[str]:
    """n request kinds in the mix's exact proportions, in seeded order, so
    that every seed loads the same amount of each kind."""
    counts = {kind: int(share * n) for kind, share in mix}
    for kind, _ in sorted(mix, key=lambda ks: -ks[1])[:n - sum(counts.values())]:
        counts[kind] += 1
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


def small_corpus(seed: int, n_docs: int = 1000, n_requests: int = 2000):
    rng = random.Random(seed)
    docs = []
    for _ in range(n_docs):
        n = min(60, max(5, int(rng.expovariate(1 / 8))))
        roll = rng.random()
        faults = rng.sample(FAULTS, rng.randrange(1, 4)) if roll < 0.15 else []
        syntax = 0.15 <= roll < 0.18
        d, text, error_line = small_doc(rng, n, faults, syntax)
        doc = {"text": text, "codes": sorted(faults), "error_line": error_line,
               "ids": d.ids(), "canonical": error_line is None}
        if error_line is None:
            owners = [e for e in d.elems if d.kind_of(e) in NONQUAN]
            doc["queries"] = [plant_query(rng, d, owners or sorted(d.elems)) for _ in range(3)]
            tags = rng.sample(sorted(HEURISTIC_RULES), rng.randrange(1, 3))
            doc["heuristics"] = (tags,) + heuristics_answer(d, tags)
        docs.append(doc)
    clean = [i for i, doc in enumerate(docs) if doc["error_line"] is None]
    requests = []
    for kind in shuffled_mix(rng, MIX, n_requests):
        if kind in ("validate", "render"):
            requests.append((kind, rng.randrange(n_docs)))
        elif kind in ("query", "heuristics"):
            i = rng.choice(clean)
            requests.append((kind, i, rng.randrange(3)))
        elif kind == "template":
            requests.append((kind, template_request(rng)))
        elif kind == "modal":
            verb, meaning = rng.choice(sorted(MODAL_ANSWERS))
            requests.append((kind, verb, meaning, MODAL_ANSWERS[(verb, meaning)]))
        else:
            requests.append((kind, match_request(rng)))
    return {"docs": docs, "requests": requests}


# --------------------------------------------------------------------------
# large-scene: one diagram of about 4,000 elements.


def large_scene(seed: int, n_agg: int = 300, n_xor: int = 100, chains: int = 90, chain_len: int = 10,
                n_solitary: int = 300):
    rng = random.Random(seed)
    d = Doc()
    obj = 0

    def new_obj(parent=None):
        nonlocal obj
        obj += 1
        eid = d.elem(f"o{obj:05d}", "PhysicalObjectCircle", parent=parent, label=rng.choice(WORDS))
        d.attr(eid, "color", ("text", rng.choice(WORDS)))
        return eid

    motion = 0
    for b in range(n_agg):
        box = d.elem(f"b{b:04d}", "AggregationBox", label=rng.choice(WORDS))
        members = [new_obj(box) for _ in range(8)]
        for o in members:
            d.attr(o, "mass", ("num", float(rng.randrange(1, 500)), "kg"))
        for _ in range(4):
            motion += 1
            src, dst = rng.sample(members, 2)
            d.edge(f"m{motion:05d}", "Motion", src, dst)
    for x in range(n_xor):
        xor = d.elem(f"x{x:04d}", "XorBox")
        for _ in range(3):
            new_obj(xor)
    # Top-level causation chains; edge ids are shuffled against chain order so
    # layering by sorted edge id needs several relaxation passes.
    links = []
    for _ in range(chains):
        roots = [new_obj() for _ in range(chain_len)]
        links += list(zip(roots, roots[1:]))
    order = list(range(len(links)))
    rng.shuffle(order)
    for k, (src, dst) in zip(order, links):
        d.edge(f"k{k:05d}", "Causation", src, dst)
    for r in range(n_solitary):
        d.edge(f"r{r:05d}", "Relationship")
    for t in range(4):
        d.edge(f"t{t}", "Time")
    return {"text": d.text(), "ids": d.ids(), "codes": [], "n_elements": len(d.elems)}


# --------------------------------------------------------------------------
# edit-session: a seeded document plus a stream of library calls.


def edit_session(seed: int, n_boxes: int = 110, n_ops: int = 2000, save_every: int = 400):
    rng = random.Random(seed)
    d = Doc()
    objects, boxes, correlations = [], [], []
    count = {"o": 0, "e": 0}

    def next_id(prefix):
        count[prefix] += 1
        return f"{prefix}{count[prefix]:05d}"

    for b in range(n_boxes):
        box = d.elem(f"b{b:04d}", "AggregationBox", label=rng.choice(WORDS))
        boxes.append(box)
        for _ in range(8):
            o = d.elem(next_id("o"), "PhysicalObjectCircle", parent=box, label=rng.choice(WORDS))
            objects.append(o)
            d.attr(o, "weight", ("num", float(rng.randrange(1, 100)), None))
            if rng.random() < 0.5:
                d.attr(o, "color", ("text", rng.choice(WORDS)))
    for _ in range(len(objects) // 2):
        src, dst = rng.sample(objects, 2)
        d.edge(next_id("e"), "Relationship", src, dst)
    for c in range(n_boxes // 5):
        u, v = rng.sample(objects, 2)
        k = float(rng.randrange(2, 9))
        form = ("minus", "times")[c % 2]
        if form == "minus":
            eqs = {"u": f"{fmt_num(k * 50)} - v", "v": f"{fmt_num(k * 50)} - u"}
        else:
            eqs = {"u": f"v * {fmt_num(k)}", "v": f"u / {fmt_num(k)}"}
        cid = d.elem(f"c{c:04d}", "CorrelationBox", eq__u=eqs["u"], eq__v=eqs["v"],
                     slots=f"u:{u}.weight,v:{v}.weight")
        correlations.append((cid, form, k))
    base_text = d.text()

    ops = []
    last_answer = None
    kinds = iter(shuffled_mix(rng, EDIT_MIX, n_ops - n_ops // save_every))
    for i in range(1, n_ops + 1):
        if i % save_every == 0:
            ops.append(("save", d.text()))
            continue
        kind = next(kinds)
        if kind == "add_element":
            eid = next_id("o")
            box = rng.choice(boxes)
            label = rng.choice(WORDS)
            d.elem(eid, "PhysicalObjectCircle", parent=box, label=label)
            objects.append(eid)
            ops.append(("add_element", eid, label, box))
        elif kind == "bind":
            owner = rng.choice(objects)
            current = d.value(owner, "weight")
            roll = rng.random()
            if current is not None and roll < 0.3:
                ops.append(("bind", owner, "weight", current, False))  # same-value rebind
                d.attr(owner, "weight", current)
            elif current is not None and roll < 0.45:
                other = ("num", current[1] + 1.0, None)
                ops.append(("bind", owner, "weight", other, True))  # must conflict
            else:
                name = f"tag{rng.randrange(40)}"
                if d.value(owner, name) is None:
                    value = rng.choice((("text", rng.choice(WORDS)),
                                        ("num", round(rng.uniform(-50, 50), 2), "m"),
                                        random_range(rng)))
                    d.attr(owner, name, value)
                    ops.append(("bind", owner, name, value, False))
                else:
                    ops.append(("bind", owner, name, d.value(owner, name), False))
                    d.attr(owner, name, d.value(owner, name))
        elif kind == "add_edge":
            eid = next_id("e")
            src, dst = rng.sample(objects, 2)
            edge_kind = rng.choice(("Relationship", "Motion"))
            d.edge(eid, edge_kind, src, dst)
            ops.append(("add_edge", eid, edge_kind, src, dst))
        elif kind == "contain":
            child = rng.choice(objects)
            parent = rng.choice(boxes)
            d.contain[child] = parent
            ops.append(("contain", child, parent))
        elif kind == "query":
            owner = rng.choice(objects)
            attr = rng.choice(("weight", "color", "tag1", "tag2", "size"))
            answer, how = query_answer(d, owner, attr)
            last_answer = None if how == "dk" else answer
            ops.append(("query", owner, attr, answer, how))
        elif kind == "wildcard":
            # Cycle through the pattern kinds so every seed matches the same mix.
            patterns = (("wild", "DK"), ("wild", "PLUS"), ("range", 0.0, 50.0, True, False),
                        ("wild", "DNE"), last_answer or ("wild", "DC"))
            pattern = patterns[len(ops) % len(patterns)]
            ops.append(("wildcard", pattern, last_answer, wildcard_match(pattern, last_answer)))
        else:
            cid, form, k = rng.choice(correlations)
            x = float(rng.randrange(1, 100))
            free = rng.choice("uv")
            other = "v" if free == "u" else "u"
            if form == "minus":
                expected = k * 50 - x
            else:
                expected = x * k if free == "u" else x / k
            ops.append(("correlate", cid, {other: x}, free, expected))
    return {"base_text": base_text, "ops": ops, "final_text": d.text(),
            "n_elements": len(d.elems)}


# --------------------------------------------------------------------------
# cli-cold: small files for one subprocess per request.


def cli_cold(seed: int, n_requests: int = 120):
    """Argv lists over small files, with the exit code and output planted."""
    corpus = small_corpus(seed, n_docs=120, n_requests=n_requests)
    files = {}
    requests = []
    for req in corpus["requests"]:
        kind = req[0]
        if kind in ("validate", "render", "query", "heuristics"):
            doc = corpus["docs"][req[1]]
            name = f"doc{req[1]:04d}.tb"
            files[name] = doc["text"]
        if kind == "validate":
            exit_code = 2 if doc["error_line"] else (1 if doc["codes"] else 0)
            requests.append({"kind": kind, "argv": ["validate", name], "exit": exit_code,
                             "codes": doc["codes"], "error_line": doc["error_line"]})
        elif kind == "render":
            exit_code = 2 if doc["error_line"] else (1 if doc["codes"] else 0)
            requests.append({"kind": kind, "argv": ["render", name, "-o", "out.svg"],
                             "exit": exit_code, "codes": doc["codes"],
                             "error_line": doc["error_line"], "ids": doc["ids"]})
        elif kind == "query":
            owner, attr, answer, _ = doc["queries"][req[2]]
            requests.append({"kind": kind, "argv": ["query", name, "--owner", owner, "--attr", attr],
                             "exit": 0, "stdout": literal(answer) + "\n"})
        elif kind == "heuristics":
            tags, mandatory, missing = doc["heuristics"]
            requests.append({"kind": kind, "argv": ["heuristics", "--tags", ",".join(tags), name],
                             "exit": 1 if missing else 0,
                             "mandatory": mandatory, "missing": missing})
        elif kind == "template":
            t = req[1]
            roles = [f"{k}={v}" for k, v in sorted(t["roles"].items())]
            requests.append({"kind": kind, "argv": ["template", t["template"], "--roles", *roles],
                             "exit": 0, "stdout": t["text"]})
        elif kind == "modal":
            requests.append({"kind": kind, "argv": ["modal", req[1], req[2]], "exit": 0,
                             "stdout": req[3] + "\n"})
        else:
            m = req[1]
            n = len(files)
            files[f"context{n}.tbl"] = m["context"]
            files[f"lexicon{n}.tbl"] = m["lexicon"]
            requests.append({"kind": kind, "exit": 0,
                             "argv": ["match", "--context", f"context{n}.tbl",
                                      "--lexicon", f"lexicon{n}.tbl"],
                             "stdout": "".join(line + "\n" for line in m["expected"])})
    return {"files": files, "requests": requests}


def generate(workload: str, seed: int):
    return {"large-scene": large_scene, "small-corpus": small_corpus,
            "edit-session": edit_session, "cli-cold": cli_cold}[workload](seed)


def _summary(workload: str, data) -> dict:
    if workload == "large-scene":
        return {"elements": data["n_elements"], "ids": len(data["ids"]),
                "lines": data["text"].count("\n"), "bytes": len(data["text"])}
    if workload == "small-corpus":
        docs = data["docs"]
        return {"docs": len(docs), "requests": len(data["requests"]),
                "faulty_docs": sum(1 for d in docs if d["codes"]),
                "syntax_error_docs": sum(1 for d in docs if d["error_line"]),
                "mean_lines": sum(d["text"].count("\n") for d in docs) / len(docs)}
    if workload == "edit-session":
        return {"base_lines": data["base_text"].count("\n"), "ops": len(data["ops"]),
                "final_elements": data["n_elements"]}
    return {"files": len(data["files"]), "requests": len(data["requests"])}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(_summary(args.workload, generate(args.workload, args.seed))))


if __name__ == "__main__":
    main()
