"""Sentence-to-diagram conversion heuristics as a trigger rule engine.

Fourteen rules map prose-level cues (barriers, lifting, causal connectives,
...) to the Building Blocks a faithful diagram needs.  Triggers are
caller-supplied tags, not extracted from text.  Rules load from a data file
so the set stays editable.  The shipped ``data/heuristics.tbl`` is the only
copy of the trigger tags: ``TriggerTag`` has one member per tag in it, and a
custom rule file under ``TUMBUG_TABLES`` must cover them all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

from . import DATA_DIR, list_items, read_table, table_lines, tables_dir
from .model import CHANGE_ARROW_KINDS, KIND_FACTS, Diagram, EdgeKind, Kind

__all__ = [
    "TriggerTag",
    "Trigger",
    "Rule",
    "Requirement",
    "CheckReport",
    "RuleSetError",
    "load_rules",
    "parse_rules",
    "default_rules",
    "requirements_for",
    "check",
]


class RuleSetError(ValueError):
    pass


# One member per tag of the shipped rule file, in its order: BARRIER = "barrier".
_SHIPPED_TAGS = read_table(
    DATA_DIR, "heuristics.tbl", lambda text: [line.split()[1] for _, _, line in table_lines(text)]
)
TriggerTag = enum.Enum(
    "TriggerTag",
    [(tag.upper().replace("-", "_"), tag) for tag in _SHIPPED_TAGS],
    type=str,
    module=__name__,
)


@dataclass(frozen=True)
class Trigger:
    """A tag, optionally carrying the cue word that fired it ("because")."""

    tag: TriggerTag
    cue: str | None = None


# Each requirement name to the kinds that meet it: an element kind's name, a
# Change Arrow's Building Block name, or an abstract class (AnyBox, AnyMarker).
_MET_BY: dict[str, set[Kind | EdgeKind]] = {
    **{k.value: {k} for k in Kind},
    **{name: {k} for k in CHANGE_ARROW_KINDS for name in KIND_FACTS[k].aliases},
    **{f.abstract: {k for k, g in KIND_FACTS.items() if g.abstract == f.abstract}
       for f in KIND_FACTS.values() if f.abstract},
}


def _known_kind(name: str) -> bool:
    return name in _MET_BY


@dataclass(frozen=True)
class Rule:
    index: int
    tag: TriggerTag
    mandatory: frozenset[str]
    advisory: frozenset[str]
    mandatory_cues: frozenset[str]  # cue words that promote advisory kinds

    def __post_init__(self):
        for name in self.mandatory | self.advisory:
            if not _known_kind(name):
                raise RuleSetError(f"rule {self.index}: unknown kind {name!r}")


@dataclass(frozen=True)
class Requirement:
    mandatory: frozenset[str] = frozenset()
    advisory: frozenset[str] = frozenset()

    def union(self, other: "Requirement") -> "Requirement":
        mandatory = self.mandatory | other.mandatory
        return Requirement(mandatory, (self.advisory | other.advisory) - mandatory)


def parse_rules(text: str) -> dict[TriggerTag, Rule]:
    """Parse the rule file: ``<index> <tag> <mandatory> <advisory> <cues>``
    per line, comma-separated kind lists, ``-`` for empty."""
    rules: dict[TriggerTag, Rule] = {}
    for lineno, _, line in table_lines(text):
        parts = line.split()
        if len(parts) != 5:
            raise RuleSetError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        index_text, tag_text, mand_text, adv_text, cue_text = parts
        try:
            index = int(index_text)
            tag = TriggerTag(tag_text)
        except ValueError as exc:
            raise RuleSetError(f"line {lineno}: {exc}") from exc
        if tag in rules:
            raise RuleSetError(f"line {lineno}: duplicate rule for {tag.value}")
        split = lambda t: frozenset(list_items(t)) if t != "-" else frozenset()
        rules[tag] = Rule(index, tag, split(mand_text), split(adv_text), split(cue_text))
    missing = set(TriggerTag) - set(rules)
    if missing:
        raise RuleSetError(f"missing rules for: {sorted(t.value for t in missing)}")
    return rules


def load_rules(path: str | Path) -> dict[TriggerTag, Rule]:
    return parse_rules(Path(path).read_text(encoding="utf-8"))


def default_rules() -> dict[TriggerTag, Rule]:
    """The rules in ``tables_dir()``, loaded once per directory."""
    return read_table(tables_dir(), "heuristics.tbl", parse_rules)


def requirements_for(triggers: Iterable[TriggerTag | Trigger]) -> Requirement:
    """Union of the triggered heuristics' required Building Blocks.

    Cue words can harden a rule: "because" promotes the causal-connective
    rule's advisory CausationArrow to mandatory.
    """
    rules = default_rules()
    req = Requirement()
    for trigger in triggers:
        if isinstance(trigger, TriggerTag):
            trigger = Trigger(trigger)
        rule = rules[trigger.tag]
        if trigger.cue is not None and trigger.cue in rule.mandatory_cues:
            req = req.union(Requirement(rule.mandatory | rule.advisory, frozenset()))
        else:
            req = req.union(Requirement(rule.mandatory, rule.advisory))
    return req


@dataclass(frozen=True)
class CheckReport:
    satisfied: tuple[str, ...]
    missing: tuple[str, ...]
    advisory_satisfied: tuple[str, ...]
    advisory_missing: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.missing


def _present(d: Diagram, name: str) -> bool:
    kinds = _MET_BY[name]
    return any(x.kind in kinds for x in chain(d.elements.values(), d.edges.values()))


def check(d: Diagram, req: Requirement) -> CheckReport:
    """Which required Building Blocks the diagram actually contains."""
    sat, miss, asat, amiss = [], [], [], []
    for name in sorted(req.mandatory):
        (sat if _present(d, name) else miss).append(name)
    for name in sorted(req.advisory):
        (asat if _present(d, name) else amiss).append(name)
    return CheckReport(tuple(sat), tuple(miss), tuple(asat), tuple(amiss))
