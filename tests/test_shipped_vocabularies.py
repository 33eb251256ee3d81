"""The vocabularies read from the shipped tables keep their published values,
and a custom table under TUMBUG_TABLES is still checked against them."""

import pickle

import pytest

from tumbug.heuristics import RuleSetError, TriggerTag, load_rules
from tumbug.lexicon import (
    CORE_ATTITUDES,
    MODAL_CONCEPTS,
    MODAL_VERBS,
    TableFormatError,
    load_default_modal_table,
    tables_dir,
)

# Reference values, as they were spelled out in the modules before the tables
# became their only copy.
MODAL_CONCEPTS_REF = (
    "Ability", "Advice", "Formal Directive", "Formality", "Habit", "Ideal", "Intention",
    "Likelihood", "Obligation", "Offer", "Permission", "Possibility", "Prediction", "Request",
    "Suggestion", "Tense", "Willpower",
)
MODAL_VERBS_REF = (
    "be able to", "can", "could", "had best", "had better", "have got to", "have to", "may",
    "might", "must", "needn't", "ought to", "shall", "should", "will", "would",
)
CORE_ATTITUDES_REF = frozenset({
    "assert", "believe", "command", "consider", "deny", "desire", "doubt", "fear", "hope",
    "imagine", "intend", "judge", "know", "perceive", "want", "wish",
})
TRIGGER_TAGS_REF = [
    ("BARRIER", "barrier"),
    ("LIFT_CARRY", "lift-carry"),
    ("DAMAGE_INTERFERENCE", "damage-interference"),
    ("SPATIAL_RELATION", "spatial-relation"),
    ("RELATIVE_TIME", "relative-time"),
    ("DOWNWARD_GRAVITY", "downward-gravity"),
    ("INTERIOR", "interior"),
    ("SPEED", "speed"),
    ("COLLECTIVE_VIEW", "collective-view"),
    ("LINE_OF_SIGHT", "line-of-sight"),
    ("CAUSAL_CONNECTIVE", "causal-connective"),
    ("TRANSFER_TRAVEL", "transfer-travel"),
    ("INFORMATION_TRANSFER", "information-transfer"),
    ("TEMPORAL_PROCESS", "temporal-process"),
]


def test_modal_vocabulary_matches_the_reference():
    assert type(MODAL_CONCEPTS) is tuple and MODAL_CONCEPTS == MODAL_CONCEPTS_REF
    assert type(MODAL_VERBS) is tuple and MODAL_VERBS == MODAL_VERBS_REF


def test_core_attitudes_match_the_reference():
    assert type(CORE_ATTITUDES) is frozenset and CORE_ATTITUDES == CORE_ATTITUDES_REF


def test_trigger_tags_match_the_reference():
    assert [(m.name, m.value) for m in TriggerTag] == TRIGGER_TAGS_REF
    assert all(isinstance(m, str) for m in TriggerTag)
    assert TriggerTag.__module__ == "tumbug.heuristics"
    assert pickle.loads(pickle.dumps(TriggerTag.LINE_OF_SIGHT)) is TriggerTag.LINE_OF_SIGHT
    assert TriggerTag("barrier") is TriggerTag.BARRIER
    assert TriggerTag.BARRIER == "barrier"


def test_custom_modal_table_is_checked_against_the_shipped_verbs(tmp_path, monkeypatch):
    shipped = (tables_dir() / "modal_verbs.tbl").read_text(encoding="utf-8")
    kept = [line for line in shipped.splitlines() if not line.startswith("would|")]
    (tmp_path / "modal_verbs.tbl").write_text("\n".join(kept) + "\n", encoding="utf-8")
    monkeypatch.setenv("TUMBUG_TABLES", str(tmp_path))
    with pytest.raises(TableFormatError, match="would"):
        load_default_modal_table()


def test_custom_rule_file_is_checked_against_the_shipped_tags(tmp_path, monkeypatch):
    shipped = (tables_dir() / "heuristics.tbl").read_text(encoding="utf-8")
    kept = [line for line in shipped.splitlines() if "speed" not in line]
    (tmp_path / "heuristics.tbl").write_text("\n".join(kept) + "\n", encoding="utf-8")
    monkeypatch.setenv("TUMBUG_TABLES", str(tmp_path))
    with pytest.raises(RuleSetError, match="speed"):
        load_rules(tables_dir() / "heuristics.tbl")
