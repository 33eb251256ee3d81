"""Concept vectors and match-count word selection.

A concept vector assigns TRUE / FALSE / DON'T-CARE to a fixed schema of
attributes.  Word selection scores a context vector against each candidate
word's vector by counting compatible cells; DON'T CARE is compatible with
everything.  The same machinery drives the modal-verb crossbar table and
translation lexicons.

Table file format (UTF-8, ``#`` comments): a header line of comma-separated
attribute names, then one row per entry::

    <word>|<meaning>|T,F,DC,...

cells in header order.  Modal tables additionally use ``(T)`` for implied
(parenthesized) cells, which show in icons but never count toward scores.

The shipped ``data/modal_verbs.tbl`` is the only copy of the modal vocabulary:
``MODAL_CONCEPTS`` is its header and ``MODAL_VERBS`` its verbs, and a custom
modal table under ``TUMBUG_TABLES`` is checked against them.
"""

from __future__ import annotations

import enum
from itertools import groupby
from pathlib import Path

from . import DATA_DIR, FrozenRecord, Record, read_table, table_lines, tables_dir

__all__ = [
    "Cell",
    "ConceptVector",
    "SchemaMismatch",
    "match_count",
    "RankedWord",
    "Lexicon",
    "EmptyLexicon",
    "select_word",
    "MODAL_CONCEPTS",
    "MODAL_VERBS",
    "ModalRow",
    "ModalTable",
    "UnknownModalRow",
    "ModalConcepts",
    "modal_concepts",
    "modal_icon",
    "ATTITUDE_CATALOG",
    "CORE_ATTITUDES",
    "attitude_category",
    "TableFormatError",
    "TableRow",
    "TableData",
    "load_table_text",
    "load_table",
    "tables_dir",
    "load_default_modal_table",
]


class SchemaMismatch(ValueError):
    pass


class EmptyLexicon(ValueError):
    pass


class UnknownModalRow(KeyError):
    pass


class TableFormatError(ValueError):
    pass


class Cell(str, enum.Enum):
    T = "T"
    F = "F"
    DC = "DC"


class ConceptVector(FrozenRecord):
    def __init__(self, attributes: tuple[str, ...], cells: tuple[Cell, ...]):
        if len(attributes) != len(cells):
            raise SchemaMismatch("one cell per attribute required")
        if len(set(attributes)) != len(attributes):
            raise SchemaMismatch("attribute names must be unique")
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "cells", cells)

    def get(self, name: str) -> Cell:
        return self.cells[self.attributes.index(name)]

    def with_cell(self, name: str, cell: Cell) -> "ConceptVector":
        i = self.attributes.index(name)
        return ConceptVector(self.attributes, self.cells[:i] + (cell,) + self.cells[i + 1 :])


def _compatible(a: Cell, b: Cell) -> bool:
    return a is Cell.DC or b is Cell.DC or a is b


def match_count(context: ConceptVector, candidate: ConceptVector) -> int:
    """Count of attribute cells where the two vectors are compatible."""
    if context.attributes != candidate.attributes:
        raise SchemaMismatch(
            f"schemas differ: {context.attributes} vs {candidate.attributes}"
        )
    return sum(1 for a, b in zip(context.cells, candidate.cells) if _compatible(a, b))


class RankedWord(FrozenRecord):
    def __init__(self, word: str, count: int, rank: int, tied: bool):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "tied", tied)


class Lexicon(Record):
    def __init__(
        self,
        language: str,
        entries: dict[str, ConceptVector] | None = None,
        glosses: dict[str, str] | None = None,
    ):
        if entries is None:
            entries = {}
        if len({v.attributes for v in entries.values()}) > 1:
            raise SchemaMismatch("all lexicon entries must share one schema")
        self.language = language
        self.entries = entries
        self.glosses = {} if glosses is None else glosses

    @classmethod
    def from_table(cls, table: "TableData", language: str = "") -> "Lexicon":
        lex = cls(language)
        for row in table.rows:
            cells = tuple(_plain_cell(c) for c in row.cells)
            lex.entries[row.word] = ConceptVector(table.attributes, cells)
            if row.meaning:
                lex.glosses[row.word] = row.meaning
        return lex


def select_word(context: ConceptVector, lexicon: Lexicon) -> list[RankedWord]:
    """Candidates ranked by descending match count.

    Equal counts share a rank and are flagged as tied; the secondary order
    is lexicographic so output never depends on insertion order.
    """
    if not lexicon.entries:
        raise EmptyLexicon(lexicon.language or "<lexicon>")
    scored = sorted(
        ((word, match_count(context, vec)) for word, vec in lexicon.entries.items()),
        key=lambda wc: (-wc[1], wc[0]),
    )
    out: list[RankedWord] = []
    for count, group in groupby(scored, key=lambda wc: wc[1]):
        words = [word for word, _ in group]
        rank = len(out) + 1  # every word before this group has a higher count
        out.extend(RankedWord(word, count, rank, len(words) > 1) for word in words)
    return out


# --------------------------------------------------------------------------
# Modal verbs.

class ModalRow(FrozenRecord):
    def __init__(self, verb: str, meaning: str, active: frozenset[str], implied: frozenset[str]):
        object.__setattr__(self, "verb", verb)
        object.__setattr__(self, "meaning", meaning)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "implied", implied)


class ModalConcepts(FrozenRecord):
    def __init__(self, active: frozenset[str], implied: frozenset[str]):
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "implied", implied)


class ModalTable(Record):
    def __init__(self, rows: dict[tuple[str, str], ModalRow]):
        missing = set(MODAL_VERBS) - {verb for verb, _ in rows}
        if missing:
            raise TableFormatError(f"modal table missing verbs: {sorted(missing)}")
        for row in rows.values():
            stray = (row.active | row.implied) - set(MODAL_CONCEPTS)
            if stray:
                raise TableFormatError(f"unknown modal concepts: {sorted(stray)}")
        self.rows = rows

    def copy(self) -> "ModalTable":
        """A table with its own rows dict of this table's rows, which passed
        the checks when this table was built, so they are not run again."""
        table = object.__new__(ModalTable)
        table.rows = dict(self.rows)
        return table

    @classmethod
    def from_table(cls, table: "TableData") -> "ModalTable":
        stray = set(table.attributes) - set(MODAL_CONCEPTS)
        if stray:
            raise TableFormatError(f"unknown modal concept columns: {sorted(stray)}")
        rows = {}
        for row in table.rows:
            active, implied = set(), set()
            for name, cell in zip(table.attributes, row.cells):
                if cell == "T":
                    active.add(name)
                elif cell == "(T)":
                    implied.add(name)
                elif cell != "F":
                    raise TableFormatError(
                        f"modal cell must be T, F, or (T); got {cell!r}"
                    )
            key = (row.word, row.meaning)
            if key in rows:
                raise TableFormatError(f"duplicate modal row {key}")
            rows[key] = ModalRow(row.word, row.meaning, frozenset(active), frozenset(implied))
        return cls(rows)


def modal_concepts(table: ModalTable, verb: str, meaning: str) -> ModalConcepts:
    """Concepts a modal verb-with-meaning switches on.

    Implied (parenthesized) concepts come back separately: they display but
    do not score.
    """
    try:
        row = table.rows[(verb, meaning)]
    except KeyError:
        raise UnknownModalRow(f"{verb} ({meaning})") from None
    return ModalConcepts(row.active, row.implied)


def _icon_cells() -> tuple[tuple[str, float, float], ...]:
    # Pegboard skeleton shared by every modal verb: 6 cells per row.
    return tuple(
        (name, float((i % 6) * 26), float((i // 6) * 26))
        for i, name in enumerate(MODAL_CONCEPTS)
    )


def modal_icon(table: ModalTable, verb: str, meaning: str) -> SwirlyArrayPayload:
    """Swirly-array icon for a modal verb: fixed cell skeleton, with the
    verb's concepts (implied ones included, for display) lit up.  The model
    loads here, so that the modal and match commands never load it."""
    from .model import SwirlyArrayPayload

    concepts = modal_concepts(table, verb, meaning)
    return SwirlyArrayPayload(
        cells=_icon_cells(),
        active=frozenset(concepts.active | concepts.implied),
        label=f"{verb} ({meaning})",
    )


# --------------------------------------------------------------------------
# Propositional attitudes.

ATTITUDE_CATALOG: dict[str, frozenset[str]] = {
    "emotional motivation": frozenset({"fear", "hope"}),
    "general motivation": frozenset({"desire", "intend", "want", "wish"}),
    "cognitive": frozenset(
        {"believe", "consider", "deny", "doubt", "imagine", "judge", "know", "perceive"}
    ),
    "communication": frozenset({"assert", "inform"}),
    "grammatical": frozenset({"command"}),
}

# The sixteen core attitudes: every catalogued attitude but "inform".
CORE_ATTITUDES = frozenset().union(*ATTITUDE_CATALOG.values()) - {"inform"}


def attitude_category(name: str) -> str:
    for category, names in ATTITUDE_CATALOG.items():
        if name in names:
            return category
    raise KeyError(name)


# --------------------------------------------------------------------------
# Table files.

_CELL_TOKENS = {"T", "F", "DC", "(T)"}


class TableRow(FrozenRecord):
    def __init__(self, word: str, meaning: str, cells: tuple[str, ...]):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "meaning", meaning)
        object.__setattr__(self, "cells", cells)


class TableData(FrozenRecord):
    def __init__(self, attributes: tuple[str, ...], rows: tuple[TableRow, ...]):
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "rows", rows)


def load_table_text(text: str) -> TableData:
    attributes: tuple[str, ...] | None = None
    rows = []
    for lineno, _, line in table_lines(text):
        if attributes is None:
            attributes = tuple(a.strip() for a in line.split(","))
            if any(not a for a in attributes):
                raise TableFormatError(f"line {lineno}: empty attribute name")
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise TableFormatError(f"line {lineno}: expected word|meaning|cells")
        word, meaning, cell_text = (p.strip() for p in parts)
        cells = tuple(c.strip() for c in cell_text.split(","))
        if len(cells) != len(attributes):
            raise TableFormatError(
                f"line {lineno}: {len(cells)} cells for {len(attributes)} attributes"
            )
        bad = [c for c in cells if c not in _CELL_TOKENS]
        if bad:
            raise TableFormatError(f"line {lineno}: bad cells {bad}")
        rows.append(TableRow(word, meaning, cells))
    if attributes is None:
        raise TableFormatError("no header line")
    return TableData(attributes, tuple(rows))


def load_table(path: str | Path) -> TableData:
    return load_table_text(Path(path).read_text(encoding="utf-8"))


def _plain_cell(token: str) -> Cell:
    if token == "(T)":
        raise TableFormatError("implied (T) cells belong to modal tables only")
    return Cell(token)


def _modal_table_text(text: str) -> ModalTable:
    return ModalTable.from_table(load_table_text(text))


def load_default_modal_table() -> ModalTable:
    """A new ModalTable of the table in ``tables_dir()``, read and built once
    per directory and checked then; each call gets its own rows dict."""
    return read_table(tables_dir(), "modal_verbs.tbl", _modal_table_text).copy()


# Defined last: reading the shipped table needs load_table_text.
_SHIPPED_MODAL = read_table(DATA_DIR, "modal_verbs.tbl", load_table_text)
MODAL_CONCEPTS = _SHIPPED_MODAL.attributes
MODAL_VERBS = tuple(sorted({row.word for row in _SHIPPED_MODAL.rows}))
