"""Tumbug: a validated IR for pictorial knowledge diagrams.

Construct diagrams from ~30 Building Block kinds, validate them against the
combination grammar, round-trip them through a canonical text format,
render them to SVG, build the stock constructions (primitive acts, sentence
patterns, aspects, syllogisms, flowcharts), and run concept-vector matching
for modal verbs and translation lexicons.

``import tumbug`` runs no submodule: each public name below is imported from
its module on first access (PEP 562), so a command loads only what it uses.
"""

import functools
import gc
import importlib
import os
from pathlib import Path
from typing import Callable, Iterator, ParamSpec, TypeVar

# Each submodule and the public names it provides; _HOME maps name -> submodule.
_EXPORTS = {
    "model": (
        "AttributeBinding",
        "CAPayload",
        "CorrelationBoxPayload",
        "Diagram",
        "Edge",
        "EdgeKind",
        "Element",
        "GenericPayload",
        "GroupKind",
        "Kind",
        "MotivationTrianglePayload",
        "Position",
        "RobinsonIconPayload",
        "SlotSpec",
        "SplitTimeGroup",
        "StateDiagramGroup",
        "SwirlyArrayPayload",
        "evaluate_correlation",
    ),
    "values": (
        "BallInRange",
        "ExistenceLevel",
        "FuzzyBand",
        "FuzzyLabel",
        "Match",
        "Range",
        "Scalar",
        "Text",
        "Wildcard",
        "classify_count",
        "classify_ratio",
        "wildcard_matches",
    ),
    "grammar": (
        "BasicKind",
        "LegalityTable",
        "Violation",
        "ViolationCode",
        "generalize",
        "resolve_query",
        "scova_classify",
        "validate",
    ),
    "dsl": ("ParseError", "SourceSpan", "parse", "serialize"),
    "svg": ("InvalidDiagram", "RenderOptions", "render"),
    "templates": (
        "AspectSpec",
        "BasicPattern",
        "PrimitiveAct",
        "build_arithmetic",
        "build_aspect",
        "build_flowchart",
        "build_passive",
        "build_pattern",
        "build_primitive",
        "build_syllogism",
        "build_water_pour",
    ),
    "lexicon": (
        "Cell",
        "ConceptVector",
        "Lexicon",
        "ModalTable",
        "match_count",
        "modal_concepts",
        "modal_icon",
        "select_word",
    ),
    "heuristics": ("Requirement", "Trigger", "TriggerTag", "check", "requirements_for"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


# The shipped tables; modules read their vocabularies here, never in TUMBUG_TABLES.
# Kept here so that every module that reads a table finds it without loading another.
DATA_DIR = Path(__file__).parent / "data"


def tables_dir() -> Path:
    """Directory of the data tables to load: TUMBUG_TABLES, else ``DATA_DIR``."""
    return _tables_dir(os.environ.get("TUMBUG_TABLES"))


@functools.cache  # one Path per setting, so that caches keyed on it cost one lookup
def _tables_dir(setting: str | None) -> Path:
    return Path(setting or DATA_DIR)


_T = TypeVar("_T")
_P = ParamSpec("_P")


@functools.cache  # what parse returns is shared: callers copy it before changing it
def read_table(directory: Path, name: str, parse: Callable[[str], _T]) -> _T:
    """``parse`` of the UTF-8 text of the table ``directory / name``, read once
    per process for each ``(directory, name, parse)``."""
    return parse((directory / name).read_text(encoding="utf-8"))


def table_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """``(line number, raw line, text)`` for each line of a data table that holds
    more than a ``#`` comment; the text is the line without it, stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, line


def list_items(text: str) -> tuple[str, ...]:
    """The non-empty items of a comma-separated list."""
    return tuple(filter(None, text.split(",")))


class Record:
    """Base of the package's records: each subclass's ``__init__`` sets its
    fields, in order, as instance attributes and sets nothing else.  Two
    records are equal when they are of one class with equal fields; the repr
    is ``Name(field=value, ...)``.  A mutable record is unhashable.

    A record compared or hashed often spells these methods out over its
    fields, as the hot ones do: reading ``self.__dict__`` gives the instance
    a dict of its own, which costs memory and slows every later read of its
    fields."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


class FrozenRecord(Record):
    """A record whose fields are set once, by ``object.__setattr__`` in its
    ``__init__``, and never again; it hashes as the tuple of its fields."""

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")


def gc_paused(fn: Callable[_P, _T]) -> Callable[_P, _T]:
    """``fn`` run with the cyclic garbage collector paused, and enabled again on
    return or raise if it was enabled at the call; for a call that builds many
    objects and frees few, such as parse or render, a collection only rescans
    them.  Collector state is process-wide: no thread collects cycles while
    the call runs, and one that turns the collector off meanwhile finds it on
    again when the call returns."""

    @functools.wraps(fn)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _T:
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
