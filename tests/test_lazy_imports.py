"""What a bare ``import tumbug`` and each CLI subcommand load.

The checks that look at ``sys.modules`` run in a fresh interpreter, since
this test process has imported every module long before they run.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tumbug
from tumbug.lexicon import tables_dir

from conftest import NESTED_LOOPS

SRC = str(Path(tumbug.__file__).resolve().parent.parent)

SUBMODULES = ["dsl", "grammar", "heuristics", "lexicon", "model", "svg", "templates", "values"]

# The public names and the module each came from when the package imported
# every submodule eagerly; `from tumbug import *` gave these and SUBMODULES.
HOMES = {
    "model": [
        "AttributeBinding", "CAPayload", "CorrelationBoxPayload", "Diagram", "Edge", "EdgeKind",
        "Element", "GenericPayload", "GroupKind", "Kind", "MotivationTrianglePayload", "Position",
        "RobinsonIconPayload", "SlotSpec", "SplitTimeGroup", "StateDiagramGroup",
        "SwirlyArrayPayload", "evaluate_correlation",
    ],
    "values": [
        "BallInRange", "ExistenceLevel", "FuzzyBand", "FuzzyLabel", "Match", "Range", "Scalar",
        "Text", "Wildcard", "classify_count", "classify_ratio", "wildcard_matches",
    ],
    "grammar": [
        "BasicKind", "LegalityTable", "Violation", "ViolationCode", "generalize", "resolve_query",
        "scova_classify", "validate",
    ],
    "dsl": ["ParseError", "SourceSpan", "parse", "serialize"],
    "svg": ["InvalidDiagram", "RenderOptions", "render"],
    "templates": [
        "AspectSpec", "BasicPattern", "PrimitiveAct", "build_arithmetic", "build_aspect",
        "build_flowchart", "build_passive", "build_pattern", "build_primitive", "build_syllogism",
        "build_water_pour",
    ],
    "lexicon": [
        "Cell", "ConceptVector", "Lexicon", "ModalTable", "match_count", "modal_concepts",
        "modal_icon", "select_word",
    ],
    "heuristics": ["Requirement", "Trigger", "TriggerTag", "check", "requirements_for"],
}
STAR_NAMES = SUBMODULES + [name for names in HOMES.values() for name in names]


def _fresh(code: str, *args: str, cwd=None):
    """Run ``code`` in a new interpreter; returns the JSON of its last line."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = "sorted(m for m in sys.modules if m.startswith('tumbug'))"
_RUN_CLI = (
    "import json, sys\nfrom tumbug.cli import run\ncode = run(sys.argv[1:])\n"
    f"print(json.dumps([code, {_LOADED}]))"
)

# Every run parses its arguments; only a run that reads or writes a diagram
# loads dsl and the model.
_ALWAYS = {"tumbug", "tumbug.cli"}
_DIAGRAM = {"dsl", "model", "values"}


@pytest.mark.parametrize(
    "argv, code, extra",
    [
        (["validate", "fox.tb"], 0, {"grammar", *_DIAGRAM}),
        (["render", "fox.tb", "-o", "fox.svg"], 0, {"grammar", "svg", *_DIAGRAM}),
        (["template", "mtrans", "--roles", "sender=A", "receiver=B"], 0, {"templates", *_DIAGRAM}),
        (
            ["template", "loop", "--roles", "statements=S1,S2", "body=S1,S2"], 0,
            {"templates", *_DIAGRAM},
        ),
        (["query", "fox.tb", "--owner", "o1", "--attr", "color"], 0, {"grammar", *_DIAGRAM}),
        (["classify", "Time"], 0, {"grammar", "model", "values"}),
        (["trace", "nested.tb"], 0, {"templates", *_DIAGRAM}),
        (["modal", "can", "permission"], 0, {"lexicon"}),
        (["match", "--context", "context.tbl", "--lexicon", "fr.tbl"], 0, {"lexicon"}),
        (["heuristics", "--tags", "barrier", "fox.tb"], 1, {"heuristics", *_DIAGRAM}),
    ],
    ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else None,
)
def test_subcommand_loads_only_its_modules(tmp_path, argv, code, extra):
    (tmp_path / "fox.tb").write_text(
        'elem o1 PhysicalObjectCircle label="fox"\nattr o1 color="red"\n', encoding="utf-8"
    )
    (tmp_path / "nested.tb").write_text(NESTED_LOOPS, encoding="utf-8")
    (tmp_path / "context.tbl").write_bytes((tables_dir() / "throw_context.tbl").read_bytes())
    (tmp_path / "fr.tbl").write_bytes((tables_dir() / "throw_lexicon_fr.tbl").read_bytes())
    got_code, loaded = _fresh(_RUN_CLI, *argv, cwd=tmp_path)
    assert got_code == code
    assert set(loaded) == _ALWAYS | {f"tumbug.{m}" for m in extra}


@pytest.mark.parametrize(
    "argv", [["validate", "fox.tb"], ["render", "fox.tb", "-o", "fox.svg"]], ids=lambda v: v[0]
)
def test_a_diagram_command_loads_neither_dataclasses_nor_inspect(tmp_path, argv):
    # The records are plain classes: building them imports neither module.
    (tmp_path / "fox.tb").write_text(
        'elem o1 PhysicalObjectCircle label="fox"\nattr o1 color="red"\n', encoding="utf-8"
    )
    code = (
        "import json, sys\nfrom tumbug.cli import run\ncode = run(sys.argv[1:])\n"
        "print(json.dumps([code, sorted({'dataclasses', 'inspect'} & set(sys.modules))]))"
    )
    assert _fresh(code, *argv, cwd=tmp_path) == [0, []]


def test_bare_import_runs_no_submodule_and_each_resolves_on_use():
    loaded, after = _fresh(
        "import json, sys\nimport tumbug\n"
        f"loaded = {_LOADED}\n"
        "import tumbug.cli\n"
        f"same = [getattr(tumbug, m) is sys.modules['tumbug.' + m] for m in {SUBMODULES!r}]\n"
        "print(json.dumps([loaded, same]))"
    )
    assert loaded == ["tumbug"]
    assert after == [True] * len(SUBMODULES)


def test_star_import_gives_the_77_names():
    namespace = {}
    exec("from tumbug import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(STAR_NAMES)
    assert len(STAR_NAMES) == 77
    assert sorted(tumbug.__all__) == sorted(STAR_NAMES)


def test_every_public_name_is_the_object_in_its_module():
    for name in SUBMODULES:
        assert getattr(tumbug, name) is importlib.import_module(f"tumbug.{name}")
    for module, names in HOMES.items():
        for name in names:
            assert getattr(tumbug, name) is getattr(getattr(tumbug, module), name), name


def test_dir_lists_every_public_name():
    assert set(STAR_NAMES) <= set(dir(tumbug))
    assert "__version__" in dir(tumbug)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        tumbug.nonsense
    assert not hasattr(tumbug, "cli_helpers")
    with pytest.raises(ImportError):
        exec("from tumbug import nonsense", {})
