"""Module hygiene: what each module says it exports exists, the package's lazy
exports agree with the modules, no module imports a name it never uses or a
private name of another module, only the package spells its data directory
and caches, the shipped tables are read through tumbug.read_table, each rule
below has its one owner, queries read the model's indices instead of
scanning, only the model touches a Diagram's storage, dsl reads and writes
every codec row through one loop each, dsl spells a word once and reads
words through one splitter, no dsl function writes to a module-level
table, svg escapes text and never an id, each
attribute refusal is raised in one place, only tumbug.gc_paused switches the
cyclic collector, the model methods that perfbench traces exist, no module
imports dataclasses, only values.fmt_num reads a repr, and the package
version is the project's."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import tumbug
from tumbug.model import Diagram

SRC = Path(tumbug.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"tumbug.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", sorted(tumbug._EXPORTS))
def test_package_exports_are_module_exports(name):
    module = importlib.import_module(f"tumbug.{name}")
    assert set(tumbug._EXPORTS[name]) - set(module.__all__) == set()


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_check_sees_an_unused_import():
    source = "import os\nimport re\nfrom math import pi, tau\n__all__ = ['tau']\nre.compile(pi)\n"
    tree = ast.parse(source)
    assert _unused_imports(tree) == ["os"]


MAX_LINE = 106  # the longest line in src/ when this check was added


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_line_is_wider_than_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, 1) if len(line) > MAX_LINE] == []


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from tumbug modules, at any depth."""
    return sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "tumbug")
        for alias in node.names
        if alias.name.startswith("_")
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    # Tables shared between modules are imported by their public names.
    assert _private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_private_import_check_sees_a_private_import():
    source = (
        "from .dsl import _CODEC, parse\n"
        "from os import _exit\n"
        "def f():\n"
        "    from tumbug.values import _height\n"
    )
    assert _private_imports(ast.parse(source)) == ["_CODEC", "_height"]


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every absolute import in tree, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    # The records are plain classes on tumbug.Record: importing dataclasses
    # (and inspect, ast and dis with it) and generating each record's methods
    # cost every cold CLI run about a fifth of its time.
    importers = [
        p.name
        for p in SRC.glob("*.py")
        if "dataclasses" in _imported_modules(ast.parse(p.read_text(encoding="utf-8")))
    ]
    assert importers == []


def test_dataclasses_check_sees_each_spelling():
    source = (
        "import dataclasses as dc\n"
        "from dataclasses import dataclass\n"
        "def f():\n"
        "    import dataclasses.field\n"
        "from . import dataclasses\n"
    )
    assert _imported_modules(ast.parse(source)) == {"dataclasses"}
    assert _imported_modules(ast.parse("from .dataclasses import x\nimport os\n")) == {"os"}


def test_version_is_the_project_version():
    # A regex, not tomllib: the project supports Pythons older than 3.11.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]*)"$', pyproject, re.MULTILINE) == [tumbug.__version__]


def test_only_the_package_spells_the_data_directory():
    # tumbug.DATA_DIR is the one spelling of where the shipped tables live.
    spellers = sorted(
        p.name for p in SRC.glob("*.py") if "Path(__file__)" in p.read_text(encoding="utf-8")
    )
    assert spellers == ["__init__.py"]


def _users(predicate) -> list[str]:
    """The modules of src/tumbug with an AST node that satisfies predicate."""
    return sorted(
        p.name
        for p in SRC.glob("*.py")
        if any(predicate(n) for n in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))
    )


def _calls(name: str):
    def predicate(node) -> bool:
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        return getattr(func, "id", None) == name or getattr(func, "attr", None) == name

    return predicate


def test_only_the_model_decides_who_hosts_attributes():
    # Diagram.host_problem is the one caller of can_host.
    assert _users(_calls("can_host")) == ["model.py"]


def test_render_takes_binding_literals_from_the_dsl():
    # dsl.binding_literals is the one owner of the bindings' order and text.
    assert "svg.py" not in _users(_calls("value_literal"))


def test_only_the_number_printer_calls_repr():
    # Equal values can have different reprs (-0.0 and 0.0, 1 and 1.0), so a
    # repr is no key to order or compare values by; values.fmt_num alone
    # reads one, for the shortest round-tripping decimal.
    assert _users(_calls("repr")) == ["values.py"]


def test_only_the_model_names_the_abstract_requirements():
    # KIND_FACTS says which kinds meet AnyBox and AnyMarker.
    names = {"AnyBox", "AnyMarker"}
    assert _users(lambda n: isinstance(n, ast.Constant) and n.value in names) == ["model.py"]


def _reads(name: str):
    def predicate(node) -> bool:
        return getattr(node, "id", None) == name or getattr(node, "attr", None) == name

    return predicate


def test_only_the_model_checks_ids():
    # The Diagram's writers and SlotSpec check every id; parse places what
    # they refuse instead of checking ids again.
    assert _users(_reads("ID_RE")) == ["model.py"]


def test_id_check_sees_a_stray_read():
    nodes = list(ast.walk(ast.parse("ID_RE.fullmatch(w)\nmodel.ID_RE.match(w)\nID = 1\n")))
    assert sum(map(_reads("ID_RE"), nodes)) == 2


def _escaped(tree: ast.AST) -> list[str]:
    """The source of each argument passed to _esc, sorted."""
    return sorted(
        ast.unparse(arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_esc"
        for arg in node.args
    )


def test_render_escapes_text_and_never_an_id():
    # The model holds every id to ID_RE, which has nothing to escape; render
    # escapes only an attribute line and a label, each once per render.
    tree = ast.parse((SRC / "svg.py").read_text(encoding="utf-8"))
    assert _escaped(tree) == ["label", "text"]


def test_escape_check_sees_an_id():
    tree = ast.parse("f'<g id={_esc(eid)}>'\n_esc(el.id)\nesc(x)\n")
    assert _escaped(tree) == ["eid", "el.id"]


def test_owner_checks_see_a_call_and_a_constant():
    tree = ast.parse("from x import m\nm.can_host(k)\nvalue_literal(v)\nA = 'AnyBox'\n")
    nodes = list(ast.walk(tree))
    assert any(map(_calls("can_host"), nodes)) and any(map(_calls("value_literal"), nodes))
    assert any(isinstance(n, ast.Constant) and n.value == "AnyBox" for n in nodes)


def _is_cached(node) -> bool:
    """Whether node is a function or class under functools.cache or lru_cache."""
    decorators = (getattr(d, "func", d) for d in getattr(node, "decorator_list", ()))
    return any(
        {getattr(d, "id", None), getattr(d, "attr", None)} & {"cache", "lru_cache"}
        for d in decorators
    )


def test_only_the_package_caches():
    # tumbug.read_table is the one cache of table reads, beside _tables_dir.
    assert _users(_is_cached) == ["__init__.py"]


def test_cache_check_sees_each_spelling():
    source = (
        "@functools.cache\ndef f(): pass\n"
        "@lru_cache(maxsize=2)\nclass G: pass\n"
        "@functools.wraps(f)\ndef h(): pass\n"
    )
    assert [n.name for n in ast.walk(ast.parse(source)) if _is_cached(n)] == ["f", "G"]


def _stray_data_dirs(tree: ast.Module) -> list[int]:
    """Lines where DATA_DIR appears other than as read_table's directory."""
    allowed = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _calls("read_table")(node) and node.args
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and "DATA_DIR" in (getattr(node, "id", None), getattr(node, "attr", None))
        and id(node) not in allowed
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_shipped_tables_are_read_through_read_table(path):
    # Each default table is read once per directory, by tumbug.read_table.
    assert _stray_data_dirs(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_data_dir_check_sees_a_stray_read():
    source = (
        "from . import DATA_DIR, read_table\n"
        "A = read_table(DATA_DIR, 'a.tbl', str)\n"
        "B = (DATA_DIR / 'b.tbl').read_text()\n"
        "C = read_table(tumbug.DATA_DIR, 'c.tbl', str)\n"
        "D = read_table(d, 'd.tbl', parse=tumbug.DATA_DIR)\n"
    )
    assert _stray_data_dirs(ast.parse(source)) == [3, 5]


def _scans(function: ast.AST, names=("edges", "bindings")) -> list[str]:
    """The listed diagram fields that a loop or comprehension in function
    iterates over."""
    return sorted(
        n.attr
        for node in ast.walk(function)
        if isinstance(node, (ast.For, ast.comprehension))
        for n in ast.walk(node.iter)
        if isinstance(n, ast.Attribute) and n.attr in names
    )


def test_queries_and_the_conflict_rule_read_the_model_indices():
    # Diagram.relationship_hops, binding_value and conflicting_bindings read
    # indices kept on each write; a scan here costs a pass over the diagram
    # per call.
    tree = ast.parse((SRC / "grammar.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    names = ("resolve_query", "_attribute_conflicts", "_attend_rings")
    assert {name: _scans(functions[name]) for name in names} == {name: [] for name in names}


def test_no_module_calls_the_scanning_queries():
    # Diagram.bindings_of and children_of scan; library code reads indices.
    assert _users(_calls("bindings_of")) == [] and _users(_calls("children_of")) == []


_DIAGRAM_STORAGE = {
    "_elements", "_containment", "_edges", "_groups", "_bindings", "_meta",
    "_first", "_conflicting", "_hops", "_misplaced",
}


def _storage_reads(tree: ast.AST) -> list[str]:
    """The Diagram's private containers and indices that tree reads or writes."""
    return sorted(
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in _DIAGRAM_STORAGE
    )


@pytest.mark.parametrize(
    "path",
    sorted(p for p in [*SRC.glob("*.py"), *TESTS.glob("*.py")] if p.name != "model.py"),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_only_the_model_touches_the_diagram_storage(path):
    # Diagram's writers keep its containers and indices; elsewhere every
    # container is a read-only view.
    assert _storage_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_storage_check_sees_a_read_and_a_write():
    source = "d._edges['e'] = e\nn = len(d._bindings)\n_hops = {}\nd.edges\n"
    assert _storage_reads(ast.parse(source)) == ["_bindings", "_edges"]


def test_the_traced_model_methods_exist():
    # perfbench's tracer wraps each of these by getattr, the scanning
    # queries bindings_of and children_of included, which no module calls.
    tracer = ast.parse((TESTS.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    methods = next(
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "MODEL_METHODS" for t in node.targets)
    )
    assert {"bindings_of", "children_of"} <= set(methods)
    assert [m for m in methods if not hasattr(Diagram, m)] == []


def test_scan_check_sees_a_loop_and_a_comprehension():
    source = (
        "def f(d):\n"
        "    for eid, edge in sorted(d.edges.items()):\n"
        "        pass\n"
        "    return [o for o, b in d.bindings if d.edges]\n"
    )
    assert _scans(ast.parse(source)) == ["bindings", "edges"]


def _codec_row_loops(tree: ast.AST) -> list[str]:
    """The functions ("<module>" at top level) with a loop or comprehension
    that unpacks a four-field codec row (key, attribute, encode, decode)."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if isinstance(node, (ast.For, ast.comprehension)):
            if isinstance(node.target, ast.Tuple) and len(node.target.elts) == 4:
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def test_one_codec_reads_and_writes_every_record_field():
    # dsl._CODEC holds payload and group rows alike: _decode reads them all
    # and _encode writes them all, so no second codec loop comes back.
    assert _codec_row_loops(ast.parse((SRC / "dsl.py").read_text(encoding="utf-8"))) == [
        "_decode",
        "_encode",
    ]


def test_codec_check_sees_a_stray_loop():
    source = (
        "def _encode(obj, rows):\n"
        "    for key, attribute, encode, _ in rows:\n"
        "        pass\n"
        "def serialize(d):\n"
        "    for key, _, encode, _ in ROWS:\n"
        "        for a, b, c in d:\n"
        "            pass\n"
        "KEYS = [key for key, _, _, _ in ROWS]\n"
    )
    assert _codec_row_loops(ast.parse(source)) == ["<module>", "_encode", "serialize"]


def _readers(tree: ast.Module, name: str) -> list[str]:
    """The top-level functions, and the names assigned by top-level
    assignments, whose code reads name."""
    found = set()
    for node in tree.body:
        if any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
               for n in ast.walk(node)):
            if isinstance(node, ast.FunctionDef):
                found.add(node.name)
            else:
                found |= {t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)}
    return sorted(found)


def test_dsl_spells_a_word_once_and_splits_lines_in_one_place():
    # _WORD is the lexical grammar of a word: _split reads lines and comments
    # with the two patterns built from it, and _locate finds a faulty word
    # among the same matches, so no second tokenizer comes back.
    tree = ast.parse((SRC / "dsl.py").read_text(encoding="utf-8"))
    assert {name: _readers(tree, name) for name in ("_WORD", "_WORD_RE", "_WORDS_RE")} == {
        "_WORD": ["_WORDS_RE", "_WORD_RE"],
        "_WORD_RE": ["_locate", "_split"],
        "_WORDS_RE": ["_split"],
    }


def test_reader_check_sees_a_third_pattern():
    source = (
        "_WORD = 'w'\n"
        "_WORD_RE = re.compile(_WORD)\n"
        "_WORDS_RE = re.compile(rf'(?:{_WORD}\\s*)*')\n"
        "_TOKEN_RE = re.compile(rf'(#)|({_WORD})')\n"
        "def _split(line):\n"
        "    return _WORD_RE.findall(line)\n"
    )
    tree = ast.parse(source)
    assert _readers(tree, "_WORD") == ["_TOKEN_RE", "_WORDS_RE", "_WORD_RE"]
    assert _readers(tree, "_WORD_RE") == ["_split"]


_TABLE_WRITES = ("setdefault", "update", "add")


def _module_table_writes(tree: ast.Module) -> list[tuple[str, str]]:
    """(function, name) for each module-level name that a function stores
    into by subscript, setdefault, update or add, where the function binds
    no name of its own of that spelling."""
    module_names = {
        t.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(t, ast.Name)
    }
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
        own |= {
            n.id for n in ast.walk(function) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        for node in ast.walk(function):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _TABLE_WRITES:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in module_names - own:
                found.add((function.name, target.id))
    return sorted(found)


def test_parse_tables_never_outlive_the_call():
    # What parse shares between equal words (bindings, split pair words)
    # lives in dicts local to the call: a module-level table would keep one
    # parse's words alive and grow with every text parsed.
    tree = ast.parse((SRC / "dsl.py").read_text(encoding="utf-8"))
    assert _module_table_writes(tree) == []


def test_table_write_check_sees_each_spelling():
    source = (
        "_SEEN = {}\n"
        "_KEYS: set = set()\n"
        "_ROWS = {}\n"
        "_ROWS['a'] = 1\n"
        "def store(word):\n"
        "    _SEEN[word] = 1\n"
        "    _SEEN.setdefault(word, 2)\n"
        "def grow(words):\n"
        "    _SEEN.update(words)\n"
        "    _KEYS.add(words[0])\n"
        "def local(word, _ROWS):\n"
        "    _SEEN = {}\n"
        "    _SEEN[word] = _ROWS[word] = 1\n"
        "    return _ROWS.get(word)\n"
    )
    assert _module_table_writes(ast.parse(source)) == [
        ("grow", "_KEYS"), ("grow", "_SEEN"), ("store", "_SEEN"),
    ]


def _raise_sites(tree: ast.AST, names: set[str]) -> list[tuple[str, str]]:
    """(function, exception) for each raise of an exception in names, the
    function dotted with its class ("<module>" at top level)."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = getattr(node.exc, "func", node.exc)
            name = getattr(exc, "id", None) or getattr(exc, "attr", None)
            if name in names:
                found.append((owner, name))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


_REFUSALS = {"IllegalAttributeHost", "ConflictingDuplicate"}


def test_each_attribute_refusal_is_raised_in_one_place():
    # Diagram.bind_attribute is the one checked writer of bindings; add_edge
    # binds nothing, so no second host or conflict check comes back.
    tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    assert _raise_sites(tree, _REFUSALS) == [
        ("Diagram.bind_attribute", "ConflictingDuplicate"),
        ("Diagram.bind_attribute", "IllegalAttributeHost"),
    ]


def test_raise_check_sees_a_second_raise():
    source = (
        "class Diagram:\n"
        "    def bind_attribute(self):\n"
        "        raise IllegalAttributeHost(problem)\n"
        "    def add_edge(self):\n"
        "        raise model.IllegalAttributeHost\n"
        "def _refuse_conflict():\n"
        "    raise ConflictingDuplicate('x') from None\n"
        "raise KeyError\n"
    )
    assert _raise_sites(ast.parse(source), _REFUSALS) == [
        ("Diagram.add_edge", "IllegalAttributeHost"),
        ("Diagram.bind_attribute", "IllegalAttributeHost"),
        ("_refuse_conflict", "ConflictingDuplicate"),
    ]


_COLLECTOR_SWITCHES = {"disable", "enable", "freeze", "unfreeze", "set_threshold"}


def _collector_switches(tree: ast.AST) -> list[tuple[str, str]]:
    """(function, switch) for each call of gc.disable, gc.enable, gc.freeze,
    gc.unfreeze or gc.set_threshold, by attribute or by a name imported from
    gc, the function dotted with its enclosing ones ("<module>" at top level)."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "gc":
            name = func.attr
        else:
            name = getattr(func, "id", None)
        if name in _COLLECTOR_SWITCHES:
            found.append((owner, name))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def _paused(node) -> bool:
    """Whether node is a function under tumbug.gc_paused."""
    return any(
        "gc_paused" in {getattr(d, "id", None), getattr(d, "attr", None)}
        for d in getattr(node, "decorator_list", ())
    )


def test_only_gc_paused_switches_the_collector():
    # Collector state is process-wide, so one decorator owns it, and only
    # parse and render, which build a scene's objects and free few, use it.
    switches = {
        p.name: _collector_switches(ast.parse(p.read_text(encoding="utf-8")))
        for p in SRC.glob("*.py")
    }
    assert {name: found for name, found in switches.items() if found} == {
        "__init__.py": [("gc_paused.paused", "disable"), ("gc_paused.paused", "enable")]
    }
    paused = sorted(
        (p.name, n.name)
        for p in SRC.glob("*.py")
        for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if _paused(n)
    )
    assert paused == [("dsl.py", "parse"), ("svg.py", "render")]


def test_collector_check_sees_a_stray_switch():
    source = (
        "import gc\n"
        "from gc import freeze\n"
        "def gc_paused(fn):\n"
        "    def paused():\n"
        "        gc.disable()\n"
        "    return paused\n"
        "class Renderer:\n"
        "    @tumbug.gc_paused\n"
        "    def draw(self):\n"
        "        gc.enable()\n"
        "freeze()\n"
        "logging.disable()\n"
    )
    tree = ast.parse(source)
    assert _collector_switches(tree) == [
        ("<module>", "freeze"),
        ("Renderer.draw", "enable"),
        ("gc_paused.paused", "disable"),
    ]
    assert [n.name for n in ast.walk(tree) if _paused(n)] == ["draw"]
