"""Command-line front end.

Subcommands: validate, render, template, match, modal, heuristics,
classify, query, trace.  Exit status 0 = success, 1 = violations or missing
requirements found, 2 = usage, parse or any other error, reported as one line
on stderr.  Output is plain text, stable across runs, so fixtures double as
golden files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Only what every subcommand needs loads here; each _cmd_* imports the rest,
# so a run pays for the modules its subcommand uses and no others.
from . import dsl
from .dsl import ParseError
from .model import ModelError, StateDiagramGroup

__all__ = ["main", "run"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tumbug", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram file against the grammar")
    p.add_argument("file")
    p.add_argument("--legality", help="override legality table file")

    p = sub.add_parser("render", help="render a diagram file to SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--color", action="store_true")
    p.add_argument("--width", type=int, default=960)
    p.add_argument("--height", type=int, default=640)

    p = sub.add_parser("template", help="emit a canonical construction as DSL")
    p.add_argument("name")
    p.add_argument("--roles", nargs="*", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("match", help="rank lexicon words against a context vector")
    p.add_argument("--context", required=True)
    p.add_argument("--lexicon", required=True)

    p = sub.add_parser("modal", help="concepts switched on by a modal verb")
    p.add_argument("verb")
    p.add_argument("meaning")

    p = sub.add_parser("heuristics", help="required blocks for trigger tags")
    p.add_argument("--tags", required=True, help="comma list; tag:cue attaches a cue word")
    p.add_argument("file", nargs="?", help="diagram to check against the requirement")

    p = sub.add_parser("classify", help="SCOVA letter for a building-block kind")
    p.add_argument("kind")

    p = sub.add_parser("query", help="value of an attribute on an element")
    p.add_argument("file")
    p.add_argument("--owner", required=True)
    p.add_argument("--attr", required=True)

    p = sub.add_parser("trace", help="0D-marker execution trace of a flowchart diagram")
    p.add_argument("file")
    p.add_argument("--schedule", default="", help="e.g. iterations=2,take=S3")

    return parser


def _load_diagram(path: str):
    return dsl.parse(Path(path).read_bytes())


def _roles_dict(pairs: list[str]) -> dict[str, str]:
    roles = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"{pair!r} is not KEY=VALUE")
        roles[key] = value
    return roles


def _cmd_validate(args) -> int:
    from . import grammar

    d = _load_diagram(args.file)
    table = grammar.load_legality(args.legality) if args.legality else None
    violations = grammar.validate(d, table)
    for v in violations:
        print(v)
    return 1 if violations else 0


def render_svg(d, options):
    """svg.render under a name of this module: the render subcommand calls
    through it, so tests and perfbench's tracer can patch that one call.
    ``_cmd_render`` has already loaded svg; importing it here keeps it out
    of this module's own imports."""
    from .svg import render

    return render(d, options)


def _cmd_render(args) -> int:
    from .svg import InvalidDiagram, RenderOptions

    d = _load_diagram(args.file)
    options = RenderOptions(color=args.color, width=args.width, height=args.height)
    try:
        svg = render_svg(d, options)
    except InvalidDiagram as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 1
    Path(args.output).write_text(svg, encoding="utf-8")
    return 0


def _template_diagram(name: str, roles: dict[str, str]):
    from . import templates

    name = name.lower()
    acts = {a.value: a for a in templates.PrimitiveAct}
    patterns = {p.value: p for p in templates.BasicPattern}
    if name in acts:
        return templates.build_primitive(acts[name], **roles)
    if name in patterns:
        labels = [l for l in roles.get("labels", "").split(",") if l]
        return templates.build_pattern(patterns[name], *labels)
    if name == "aspect":
        spec = templates.AspectSpec(
            roles.get("tense", "past"),
            roles.get("aspect", "simple"),
            roles.get("continuation", "continues"),
        )
        return templates.build_aspect(spec, roles.get("actor", "actor"), roles.get("action", "act"))
    if name in ("barbara", "celarent", "darii"):
        terms = tuple(t for t in roles.get("terms", "").split(",") if t)
        if len(terms) != 3:
            raise templates.MissingRole("terms=a,b,c")
        steps = templates.build_syllogism(name, terms, roles.get("swap", "") == "true")
        step = roles.get("step", "3")
        if not (step.isdecimal() and 1 <= int(step) <= len(steps)):
            raise templates.MissingRole(f"step=1..{len(steps)}")
        return steps[int(step) - 1]
    if name == "arithmetic":
        inputs = [float(x) for x in roles.get("inputs", "").split(",") if x]
        return templates.build_arithmetic(roles.get("op", "+"), inputs)
    if name in ("sequential", "loop", "branch"):
        statements = [s for s in roles.get("statements", "").split(",") if s]
        schedule = {
            "body": [s for s in roles.get("body", "").split(",") if s],
            "iterations": int(roles.get("iterations", "1")),
            "then": [s for s in roles.get("then", "").split(",") if s],
            "else": [s for s in roles.get("else", "").split(",") if s],
            "take": roles.get("take", "then"),
        }
        return templates.draw_flowchart(name, statements, schedule)
    if name == "passive":
        return templates.build_passive(
            roles.get("action", "acted"), roles.get("object", "object"), roles.get("agent") or None
        )
    if name == "water":
        return templates.build_water_pour(
            float(roles.get("total", "100")), float(roles.get("cup", "25"))
        )
    raise templates.MissingRole(f"unknown template {name!r}")


def _cmd_template(args) -> int:
    diagram = _template_diagram(args.name, _roles_dict(args.roles))
    sys.stdout.write(dsl.serialize(diagram))
    return 0


def _cmd_match(args) -> int:
    from . import lexicon

    context_table = lexicon.load_table(args.context)
    if not context_table.rows:
        print("context table has no rows", file=sys.stderr)
        return 2
    context_lex = lexicon.Lexicon.from_table(context_table)
    context = next(iter(context_lex.entries.values()))
    lex = lexicon.Lexicon.from_table(lexicon.load_table(args.lexicon), Path(args.lexicon).stem)
    for ranked in lexicon.select_word(context, lex):
        tie = " tie" if ranked.tied else ""
        print(f"{ranked.word} {ranked.count}{tie}")
    return 0


def _cmd_modal(args) -> int:
    from . import lexicon

    table = lexicon.load_default_modal_table()
    concepts = lexicon.modal_concepts(table, args.verb, args.meaning)
    parts = sorted(concepts.active) + [f"({c})" for c in sorted(concepts.implied)]
    print(" ".join(parts) if parts else "-")
    return 0


def _cmd_heuristics(args) -> int:
    from . import heuristics

    triggers = []
    for item in args.tags.split(","):
        item = item.strip()
        if not item:
            continue
        tag_text, _, cue = item.partition(":")
        triggers.append(heuristics.Trigger(heuristics.TriggerTag(tag_text), cue or None))
    req = heuristics.requirements_for(triggers)
    print("mandatory: " + (",".join(sorted(req.mandatory)) or "-"))
    print("advisory: " + (",".join(sorted(req.advisory)) or "-"))
    if args.file:
        report = heuristics.check(_load_diagram(args.file), req)
        print("satisfied: " + (",".join(report.satisfied) or "-"))
        print("missing: " + (",".join(report.missing) or "-"))
        if report.advisory_missing:
            print("advisory-missing: " + ",".join(report.advisory_missing))
        return 0 if report.ok else 1
    return 0


def _cmd_classify(args) -> int:
    from . import grammar

    print(grammar.scova_classify(args.kind).value)
    return 0


def _cmd_query(args) -> int:
    from . import grammar

    d = _load_diagram(args.file)
    value = grammar.resolve_query(d, args.owner, args.attr)
    print(dsl.value_literal(value))
    return 0


def _cmd_trace(args) -> int:
    from .templates import run_trace

    d = _load_diagram(args.file)
    groups = [g for g in sorted(d.groups) if isinstance(d.groups[g], StateDiagramGroup)]
    if not groups:
        print("no state-diagram group in file", file=sys.stderr)
        return 2
    schedule = _roles_dict([item for item in args.schedule.split(",") if item])
    unknown = sorted(set(schedule) - {"iterations", "take"})
    if unknown:
        raise ValueError(f"unknown schedule key {unknown[0]!r}; expected iterations or take")
    iterations = int(schedule.get("iterations", "1"))
    print(" ".join(run_trace(d, d.groups[groups[0]], iterations, schedule.get("take"))))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "render": _cmd_render,
    "template": _cmd_template,
    "match": _cmd_match,
    "modal": _cmd_modal,
    "heuristics": _cmd_heuristics,
    "classify": _cmd_classify,
    "query": _cmd_query,
    "trace": _cmd_trace,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(_error_line(exc), file=sys.stderr)
        return 2


def _error_line(exc: Exception) -> str:
    """`error: <message>` for an error about the input; any other exception
    is a fault in tumbug itself, reported as `error: <Type>: <message>` in
    one line, never a traceback.  A KeyError is about the input only when it
    is one of tumbug's own (MissingRole, UnknownKind, UnknownModalRow, ...);
    a bare KeyError is a failed lookup in the code."""
    own_key_error = isinstance(exc, KeyError) and type(exc).__module__.startswith("tumbug.")
    if own_key_error or isinstance(exc, (ModelError, OSError, ValueError)):
        return f"error: {exc}"
    return f"error: {type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
