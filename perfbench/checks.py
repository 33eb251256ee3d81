"""Output checks: each compares what the program produced with what the
generator planted, and returns None when they agree or a one-line reason
when they do not.  A planted fault reported exactly as planted passes."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

_SVG_G = "{http://www.w3.org/2000/svg}g"
_PARSE_ERROR_LINE = re.compile(r"parse error: (\d+):")


def value_tuple(v):
    """A tumbug Value as the generator's tuple form (read by field, not by
    calling the program's formatters)."""
    name = type(v).__name__
    if name == "Text":
        return ("text", v.value)
    if name == "Scalar":
        return ("num", v.value, v.unit)
    if name == "Wildcard":
        return ("wild", v.name)
    if name == "ExistenceLevel":
        return ("exist", v.level)
    if name == "Range":
        return ("range", v.lo, v.hi, v.lo_inclusive, v.hi_inclusive)
    if name == "FuzzyLabel":
        return ("fuzzy", v.name, v.lo, v.peak, v.hi)
    return (name, v)


def violations(found, planted_codes) -> str | None:
    codes = sorted(v.code.value for v in found)
    if codes != sorted(planted_codes):
        return f"violations {codes} != planted {sorted(planted_codes)}"
    return None


def parse_error(exc, planted_line) -> str | None:
    if planted_line is None:
        return f"unexpected parse error: {exc}"
    if exc.span.line != planted_line:
        return f"parse error at line {exc.span.line}, planted at {planted_line}"
    return None


def svg(text: str, planted_ids) -> str | None:
    """Well-formed SVG with exactly one <g id=...> per element and edge."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    ids = sorted(g.get("id") for g in root.iter(_SVG_G) if g.get("id") is not None)
    if ids != sorted(planted_ids):
        missing = sorted(set(planted_ids) - set(ids))[:3]
        extra = sorted(set(ids) - set(planted_ids))[:3]
        return f"SVG group ids differ: {len(ids)} vs {len(planted_ids)} planted, " \
               f"missing {missing}, extra {extra}"
    return None


def equal(found, planted, what: str) -> str | None:
    if found != planted:
        return f"{what}: {str(found)[:80]!r} != planted {str(planted)[:80]!r}"
    return None


def first_words(text: str) -> list[str]:
    """The sorted first word of each line; a blank line reads as "" so that
    it differs from every planted code."""
    return sorted((line.split() or [""])[0] for line in text.splitlines())


def cli(req: dict, code: int, stdout: str, stderr: str, svg_text: str | None) -> str | None:
    """One CLI invocation against its planted exit code and output."""
    if "Traceback" in stderr:
        return f"{req['argv'][0]}: traceback on stderr"
    if code != req["exit"]:
        return f"{req['argv'][0]}: exit {code}, planted {req['exit']}"
    kind = req["kind"]
    if kind in ("validate", "render") and code == 2:
        m = _PARSE_ERROR_LINE.search(stderr)
        line = int(m.group(1)) if m else None
        return equal(line, req["error_line"], f"{kind} parse-error line")
    if kind == "validate":
        return equal(first_words(stdout), req["codes"], "validate codes")
    if kind == "render":
        if code == 1:
            return equal(first_words(stderr), req["codes"], "render refusal codes")
        return svg(svg_text or "", req["ids"])
    if kind == "heuristics":
        fields = {}
        for line in stdout.splitlines():
            key, sep, value = line.partition(": ")
            if not sep:
                return f"heuristics: unexpected line {line[:80]!r}"
            fields[key] = value
        return (equal(fields.get("mandatory"), ",".join(req["mandatory"]) or "-", "mandatory")
                or equal(fields.get("missing"), ",".join(req["missing"]) or "-", "missing"))
    return equal(stdout, req["stdout"], f"{kind} stdout")
