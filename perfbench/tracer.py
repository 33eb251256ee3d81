"""Span tracer for the traced run.

Wrappers are installed around the public calls into each tumbug layer, at
the names their callers look up, and removed afterwards.  Spans stay in
memory as [name, start, end, parent index, request id, info] and are written
out when the run ends; counters (fmt_num calls, default_legality builds) are
charged to the innermost open span.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

MODEL_METHODS = ("add_element", "add_edge", "contain", "add_group", "bind_attribute",
                 "bindings_of", "binding_value", "children_of", "elements_of_kind",
                 "edges_of_kind")
RENDER_MODEL_CALLS = {"model.bindings_of", "model.binding_value", "model.children_of",
                      "model.elements_of_kind", "model.edges_of_kind"}
QUERY_PARENTS = {"svg.render": "render", "grammar.validate": "validate",
                 "grammar.resolve_query": "query"}
BUILDERS = ("build_primitive", "build_pattern", "build_aspect", "build_syllogism",
            "build_arithmetic", "build_flowchart", "build_passive", "build_water_pour")


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[tuple[str | None, str], int] = {}
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, info=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                rec[5] = "raised"
                stack.pop()
                raise
            rec[2] = clock()
            stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (spans[stack[-1]][0] if stack else None, name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, tb) -> None:
        """Wrap the layer entry points of the tumbug package ``tb``."""
        dsl, grammar, svg, model = tb.dsl, tb.grammar, tb.svg, tb.model
        lines = lambda args, result: args[0].count("\n" if isinstance(args[0], str) else b"\n")
        self._patch(dsl, "parse", self._span(dsl.parse, "dsl.parse", lines))
        self._patch(dsl, "serialize", self._span(dsl.serialize, "dsl.serialize",
                                                 lambda a, r: len(r.encode("utf-8"))))
        n_found = lambda args, result: len(result)
        validate = self._span(grammar.validate, "grammar.validate", n_found)
        self._patch(grammar, "validate", validate)
        self._patch(svg, "validate", validate)
        self._patch(grammar, "default_legality",
                    self._counter(grammar.default_legality, "default_legality"))
        dk = tb.values.Wildcard.DK
        self._patch(grammar, "resolve_query", self._span(
            grammar.resolve_query, "grammar.resolve_query", lambda a, r: r is dk))
        render = self._span(svg.render, "svg.render",
                            lambda a, r: (len(a[0].elements), len(r.encode("utf-8"))))
        self._patch(svg, "render", render)
        self._patch(tb.cli, "render_svg", render)
        for module in (dsl, svg, tb.templates, tb.values):
            self._patch(module, "fmt_num", self._counter(module.fmt_num, "fmt_num"))
        for method in MODEL_METHODS:
            self._patch(model.Diagram, method,
                        self._span(getattr(model.Diagram, method), f"model.{method}"))
        self._patch(tb.values, "wildcard_matches",
                    self._span(tb.values.wildcard_matches, "values.wildcard_matches"))
        self._patch(model, "evaluate_correlation",
                    self._span(model.evaluate_correlation, "values.evaluate_correlation"))
        n_elements = lambda args, result: len(result.elements)
        for name in BUILDERS:
            self._patch(tb.templates, name,
                        self._span(getattr(tb.templates, name), "templates.build", n_elements))
        self._patch(tb.heuristics, "check", self._span(tb.heuristics.check, "heuristics.check"))
        for name in ("select_word", "modal_concepts"):
            self._patch(tb.lexicon, name,
                        self._span(getattr(tb.lexicon, name), f"lexicon.{name}"))
        self._patch(tb.cli, "run", self._span(tb.cli.run, "cli.run"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_s\tend_s\tparent\trequest\tinfo\n")
            for name, t0, t1, parent, req, info in self.spans:
                out.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{req}\t{info}\n")
            for (span, name), n in sorted(self.counts.items(), key=str):
                out.write(f"#count\t{span}\t{name}\t{n}\n")


# --------------------------------------------------------------------------
# Per-layer metrics from spans.


def _median(xs):
    return statistics.median(xs) if xs else None


def _nearest(spans, idx, names):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return parent
        parent = spans[parent][3]
    return None


def layer_metrics(spans, counts, first_requests: int, speed: float = 1.0) -> dict[str, float]:
    """Per-layer figures; exact counts cover requests below ``first_requests``
    (one pass of the workload), times cover every traced span and are
    multiplied by ``speed`` (reference seconds per measured second)."""
    by_name: dict[str, list[int]] = {}
    direct_model = [0.0] * len(spans)
    direct_validate = [0.0] * len(spans)

    def dur(i):
        return (spans[i][2] - spans[i][1]) * speed

    for i, (name, _, _, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0 and name.startswith("model."):
            direct_model[parent] += dur(i)
        if parent >= 0 and name == "grammar.validate":
            direct_validate[parent] += dur(i)

    def med(name, scale):
        values = [dur(i) * scale for i in by_name.get(name, ())]
        return _median(values)

    out: dict[str, float | None] = {}
    parses = by_name.get("dsl.parse", [])
    ok_parses = [i for i in parses if spans[i][5] != "raised"]
    out["dsl.parse.ms"] = med("dsl.parse", 1e3)
    out["dsl.parse.self_ms"] = _median([(dur(i) - direct_model[i]) * 1e3 for i in ok_parses])
    busy = sum(dur(i) for i in ok_parses)
    out["dsl.parse.records_per_s"] = sum(spans[i][5] for i in ok_parses) / busy if busy else None
    out["dsl.parse_errors"] = sum(1 for i in parses
                                  if spans[i][5] == "raised" and spans[i][4] < first_requests)
    out["model.in_parse_ms"] = _median([direct_model[i] * 1e3 for i in ok_parses])
    out["dsl.serialize.ms"] = med("dsl.serialize", 1e3)
    out["dsl.serialize.bytes"] = _median([spans[i][5] for i in by_name.get("dsl.serialize", ())])
    for method in ("add_element", "add_edge", "contain", "bind_attribute"):
        out[f"model.{method}.us"] = med(f"model.{method}", 1e6)

    renders = [i for i in by_name.get("svg.render", []) if spans[i][5] != "raised"]
    render_model = {}
    for name in RENDER_MODEL_CALLS:
        for i in by_name.get(name, ()):
            if spans[i][3] >= 0 and spans[spans[i][3]][0] == "svg.render":
                render_model[spans[i][3]] = render_model.get(spans[i][3], 0.0) + dur(i)
    out["model.in_render_ms"] = _median([render_model.get(i, 0.0) * 1e3 for i in renders])
    parents = {label: len(by_name.get(name, ())) for name, label in QUERY_PARENTS.items()}
    for method in ("bindings_of", "binding_value", "children_of"):
        per = {label: 0 for label in parents}
        for i in by_name.get(f"model.{method}", ()):
            p = _nearest(spans, i, QUERY_PARENTS)
            if p is not None:
                per[QUERY_PARENTS[spans[p][0]]] += 1
        for label, n in parents.items():
            out[f"model.{method}.calls_per_{label}"] = per[label] / n if n else None
        if method == "bindings_of":
            elements = sum(spans[i][5][0] for i in renders)
            out["model.bindings_of.calls_per_element"] = (
                per["render"] / elements if elements else None)

    validates = by_name.get("grammar.validate", [])
    out["grammar.validate.ms"] = med("grammar.validate", 1e3)
    out["grammar.validate.in_render_ms"] = _median(
        [dur(i) * 1e3 for i in validates if spans[i][3] >= 0 and spans[spans[i][3]][0] == "svg.render"])
    out["grammar.validate.violations"] = sum(
        spans[i][5] for i in validates if spans[i][5] != "raised" and spans[i][4] < first_requests)
    n_validate = len(validates)
    out["grammar.default_legality.calls_per_validate"] = (
        counts.get(("grammar.validate", "default_legality"), 0) / n_validate if n_validate else None)

    queries = by_name.get("grammar.resolve_query", [])
    out["grammar.resolve_query.us"] = med("grammar.resolve_query", 1e6)
    lookups = {i: 0 for i in queries}
    for i in by_name.get("model.binding_value", ()):
        p = _nearest(spans, i, {"grammar.resolve_query"})
        if p is not None:
            lookups[p] += 1
    n_q = len(queries)
    out["grammar.resolve_query.count"] = n_q or None
    out["grammar.resolve_query.binding_value_calls"] = sum(lookups.values()) / n_q if n_q else None
    out["grammar.resolve_query.hop_share"] = (
        sum(1 for i in queries if spans[i][5] is False and lookups[i] > 1) / n_q if n_q else None)
    out["grammar.resolve_query.dk_share"] = (
        sum(1 for i in queries if spans[i][5] is True) / n_q if n_q else None)

    out["svg.render.ms"] = med("svg.render", 1e3)
    out["svg.render.self_ms"] = _median(
        [(dur(i) - direct_validate[i] - direct_model[i]) * 1e3 for i in renders])
    busy = sum(dur(i) for i in renders)
    out["svg.render.elements_per_s"] = sum(spans[i][5][0] for i in renders) / busy if busy else None
    out["svg.render.bytes"] = _median([spans[i][5][1] for i in renders])
    out["svg.fmt_num.calls"] = (
        counts.get(("svg.render", "fmt_num"), 0) / len(renders) if renders else None)
    n_serialize = len(by_name.get("dsl.serialize", ()))
    out["values.fmt_num.calls"] = (
        counts.get(("dsl.serialize", "fmt_num"), 0) / n_serialize if n_serialize else None)
    out["values.evaluate_correlation.us"] = med("values.evaluate_correlation", 1e6)
    out["values.wildcard_matches.us"] = med("values.wildcard_matches", 1e6)
    out["templates.build.us"] = med("templates.build", 1e6)
    out["templates.build.elements"] = _median(
        [spans[i][5] for i in by_name.get("templates.build", ()) if spans[i][5] != "raised"])
    out["heuristics.check.us"] = med("heuristics.check", 1e6)
    out["lexicon.select_word.us"] = med("lexicon.select_word", 1e6)
    out["lexicon.modal_concepts.us"] = med("lexicon.modal_concepts", 1e6)
    return out
