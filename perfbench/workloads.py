"""The four workloads.  Each builds its inputs from gen.py at set-up and
checks every output against the generator's planted answers."""

from __future__ import annotations

import collections
import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen

SRC = Path(__file__).resolve().parent.parent / "src"


def to_value(tb, v):
    """A generator value tuple of the kinds edit-session uses, as a tumbug
    Value (an input for library calls)."""
    values = tb.values
    tag = v[0]
    if tag == "text":
        return values.Text(v[1])
    if tag == "num":
        return values.Scalar(v[1], v[2])
    if tag == "wild":
        return values.Wildcard[v[1]]
    return values.Range(*v[1:])


class Workload:
    """Base of the workloads.

    step(i) runs request i of the seeded stream (cycling) and returns
    (kind, start on `clock`, seconds spent in tumbug, failure or None).
    `pass_len` is the stream's length, `weights` counts each request kind in
    one pass, and `planted` counts the parse errors and violations that the
    requests below pass_len must produce.  While measuring, `meter` is the
    speed meter and `clock` its clock.
    """

    clock = staticmethod(time.perf_counter)
    meter = None
    warmup = 0

    def measure(self, meter):
        self.meter, self.clock = meter, meter.now

    def restart(self):
        """Start the next measured phase afresh."""

    def final_checks(self):
        return []


class LargeScene(Workload):
    """Text of one ~4,000-element diagram to a verdict or to SVG."""

    def __init__(self, tb, seed, workdir, **sizes):
        self.tb = tb
        data = gen.large_scene(seed, **sizes)
        self.text, self.ids = data["text"], data["ids"]
        self.pass_len = 2
        self.weights = {"verdict": 1, "svg": 1}
        self.first_svg = None
        self.planted = {"parse_errors": 0, "violations": 0}

    def step(self, i):
        dsl, tb = self.tb.dsl, self.tb
        t0 = self.clock()
        d = dsl.parse(self.text)
        if i % 2 == 0:
            found = tb.grammar.validate(d)
            elapsed = self.clock() - t0
            return "verdict", t0, elapsed, checks.violations(found, [])
        out = tb.svg.render(d)
        elapsed = self.clock() - t0
        if self.first_svg is None:
            self.first_svg = out
            return "svg", t0, elapsed, checks.svg(out, self.ids)
        return "svg", t0, elapsed, checks.equal(out, self.first_svg, "re-rendered SVG bytes")

    def final_checks(self):
        dsl = self.tb.dsl
        return [checks.equal(dsl.serialize(dsl.parse(self.text)), self.text,
                             "serialize(parse(t)) for the canonical scene")]


class SmallCorpus(Workload):
    """A seeded mix of library calls over ~1,000 small documents."""

    def __init__(self, tb, seed, workdir, **sizes):
        self.tb = tb
        data = gen.small_corpus(seed, **sizes)
        self.docs = data["docs"]
        self.requests = []
        for req in data["requests"]:
            if req[0] == "template":
                req = ("template", self._builder(req[1]), req[1]["text"])
            elif req[0] == "heuristics":
                tags, mandatory, missing = self.docs[req[1]]["heuristics"]
                triggers = []
                for t in tags:
                    tag, _, cue = t.partition(":")
                    triggers.append(tb.heuristics.Trigger(tb.heuristics.TriggerTag(tag), cue or None))
                req = ("heuristics", req[1], triggers, mandatory, missing)
            self.requests.append(req)
        self.pass_len = len(self.requests)
        self.weights = collections.Counter(req[0] for req in self.requests)
        self.warmup = 50
        self.svgs = {}
        self.planted = {"parse_errors": 0, "violations": 0}

    def _builder(self, t):
        templates, roles = self.tb.templates, t["roles"]
        if t["template"] == "arithmetic":
            inputs = [float(x) for x in roles["inputs"].split(",")]
            return lambda: templates.build_arithmetic(roles["op"], inputs)
        if t["template"] == "water":
            total, cup = float(roles["total"]), float(roles["cup"])
            return lambda: templates.build_water_pour(total, cup)
        return lambda: templates.build_passive(roles["action"], roles["object"], roles.get("agent"))

    def step(self, i):
        tb = self.tb
        req = self.requests[i % self.pass_len]
        kind = req[0]
        count = i < self.pass_len
        if kind in ("validate", "render"):
            doc = self.docs[req[1]]
            found = out = error = None
            t0 = self.clock()
            try:
                d = tb.dsl.parse(doc["text"])
                if kind == "validate":
                    found = tb.grammar.validate(d)
                else:
                    out = tb.svg.render(d)
            except tb.dsl.ParseError as exc:
                error = exc
            except tb.svg.InvalidDiagram as exc:
                found = exc.violations
            elapsed = self.clock() - t0
            if count:
                self.planted["parse_errors"] += doc["error_line"] is not None
                self.planted["violations"] += len(doc["codes"]) * (doc["error_line"] is None)
            if error is not None:
                return kind, t0, elapsed, checks.parse_error(error, doc["error_line"])
            if doc["error_line"] is not None:
                return kind, t0, elapsed, f"no parse error at planted line {doc['error_line']}"
            if out is None:
                return kind, t0, elapsed, checks.violations(found, doc["codes"])
            if doc["codes"]:
                return kind, t0, elapsed, f"render accepted a diagram with {doc['codes']}"
            first = self.svgs.setdefault(req[1], out)
            if first is not out:
                return kind, t0, elapsed, checks.equal(out, first, "re-rendered SVG bytes")
            return kind, t0, elapsed, checks.svg(out, doc["ids"])
        if kind == "template":
            t0 = self.clock()
            text = tb.dsl.serialize(req[1]())
            return kind, t0, self.clock() - t0, checks.equal(text, req[2], "template text")
        if kind == "query":
            doc = self.docs[req[1]]
            owner, attr, answer, _ = doc["queries"][req[2]]
            t0 = self.clock()
            value = tb.grammar.resolve_query(tb.dsl.parse(doc["text"]), owner, attr)
            elapsed = self.clock() - t0
            return kind, t0, elapsed, checks.equal(checks.value_tuple(value), answer, "query answer")
        if kind == "heuristics":
            _, index, triggers, mandatory, missing = req
            t0 = self.clock()
            d = tb.dsl.parse(self.docs[index]["text"])
            need = tb.heuristics.requirements_for(triggers)
            report = tb.heuristics.check(d, need)
            elapsed = self.clock() - t0
            return kind, t0, elapsed, (checks.equal(sorted(need.mandatory), mandatory, "mandatory")
                                   or checks.equal(list(report.missing), missing, "missing"))
        lexicon = tb.lexicon
        if kind == "modal":
            t0 = self.clock()
            concepts = lexicon.modal_concepts(lexicon.load_default_modal_table(), req[1], req[2])
            elapsed = self.clock() - t0
            shown = " ".join(sorted(concepts.active) + [f"({c})" for c in sorted(concepts.implied)])
            return kind, t0, elapsed, checks.equal(shown, req[3], "modal concepts")
        m = req[1]
        t0 = self.clock()
        context_lex = lexicon.Lexicon.from_table(lexicon.load_table_text(m["context"]))
        context = next(iter(context_lex.entries.values()))
        lex = lexicon.Lexicon.from_table(lexicon.load_table_text(m["lexicon"]))
        ranked = lexicon.select_word(context, lex)
        elapsed = self.clock() - t0
        shown = [f"{r.word} {r.count}{' tie' if r.tied else ''}" for r in ranked]
        return kind, t0, elapsed, checks.equal(shown, m["expected"], "match ranking")

    def restart(self):
        self.svgs.clear()

    def final_checks(self):
        dsl = self.tb.dsl
        texts = [d["text"] for d in self.docs if d["canonical"]][:200]
        return [checks.equal(dsl.serialize(dsl.parse(t)), t, "serialize(parse(t))") for t in texts]


class EditSession(Workload):
    """A stream of reads and writes against one live, growing diagram."""

    def __init__(self, tb, seed, workdir, **sizes):
        self.tb = tb
        data = gen.edit_session(seed, **sizes)
        self.base_text, self.final_text = data["base_text"], data["final_text"]
        self.ops = []
        for op in data["ops"]:
            if op[0] == "bind":
                op = ("bind", op[1], tb.model.AttributeBinding(op[2], to_value(tb, op[3])), op[4])
            elif op[0] == "wildcard":  # matched against the previous query's answer
                op = ("wildcard", to_value(tb, op[1]), op[3])
            self.ops.append(op)
        self.pass_len = len(self.ops)
        self.weights = collections.Counter(op[0] for op in self.ops)
        self.checked = False
        self.failures_at_end = []
        self.planted = {"parse_errors": 0, "violations": 0}
        self.d = tb.dsl.parse(self.base_text)
        self.applied = 0
        self.last = None

    def restart(self):
        """End the session (checking the first complete one) and re-parse."""
        dsl = self.tb.dsl
        if self.applied == self.pass_len and not self.checked:
            text = dsl.serialize(self.d)
            self.failures_at_end += [checks.equal(text, self.final_text, "session text"),
                                     checks.equal(dsl.parse(text) == self.d, True,
                                                  "parse(serialize(d)) == d")]
            self.checked = True
        self.d = dsl.parse(self.base_text)
        self.applied = 0
        self.last = None

    def step(self, i):
        if self.applied == self.pass_len:
            self.restart()
        tb, d = self.tb, self.d
        op = self.ops[self.applied]
        self.applied += 1
        kind = op[0]
        t0 = self.clock()
        if kind == "add_element":
            _, eid, label, box = op
            el = tb.model.Element(kind=tb.model.Kind.PHYSICAL_OBJECT_CIRCLE,
                                  payload=tb.model.GenericPayload(label=label), id=eid)
            got = d.add_element(el, parent=box)
            return kind, t0, self.clock() - t0, checks.equal(got, eid, "added element id")
        if kind == "bind":
            _, owner, binding, conflict = op
            try:
                d.bind_attribute(owner, binding)
                raised = False
            except tb.model.ConflictingDuplicate:
                raised = True
            return kind, t0, self.clock() - t0, checks.equal(raised, conflict, "rebind conflict")
        if kind == "add_edge":
            _, eid, edge_kind, src, dst = op
            got = d.add_edge(tb.model.Edge(kind=tb.model.EdgeKind(edge_kind), source=src,
                                           target=dst, id=eid))
            return kind, t0, self.clock() - t0, checks.equal(got, eid, "added edge id")
        if kind == "contain":
            d.contain(op[1], op[2])
            return kind, t0, self.clock() - t0, None
        if kind == "query":
            _, owner, attr, answer, how = op
            value = tb.grammar.resolve_query(d, owner, attr)
            elapsed = self.clock() - t0
            self.last = None if how == "dk" else value
            return kind, t0, elapsed, checks.equal(checks.value_tuple(value), answer, "query answer")
        if kind == "wildcard":
            _, pattern, expected = op
            got = tb.values.wildcard_matches(pattern, self.last)
            elapsed = self.clock() - t0
            return kind, t0, elapsed, checks.equal(got.value, expected, "wildcard match")
        if kind == "correlate":
            _, cid, bound, free, expected = op
            got = tb.model.evaluate_correlation(d.elements[cid].payload, bound, free)
            return kind, t0, self.clock() - t0, checks.equal(got, expected, "correlation")
        found = tb.grammar.validate(d)
        text = tb.dsl.serialize(d)
        elapsed = self.clock() - t0
        return "save", t0, elapsed, (checks.violations(found, [])
                                 or checks.equal(text, op[1], "saved text"))

    def final_checks(self):
        if not self.checked:
            dsl = self.tb.dsl
            self.failures_at_end.append(checks.equal(dsl.parse(dsl.serialize(self.d)) == self.d,
                                                     True, "parse(serialize(d)) == d"))
        return self.failures_at_end


class CliCold(Workload):
    """One `python -m tumbug.cli` subprocess per request, on small files."""

    def __init__(self, tb, seed, workdir, **sizes):
        self.tb = tb
        data = gen.cli_cold(seed, **sizes)
        self.workdir = workdir
        for name, text in data["files"].items():
            (workdir / name).write_text(text, encoding="utf-8")
        self.requests = data["requests"]
        self.pass_len = len(self.requests)
        self.weights = collections.Counter(req["kind"] for req in self.requests)
        self.warmup = 3
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.child_rss_kib = 0
        self.planted = {"parse_errors": 0, "violations": 0}
        self.exit_mismatches = 0

    def _svg(self, req, code):
        if req["kind"] == "render" and code == 0:
            return (self.workdir / "out.svg").read_text(encoding="utf-8")
        return None

    def _count(self, req, i):
        if i < self.pass_len and req["kind"] in ("validate", "render"):
            self.planted["parse_errors"] += req["error_line"] is not None
            self.planted["violations"] += len(req["codes"]) * (req["error_line"] is None)

    def step(self, i):
        req = self.requests[i % self.pass_len]
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err, \
                self.meter.around_child() as t0:
            wall = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "tumbug.cli", *req["argv"]],
                                    cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - wall
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.child_rss_kib = max(self.child_rss_kib, usage.ru_maxrss)
        stdout = out_path.read_text(encoding="utf-8")
        stderr = err_path.read_text(encoding="utf-8")
        return req["kind"], t0, elapsed, self._check(req, code, stdout, stderr)

    def warm_step(self, i):
        """The same argv through in-process cli.run (cwd is the work dir)."""
        req = self.requests[i % self.pass_len]
        self._count(req, i)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            t0 = self.clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.tb.cli.run(list(req["argv"]))
            elapsed = self.clock() - t0
        finally:
            os.chdir(cwd)
        return req["kind"], t0, elapsed, self._check(req, code, out.getvalue(), err.getvalue())

    def _check(self, req, code, stdout, stderr):
        self.exit_mismatches += code != req["exit"] or "Traceback" in stderr
        return checks.cli(req, code, stdout, stderr, self._svg(req, code))


WORKLOADS = {"large-scene": LargeScene, "small-corpus": SmallCorpus,
             "edit-session": EditSession, "cli-cold": CliCold}
