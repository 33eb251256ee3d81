"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They check that the generator is deterministic, that every output check
rejects a corrupted output, and that tracing changes no output.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

import pytest

import checks
import gen
import tracer
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import tumbug  # noqa: E402
import tumbug.cli  # noqa: E402
from tumbug import dsl, grammar, svg  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def corpus():
    return gen.small_corpus(SEED, n_docs=150, n_requests=300)


def first(docs, pred):
    return next(d for d in docs if pred(d))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert gen.generate(workload, SEED) == gen.generate(workload, SEED)
    assert gen.generate(workload, SEED) != gen.generate(workload, SEED + 1)


def test_generator_does_not_import_tumbug():
    source = Path(gen.__file__).read_text(encoding="utf-8")
    assert not re.search(r"^\s*(import|from)\s+tumbug", source, re.M)


def test_violation_check_catches_a_dropped_violation(corpus):
    doc = first(corpus["docs"], lambda d: d["codes"] and d["error_line"] is None)
    found = grammar.validate(dsl.parse(doc["text"]))
    assert checks.violations(found, doc["codes"]) is None
    assert checks.violations(found[:-1], doc["codes"]) is not None


def test_parse_error_check_catches_a_wrong_line(corpus):
    doc = first(corpus["docs"], lambda d: d["error_line"] is not None)
    with pytest.raises(dsl.ParseError) as info:
        dsl.parse(doc["text"])
    assert checks.parse_error(info.value, doc["error_line"]) is None
    assert checks.parse_error(info.value, doc["error_line"] + 1) is not None
    assert checks.parse_error(info.value, None) is not None


def test_svg_check_catches_a_missing_id(corpus):
    doc = first(corpus["docs"], lambda d: not d["codes"] and d["error_line"] is None
                and len(d["ids"]) > 3)
    out = svg.render(dsl.parse(doc["text"]))
    assert checks.svg(out, doc["ids"]) is None
    dropped = out.replace(f'<g id="{doc["ids"][0]}"', "<g", 1)
    assert checks.svg(dropped, doc["ids"]) is not None
    assert checks.svg(out.replace("</svg>", ""), doc["ids"]) is not None


def test_canonical_text_round_trips(corpus):
    for doc in corpus["docs"]:
        if doc["canonical"]:
            assert dsl.serialize(dsl.parse(doc["text"])) == doc["text"]


def test_cli_check_catches_a_wrong_exit_code_and_a_traceback():
    req = {"kind": "modal", "argv": ["modal", "can", "permission"], "exit": 0,
           "stdout": "Permission Request\n"}
    assert checks.cli(req, 0, "Permission Request\n", "", None) is None
    assert checks.cli(req, 1, "Permission Request\n", "", None) is not None
    assert checks.cli(req, 0, "Permission\n", "", None) is not None
    assert checks.cli(req, 0, "Permission Request\n", "Traceback (most recent call last):",
                      None) is not None
    req = {"kind": "validate", "argv": ["validate", "f.tb"], "exit": 1,
           "codes": ["XOR_TOO_FEW"], "error_line": None}
    assert checks.cli(req, 1, "XOR_TOO_FEW x1 message\n", "", None) is None
    assert checks.cli(req, 1, "", "", None) is not None
    assert checks.cli(req, 1, "XOR_TOO_FEW x1 message\n\n", "", None) is not None
    req = {"kind": "heuristics", "argv": ["heuristics", "f.tb"], "exit": 0,
           "mandatory": ["VALUE"], "missing": []}
    assert checks.cli(req, 0, "mandatory: VALUE\nmissing: -\n", "", None) is None
    assert checks.cli(req, 0, "mandatory: VALUE\nmissing -\n", "", None) is not None


@pytest.mark.parametrize("name", ["large-scene", "small-corpus", "edit-session", "cli-cold"])
def test_one_pass_of_each_workload_has_no_failures(name, tmp_path):
    small = {"large-scene": {"n_agg": 20, "n_xor": 5, "chains": 6, "n_solitary": 10},
             "small-corpus": {"n_docs": 80, "n_requests": 200},
             "edit-session": {"n_boxes": 12, "n_ops": 400, "save_every": 100},
             "cli-cold": {"n_requests": 40}}[name]
    wl = workloads.WORKLOADS[name](tumbug, SEED, tmp_path, **small)
    step = wl.warm_step if name == "cli-cold" else wl.step
    results = [step(i) for i in range(wl.pass_len + 1)]
    wl.restart()
    failures = [r[-1] for r in results if r[-1]] + [f for f in wl.final_checks() if f]
    assert failures == []


def test_value_and_query_checks_compare_planted_answers(corpus):
    doc = first(corpus["docs"], lambda d: d.get("queries"))
    owner, attr, answer, _ = doc["queries"][0]
    value = grammar.resolve_query(dsl.parse(doc["text"]), owner, attr)
    assert checks.equal(checks.value_tuple(value), answer, "query") is None
    assert checks.equal(checks.value_tuple(value), ("text", "not planted"), "query") is not None


def outputs(docs):
    out = []
    for doc in docs:
        try:
            d = dsl.parse(doc["text"])
        except dsl.ParseError as exc:
            out.append(str(exc))
            continue
        out.append([str(v) for v in grammar.validate(d)])
        out.append(dsl.serialize(d))
        try:
            out.append(svg.render(d))
        except svg.InvalidDiagram as exc:
            out.append(len(exc.violations))
    return out


def test_traced_and_untraced_runs_give_identical_outputs(corpus):
    docs = corpus["docs"][:80]
    originals = (dsl.parse, grammar.validate, svg.validate, tumbug.model.Diagram.add_element,
                 tumbug.cli.render_svg, tumbug.values.fmt_num)
    plain = outputs(docs)
    tr = tracer.Tracer()
    tr.install(tumbug)
    try:
        traced = outputs(docs)
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.spans and tr.counts
    assert originals == (dsl.parse, grammar.validate, svg.validate,
                         tumbug.model.Diagram.add_element, tumbug.cli.render_svg,
                         tumbug.values.fmt_num)


def test_layer_metrics_count_planted_faults(corpus):
    docs = [d for d in corpus["docs"] if d["error_line"] is None][:60]
    tr = tracer.Tracer()
    tr.install(tumbug)
    try:
        for i, doc in enumerate(docs):
            tr.request = i
            grammar.validate(dsl.parse(doc["text"]))
    finally:
        tr.uninstall()
    layers = tracer.layer_metrics(tr.spans, tr.counts, len(docs))
    assert layers["grammar.validate.violations"] == sum(len(d["codes"]) for d in docs)
    assert layers["dsl.parse_errors"] == 0
    assert layers["grammar.default_legality.calls_per_validate"] == 1


def test_histogram_median_and_tail_match_exact_ranks():
    import random
    import run

    rng = random.Random(SEED)
    xs = [rng.lognormvariate(-9, 1) for _ in range(5001)]
    hist = run.Histogram()
    for x in xs:
        hist.add(x)
    xs.sort()
    assert hist.n == len(xs) and hist.mean() == pytest.approx(sum(xs) / len(xs))
    assert hist.median() == pytest.approx(xs[2500], rel=2e-3)
    value, pct, n = hist.tail()
    assert (pct, n) == ("p99", 5001)
    assert value == pytest.approx(xs[math.ceil(5001 * 0.99) - 1], rel=2e-3)
    assert len(hist.counts) == run.Histogram.SIZE  # fixed, however many samples
