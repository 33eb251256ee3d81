"""tumbug benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload small-corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; tumbug is imported from ./src.  Every
workload is a closed loop with one client in one process.  Outputs are
checked against answers planted by perfbench/gen.py.  Metric lines go to
stdout, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import array
import collections
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from meter import SpeedMeter, pin_to_one_cpu
from workloads import SRC, WORKLOADS, CliCold, EditSession, SmallCorpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
CLI_REPEATS = 3


def load_tumbug():
    if not (SRC / "tumbug" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tumbug sources in {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import tumbug
    import tumbug.cli

    return tumbug


class Histogram:
    """Latencies in seconds on a fixed log scale: bucket k holds
    [LOW * RATIO**k, LOW * RATIO**(k+1)).  Its size is fixed, so the
    benchmark's bookkeeping does not grow with the requests a run completes
    (which would show in peak_rss_mib)."""

    LOW, RATIO = 1e-7, 1.001
    SIZE = int(math.log(1e3 / LOW) / math.log(RATIO)) + 1

    def __init__(self):
        self.counts = array.array("q", bytes(8 * self.SIZE))
        self.n = 0
        self.total = 0.0

    def add(self, seconds):
        k = int(math.log(max(seconds, self.LOW) / self.LOW) / math.log(self.RATIO))
        self.counts[min(k, self.SIZE - 1)] += 1
        self.n += 1
        self.total += seconds

    def merge(self, other):
        for k, c in enumerate(other.counts):
            if c:
                self.counts[k] += c
        self.n += other.n
        self.total += other.total
        return self

    def at_rank(self, rank):
        """The value of the sample at 0-based `rank` (fractional ranks
        interpolate), placed geometrically within its bucket."""
        seen = 0
        for k, c in enumerate(self.counts):
            if c and seen + c > rank:
                return self.LOW * self.RATIO ** (k + (rank - seen + 0.5) / c)
            seen += c
        raise ValueError("rank beyond the histogram")

    def median(self):
        return self.at_rank((self.n - 1) / 2)

    def mean(self):
        return self.total / self.n

    def tail(self):
        """Highest of p90/p99/p99.9 with at least ten samples beyond it, else
        the maximum; returns (seconds, percentile label, sample count)."""
        for pct in (99.9, 99.0, 90.0):
            if self.n * (1 - pct / 100) >= 10:
                return self.at_rank(min(self.n - 1, math.ceil(self.n * pct / 100) - 1)), \
                    f"p{pct:g}", self.n
        return self.at_rank(self.n - 1), "max", self.n


class Samples:
    """Requests of one closed loop: failures at once, and each latency
    calibrated and folded into its kind's histogram as soon as the speed
    meter has every reading its factor uses."""

    def __init__(self, meter):
        self.meter = meter
        self.attempted = 0
        self.failures: list[str] = []
        self.pending: collections.deque = collections.deque()
        self.by_kind: dict[str, Histogram] = {}
        self.raw_s = self.cal_s = 0.0

    def add(self, kind, t0, seconds, failure):
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{kind}: {failure}")
        self.pending.append((kind, t0, seconds))
        self._fold(self.meter.settled)

    def _fold(self, ready):
        pending, meter = self.pending, self.meter
        while pending and ready(pending[0][1], pending[0][1] + pending[0][2]):
            kind, t0, seconds = pending.popleft()
            scaled = seconds * meter.factor(t0, t0 + seconds)
            if kind not in self.by_kind:
                self.by_kind[kind] = Histogram()
            self.by_kind[kind].add(scaled)
            self.raw_s += seconds
            self.cal_s += scaled

    def finish(self):
        self._fold(lambda t0, t1: True)
        return self

    def p50_ms(self, weights):
        """Median latency per request kind, combined as a geometric mean
        weighted by each kind's share of one pass of the workload."""
        kinds = [k for k in weights if k in self.by_kind]
        logs = sum(weights[k] * math.log(self.by_kind[k].median() * 1e3) for k in kinds)
        return math.exp(logs / sum(weights[k] for k in kinds))

    def per_s(self, weights):
        """Requests per second of busy time, for the mix of one pass: the
        reciprocal of the kinds' mean latencies averaged with the pass's
        weights, so a run that stops mid-pass does not tilt the mix."""
        kinds = [k for k in weights if k in self.by_kind]
        mean_s = sum(weights[k] * self.by_kind[k].mean() for k in kinds)
        return sum(weights[k] for k in kinds) / mean_s

    def merged(self, kind=None):
        """The histogram of one kind, or of every kind for None."""
        out = Histogram()
        for k, h in self.by_kind.items():
            if kind in (None, k):
                out.merge(h)
        return out


def closed_loop(step, seconds, meter, min_steps=0, before=None):
    """Run step(i) back to back until `seconds` pass and `min_steps` ran."""
    samples = Samples(meter)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < min_steps:
        if before is not None:
            before(i)
        samples.add(*step(i))
        i += 1
    return samples.finish()


def setup_seconds(args, meter):
    """Median time from spawning a fresh interpreter until it has imported
    tumbug and built this workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        with meter.around_child() as t0, \
                subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            wall = time.perf_counter()
            line = proc.stdout.readline()
            seconds = time.perf_counter() - wall
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SystemExit(f"perfbench: set-up child failed with exit {proc.returncode}")
        times.append(seconds * meter.factor(t0, t0 + seconds))
    return statistics.median(times)


def cli_probe(meter):
    """Medians in ms of a bare interpreter start (raw wall time: the floor,
    and the meter's own reference for child processes) and of the
    cumulative `-X importtime` of tumbug.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp, imports = [], []
    for _ in range(CLI_REPEATS):
        with meter.around_child():
            wall = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True)
            interp.append((time.perf_counter() - wall) * 1e3)
        with meter.around_child() as start:
            done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tumbug.cli"],
                                  env=env, capture_output=True, text=True, check=True)
        factor = meter.factor(start, start)
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "tumbug.cli":
                imports.append(int(fields[1]) / 1e3 * factor)
    return statistics.median(interp), statistics.median(imports)


def run_untraced(wl, args, meter):
    closed_loop(wl.step, 0, meter, min_steps=wl.warmup)
    wl.restart()
    samples = closed_loop(wl.step, args.seconds, meter)
    samples.failures += [f for f in wl.final_checks() if f]
    if isinstance(wl, CliCold):
        rss_kib = wl.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_seconds(args, meter), "s"),
        "request_ms.p50": (samples.p50_ms(wl.weights), "ms"),
        "requests_per_s": (samples.per_s(wl.weights), "1/s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }
    return samples, metrics


def traced_pass(tb, wl, step, tr, meter):
    """Trace a restart and exactly one pass of the workload; returns the
    pass's samples and its mean speed factor."""
    tr.install(tb)
    t0 = meter.now()
    try:
        wl.restart()
        samples = closed_loop(step, 0, meter, min_steps=wl.pass_len,
                              before=lambda i: setattr(tr, "request", i))
    finally:
        tr.uninstall()
    return samples, meter.factor(t0, meter.now())


def cli_layers(meter, warm, cli_wl):
    """The cli.* figures: subprocess probes, the median of `warm` in-process
    cli.run samples, and the exit mismatches seen by `cli_wl`."""
    interp_ms, import_ms = cli_probe(meter)
    return {"cli.import_ms": import_ms, "cli.interp_ms": interp_ms,
            "cli.run_warm_ms": warm.merged().median() * 1e3,
            "cli.exit_mismatch": cli_wl.exit_mismatches}


PROBE_WHY = ("not reached by this workload; every per-layer metric needs a number on every "
             "workload, so these come from a fixed probe: one traced pass of a 150-request "
             "small corpus and of a 300-call edit session, and 40 warm cli.run calls with "
             "interpreter and import timings")


def probe_layers(tb, seed, workdir, meter, names, failures):
    """Measure the per-layer metrics `names`, which the traced workload does
    not reach, on small fixed instances of the other workloads."""
    out = {}
    library = [n for n in names if not n.startswith("cli.")]
    if library:
        tr = tracer.Tracer(meter.now)
        t0 = meter.now()
        for cls, sizes in ((SmallCorpus, {"n_docs": 60, "n_requests": 150}),
                           (EditSession, {"n_boxes": 10, "n_ops": 300, "save_every": 100})):
            mini = cls(tb, seed, workdir, **sizes)
            mini.measure(meter)
            failures += traced_pass(tb, mini, mini.step, tr, meter)[0].failures
        layers = tracer.layer_metrics(tr.spans, tr.counts, 0, meter.factor(t0, meter.now()))
        out.update((n, layers[n]) for n in library)
    if len(library) < len(names):
        (workdir / "probe").mkdir()
        cli_wl = CliCold(tb, seed, workdir / "probe", n_requests=40)
        cli_wl.measure(meter)
        closed_loop(cli_wl.warm_step, 0, meter, min_steps=cli_wl.warmup)
        warm = closed_loop(cli_wl.warm_step, 0, meter, min_steps=cli_wl.pass_len)
        failures += warm.failures
        out.update(cli_layers(meter, warm, cli_wl))
    return out


def run_traced(tb, wl, args, workdir, meter):
    """One traced pass, then the same workload untraced for the rest of the
    time (at least a quarter of it) as the base for the tracing overhead."""
    cli_cold = isinstance(wl, CliCold)
    step = wl.warm_step if cli_cold else wl.step
    closed_loop(step, 0, meter, min_steps=wl.warmup)
    wl.planted = {k: 0 for k in wl.planted}
    started = time.perf_counter()
    tr = tracer.Tracer(meter.now)
    traced, speed = traced_pass(tb, wl, step, tr, meter)
    layers = tracer.layer_metrics(tr.spans, tr.counts, wl.pass_len, speed)
    failures = list(traced.failures)
    for name, key in (("dsl.parse_errors", "parse_errors"),
                      ("grammar.validate.violations", "violations")):
        if layers[name] != wl.planted[key]:
            failures.append(f"{name} = {layers[name]}, planted {wl.planted[key]}")
    tr.write(WORK / f"trace-{args.workload}.tsv")
    wl.restart()
    rest = max(args.seconds - (time.perf_counter() - started), args.seconds / 4)
    plain = closed_loop(step, rest, meter)
    failures += plain.failures + [f for f in wl.final_checks() if f]
    value, pct, n = plain.merged().tail()
    layers.update({
        "request_ms.tail": value * 1e3,
        "trace.overhead_pct.request_ms.p50":
            (traced.p50_ms(wl.weights) / plain.p50_ms(wl.weights) - 1) * 100,
        "trace.overhead_pct.requests_per_s":
            (plain.per_s(wl.weights) / traced.per_s(wl.weights) - 1) * 100,
    })
    if cli_cold:
        layers.update(cli_layers(meter, plain, wl))
    probed = sorted(k for k in LAYER_UNITS if layers.get(k) is None)
    if probed:
        layers.update(probe_layers(tb, args.seed + 1, workdir, meter, probed, failures))
    detail = {"request_ms.tail": {"percentile": pct, "samples": n},
              "probed": {"metrics": probed, "why": PROBE_WHY}}
    return layers, detail, plain.attempted + traced.attempted, failures


# The workload-specific names for request kinds, printed beside the
# end-to-end metrics: (kind, name, scale, unit, with tail).
NAMED_KINDS = {
    "large-scene": [("verdict", "verdict_ms", 1e3, "ms", False), ("svg", "svg_ms", 1e3, "ms", False)],
    "small-corpus": [("validate", "verdict_ms", 1e3, "ms", True), ("render", "svg_ms", 1e3, "ms", True)],
    "edit-session": [("query", "query_us", 1e6, "us", True), ("save", "save_ms", 1e3, "ms", False)],
    "cli-cold": [(None, "cli_ms", 1e3, "ms", True)],
}


def named_metrics(workload, samples, weights):
    """The per-workload metric names: (name, value, unit, note)."""
    out = []
    for kind, name, scale, unit, with_tail in NAMED_KINDS[workload]:
        hist = samples.merged(kind)
        out.append((f"{name}.p50", hist.median() * scale, unit, f"n={hist.n}"))
        if with_tail:
            value, pct, n = hist.tail()
            out.append((f"{name}.tail", value * scale, unit, f"{pct} of n={n}"))
    if workload == "edit-session":
        out.append(("edits_per_s", samples.per_s(weights), "1/s", "saves included"))
    return out


# Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "dsl.parse.ms": "ms", "dsl.parse.self_ms": "ms", "dsl.parse.records_per_s": "1/s",
    "dsl.serialize.ms": "ms", "dsl.serialize.bytes": "bytes", "dsl.parse_errors": "count",
    "model.add_element.us": "us", "model.add_edge.us": "us", "model.contain.us": "us",
    "model.bind_attribute.us": "us", "model.in_parse_ms": "ms", "model.in_render_ms": "ms",
    **{f"model.{m}.calls_per_{p}": "count" for m in ("bindings_of", "binding_value", "children_of")
       for p in ("render", "validate", "query")},
    "model.bindings_of.calls_per_element": "count",
    "grammar.validate.ms": "ms", "grammar.validate.in_render_ms": "ms",
    "grammar.validate.violations": "count", "grammar.default_legality.calls_per_validate": "count",
    "grammar.resolve_query.us": "us", "grammar.resolve_query.count": "count",
    "grammar.resolve_query.binding_value_calls": "count",
    "grammar.resolve_query.hop_share": "ratio", "grammar.resolve_query.dk_share": "ratio",
    "svg.render.ms": "ms", "svg.render.self_ms": "ms", "svg.render.elements_per_s": "1/s",
    "svg.render.bytes": "bytes", "svg.fmt_num.calls": "count", "values.fmt_num.calls": "count",
    "values.evaluate_correlation.us": "us", "values.wildcard_matches.us": "us",
    "templates.build.us": "us", "templates.build.elements": "count", "heuristics.check.us": "us",
    "lexicon.select_word.us": "us", "lexicon.modal_concepts.us": "us",
    "cli.import_ms": "ms", "cli.interp_ms": "ms", "cli.run_warm_ms": "ms",
    "cli.exit_mismatch": "count", "request_ms.tail": "ms",
    "trace.overhead_pct.request_ms.p50": "%", "trace.overhead_pct.requests_per_s": "%",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    tb = load_tumbug()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](tb, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return
        pin_to_one_cpu()
        with SpeedMeter() as meter:
            wl.measure(meter)
            if args.trace:
                metrics, detail, attempted, failures = run_traced(tb, wl, args, workdir, meter)
            else:
                samples, metrics = run_untraced(wl, args, meter)
        if args.trace:
            metrics = {k: (metrics[k], unit) for k, unit in LAYER_UNITS.items()}
        else:
            attempted, failures = samples.attempted, samples.failures
            detail = {kind: {"p50_ms": hist.median() * 1e3, "n": hist.n}
                      for kind, hist in samples.by_kind.items()}
            detail["raw_wall_s"] = samples.raw_s
            detail["speed_factor"] = samples.cal_s / samples.raw_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    if not args.trace:
        for name, value, unit, note in named_metrics(args.workload, samples, wl.weights):
            print(f"{args.workload} {name} {value:.6g} {unit} {note}".rstrip())
    print("detail " + json.dumps(detail, sort_keys=True))
    for failure in failures[:20]:
        print("FAILED " + failure)
    failed = len(failures)
    print(f"{args.workload} error_share {failed / max(attempted, 1):.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
