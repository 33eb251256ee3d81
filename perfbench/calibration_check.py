"""Checks that the speed meter's calibration passes a change to tumbug
through at its full size.

    python3 perfbench/calibration_check.py --seed 1 --rounds 12

Run from the root of a checkout.  In one pinned process it runs passes of
the small-corpus workload, interleaving three variants round by round so
that they share the host's drift:

  base       tumbug as it is;
  slowed     dsl.parse preceded by a fixed amount of interpreted work;
  footprint  dsl.parse preceded by allocating and writing every cache line
             of a few MB (a larger working set, the same code path).

Each pass is timed twice: in meter-clock seconds (raw) and calibrated.  For
each variant against base it prints the median over rounds of the ratio of
request_ms.p50 raw and calibrated, and of the run's mean speed factor.  A
neutral calibration gives equal raw and calibrated ratios, so that their
quotient ("kept") is 1, and a factor ratio of 1.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run
from meter import SpeedMeter, pin_to_one_cpu
from workloads import SmallCorpus

SPIN = 3000          # loop iterations added to each dsl.parse call
FOOTPRINT = 4 << 20  # bytes written before each dsl.parse call


class Unscaled:
    """A stand-in meter whose factor is 1: Samples then keep raw times."""

    def settled(self, t0, t1):
        return True

    def factor(self, t0, t1):
        return 1.0


def slowed(parse):
    def wrapper(*args, **kwargs):
        total = 0
        for i in range(SPIN):
            total += i
        return parse(*args, **kwargs)
    return wrapper


def footprint(parse):
    def wrapper(*args, **kwargs):
        buf = bytearray(FOOTPRINT)
        buf[::64] = b"\1" * (FOOTPRINT // 64)
        return parse(*args, **kwargs)
    return wrapper


def one_pass(wl, meter):
    cal, raw = run.Samples(meter), run.Samples(Unscaled())
    wl.restart()
    for i in range(wl.pass_len):
        result = wl.step(i)
        cal.add(*result)
        raw.add(*result)
    cal.finish()
    raw.finish()
    return cal.p50_ms(wl.weights), raw.p50_ms(wl.weights), cal.cal_s / cal.raw_s, cal.failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args()

    tb = run.load_tumbug()
    run.WORK.mkdir(exist_ok=True)
    wl = SmallCorpus(tb, args.seed, run.WORK)
    original = tb.dsl.parse
    variants = {"base": original, "slowed": slowed(original), "footprint": footprint(original)}
    results = {name: [] for name in variants}
    failures = []
    pin_to_one_cpu()
    with SpeedMeter() as meter:
        wl.measure(meter)
        run.closed_loop(wl.step, 0, meter, min_steps=wl.pass_len)
        try:
            for _ in range(args.rounds):
                for name, parse in variants.items():
                    tb.dsl.parse = parse
                    *figures, failed = one_pass(wl, meter)
                    results[name].append(figures)
                    failures += failed
        finally:
            tb.dsl.parse = original

    print(f"{'variant':10} {'raw ratio':>10} {'cal ratio':>10} {'kept':>7} {'factor ratio':>13}")
    for name in ("slowed", "footprint"):
        pairs = list(zip(results[name], results["base"]))
        raw = statistics.median(v[1] / b[1] for v, b in pairs)
        cal = statistics.median(v[0] / b[0] for v, b in pairs)
        kept = statistics.median((v[0] / b[0]) / (v[1] / b[1]) for v, b in pairs)
        fac = statistics.median(v[2] / b[2] for v, b in pairs)
        print(f"{name:10} {raw:10.4f} {cal:10.4f} {kept:7.4f} {fac:13.4f}")
    base = results["base"]
    print(f"base: request_ms.p50 {statistics.median(b[0] for b in base):.4g} calibrated, "
          f"{statistics.median(b[1] for b in base):.4g} raw, "
          f"factor {statistics.median(b[2] for b in base):.4f}; failures {len(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
