"""The committed benchmark records (``BENCH_*.json`` at the repo root) are
read against ``BENCHMARK.json``: each names only declared workloads, and each
end-to-end metric carries parent and change quartiles and a win count."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_the_benchmark(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["workloads"], "no workloads"
    for workload, metrics in record["workloads"].items():
        assert workload in WORKLOADS, f"{workload} is not a workload of BENCHMARK.json"
        for name in END_TO_END:
            entry = metrics[name]
            for side in ("parent", "change"):
                q = entry[side]
                assert all(isinstance(q[k], (int, float)) for k in ("q1", "median", "q3"))
                assert q["q1"] <= q["median"] <= q["q3"], f"{workload} {name} {side}"
            wins = re.fullmatch(r"(\d+)/(\d+)", entry["change_wins"])
            assert wins, f"{workload} {name} change_wins {entry['change_wins']!r}"
            k, n = map(int, wins.groups())
            assert k <= n and n >= 10, f"{workload} {name} change_wins {k}/{n}"
