"""The committed benchmark records: each ``BENCH_*.json`` at the repository
root holds, for every workload of ``BENCHMARK.json``, the runs of both
sides of a comparison, with every end-to-end metric in each run and in
the medians."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_benchmark_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_benchmark_record_holds_both_sides_of_every_end_to_end_metric(path):
    record = json.loads(path.read_text())
    for key in ("command", "nproc", "python", "seed", "seconds"):
        assert key in record, key
    metrics = [m["name"] for m in BENCHMARK["end_to_end"]]
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        sides = record["workloads"][workload]
        for side in ("parent", "change"):
            runs, median = sides[side]["runs"], sides[side]["median"]
            assert runs, (workload, side)
            for name in metrics:
                assert all(isinstance(run["metrics"][name]["value"], (int, float)) for run in runs), name
                assert isinstance(median[name], (int, float)), name
