"""Tests of the benchmark itself, on the k <= 4 smoke pipelines.

Run from the repository root: python3 -m pytest -q bench
"""

import os
import sys
from array import array
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_smoke_traced_run_passes_every_check(name, tmp_path):
    wl = workloads.SMOKE[name]
    reference = run.reference_hashes(wl, smoke=True)
    expected = reference[run._seed_key(run.run_seed(wl, run.DEFAULT_SEED, 0, True))]
    measured = run.measure(wl, run.DEFAULT_SEED, 0, True, reference, work=str(tmp_path))
    runs = measured["runs"]
    assert [r["trace"] for r in runs] == [False, True, True]
    assert run.failed_runs(runs) == []
    # Traced artifacts equal the untraced ones and the recorded reference.
    assert runs[0]["hashes"] == runs[1]["hashes"] == runs[2]["hashes"]
    assert runs[0]["hashes"] == expected
    spec = {"per_layer": [{"name": k, "unit": "x"} for k in runs[1]["layers"]]}
    metrics, _ = run.metrics_of(measured, True, spec)
    assert metrics["cli.self_s"]["value"] > 0


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.DEFAULT_SEED + 1])
def test_one_corrupted_byte_counts_as_a_failure(seed, tmp_path):
    wl = workloads.SMOKE["sidon-k7"]
    clean = run.run_pipeline(wl, seed, str(tmp_path), trace=False)
    assert clean["problems"] == []
    path = os.path.join(str(tmp_path), "artifacts", "elements.jsonl")
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        i = data.index(b'"a":"') + 5  # first digit of the first element's value
        data[i] = ord("2") if data[i] != ord("2") else ord("3")
        fh.seek(0)
        fh.write(data)
    hashes, problems = run.check_artifacts(wl, os.path.join(str(tmp_path), "artifacts"))
    corrupt = {"trace": False, "seed": seed, "problems": problems, "hashes": hashes}
    runs = [clean, corrupt]
    run.judge_runs(runs, run.reference_hashes(wl, smoke=True))
    assert run.failed_runs(runs) == [corrupt]


def test_untraced_runs_cycle_through_recorded_seeds(tmp_path):
    for wl in workloads.SMOKE.values():
        seeds = [run.run_seed(wl, run.DEFAULT_SEED, i, False) for i in range(2 * run.RUN_SEEDS)]
        assert len(set(seeds)) == (run.RUN_SEEDS if wl.uses_seed else 1)
        assert {run._seed_key(s) for s in seeds} <= set(run.reference_hashes(wl, smoke=True))
    wl = workloads.SMOKE["sidon-k7"]
    measured = run.measure(wl, run.DEFAULT_SEED, 0, False, run.reference_hashes(wl, smoke=True),
                           work=str(tmp_path))
    (only,) = measured["runs"]
    assert only["problems"] == [] and only["seed"] == run.DEFAULT_SEED * run.RUN_SEEDS


def test_self_time_subtracts_child_spans():
    names = ["cli.main", "generator.generate_blocks", "arith.discrete_log"]
    # main 0..10 > generate_blocks 1..7 > discrete_log 2..5
    metrics = spans.layer_metrics(names, array("i", [0, 1, 2]), array("i", [-1, 0, 1]),
                                  array("d", [0, 1, 2]), array("d", [10, 7, 5]),
                                  Counter({"generator.elements": 3}))
    assert metrics["cli.self_s"] == 4
    assert metrics["generator.self_s"] == 3
    assert metrics["arith.self_s"] == metrics["arith.dlog_s"] == 3
    assert metrics["arith.dlog_calls"] == 1
    assert metrics["generator.elements_per_s"] == 0.5
