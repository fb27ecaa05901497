"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests

They run the harness on a tiny window in seconds; the second-seed check
runs one round of every workload at another action seed (~30 s).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
from workloads import SECOND_ACTION_SEED, WORKLOADS  # noqa: E402

TINY = {"config": {"d": "3", "L": "12", "margin": "3", "n0": "1"},
        "why": "toy window of the package's own pipeline tests"}


def _bench_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_tiny_config_runs_through_the_harness():
    bench = run.run_workload("tiny", seed=3, seconds=0, trace=False,
                             spec=TINY)
    assert bench.correct() and bench.failed() == 0
    assert len(bench.rounds) == run.MIN_ROUNDS
    metrics = bench.end_to_end()
    assert set(metrics) == {m["name"] for m in _bench_json()["end_to_end"]}
    for name, metric in metrics.items():
        assert metric["value"] > 0, name
    assert metrics["verified_frac"]["value"] == 1.0


def test_traced_counts_repeat_exactly_at_one_seed():
    first, second = (run.run_workload("tiny", seed=4, seconds=0, trace=True,
                                      spec=TINY) for _ in range(2))
    assert first.correct() and second.correct()
    a, b = first.per_layer(), second.per_layer()
    assert set(a) == {m["name"] for m in _bench_json()["per_layer"]}
    for name in run.COUNT_UNITS:
        assert a[name]["value"] is not None, name
        assert a[name] == b[name], name
    assert a["equidecompose.K_scanned"]["value"] >= 1


def test_the_seed_draws_the_inputs():
    assert run.base_point(5, 2) == run.base_point(5, 2)
    assert run.base_point(5, 2) != run.base_point(6, 2)
    assert all(0 <= c < run.JITTER for c in run.base_point(5, 2))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_verifies_at_a_second_action_seed(name):
    bench = run.Run(name, seed=1, trace=False,
                    action_seed=SECOND_ACTION_SEED)
    try:
        bench.round()
    finally:
        shutil.rmtree(bench.dir)
    assert bench.rounds[0]["problems"] == []


def test_self_time_excludes_child_spans():
    spans = child.Spans()
    inner = spans.wrap(lambda: time.sleep(0.02), "inner")
    outer = spans.wrap(lambda: (inner(), inner()), "outer")
    outer()
    self_s = spans.self_times()
    assert self_s["inner"] >= 0.04
    assert 0 <= self_s["outer"] < 0.02


def test_memory_peak_belongs_to_its_own_stage():
    import numpy as np
    with child.RssPeaks() as rec:
        big = rec.wrap(lambda: np.ones(2 ** 23).sum(), "big")      # 64 MiB
        small = rec.wrap(lambda: time.sleep(0.05), "small")
        big()
        small()
    assert rec.peaks["big"] >= 32
    assert rec.peaks["small"] < 8


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flagship",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
