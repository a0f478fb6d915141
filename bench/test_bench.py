"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Workloads run at a tiny size (a tenth of the file), so the whole file takes
seconds. The repository's own suite does not collect these tests.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

run._require_source()

import compare  # noqa: E402
import tracer as tracing  # noqa: E402
from batchcast import gf, sched, sim  # noqa: E402
from workloads import (  # noqa: E402
    REPORT_FIELDS,
    WORKLOADS,
    load_golden,
    report_digests,
)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _spec_table(section):
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}


def test_metric_tables_match_benchmark_json():
    assert _spec_table("end_to_end") == run.END_TO_END
    assert _spec_table("per_layer") == run.per_layer_names(tracing.FUNCTIONS)
    assert set(w["name"] for w in SPEC["workloads"]) <= set(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace):
    wl = WORKLOADS[name].tiny()
    result = run.measure(wl, 3, 0.0, trace, golden={}, setup=[0.5])
    assert result["failed"] == 0, result["sessions"]
    expected = run.per_layer_names(tracing.FUNCTIONS) if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert all(isinstance(v, float) for v in result["metrics"].values())
    scale = result["speed_scale"]
    for name, raw in result["raw_metrics"].items():
        unit = expected[name][0]
        want = raw * scale if unit == "s" else raw / scale if unit == "tx/s" else raw
        assert result["metrics"][name] == pytest.approx(want, rel=1e-12)
    # every wrapper is gone again
    assert not hasattr(gf.matmul, "__wrapped__")
    assert sim.build_matrix is sched.build_matrix
    assert not hasattr(sim.codec.IncrementalDecoder.attempt, "__wrapped__")


def test_traced_and_untraced_reports_are_bit_identical():
    wl = WORKLOADS["ex2-payload"].tiny()
    plan = wl.plan()
    plain = wl.run(5, plan)
    tr = tracing.Tracer()
    with tr:
        with tr.root(0):
            traced = wl.run(5, plan)
    assert report_digests(plain) == report_digests(traced)
    summary = tr.summary()
    assert summary["gf.matmul"]["calls"] > 0
    assert summary["codec.IncrementalDecoder.attempt"]["calls"] > 0
    # self times partition the root span exactly
    names = (tracing.ROOT,) + tracing.FUNCTIONS
    total_self = sum(summary[name]["self_s"] for name in names)
    assert total_self == pytest.approx(summary[tracing.ROOT]["total_s"], rel=1e-9)
    under = sum(summary["gf.matmul.in." + name]["self_s"] for name in names)
    assert under == pytest.approx(summary["gf.matmul"]["self_s"], rel=1e-9)


def test_golden_digests_pass_and_a_corrupted_one_fails():
    wl = replace(WORKLOADS["ex3-repair"], min_sessions=1)
    golden = load_golden()[wl.name]
    good = run.measure(wl, 0, 0.0, False, golden=golden, setup=[0.5])
    assert good["failed"] == 0 and good["attempted"] == 1
    bad_golden = dict(golden)
    digests = list(golden[0])
    i = REPORT_FIELDS.index("rank_distribution")
    digests[i] = "0" * len(digests[i])
    bad_golden[0] = digests
    bad = run.measure(wl, 0, 0.0, False, golden=bad_golden, setup=[0.5])
    assert bad["failed"] == 1 and "metrics" not in bad
    assert "rank_distribution" in bad["sessions"][0]["errors"][0]


def test_setup_probe_times_import_and_plan():
    calib = []
    (t,) = run.setup_seconds("ex3-repair", calib, probes=1)
    assert 0.0 < t < 60.0 and len(calib) == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(
        run.BENCH,
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ex3-repair", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize(
    "parent, change, better, bound, want",
    [
        ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [5] * 10, "lower", 0.1, "better"),
        ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [13] * 10, "lower", 0.1, "worse"),
        ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [10.5] * 10, "lower", 0.1, "unchanged"),
        ([5, 15, 5, 15, 5, 15, 5, 15, 5, 15], [10] * 10, "lower", 0.1, "unresolved"),
        ([10] * 10, [12] * 10, "higher", None, "better"),
        ([10] * 10, [8] * 10, "higher", None, "worse"),
    ],
)
def test_compare_verdicts(parent, change, better, bound, want):
    assert compare.verdict(parent, change, better, bound)[0] == want
