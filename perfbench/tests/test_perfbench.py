"""Tests of the benchmark itself, at tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench  # noqa: E402
import compare  # noqa: E402
import oracle  # noqa: E402
from streams import CyclicStream, T0  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LEDGER = ("bench.producer_s", "tenancy.front_s", "router.front_s",
          "worker.enqueue_s", "service.drain_s")
SECONDS = 1.0
#: Largest share of the traced wall time left out of the producer ledger.
UNATTRIBUTED_MAX = 0.01


def run_bench(workload: str, trace: int, tmp_path: Path) -> tuple:
    record = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(SECONDS), "--trace", str(trace), "--record", str(record)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text())


def test_benchmark_json_and_design_record_list_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    design = json.loads((BENCH / "design.json").read_text())
    assert list(design["workloads"]) == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_exactly_the_named_metrics(workload, tmp_path):
    result, record = run_bench(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["provenance"]["cpu_count"] >= 1
    assert record["provenance"]["traced"] is False


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_ledger_adds_up(workload, tmp_path):
    result, _ = run_bench(workload, 1, tmp_path)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # trace.unattributed_s is wall time minus the ledger, so the test is
    # that every ledger term is a real (non-negative) time, the producer
    # loop ran for the requested seconds, and almost nothing is left over
    wall = metrics["trace.wall_s"]
    assert all(metrics[k] >= 0.0 for k in LEDGER)
    assert SECONDS <= wall - metrics["service.drain_s"] <= SECONDS + 1.0
    assert 0.0 <= metrics["trace.unattributed_s"] <= UNATTRIBUTED_MAX * wall
    w = WORKLOADS[workload]
    if not w.durable:
        for name in ("store.apply_s", "store.snapshots", "store.snapshot_s",
                     "wal.append_s", "wal.bytes"):
            assert metrics[name] == 0.0, name
    if workload == "attp-elementwise":
        assert metrics["core.update_batch_s"] > 0.8 * metrics["worker.apply_s"]


def test_oracle_rejects_wrong_answers():
    v = oracle.Verdict(delta=oracle.countmin_delta(4))
    oracle.check_chain_point(v, 100.0, 100, 10_000, eps=0.01, width=2048)
    assert v.passed() and v.violations == 0
    oracle.check_chain_point(v, 100.0 - 0.02 * 10_000, 100, 10_000, eps=0.01, width=2048)
    assert v.hard_violations == 1 and not v.passed()

    v = oracle.Verdict()
    oracle.check_weight_history(v, 0.95 * 1000, 1000)
    assert not v.passed()

    v = oracle.Verdict()
    oracle.check_mg_since(v, 500.0, 100, 100, 10_000, eps=4e-3, block=64)
    assert not v.passed()

    window = np.array([1] * 50 + [2] * 30 + list(range(3, 23)))
    v = oracle.Verdict()
    oracle.check_mg_heavy_hitters(v, [1], window, window, phi=0.2, eps=4e-3, block=0)
    assert not v.passed()  # key 2 (30%) is heavy and missing
    v = oracle.Verdict()
    oracle.check_mg_heavy_hitters(v, [1, 2], window, window, phi=0.2, eps=4e-3, block=0)
    assert v.passed()


def test_run_audit_catches_a_tampered_answer(tmp_path):
    run = bench.Run(WORKLOADS["attp-elementwise"], 3, 1.0, tmp_path, traced=False)
    n = 5_000
    key = int(run.stream.base[17])
    exact = run.stream.count(key, n)
    good = ("point", None, T0 + n - 1, key, float(exact), n, None)
    bad = ("point", None, T0 + n - 1, key, float(exact) + 0.5 * n, n, None)
    assert run.audit([good]).passed()
    verdict = run.audit([good] + [bad] * 5)
    assert verdict.probabilistic_violations == 5 and not verdict.passed()


def test_suffix_window_covers_the_call_in_flight(tmp_path):
    run = bench.Run(WORKLOADS["bitp-tenants"], 3, 1.0, tmp_path, traced=False)
    size = run.w.batch_items
    for b in range(40):  # what the producer records, without a service
        tenant = run.tenant_ids[run.tenant_of_batch[b]]
        run.record(tenant, b * size, SimpleNamespace(accepted=size, dropped=0), 0.0)
    in_flight = run.tenant_ids[run.tenant_of_batch[40]]
    for index, tenant in enumerate(run.tenant_ids):
        recorded = size * int(np.count_nonzero(run.tenant_of_batch[:40] == index))
        extra = size if tenant == in_flight else 0
        assert run.tenant_submitted(tenant) == recorded + extra


def test_allowed_violations_budget():
    assert oracle.allowed_violations(0, 0.02) == 0
    assert oracle.allowed_violations(1000, 0.0) == 0
    assert 20 < oracle.allowed_violations(1000, 0.0183) < 40


def test_cyclic_stream_counts_match_brute_force():
    stream = CyclicStream("object-id", seed=5, base_items=1000)
    keys = stream.keys(0, 3500)
    for key in map(int, keys[:20]):
        for n in (0, 1, 999, 1000, 1001, 2500, 3500):
            assert stream.count(key, n) == int(np.count_nonzero(keys[:n] == key))


def test_tail_quantile_keeps_ten_samples_beyond():
    samples = list(range(1000))
    value, pct, n = bench.tail_quantile(samples)
    assert n == 1000 and pct == pytest.approx(99.0)
    assert sum(s > value for s in samples) == 10


def test_compare_refuses_mixed_environments():
    base = {"provenance": {"cpu_count": 2, "python": "3.11", "numpy": "2", "platform": "x",
                           "seconds": 10, "traced": False, "workload": "w",
                           "workload_params": {}}}
    other = json.loads(json.dumps(base))
    compare.check_environment([base, other])
    other["provenance"]["cpu_count"] = 8
    with pytest.raises(ValueError, match="cpu_count"):
        compare.check_environment([base, other])
