"""Batch-ingestion throughput: ``update_batch`` vs the scalar loop.

Measures updates/second for the vectorized hot sketches (CountMin, Bloom,
HyperLogLog, KLL) and the paper's elementwise chains (ChainCountMin,
ChainCountSketch, the dyadic ChainCountMin stack) — the acceptance targets,
asserted at >= 5x for batch size 1024 — plus the batch plumbing through the
persistence layers, and writes the numbers to
``benchmarks/results/BENCH_batch.json``.

The elementwise chains' scalar loops run at a few thousand to a few tens of
thousands of items/s, so their rows use a prefix of the stream (recorded as
the row's ``stream_size``).  The chains are timed from a cold start, where
nearly every item records a checkpoint, so their speedup grows with the
stream.

Quick mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke job) shrinks the
streams so the whole bench runs in seconds; the speedup assertion is kept.
"""

import json
import os
import time

import numpy as np
import pytest

from common import RESULTS_DIR
from repro.core import ChainCountMin, ChainCountSketch
from repro.persistent import AttpDyadicChainCountMin
from repro.sketches import BloomFilter, CountMinSketch, HyperLogLog, KllSketch

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
N = 40_000 if QUICK else 400_000
CHAIN_N = 8_000 if QUICK else 80_000
DYADIC_N = 4_000 if QUICK else 20_000
BATCH = 1024
REPEATS = 3
REQUIRED_SPEEDUP = 5.0
RESULT_PATH = RESULTS_DIR / "BENCH_batch.json"


def zipf_keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.2, size=n) % 100_000).astype(np.int64)


def best_seconds(run):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def measure(make_sketch, keys, timestamps=None):
    """(scalar updates/s, batch updates/s) for one sketch family."""
    n = len(keys)
    key_list = keys.tolist()

    def scalar_run():
        sketch = make_sketch()
        if timestamps is None:
            for key in key_list:
                sketch.update(key)
        else:
            for index in range(n):
                sketch.update(key_list[index], timestamps[index])

    def batch_run():
        sketch = make_sketch()
        for start in range(0, n, BATCH):
            stop = start + BATCH
            if timestamps is None:
                sketch.update_batch(keys[start:stop])
            else:
                sketch.update_batch(keys[start:stop], timestamps[start:stop])

    scalar_seconds = best_seconds(scalar_run)
    batch_seconds = best_seconds(batch_run)
    return n / scalar_seconds, n / batch_seconds


@pytest.fixture(scope="module")
def report():
    keys = zipf_keys(N)
    timestamps = np.arange(N, dtype=float)
    results = {}

    # -- acceptance targets: raw vectorized sketches ------------------------
    values = np.random.default_rng(3).normal(size=N)
    for name, make, stream in (
        ("countmin", lambda: CountMinSketch(width=4096, depth=4, seed=1), keys),
        ("bloom", lambda: BloomFilter(1 << 20, num_hashes=4, seed=1), keys),
        ("hyperloglog", lambda: HyperLogLog(p=12, seed=1), keys),
        ("kll", lambda: KllSketch(k=200, seed=1), values),
    ):
        scalar_ups, batch_ups = measure(make, stream)
        results[name] = {
            "scalar_updates_per_s": round(scalar_ups),
            "batch_updates_per_s": round(batch_ups),
            "speedup": round(batch_ups / scalar_ups, 2),
        }

    # -- acceptance targets: the elementwise chains (Section 4.1) -----------
    for name, make, n in (
        ("chain_countmin",
         lambda: ChainCountMin(2048, depth=4, eps_ckpt=1e-3, seed=1), CHAIN_N),
        ("chain_countsketch",
         lambda: ChainCountSketch(2048, depth=5, eps_ckpt=1e-3, seed=1), CHAIN_N),
        ("dyadic_chain_countmin",
         lambda: AttpDyadicChainCountMin(17, eps=0.005, depth=3, eps_ckpt=2e-3, seed=1),
         DYADIC_N),
    ):
        scalar_ups, batch_ups = measure(make, keys[:n], timestamps[:n])
        results[name] = {
            "stream_size": n,
            "scalar_updates_per_s": round(scalar_ups),
            "batch_updates_per_s": round(batch_ups),
            "speedup": round(batch_ups / scalar_ups, 2),
        }

    # -- informational: the persistence/durability plumbing -----------------
    import functools

    from repro.core import CheckpointChain, MergeTreePersistence

    scalar_ups, batch_ups = measure(
        lambda: CheckpointChain(
            functools.partial(CountMinSketch, 4096, depth=4, seed=1), eps=0.05
        ),
        keys,
        timestamps,
    )
    results["checkpoint_chain_countmin"] = {
        "scalar_updates_per_s": round(scalar_ups),
        "batch_updates_per_s": round(batch_ups),
        "speedup": round(batch_ups / scalar_ups, 2),
    }

    scalar_ups, batch_ups = measure(
        lambda: MergeTreePersistence(
            functools.partial(HyperLogLog, 12, seed=1),
            eps=0.1,
            mode="bitp",
            block_size=4096,
        ),
        keys,
        timestamps,
    )
    results["merge_tree_hll"] = {
        "scalar_updates_per_s": round(scalar_ups),
        "batch_updates_per_s": round(batch_ups),
        "speedup": round(batch_ups / scalar_ups, 2),
    }

    report = {
        "stream_size": N,
        "batch_size": BATCH,
        "quick_mode": QUICK,
        "required_speedup": REQUIRED_SPEEDUP,
        "results": results,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


class TestBatchThroughput:
    @pytest.mark.parametrize("target", [
        "countmin", "bloom", "hyperloglog", "kll",
        "chain_countmin", "chain_countsketch", "dyadic_chain_countmin",
    ])
    def test_required_speedup(self, report, target):
        speedup = report["results"][target]["speedup"]
        assert speedup >= REQUIRED_SPEEDUP, (
            f"{target}: batch 1024 speedup {speedup}x is below the required "
            f"{REQUIRED_SPEEDUP}x"
        )

    def test_report_written(self, report):
        assert RESULT_PATH.is_file()
        on_disk = json.loads(RESULT_PATH.read_text())
        assert on_disk["results"].keys() == report["results"].keys()

    def test_plumbing_batches_are_not_slower(self, report):
        """The persistent layers must at least not regress under batching."""
        for name in ("checkpoint_chain_countmin", "merge_tree_hll"):
            assert report["results"][name]["speedup"] >= 1.0

    def test_print_table(self, report, capsys):
        with capsys.disabled():
            print(f"\nbatch={report['batch_size']}  n={report['stream_size']}")
            print(f"{'sketch':<28}{'scalar/s':>12}{'batch/s':>12}{'speedup':>9}")
            for name, row in report["results"].items():
                print(
                    f"{name:<28}{row['scalar_updates_per_s']:>12,}"
                    f"{row['batch_updates_per_s']:>12,}{row['speedup']:>8}x"
                )
