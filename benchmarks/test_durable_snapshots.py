"""Durable snapshot cost: a checkpoint chain behind ``DurableSketch``.

A ``CheckpointChain`` (Lemma 4.1) only ever appends sealed checkpoints, so
``DurableSketch`` writes its snapshots as deltas: the checkpoints sealed
since the last snapshot go to ``sealed.log`` once, and the snapshot file
holds only the head (live sketch, guard, weights, counts).  This bench
runs a ``CheckpointChain(CountMin 2048x4, eps=0.01)`` through
``DurableSketch`` at default options and writes
``benchmarks/results/BENCH_durable.json``:

* per quarter of the stream: durable throughput, snapshots taken and mean
  bytes per snapshot (snapshot file plus sealed-log frame);
* bare throughput of the same stream into a bare chain, per quarter
  (warmed, median of 3);
* ``recover()`` seconds on the final directory.

Bare and durable runs alternate three times; the durable/bare ratio of
each pair is recorded and the gate takes the median pair.

Gates:

* the last quarter's mean bytes per snapshot stay within
  ``MAX_BYTES_OVER_LIVE`` times the live sketch's encoded size — the bytes
  scale with the new checkpoints, not with the whole chain;
* durable time over bare time across quarters 2-4 stays within
  ``MAX_DURABLE_OVER_BARE``.

The roadmap's 1.5x target for the second ratio is not met: every snapshot
still costs four fsyncs (WAL flush, sealed-log frame, snapshot temp file,
directory after the rename) and the unlink of the pruned snapshot, a fixed
cost per ``snapshot_every`` items that a bare chain never pays.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI bench-smoke job) runs 400k
items instead of 1M; the gates are per-snapshot and per-item, so they do
not depend on the stream length.
"""

import functools
import json
import os
import shutil
import statistics
import time

import numpy as np
import pytest

from common import RESULTS_DIR
from repro.core import CheckpointChain
from repro.durability import DurableSketch, OsFilesystem, recover
from repro.io import encode_sketch
from repro.sketches import CountMinSketch

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
N = 400_000 if QUICK else 1_000_000
BATCH = 1024
QUARTERS = 4
REPEATS = 3
#: Last-quarter mean bytes per snapshot, over the live sketch's encoded size.
MAX_BYTES_OVER_LIVE = 10.0
#: Durable over bare ingest time across quarters 2-4.
MAX_DURABLE_OVER_BARE = 3.0
RESULT_PATH = RESULTS_DIR / "BENCH_durable.json"


def factory():
    return CheckpointChain(functools.partial(CountMinSketch, 2048, 4), eps=0.01)


def stream(n, universe=100_000, seed=3):
    rng = np.random.default_rng(seed)
    keys = (rng.zipf(1.3, size=n) % universe).astype(np.int64)
    return keys, np.arange(n, dtype=np.float64)


class SnapshotBytes(OsFilesystem):
    """The real filesystem, counting the bytes snapshots write."""

    def __init__(self):
        self.bytes = 0

    def write_atomic(self, path, data, durable=True):
        self.bytes += len(data)
        return super().write_atomic(path, data, durable)

    def append(self, handle, data):
        if handle.path.name == "sealed.log":
            self.bytes += len(data)
        return super().append(handle, data)


def quarter_bounds(n):
    edges = [n * q // QUARTERS for q in range(QUARTERS + 1)]
    return list(zip(edges[:-1], edges[1:]))


def timed_ingest(ingest, keys, timestamps):
    """Seconds to feed ``keys``/``timestamps`` to ``ingest`` in batches."""
    start = time.perf_counter()
    for at in range(0, len(keys), BATCH):
        ingest(keys[at : at + BATCH], timestamps[at : at + BATCH])
    return time.perf_counter() - start


def timed_quarters(ingest, keys, timestamps):
    """Seconds per quarter of the stream."""
    return [
        timed_ingest(ingest, keys[lo:hi], timestamps[lo:hi])
        for lo, hi in quarter_bounds(len(keys))
    ]


def durable_run(directory, keys, timestamps):
    """One durable ingest: seconds, snapshots and snapshot bytes per quarter."""
    fs = SnapshotBytes()
    store = DurableSketch.open(factory, directory, fs=fs)
    seconds, snapshots, written = [], [], []
    for lo, hi in quarter_bounds(len(keys)):
        taken, before = store.snapshots_taken, fs.bytes
        seconds.append(timed_ingest(store.update_batch, keys[lo:hi], timestamps[lo:hi]))
        snapshots.append(store.snapshots_taken - taken)
        written.append(fs.bytes - before)
    store.close()
    return seconds, snapshots, written


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    keys, timestamps = stream(N)
    warm = factory()
    timed_ingest(warm.update_batch, keys[: N // 10], timestamps[: N // 10])

    # Bare and durable runs alternate, so a drift in machine speed hits
    # both sides of each pair; the gate takes the median pair.
    bare_runs, durable_runs, ratios = [], [], []
    for repeat in range(REPEATS):
        chain = factory()
        bare_runs.append(timed_quarters(chain.update_batch, keys, timestamps))
        directory = tmp_path_factory.mktemp("durable") / "chain"
        seconds, snapshots, snapshot_bytes = durable_run(directory, keys, timestamps)
        durable_runs.append(seconds)
        ratios.append(sum(seconds[1:]) / sum(bare_runs[-1][1:]))
        if repeat < REPEATS - 1:
            shutil.rmtree(directory)
    bare_s = [statistics.median(column) for column in zip(*bare_runs)]
    durable_s = [statistics.median(column) for column in zip(*durable_runs)]
    live_bytes = len(encode_sketch(chain.live))
    disk_bytes = sum(path.stat().st_size for path in directory.iterdir())

    start = time.perf_counter()
    recovered = recover(directory, factory)
    recover_s = time.perf_counter() - start
    assert recovered.sketch.count == N
    assert recovered.sketch.num_checkpoints() == chain.num_checkpoints()

    quarter = N // QUARTERS
    mean_bytes = [b / s if s else 0.0 for b, s in zip(snapshot_bytes, snapshots)]
    row = {
        "items": N,
        "checkpoints": chain.num_checkpoints(),
        "live_sketch_encoded_bytes": live_bytes,
        "ingest_items_per_s": round(3 * quarter / sum(durable_s[1:])),
        "bare_items_per_s": round(3 * quarter / sum(bare_s[1:])),
        "durable_over_bare_q2_q4": round(statistics.median(ratios), 3),
        "durable_over_bare_q2_q4_pairs": [round(r, 3) for r in ratios],
        "durable_items_per_s_by_quarter": [round(quarter / s) for s in durable_s],
        "bare_items_per_s_by_quarter": [round(quarter / s) for s in bare_s],
        "snapshots_by_quarter": snapshots,
        "bytes_per_snapshot_by_quarter": [round(b) for b in mean_bytes],
        "last_quarter_bytes_over_live": round(mean_bytes[-1] / live_bytes, 3),
        "recover_s": round(recover_s, 4),
        "disk_bytes": disk_bytes,
    }
    payload = {
        "stream_size": N,
        "batch_size": BATCH,
        "quick_mode": QUICK,
        "cpu_count": os.cpu_count(),
        "max_bytes_over_live": MAX_BYTES_OVER_LIVE,
        "max_durable_over_bare": MAX_DURABLE_OVER_BARE,
        "roadmap_target_durable_over_bare": 1.5,
        "gap_cause": (
            "four fsyncs per snapshot (WAL flush, sealed-log frame, snapshot "
            "temp file, directory after the rename) and the unlink of the "
            "pruned snapshot, paid once per snapshot_every items"
        ),
        "results": {"CheckpointChain(CountMin,eps=0.01)": row},
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _row(report):
    (row,) = report["results"].values()
    return row


def test_snapshot_bytes_scale_with_new_checkpoints(report):
    row = _row(report)
    assert row["last_quarter_bytes_over_live"] <= MAX_BYTES_OVER_LIVE, row


def test_durable_within_bound_of_bare(report):
    row = _row(report)
    assert row["durable_over_bare_q2_q4"] <= MAX_DURABLE_OVER_BARE, row


def test_report_written(report):
    on_disk = json.loads(RESULT_PATH.read_text())
    assert on_disk["results"].keys() == report["results"].keys()


def test_print_table(report, capsys):
    row = _row(report)
    with capsys.disabled():
        print(f"\ndurable snapshots  n={report['stream_size']}  "
              f"checkpoints={row['checkpoints']}")
        for q in range(QUARTERS):
            print(
                f"  Q{q + 1}  durable={row['durable_items_per_s_by_quarter'][q]:>12,}/s"
                f"  bare={row['bare_items_per_s_by_quarter'][q]:>12,}/s"
                f"  snapshots={row['snapshots_by_quarter'][q]:>4}"
                f"  bytes/snapshot={row['bytes_per_snapshot_by_quarter'][q]:>12,}"
            )
        print(
            f"  durable/bare (Q2-Q4)={row['durable_over_bare_q2_q4']}"
            f"  last-quarter bytes/live={row['last_quarter_bytes_over_live']}"
            f"  recover={row['recover_s']}s"
        )
