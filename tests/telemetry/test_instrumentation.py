"""End-to-end instrumentation: a real ingest emits internally consistent
metrics, and the disabled path emits exactly nothing.

This is the integration check promised by docs/OBSERVABILITY.md: 10k updates
through an ATTP structure (checkpoint-chained CountMin behind a DurableSketch)
and a BITP priority sampler, then every emitted counter is cross-checked
against the structure's own ground truth (chain length, WAL bookkeeping,
compaction counters, record counts).
"""

import pytest

from repro.core.bitp_sampling import BitpPrioritySample
from repro.core.checkpoint_chain import CheckpointChain
from repro.core.persistent_sampling import PersistentTopKSample
from repro.durability.store import DurableSketch
from repro.sketches import CountMinSketch
from repro.telemetry.registry import TELEMETRY

N = 10_000


def _counter_value(name: str, **labels) -> float:
    return TELEMETRY.registry.counter(name, **labels).value


def _chain_factory():
    return CheckpointChain(
        lambda: CountMinSketch.from_error(0.05, 0.05, seed=7), eps=0.1
    )


def _ingest(directory):
    store = DurableSketch(
        _chain_factory(),
        directory,
        fsync_policy="off",
        snapshot_every=4_000,
    )
    bitp = BitpPrioritySample(k=16, seed=3)
    topk = PersistentTopKSample(k=16, seed=3)
    for index in range(N):
        store.update(index % 97, float(index))
        bitp.update(index % 97, float(index))
        topk.update(index % 97, float(index))
    store.close(final_snapshot=False)
    return store, bitp, topk


class TestEmittedMetricsAreConsistent:
    @pytest.fixture()
    def ingested(self, enabled_telemetry, tmp_path):
        return _ingest(tmp_path / "wal")

    def test_chain_updates_and_seals(self, ingested):
        store, _, _ = ingested
        chain = store.sketch
        assert _counter_value(
            "persistent_updates_total", structure="checkpoint_chain"
        ) == chain.count == N
        assert _counter_value(
            "checkpoint_seals_total", structure="checkpoint_chain"
        ) == chain.num_checkpoints()

    def test_base_sketch_saw_every_item(self, ingested):
        # The chain applies each stream item to the live CountMin, whose own
        # instrumentation layer ticks once per scalar update.
        assert _counter_value("sketch_updates_total", sketch="countmin") == N

    def test_wal_counters_match_store_bookkeeping(self, ingested):
        store, _, _ = ingested
        assert _counter_value("wal_records_appended_total") == (
            store.wal.records_appended
        ) == N
        assert _counter_value("wal_segment_rotations_total") == len(
            store.wal.segments()
        ) + store.wal.segments_removed
        assert _counter_value("wal_segments_removed_total") == (
            store.wal.segments_removed
        )
        assert _counter_value("store_snapshots_total") == store.snapshots_taken
        assert store.snapshots_taken == N // 4_000
        assert _counter_value("wal_bytes_appended_total") > 0

    def test_snapshot_bytes_count_the_head_and_the_sealed_log(self, ingested):
        store, _, _ = ingested
        written = TELEMETRY.registry.histogram("store_snapshot_bytes")
        assert written.count == store.snapshots_taken == 2
        on_disk = sum(
            path.stat().st_size
            for path in store.directory.iterdir()
            if path.name.startswith(("snapshot-", "sealed.log"))
        )
        assert written.sum == on_disk

    def test_bitp_compactions_and_sampler_records(self, ingested):
        _, bitp, topk = ingested
        assert _counter_value(
            "persistent_updates_total", structure="bitp_priority"
        ) == N
        assert _counter_value("bitp_compaction_scans_total") == (
            bitp.compaction_scans
        )
        assert bitp.compaction_scans > 0
        assert _counter_value(
            "sampler_records_total", sampler="persistent_topk"
        ) == len(topk.records())

    def test_queries_feed_latency_histograms(self, ingested):
        store, bitp, _ = ingested
        for t in (100.0, 5_000.0, 9_999.0):
            store.sketch.sketch_at(t)
            bitp.sample_since(t)
        chain_latency = TELEMETRY.registry.histogram(
            "persistent_query_seconds", structure="checkpoint_chain", op="sketch_at"
        )
        bitp_latency = TELEMETRY.registry.histogram(
            "persistent_query_seconds", structure="bitp_priority", op="sample_since"
        )
        assert chain_latency.count == 3
        assert bitp_latency.count == 3
        assert chain_latency.percentiles()["p99"] >= 0.0

    def test_snapshot_span_recorded(self, ingested):
        from repro.telemetry.spans import SPANS

        names = {record.name for record in SPANS.records}
        assert "store.snapshot" in names


class TestDisabledPathEmitsNothing:
    def test_all_counters_stay_zero(self, clean_telemetry, tmp_path):
        store, bitp, topk = _ingest(tmp_path / "wal")
        assert store.sketch.count == N  # the ingest itself really ran
        assert bitp.compaction_scans > 0
        assert len(topk.records()) > 0
        registry = TELEMETRY.registry
        for family in registry.families():
            for labels, child in family.samples():
                if family.kind == "histogram":
                    assert child.count == 0, (family.name, labels)
                else:
                    assert child.value == 0.0, (family.name, labels)
