"""Tests for the generic checkpoint chain (Section 4, Lemma 4.1)."""

import numpy as np
import pytest

from repro.core.base import MonotoneViolation
from repro.core.checkpoint_chain import CheckpointChain
from repro.sketches import CountMinSketch, KllSketch, MisraGries


class TestCheckpointChain:
    def test_checkpoint_count_logarithmic(self):
        # Lemma 4.1: O((1/eps) log W) checkpoints.
        eps = 0.1
        chain = CheckpointChain(lambda: MisraGries(10), eps=eps)
        n = 50_000
        for index in range(n):
            chain.update(index % 5, float(index))
        bound = 3 * (1.0 / eps) * np.log(n)
        assert chain.num_checkpoints() <= bound

    def test_staleness_bounded_by_eps(self):
        # The snapshot used for time t misses at most eps * W(t) weight.
        eps = 0.05
        chain = CheckpointChain(lambda: MisraGries(100), eps=eps)
        n = 10_000
        for index in range(n):
            chain.update(index % 3, float(index))
        for t in (100.0, 1_000.0, 5_000.0, 9_999.0):
            snapshot = chain.sketch_at(t)
            missing = (t + 1) - snapshot.total_weight
            assert 0 <= missing <= eps * (t + 1) + 1

    def test_query_at_current_time_is_live(self):
        chain = CheckpointChain(lambda: MisraGries(10), eps=0.5)
        for index in range(100):
            chain.update(1, float(index))
        live = chain.sketch_at(99.0)
        assert live is chain.live
        assert live.query(1) == 100

    def test_historical_estimates_track_prefix(self):
        chain = CheckpointChain(lambda: CountMinSketch(1024, 3, seed=0), eps=0.02)
        for index in range(20_000):
            chain.update(index % 7, float(index))
        t = 9_999.0
        snapshot = chain.sketch_at(t)
        true = 10_000 / 7
        assert abs(snapshot.query(0) - true) <= 0.05 * 10_000

    def test_snapshot_timestamp_before_crossing_item(self):
        # The checkpoint stamped when item i crosses the threshold reflects
        # the state *before* item i: its weight must be below the item count.
        chain = CheckpointChain(lambda: MisraGries(5), eps=0.3)
        for index in range(1_000):
            chain.update(0, float(index))
        for t, snapshot in chain.checkpoints():
            assert snapshot.total_weight <= t + 1

    def test_query_before_first_item_is_none(self):
        chain = CheckpointChain(lambda: MisraGries(5), eps=0.5)
        chain.update(1, 10.0)
        assert chain.sketch_at(5.0) is None

    def test_weighted_updates(self):
        chain = CheckpointChain(lambda: MisraGries(5), eps=0.5)
        chain.update(1, 1.0, weight=10.0)
        chain.update(2, 2.0, weight=5.0)
        assert chain.total_weight == 15.0

    def test_unweighted_sketch_rejects_weights(self):
        chain = CheckpointChain(lambda: KllSketch(16), eps=0.5)
        chain.update(1.0, 1.0)
        with pytest.raises(ValueError):
            chain.update(2.0, 2.0, weight=3.0)

    def test_kll_chain_quantiles(self):
        chain = CheckpointChain(lambda: KllSketch(128, seed=0), eps=0.05)
        rng = np.random.default_rng(0)
        values = rng.normal(size=5_000)
        for index, value in enumerate(values):
            chain.update(float(value), float(index))
        snapshot = chain.sketch_at(2_499.0)
        median = snapshot.quantile(0.5)
        true_median = float(np.median(values[:2500]))
        assert abs(median - true_median) < 0.15

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            CheckpointChain(lambda: MisraGries(5), eps=0.0)
        with pytest.raises(ValueError):
            CheckpointChain(lambda: MisraGries(5), eps=1.0)

    def test_rejects_nonpositive_weight(self):
        chain = CheckpointChain(lambda: MisraGries(5), eps=0.5)
        with pytest.raises(ValueError):
            chain.update(1, 1.0, weight=0.0)

    def test_rejects_decreasing_timestamps(self):
        chain = CheckpointChain(lambda: MisraGries(5), eps=0.5)
        chain.update(1, 5.0)
        with pytest.raises(MonotoneViolation):
            chain.update(1, 4.0)

    def test_memory_sums_snapshots(self):
        chain = CheckpointChain(lambda: MisraGries(5), eps=0.2)
        for index in range(1_000):
            chain.update(index % 3, float(index))
        manual = chain.live.memory_bytes()
        for _, snapshot in chain.checkpoints():
            # snapshot body + chain entry (8-byte timestamp + 8-byte pointer)
            manual += snapshot.memory_bytes() + 16
        assert chain.memory_bytes() == manual
        breakdown = chain.memory_breakdown()
        assert sum(breakdown.values()) == chain.memory_bytes()
        assert breakdown["chain_entries"] == chain.num_checkpoints() * 16


class TestPersistSince:
    """The delta-snapshot protocol: each sealed checkpoint ships once."""

    def _chain(self, n):
        chain = CheckpointChain(lambda: CountMinSketch(64, 3, seed=2), eps=0.1)
        for index in range(n):
            chain.update(index % 7, float(index))
        return chain

    def test_deltas_concatenate_to_the_history(self):
        chain = self._chain(300)
        head, sealed, marker = chain.persist_since(0)
        assert marker == chain.num_checkpoints() == len(sealed)
        assert head.num_checkpoints() == 0 and head.live is chain.live
        for index in range(300, 3_000):
            chain.update(index % 7, float(index))
        _, more, later = chain.persist_since(marker)
        assert later == chain.num_checkpoints() == marker + len(more)
        assert [ts for ts, _ in sealed + more] == [ts for ts, _ in chain.checkpoints()]

    def test_restore_answers_like_the_original(self):
        chain = self._chain(2_000)
        head, sealed, _ = chain.persist_since(0)
        restored = CheckpointChain(lambda: CountMinSketch(64, 3, seed=2), eps=0.1)
        restored.restore(head, sealed)
        for t in (0.0, 50.0, 999.0, 1_999.0):
            assert np.array_equal(
                restored.sketch_at(t).counters(), chain.sketch_at(t).counters()
            )
        assert restored.count == chain.count
        with pytest.raises(MonotoneViolation):
            restored.update(1, 10.0)

    def test_marker_past_the_history_is_rejected(self):
        chain = self._chain(100)
        with pytest.raises(ValueError, match="marker"):
            chain.persist_since(chain.num_checkpoints() + 1)
