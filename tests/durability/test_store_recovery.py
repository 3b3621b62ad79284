"""DurableSketch + recovery behaviour (no crash sweep here — see
``test_crash_sweep.py`` for the exhaustive kill-point version)."""

import functools
import pickle
from pathlib import Path

import pytest

from repro.core import CheckpointChain, MonotoneViolation
from repro.durability import (
    DurableSketch,
    OsFilesystem,
    SimulatedCrash,
    Snapshot,
    WalCorruptionError,
    list_segments,
    recover,
)
from repro.durability.recovery import SEALED_LOG, DeltaSnapshot, list_snapshots
from repro.io import encode_sketch, load_sketch
from repro.persistent import (
    AttpSampleHeavyHitter,
    BitpSampleHeavyHitter,
    BitpTreeMisraGries,
)
from repro.sketches import CountMinSketch


def attp_factory():
    return AttpSampleHeavyHitter(k=128, seed=7)


def bitp_factory():
    return BitpSampleHeavyHitter(k=256, seed=7)


def keyed_stream(n):
    # Deterministic skewed keys: key i*i % 37 concentrates mass on residues.
    return [((i * i) % 37, float(i)) for i in range(n)]


def feed(store, n):
    for key, timestamp in keyed_stream(n):
        store.update(key, timestamp)


def reference(factory, n):
    sketch = factory()
    for key, timestamp in keyed_stream(n):
        sketch.update(key, timestamp)
    return sketch


class TestIngestAndReopen:
    def test_reopen_restores_exact_answers(self, tmp_path):
        store = DurableSketch.open(attp_factory, tmp_path, snapshot_every=400)
        feed(store, 1_500)
        expected = store.heavy_hitters_at(1_499.0, 0.05)
        store.wal.close()  # abrupt stop: no final snapshot, no tidy close

        reopened = DurableSketch.open(attp_factory, tmp_path, snapshot_every=400)
        assert reopened.count == 1_500
        assert reopened.heavy_hitters_at(1_499.0, 0.05) == expected
        ref = reference(attp_factory, 1_500)
        assert reopened.estimate_at(0, 1_499.0) == ref.estimate_at(0, 1_499.0)

    def test_reopen_continues_deterministically(self, tmp_path):
        store = DurableSketch.open(attp_factory, tmp_path, snapshot_every=300)
        feed(store, 1_000)
        store.wal.close()
        reopened = DurableSketch.open(attp_factory, tmp_path, snapshot_every=300)
        for key, timestamp in keyed_stream(1_400)[1_000:]:
            reopened.update(key, timestamp)
        ref = reference(attp_factory, 1_400)
        assert reopened.count == 1_400
        assert reopened.heavy_hitters_at(1_399.0, 0.05) == ref.heavy_hitters_at(
            1_399.0, 0.05
        )

    def test_bitp_reopen_restores_window_answers(self, tmp_path):
        store = DurableSketch.open(bitp_factory, tmp_path, snapshot_every=500)
        feed(store, 2_000)
        expected = store.heavy_hitters_since(1_500.0, 0.05)
        store.wal.close()
        reopened = DurableSketch.open(bitp_factory, tmp_path)
        assert reopened.count == 2_000
        assert reopened.heavy_hitters_since(1_500.0, 0.05) == expected

    def test_close_takes_final_snapshot_and_truncates(self, tmp_path):
        store = DurableSketch.open(attp_factory, tmp_path, snapshot_every=0)
        feed(store, 800)
        assert list_snapshots(tmp_path) == []
        store.close()
        snapshots = list_snapshots(tmp_path)
        assert len(snapshots) == 1
        # Recovery from snapshot alone (WAL fully truncated) is exact.
        result = recover(tmp_path, attp_factory)
        assert result.sketch.count == 800 and result.replayed == 0

    def test_snapshot_pruning_keeps_fallbacks(self, tmp_path):
        store = DurableSketch.open(
            attp_factory, tmp_path, snapshot_every=100, keep_snapshots=2
        )
        feed(store, 1_000)
        assert len(list_snapshots(tmp_path)) == 2
        store.close()

    def test_weighted_updates_logged_and_replayed(self, tmp_path):
        from repro.core import PersistentPrioritySample

        factory = lambda: PersistentPrioritySample(k=32, seed=3)
        store = DurableSketch.open(factory, tmp_path, snapshot_every=0)
        for i in range(500):
            store.update(i % 11, float(i), weight=1.0 + (i % 5))
        expected = sorted(store.sketch.raw_sample_at(499.0))
        store.wal.close()
        result = recover(tmp_path, factory)
        assert sorted(result.sketch.raw_sample_at(499.0)) == expected


class TestRejectedUpdates:
    def test_rejected_update_replays_as_rejection(self, tmp_path):
        store = DurableSketch.open(attp_factory, tmp_path, snapshot_every=0)
        feed(store, 100)
        with pytest.raises(MonotoneViolation):
            store.update(5, 1.0)  # time travel: rejected but logged
        feed_more = keyed_stream(150)[100:]
        for key, timestamp in feed_more:
            store.update(key, timestamp)
        answers = store.heavy_hitters_at(149.0, 0.05)
        store.wal.close()

        result = recover(tmp_path, attp_factory)
        assert result.rejected == 1
        assert result.replayed == 150
        assert result.sketch.count == 150
        assert result.sketch.heavy_hitters_at(149.0, 0.05) == answers


class TestDamageHandling:
    def test_torn_final_record_truncated_not_raised(self, tmp_path):
        store = DurableSketch.open(attp_factory, tmp_path, snapshot_every=0)
        feed(store, 300)
        store.wal.close()
        [segment] = list_segments(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-5])

        result = recover(tmp_path, attp_factory)
        assert result.torn_bytes > 0
        assert result.truncated_segment == segment
        assert result.sketch.count == 299
        ref = reference(attp_factory, 299)
        assert result.sketch.heavy_hitters_at(298.0, 0.05) == ref.heavy_hitters_at(
            298.0, 0.05
        )
        # After truncation the directory recovers clean a second time.
        assert recover(tmp_path, attp_factory).clean

    def test_interior_corruption_quarantined_and_raised(self, tmp_path):
        store = DurableSketch.open(
            attp_factory, tmp_path, snapshot_every=0, segment_bytes=4096
        )
        feed(store, 2_000)
        store.wal.close()
        segments = list_segments(tmp_path)
        assert len(segments) > 2
        victim = segments[1]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))

        with pytest.raises(WalCorruptionError, match="quarantined"):
            recover(tmp_path, attp_factory)
        assert not victim.exists()
        assert victim.with_suffix(victim.suffix + ".quarantine").exists()

    def test_non_strict_serves_prefix_before_damage(self, tmp_path):
        store = DurableSketch.open(
            attp_factory, tmp_path, snapshot_every=0, segment_bytes=4096
        )
        feed(store, 2_000)
        store.wal.close()
        segments = list_segments(tmp_path)
        victim = segments[1]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))

        result = recover(tmp_path, attp_factory, strict=False)
        assert result.corruption_detail
        assert 0 < result.sketch.count < 2_000
        ref = reference(attp_factory, result.sketch.count)
        t = float(result.sketch.count - 1)
        assert result.sketch.heavy_hitters_at(t, 0.05) == ref.heavy_hitters_at(t, 0.05)

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path):
        store = DurableSketch.open(
            attp_factory, tmp_path, snapshot_every=400, keep_snapshots=3
        )
        feed(store, 1_500)
        store.wal.close()
        newest = list_snapshots(tmp_path)[0]
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))

        result = recover(tmp_path, attp_factory)
        assert result.snapshot_path is not None
        assert result.snapshot_path != newest
        assert [q for q in result.quarantined if q.name.endswith(".corrupt")]
        # Older snapshot + longer replay still reaches the same final state…
        assert result.sketch.count == 1_500
        ref = reference(attp_factory, 1_500)
        assert result.sketch.heavy_hitters_at(1_499.0, 0.05) == ref.heavy_hitters_at(
            1_499.0, 0.05
        )

    def test_all_snapshots_corrupt_replays_from_scratch(self, tmp_path):
        store = DurableSketch.open(
            attp_factory, tmp_path, snapshot_every=400, segment_bytes=4096
        )
        feed(store, 1_000)
        assert store.wal.segments_removed > 0  # prefix truly truncated
        store.wal.close()
        # Snapshots gone, but the WAL was only truncated up to the newest
        # snapshot — destroying snapshots loses the truncated prefix, so
        # recovery without them must fail loudly via the sequence check,
        # not silently return a partial sketch.
        for snapshot in list_snapshots(tmp_path):
            snapshot.unlink()
        with pytest.raises(WalCorruptionError, match="sequence gap"):
            recover(tmp_path, attp_factory)

    def test_empty_directory_needs_factory(self, tmp_path):
        from repro.io import SketchFileError

        with pytest.raises(SketchFileError, match="no usable snapshot"):
            recover(tmp_path)


class TestDurableSketchErgonomics:
    def test_context_manager_closes_cleanly(self, tmp_path):
        with DurableSketch.open(attp_factory, tmp_path) as store:
            feed(store, 200)
        assert len(list_snapshots(tmp_path)) == 1

    def test_query_forwarding_and_stats(self, tmp_path):
        store = DurableSketch.open(attp_factory, tmp_path, snapshot_every=100)
        feed(store, 350)
        assert store.count == 350  # forwarded to the wrapped sketch
        assert store.k == 128
        stats = store.stats()
        assert stats["records_appended"] == 350
        assert stats["snapshots_taken"] == 3
        with pytest.raises(AttributeError):
            store.no_such_method
        store.close()

    def test_wrapped_sketch_still_pickles(self, tmp_path):
        store = DurableSketch.open(attp_factory, tmp_path, snapshot_every=0)
        feed(store, 100)
        clone = pickle.loads(pickle.dumps(store.sketch))
        assert clone.heavy_hitters_at(99.0, 0.05) == store.heavy_hitters_at(99.0, 0.05)
        store.close()


# -- delta snapshots -----------------------------------------------------------


def chain_factory():
    return CheckpointChain(functools.partial(CountMinSketch, 128, 3, 1), eps=0.05)


class Forwarding:
    """A wrapper that forwards every unknown attribute, like a proxy."""

    def __init__(self, inner):
        self.inner = inner

    def update(self, value, timestamp, weight=1.0):
        self.inner.update(value, timestamp, weight)

    def __getattr__(self, name):
        if name.startswith("_") or name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


def chain_state(chain):
    """Checkpoints, live table, guard and counts, in comparable form."""
    return (
        chain.count,
        chain.total_weight,
        chain._weight_at_last_checkpoint,
        chain._previous_timestamp,
        chain._guard.last,
        chain.live.counters().tobytes(),
        [(ts, snap.counters().tobytes()) for ts, snap in chain.checkpoints()],
    )


def chain_reference(n):
    return reference(chain_factory, n)


class _CrashBeforeHeadRename(OsFilesystem):
    """Dies before renaming a snapshot into place: the sealed frame is
    already fsynced, so ``sealed.log`` ends in residue no snapshot names."""

    def replace(self, source, destination):
        if Path(destination).name.startswith("snapshot-"):
            raise SimulatedCrash("crash before the snapshot rename")
        super().replace(source, destination)


class TestDeltaSnapshots:
    def test_restored_state_equals_a_full_pickle_round_trip(self, tmp_path):
        store = DurableSketch.open(chain_factory, tmp_path, snapshot_every=0)
        fed = 0
        for step in (1, 50, 400, 700, 1_500, 3_000):
            for key, timestamp in keyed_stream(step)[fed:]:
                store.update(key, timestamp)
            fed = step
            store.snapshot()
            head = load_sketch(list_snapshots(tmp_path)[0])
            assert isinstance(head, DeltaSnapshot)
            assert head.sealed_count == store.num_checkpoints()
            full = pickle.loads(pickle.dumps(store.sketch))
            result = recover(tmp_path, chain_factory)
            assert result.sealed_count == store.num_checkpoints()
            assert result.sealed_bytes == (tmp_path / SEALED_LOG).stat().st_size
            assert chain_state(result.sketch) == chain_state(full)
        store.close()
        assert chain_state(recover(tmp_path, chain_factory).sketch) == chain_state(
            chain_reference(3_000)
        )

    def test_each_sealed_checkpoint_is_written_once(self, tmp_path):
        store = DurableSketch.open(chain_factory, tmp_path, snapshot_every=250)
        feed(store, 4_000)
        store.close()
        frame_total = (tmp_path / SEALED_LOG).stat().st_size
        one = len(encode_sketch(list(store.checkpoints())[:1]))
        # One frame per snapshot, each holding only the new checkpoints.
        assert frame_total < (store.num_checkpoints() + store.snapshots_taken) * one
        head = list_snapshots(tmp_path)[0].stat().st_size
        assert head < 2 * len(encode_sketch(store.live))

    def test_corrupt_sealed_frame_falls_back_to_older_snapshot(self, tmp_path):
        store = DurableSketch.open(
            chain_factory, tmp_path, snapshot_every=0, keep_snapshots=3
        )
        feed(store, 1_000)
        store.snapshot()
        older_bytes = store._sealed_bytes
        older = list_snapshots(tmp_path)[0]
        for key, timestamp in keyed_stream(3_000)[1_000:]:
            store.update(key, timestamp)
        store.snapshot()
        newest = list_snapshots(tmp_path)[0]
        store.wal.close()
        log = tmp_path / SEALED_LOG
        data = bytearray(log.read_bytes())
        assert len(data) > older_bytes  # the newest frame lies past the older prefix
        data[-1] ^= 0xFF  # damage the newest frame's payload
        log.write_bytes(bytes(data))

        result = recover(tmp_path, chain_factory)
        assert result.snapshot_path == older
        assert newest.with_suffix(newest.suffix + ".corrupt") in result.quarantined
        assert result.sealed_bytes == older_bytes
        # the older head plus a longer WAL replay reaches the same state
        assert chain_state(result.sketch) == chain_state(chain_reference(3_000))

    def test_stale_log_tail_truncated_on_reopen(self, tmp_path):
        store = DurableSketch.open(
            chain_factory, tmp_path, snapshot_every=0, fs=_CrashBeforeHeadRename()
        )
        feed(store, 1_500)
        with pytest.raises(SimulatedCrash):
            store.snapshot()
        store.wal.close()
        residue = (tmp_path / SEALED_LOG).stat().st_size
        assert residue > 0 and not list_snapshots(tmp_path)

        reopened = DurableSketch.open(chain_factory, tmp_path, snapshot_every=500)
        assert reopened.count == 1_500
        assert reopened.last_recovery.sealed_bytes == 0  # the residue is unnamed
        for key, timestamp in keyed_stream(4_000)[1_500:]:
            reopened.update(key, timestamp)
        reopened.close()
        # the first append cut the residue: the log is exactly the named prefix
        head = load_sketch(list_snapshots(tmp_path)[0])
        assert (tmp_path / SEALED_LOG).stat().st_size == head.sealed_bytes
        expected = chain_state(chain_reference(4_000))
        assert chain_state(reopened.sketch) == expected
        assert chain_state(recover(tmp_path, chain_factory).sketch) == expected

    def test_structure_without_the_protocol_writes_a_full_pickle(self, tmp_path):
        def factory():
            return BitpTreeMisraGries(eps=0.05, block_size=32)

        store = DurableSketch.open(factory, tmp_path, snapshot_every=0)
        feed(store, 500)
        path = store.snapshot()
        stored = load_sketch(path)
        assert type(stored) is Snapshot
        assert path.read_bytes() == encode_sketch(
            Snapshot(store.sketch, stored.seqno, wall_time=stored.wall_time)
        )
        assert not (tmp_path / SEALED_LOG).exists()
        store.close()

    def test_forwarding_wrapper_gets_deltas(self, tmp_path):
        def factory():
            return Forwarding(chain_factory())

        store = DurableSketch.open(factory, tmp_path, snapshot_every=400)
        feed(store, 2_000)
        store.close()
        assert isinstance(load_sketch(list_snapshots(tmp_path)[0]), DeltaSnapshot)
        assert (tmp_path / SEALED_LOG).stat().st_size > 0
        recovered = recover(tmp_path, factory).sketch
        assert isinstance(recovered, Forwarding)
        assert chain_state(recovered.inner) == chain_state(chain_reference(2_000))
