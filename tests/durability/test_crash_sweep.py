"""Kill-point sweep: crash ingestion everywhere, prove recovery exact.

The acceptance bar for the durability layer: run a >=10k-update ingest under
a tracing filesystem, enumerate every labelled filesystem operation (WAL
appends and fsyncs, snapshot temp-writes / fsyncs / renames / dirsyncs, WAL
segment deletions), then re-run the identical ingest crashing at kill points
drawn from *every* operation category — before the op, after it, and (for
data writes) mid-write leaving a torn record.  After each crash, recovery
must produce a sketch whose ``count`` and ATTP/BITP query answers exactly
match a never-crashed reference run over the recovered prefix, and must
never lose an acknowledged update (``fsync_policy='always'``).

A third pass sweeps a :class:`~repro.core.CheckpointChain`, whose snapshots
are deltas: the sealed-log appends, fsyncs and the crash-residue truncate
are kill points too.

Marked ``crash`` so CI can run the sweep as its own job; it also runs in the
plain tier-1 suite (``pytest`` with no ``-m`` filter).
"""

import functools
from pathlib import Path

import pytest

from repro.core import CheckpointChain
from repro.durability import (
    DurableSketch,
    FaultPlan,
    FaultyFilesystem,
    OsFilesystem,
    SimulatedCrash,
    recover,
)
from repro.persistent import AttpSampleHeavyHitter, BitpSampleHeavyHitter
from repro.sketches import CountMinSketch

pytestmark = pytest.mark.crash

N_UPDATES = 10_000
UNIVERSE = 61
SNAPSHOT_EVERY = 2_500
SEGMENT_BYTES = 64 * 1024  # force several rotations over 10k records
QUERY_TIMES = (0.25, 0.5, 0.75, 1.0)  # fractions of the recovered prefix
PHI = 0.03


def attp_factory():
    return AttpSampleHeavyHitter(k=512, seed=11)


def bitp_factory():
    return BitpSampleHeavyHitter(k=1024, seed=11)


def stream(n=N_UPDATES):
    # Skewed deterministic keys: quadratic residues concentrate mass.
    return [((i * i) % UNIVERSE, float(i)) for i in range(n)]


def ingest(directory, fs, factory, n=N_UPDATES):
    """Run the ingest; returns the number of acknowledged updates."""
    store = DurableSketch.open(
        factory,
        directory,
        fs=fs,
        fsync_policy="always",
        snapshot_every=SNAPSHOT_EVERY,
        segment_bytes=SEGMENT_BYTES,
    )
    acked = 0
    for key, timestamp in stream(n):
        store.update(key, timestamp)
        acked += 1
    store.close()
    return acked


def attp_answers(sketch, count):
    times = [max(0.0, fraction * count - 1) for fraction in QUERY_TIMES]
    return (
        sketch.count,
        [sketch.heavy_hitters_at(t, PHI) for t in times],
        [sketch.estimate_at(key, times[-1]) for key in range(0, UNIVERSE, 7)],
    )


def bitp_answers(sketch, count):
    times = [max(0.0, fraction * count - 1) for fraction in QUERY_TIMES]
    return (
        sketch.count,
        [sketch.heavy_hitters_since(t, PHI) for t in times],
        [sketch.estimate_since(key, times[0]) for key in range(0, UNIVERSE, 7)],
    )


def reference_answers(factory, count, answers):
    ref = factory()
    for key, timestamp in stream(count):
        ref.update(key, timestamp)
    return answers(ref, count)


def trace_ops(tmp_path, factory):
    """One clean traced run; returns the labelled operation sequence."""
    fs = FaultyFilesystem()
    ingest(tmp_path / "trace", fs, factory)
    return fs.ops


def category(label):
    """Collapse a label like 'append:wal-00000003.log' to its op category."""
    kind, _, name = label.partition(":")
    if name.startswith("wal-"):
        return f"{kind}:wal"
    if name.startswith("snapshot-"):
        return f"{kind}:snapshot"
    if name.startswith("sealed"):
        return f"{kind}:sealed"
    return kind


def kill_points(ops, spread=lambda cat: True):
    """Pick sweep points: first / middle / last op of every category (only
    the middle one where ``spread(category)`` is false), in every
    applicable crash mode."""
    by_category = {}
    for op in ops:
        by_category.setdefault(category(op.label), []).append(op.index)
    points = []
    for cat, indices in sorted(by_category.items()):
        chosen = sorted({indices[0], indices[len(indices) // 2], indices[-1]})
        if not spread(cat):
            chosen = [indices[len(indices) // 2]]
        writes = cat.startswith(("append", "write"))
        modes = ("before", "after", "torn") if writes else ("before", "after")
        for index in chosen:
            for mode in modes:
                points.append(pytest.param(index, mode, id=f"{cat}-op{index}-{mode}"))
    return points


_ATTP_OPS = None


def attp_kill_points():
    # Trace lazily at collection time, once, in a shared temp directory.
    global _ATTP_OPS
    if _ATTP_OPS is None:
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as scratch:
            _ATTP_OPS = trace_ops(Path(scratch), attp_factory)
    return kill_points(_ATTP_OPS)


class TestAttpKillPointSweep:
    @pytest.mark.parametrize("crash_at,mode", attp_kill_points())
    def test_recovery_matches_uncrashed_reference(self, tmp_path, crash_at, mode):
        fs = FaultyFilesystem(FaultPlan(crash_at=crash_at, crash_mode=mode))
        acked = 0
        try:
            directory = tmp_path / "state"
            store = DurableSketch.open(
                attp_factory,
                directory,
                fs=fs,
                fsync_policy="always",
                snapshot_every=SNAPSHOT_EVERY,
                segment_bytes=SEGMENT_BYTES,
            )
            for key, timestamp in stream():
                store.update(key, timestamp)
                acked += 1
            store.close()
        except SimulatedCrash:
            pass
        assert fs.crashed, "kill point was never reached"

        result = recover(directory, attp_factory)
        recovered = result.sketch.count
        # No acknowledged update may be lost; at most the one in-flight,
        # unacknowledged update may additionally survive.
        assert acked <= recovered <= acked + 1
        assert result.last_seqno >= result.snapshot_seqno
        # Exactness: identical answers to a never-crashed run of the prefix.
        assert attp_answers(result.sketch, recovered) == reference_answers(
            attp_factory, recovered, attp_answers
        )

    def test_reingest_after_recovery_reaches_full_stream_state(self, tmp_path):
        """Crash mid-stream, recover, finish the stream: final answers match
        a run that never crashed at all."""
        fs = FaultyFilesystem(FaultPlan(crash_at=9_000, crash_mode="torn"))
        directory = tmp_path / "state"
        acked = 0
        try:
            store = DurableSketch.open(
                attp_factory,
                directory,
                fs=fs,
                fsync_policy="always",
                snapshot_every=SNAPSHOT_EVERY,
                segment_bytes=SEGMENT_BYTES,
            )
            for key, timestamp in stream():
                store.update(key, timestamp)
                acked += 1
        except SimulatedCrash:
            pass
        assert fs.crashed

        resumed = DurableSketch.open(
            attp_factory,
            directory,
            fsync_policy="batch",
            snapshot_every=SNAPSHOT_EVERY,
            segment_bytes=SEGMENT_BYTES,
        )
        for key, timestamp in stream()[resumed.count :]:
            resumed.update(key, timestamp)
        assert resumed.count == N_UPDATES
        assert attp_answers(resumed.sketch, N_UPDATES) == reference_answers(
            attp_factory, N_UPDATES, attp_answers
        )
        resumed.close()


class TestBitpKillPoints:
    """A lighter pass with a BITP sketch: one kill point per category."""

    @pytest.fixture(scope="class")
    def bitp_points(self, tmp_path_factory):
        ops = trace_ops(tmp_path_factory.mktemp("bitp-trace"), bitp_factory)
        by_category = {}
        for op in ops:
            by_category.setdefault(category(op.label), []).append(op.index)
        return sorted(
            indices[len(indices) // 2] for indices in by_category.values()
        )

    def test_recovery_matches_reference_at_each_category(
        self, tmp_path, bitp_points
    ):
        for crash_at in bitp_points:
            directory = tmp_path / f"state-{crash_at}"
            fs = FaultyFilesystem(FaultPlan(crash_at=crash_at, crash_mode="torn"))
            acked = 0
            try:
                store = DurableSketch.open(
                    bitp_factory,
                    directory,
                    fs=fs,
                    fsync_policy="always",
                    snapshot_every=SNAPSHOT_EVERY,
                    segment_bytes=SEGMENT_BYTES,
                )
                for key, timestamp in stream():
                    store.update(key, timestamp)
                    acked += 1
                store.close()
            except SimulatedCrash:
                pass
            assert fs.crashed

            result = recover(directory, bitp_factory)
            recovered = result.sketch.count
            assert acked <= recovered <= acked + 1
            assert bitp_answers(result.sketch, recovered) == reference_answers(
                bitp_factory, recovered, bitp_answers
            )


# -- delta snapshots: a CheckpointChain(CountMin) pass ------------------------

CHAIN_UPDATES = 4_000
CHAIN_SNAPSHOT_EVERY = 800


def chain_factory():
    return CheckpointChain(functools.partial(CountMinSketch, 64, 3, 5), eps=0.05)


def chain_state(chain):
    """Everything a chain answers from, in comparable form."""
    return (
        chain.count,
        chain.total_weight,
        chain._guard.last,
        chain.live.counters().tobytes(),
        [(ts, snap.counters().tobytes()) for ts, snap in chain.checkpoints()],
    )


class _CrashAtFirstHeadRename(OsFilesystem):
    """Dies just before the first snapshot rename: its sealed frame is
    fsynced in ``sealed.log`` but no snapshot names it."""

    def replace(self, source, destination):
        if Path(destination).name.startswith("snapshot-"):
            raise SimulatedCrash("crash before the first snapshot rename")
        super().replace(source, destination)


def chain_store(directory, fs):
    return DurableSketch.open(
        chain_factory,
        directory,
        fs=fs,
        fsync_policy="always",
        snapshot_every=CHAIN_SNAPSHOT_EVERY,
        segment_bytes=SEGMENT_BYTES,
    )


def chain_ingest(directory, fs):
    """Leave sealed-log residue, then resume under ``fs``.

    Returns ``(start, acked)``: the count recovered at the resume, and the
    updates acknowledged after it.  The resume's first snapshot truncates
    the residue, so the sweep's trace holds a ``truncate:sealed.log``.
    """
    try:
        store = chain_store(directory, _CrashAtFirstHeadRename())
        for key, timestamp in stream(CHAIN_UPDATES):
            store.update(key, timestamp)
    except SimulatedCrash:
        pass
    acked = 0
    store = chain_store(directory, fs)
    start = store.count
    try:
        for key, timestamp in stream(CHAIN_UPDATES)[start:]:
            store.update(key, timestamp)
            acked += 1
        store.close()
    except SimulatedCrash:
        pass
    return start, acked


_CHAIN_OPS = None


def chain_kill_points():
    global _CHAIN_OPS
    if _CHAIN_OPS is None:
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            fs = FaultyFilesystem()
            chain_ingest(Path(scratch) / "trace", fs)
            _CHAIN_OPS = fs.ops
    # The ATTP pass already spreads over the WAL and snapshot-file ops.
    return kill_points(_CHAIN_OPS, spread=lambda cat: cat.endswith(":sealed"))


class TestChainDeltaKillPointSweep:
    def test_trace_covers_the_sealed_log(self):
        chain_kill_points()
        categories = {category(op.label) for op in _CHAIN_OPS}
        assert {"append:sealed", "fsync:sealed", "truncate:sealed"} <= categories

    @pytest.mark.parametrize("crash_at,mode", chain_kill_points())
    def test_recovery_matches_uncrashed_reference(self, tmp_path, crash_at, mode):
        fs = FaultyFilesystem(FaultPlan(crash_at=crash_at, crash_mode=mode))
        directory = tmp_path / "state"
        start, acked = chain_ingest(directory, fs)
        assert fs.crashed, "kill point was never reached"

        result = recover(directory, chain_factory)
        recovered = result.sketch.count
        assert start + acked <= recovered <= start + acked + 1
        reference = chain_factory()
        for key, timestamp in stream(recovered):
            reference.update(key, timestamp)
        assert chain_state(result.sketch) == chain_state(reference)
