"""DurableSketch: crash-safe ingestion around any ATTP/BITP sketch.

The write path is the classic WAL protocol:

1. ``update(value, timestamp, weight)`` frames the record and appends it to
   the :class:`~repro.durability.wal.WriteAheadLog` **first**;
2. only then is the update applied to the in-memory sketch (through
   :func:`repro.core.apply_stream_update`, the same dispatch replay uses);
3. every ``snapshot_every`` accepted updates, a framed snapshot
   (``repro.io`` format) is written via an atomic, fsynced temp-file
   rename, and *only after* the snapshot is durable are the WAL segments
   it covers deleted.  For most sketches the snapshot holds the whole
   sketch.  A structure whose history is append-only (it has
   ``persist_since`` / ``restore``, as :class:`~repro.core.CheckpointChain`
   does) is written as a delta instead: the entries sealed since the last
   snapshot are appended as one frame to ``sealed.log`` and fsynced, and
   only then is the small head snapshot written, naming the log prefix it
   needs.  A sealed entry is thus written once, not once per snapshot.

Consequences:

* a crash at any instant loses at most the in-flight update (plus, under
  ``fsync_policy='batch'``/``'off'``, unsynced appends the OS had not yet
  written back — bounded by ``batch_every``);
* :func:`repro.durability.recovery.recover` always finds either the old
  snapshot + full WAL, or the new snapshot + WAL tail — never a state with
  holes;
* an update the sketch itself rejects (``MonotoneViolation``, bad weight)
  re-raises to the caller *after* being logged; replay re-rejects it
  deterministically, so the WAL never needs compensation records.

Queries go straight to the wrapped sketch (attribute access is forwarded),
so a ``DurableSketch`` answers ``heavy_hitters_at`` / ``quantile_at`` /
``estimate_since`` exactly like the sketch it protects.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.core.base import apply_stream_batch, apply_stream_update, check_batch_lengths
from repro.core.batch import StreamBatch
from repro.durability.faults import OsFilesystem
from repro.durability.recovery import (
    SEALED_LOG,
    DeltaSnapshot,
    Snapshot,
    list_snapshots,
    recover,
    snapshot_name,
)
from repro.durability.wal import WriteAheadLog, list_segments
from repro.io import encode_sketch
from repro.telemetry.registry import TELEMETRY as _TEL, timed
from repro.telemetry.spans import span

_SNAPSHOTS = _TEL.counter(
    "store_snapshots_total",
    "Durable snapshots written by DurableSketch stores.",
)
_REJECTED = _TEL.counter(
    "store_updates_rejected_total",
    "Logged updates the wrapped sketch rejected (replayed identically).",
)
_SNAPSHOT_SECONDS = _TEL.histogram(
    "store_snapshot_seconds",
    "Wall time of one snapshot (WAL flush + encode + atomic write + truncate).",
)
_SNAPSHOT_BYTES = _TEL.histogram(
    "store_snapshot_bytes",
    "Bytes one snapshot writes: the snapshot file plus any sealed-log frame.",
    buckets=tuple(m * 10.0 ** e for e in range(2, 10) for m in (1, 2.5, 5)),
)


class DurableSketch:
    """A sketch whose accepted updates survive process death.

    Build fresh or resume with :meth:`open`; ingest with :meth:`update`;
    query through any attribute of the wrapped sketch.  ``snapshot_every=0``
    disables automatic snapshots (call :meth:`snapshot` manually).
    """

    def __init__(
        self,
        sketch: Any,
        directory,
        *,
        fs: Optional[OsFilesystem] = None,
        fsync_policy: str = "batch",
        batch_every: int = 64,
        snapshot_every: int = 10_000,
        segment_bytes: int = 1 << 20,
        keep_snapshots: int = 2,
        next_seqno: int = 1,
        applied_seqno: int = 0,
        snapshot_seqno: int = 0,
    ):
        if snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
        if keep_snapshots < 1:
            raise ValueError(f"keep_snapshots must be >= 1, got {keep_snapshots}")
        self._sketch = sketch
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fs = fs or OsFilesystem()
        self.snapshot_every = snapshot_every
        self.keep_snapshots = keep_snapshots
        self.applied_seqno = applied_seqno
        self.last_snapshot_seqno = snapshot_seqno
        # Snapshot cadence counts *updates*, not records: a BATCH record
        # advances it by its length.  Seeded from the seqno gap so resumed
        # scalar-only stores behave exactly as before.
        self._updates_since_snapshot = max(0, applied_seqno - snapshot_seqno)
        self.snapshots_taken = 0
        self.updates_rejected = 0
        # Delta snapshots: sealed entries persisted so far and the sealed.log
        # prefix holding them.  The log opens lazily, at the first frame.
        self._sealed_count = 0
        self._sealed_bytes = 0
        self._sealed_log = None
        self.wal = WriteAheadLog(
            self.directory,
            fs=self.fs,
            fsync_policy=fsync_policy,
            batch_every=batch_every,
            segment_bytes=segment_bytes,
            next_seqno=next_seqno,
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def open(
        cls,
        factory: Callable[[], Any],
        directory,
        *,
        strict: bool = True,
        **options,
    ) -> "DurableSketch":
        """Open ``directory``, recovering any existing state first.

        ``factory`` builds the empty sketch — with the *same* parameters and
        seed every time, since replay determinism depends on it.  On a fresh
        directory this is just ``factory()`` plus an empty WAL.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        has_state = bool(list_segments(directory)) or bool(list_snapshots(directory))
        if has_state:
            result = recover(directory, factory, strict=strict, fs=options.get("fs"))
            store = cls(
                result.sketch,
                directory,
                next_seqno=result.last_seqno + 1,
                applied_seqno=result.last_seqno,
                snapshot_seqno=result.snapshot_seqno,
                **options,
            )
            store._sealed_count = result.sealed_count
            store._sealed_bytes = result.sealed_bytes
            store.last_recovery = result
            return store
        store = cls(factory(), directory, **options)
        store.last_recovery = None
        return store

    # -- ingestion ----------------------------------------------------------

    def update(self, value: Any, timestamp: float, weight: float = 1.0) -> int:
        """Log, then apply, one stream update; returns its sequence number.

        When this returns, the update is in the WAL (on stable storage under
        ``fsync_policy='always'``) *and* applied to the in-memory sketch.
        If the sketch rejects the offer (``MonotoneViolation``, hostile
        weight), the exception propagates and the logged record will be
        re-rejected identically at replay — accepted state is never skewed.
        """
        seqno = self.wal.append(value, timestamp, weight)
        self._updates_since_snapshot += 1
        try:
            apply_stream_update(self._sketch, value, timestamp, weight)
        except ValueError:
            self.updates_rejected += 1
            self.applied_seqno = seqno
            if _TEL.enabled:
                _REJECTED.inc()
            raise
        self.applied_seqno = seqno
        if self.snapshot_every and self._updates_since_snapshot >= self.snapshot_every:
            self.snapshot()
        return seqno

    def update_batch(self, values, timestamps=None, weights=None) -> int:
        """Log one BATCH record, then apply the batch; returns its seqno.

        Accepts the triple form or a single
        :class:`~repro.core.StreamBatch`.  The whole batch is one WAL
        record under a single sequence number, so durability costs one
        frame (and at most one fsync) regardless of the batch size, and
        replay re-applies it through the same
        :func:`repro.core.apply_stream_batch` dispatch — vectorized when
        the sketch has ``update_batch``, a scalar loop otherwise.

        The logged payload is *columnar*: the NumPy arrays themselves are
        pickled into the ``BATCH`` record, and the very same arrays are
        then applied to the in-memory sketch — no per-item Python list
        copies on the durable hot path.  Replay decodes the arrays back
        (a NumPy pickle round-trip is exact: dtype + buffer) and applies
        them through the same dispatch, so recovered state is
        bit-identical, RNG position included.

        Mirrors :meth:`update` on rejection: a batch whose item ``i`` is
        rejected mid-way has items ``[0, i)`` applied (prefix-apply), the
        exception propagates, and replay re-rejects it at the same item.
        """
        if timestamps is None and weights is None and isinstance(values, StreamBatch):
            values, timestamps, weights = values.astuple()
        n = check_batch_lengths(values, timestamps, weights)
        if n == 0:
            return self.applied_seqno
        # Coerce once at the boundary: the applied batch and the logged
        # payload are then the *same* arrays — replay is bit-identical.
        values = np.asarray(values)
        timestamps = np.asarray(timestamps)
        weights = None if weights is None else np.asarray(weights)
        seqno = self.wal.append_batch(values, timestamps, weights)
        self._updates_since_snapshot += n
        try:
            apply_stream_batch(self._sketch, values, timestamps, weights)
        except ValueError:
            self.updates_rejected += 1
            self.applied_seqno = seqno
            if _TEL.enabled:
                _REJECTED.inc()
            raise
        self.applied_seqno = seqno
        if self.snapshot_every and self._updates_since_snapshot >= self.snapshot_every:
            self.snapshot()
        return seqno

    def update_many(self, values, timestamps, weights=None) -> int:
        """Bulk :meth:`update`: one WAL record *per item* (see
        :meth:`update_batch` for the single-record batched form).  Returns
        the last sequence number assigned."""
        seqno = self.applied_seqno
        if weights is None:
            for value, timestamp in zip(values, timestamps):
                seqno = self.update(value, timestamp)
        else:
            for value, timestamp, weight in zip(values, timestamps, weights):
                seqno = self.update(value, timestamp, weight)
        return seqno

    # -- snapshots ----------------------------------------------------------

    @timed(_SNAPSHOT_SECONDS)
    def snapshot(self) -> Path:
        """Write a durable snapshot, then truncate the WAL it covers.

        The ordering is the whole point: WAL flush → any new sealed entries
        appended to ``sealed.log`` and fsynced → snapshot bytes fsynced →
        atomic rename → directory fsync → *only then* segment deletion.
        A crash anywhere in between leaves a recoverable directory.
        """
        with span("store.snapshot"):
            self.wal.flush()
            seqno = self.applied_seqno
            persist_since = getattr(self._sketch, "persist_since", None)
            if persist_since is None:
                payload = Snapshot(self._sketch, seqno, wall_time=time.time())
                frame_bytes = 0
            else:
                head, sealed, marker = persist_since(self._sealed_count)
                frame_bytes = self._append_sealed(sealed) if sealed else 0
                self._sealed_count = marker
                payload = DeltaSnapshot(
                    head, seqno, time.time(), marker, self._sealed_bytes
                )
            path = self.directory / snapshot_name(seqno)
            written = self.fs.write_atomic(path, encode_sketch(payload), durable=True)
            self.last_snapshot_seqno = seqno
            self._updates_since_snapshot = 0
            self.snapshots_taken += 1
            if _TEL.enabled:
                _SNAPSHOTS.inc()
                _SNAPSHOT_BYTES.observe(written + frame_bytes)
            self.wal.truncate_through(seqno)
            self._prune_snapshots()
        return path

    def _append_sealed(self, sealed: list) -> int:
        """Append ``sealed`` as one frame to ``sealed.log`` and fsync it.

        Returns the frame's size.  The log opens on first use; bytes past
        the known-good prefix then are residue of a snapshot that never
        completed, and are cut off first.  If the append or fsync fails the
        handle is dropped, so the next attempt cuts the partial frame too.
        """
        if self._sealed_log is None:
            path = self.directory / SEALED_LOG
            if path.exists() and path.stat().st_size > self._sealed_bytes:
                self.fs.truncate(path, self._sealed_bytes)
            self._sealed_log = self.fs.open_append(path)
        frame = encode_sketch(sealed)
        try:
            self.fs.append(self._sealed_log, frame)
            self.fs.fsync(self._sealed_log)
        except BaseException:
            self._close_sealed_log()
            raise
        self._sealed_bytes += len(frame)
        return len(frame)

    def _close_sealed_log(self) -> None:
        if self._sealed_log is not None:
            self._sealed_log.close()
            self._sealed_log = None

    def _prune_snapshots(self) -> None:
        """Keep the newest ``keep_snapshots`` snapshots as fallbacks.

        The removals need no directory fsync: an old snapshot that a crash
        brings back is one more valid fallback, pruned by the next snapshot.
        """
        for path in list_snapshots(self.directory)[self.keep_snapshots :]:
            self.fs.remove(path)

    # -- lifecycle / introspection ------------------------------------------

    @property
    def sketch(self) -> Any:
        """The wrapped in-memory sketch (shared, not a copy)."""
        return self._sketch

    def stats(self) -> dict:
        """Counters for monitoring: log/snapshot/rejection activity."""
        return {
            "applied_seqno": self.applied_seqno,
            "records_appended": self.wal.records_appended,
            "snapshots_taken": self.snapshots_taken,
            "last_snapshot_seqno": self.last_snapshot_seqno,
            "segments_live": len(self.wal.segments()),
            "segments_removed": self.wal.segments_removed,
            "updates_rejected": self.updates_rejected,
        }

    def flush(self) -> None:
        """Durability barrier: make every accepted update stable."""
        self.wal.flush()

    def close(self, final_snapshot: bool = True) -> None:
        """Flush (and by default snapshot) then release the WAL."""
        if final_snapshot and self.applied_seqno > self.last_snapshot_seqno:
            self.snapshot()
        else:
            self.wal.flush()
        self.wal.close()
        self._close_sealed_log()

    def __enter__(self) -> "DurableSketch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Crash-looking exits (including SimulatedCrash) skip the tidy
        # close: recovery is the code path that must handle them.
        if exc_type is None:
            self.close()

    def __getattr__(self, name: str) -> Any:
        # Forward queries (heavy_hitters_at, quantile_at, count, ...) to the
        # wrapped sketch.  Only called when normal lookup fails, so the
        # store's own attributes always win.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._sketch, name)
