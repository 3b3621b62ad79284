"""Crash recovery: newest valid snapshot + WAL tail replay.

The invariant maintained by :class:`repro.durability.store.DurableSketch` is
that at every instant the directory contains a durable snapshot (possibly
the implicit empty one) plus WAL segments holding every accepted update
since that snapshot.  Recovery therefore:

1. loads the newest snapshot that passes the framed-format integrity checks
   (older ones are kept as fallbacks; a corrupt one is renamed to
   ``*.corrupt`` and the next-newest is tried).  A :class:`DeltaSnapshot`
   holds only the structure's head and names a prefix of the append-only
   ``sealed.log``; it counts as valid only when every frame of that prefix
   verifies, and the head is then restored together with the sealed
   entries the prefix holds.  Bytes past the prefix are residue of a
   snapshot that never completed (the store truncates them later);
2. scans WAL segments in order, replaying records with ``seqno`` beyond the
   snapshot through :func:`repro.core.apply_stream_update` — the same
   dispatch used at ingest time, so replay is bit-for-bit identical;
3. tolerates a **torn tail** (a record cut short by a crash mid-append):
   the segment is truncated at the last complete record and ingestion
   continues — by construction a torn record was never acknowledged;
4. **quarantines interior corruption** (CRC damage *not* at the physical
   tail): the segment is renamed to ``*.quarantine`` and a
   :class:`WalCorruptionError` with a precise diagnosis is raised — or, with
   ``strict=False``, replay stops at the damage and the loss is reported in
   the :class:`RecoveryResult` so a caller can choose to serve the prefix.

Updates the sketch itself rejected at ingest time (monotonicity or weight
violations) re-raise identically at replay and are skipped — the WAL logs
*offered* updates, determinism makes rejection reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, List, Optional

from repro.core.base import apply_stream_batch, apply_stream_update
from repro.durability.faults import OsFilesystem
from repro.durability.wal import (
    SegmentScan,
    WalBatchRecord,
    list_segments,
    scan_segment,
)
from repro.io import SketchFileError, decode_frames, load_sketch
from repro.telemetry.registry import TELEMETRY as _TEL, timed
from repro.telemetry.spans import span

_RECOVERIES = _TEL.counter(
    "recovery_runs_total",
    "recover() invocations over DurableSketch directories.",
)
_REPLAYED = _TEL.counter(
    "recovery_records_replayed_total",
    "WAL records re-applied to the sketch during recovery.",
)
_QUARANTINED = _TEL.counter(
    "recovery_segments_quarantined_total",
    "Damaged WAL segments or snapshots moved aside during recovery.",
)
_RECOVERY_SECONDS = _TEL.histogram(
    "recovery_seconds",
    "Wall time of one recover() call (snapshot load + WAL replay).",
)

SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{16})\.sketch$")

#: The append-only log of sealed entries that delta snapshots point into.
SEALED_LOG = "sealed.log"


def snapshot_name(seqno: int) -> str:
    return f"snapshot-{seqno:016d}.sketch"


def snapshot_seqno(path) -> Optional[int]:
    """The sequence number encoded in a snapshot filename, or None."""
    match = SNAPSHOT_PATTERN.match(Path(path).name)
    return int(match.group(1)) if match else None


def list_snapshots(directory) -> List[Path]:
    """Snapshot files under ``directory``, newest (highest seqno) first."""
    directory = Path(directory)
    found = [
        (snapshot_seqno(path), path)
        for path in directory.iterdir()
        if snapshot_seqno(path) is not None
    ]
    return [path for _, path in sorted(found, reverse=True)]


class WalCorruptionError(SketchFileError):
    """A WAL segment is damaged in its interior (not a torn crash tail)."""


@dataclass
class Snapshot:
    """What a snapshot file holds: the sketch plus its WAL position."""

    sketch: Any
    seqno: int
    wall_time: float = 0.0


@dataclass
class DeltaSnapshot(Snapshot):
    """A snapshot of a structure with append-only history.

    ``sketch`` is the structure's head (its ``persist_since`` output); the
    sealed entries live in the first ``sealed_bytes`` bytes of
    ``sealed.log``, ``sealed_count`` of them in all.
    """

    sealed_count: int = 0
    sealed_bytes: int = 0


@dataclass
class RecoveryResult:
    """Everything :func:`recover` learned while rebuilding the sketch."""

    sketch: Any
    last_seqno: int = 0  # highest seqno restored (snapshot or replay)
    snapshot_seqno: int = 0
    snapshot_path: Optional[Path] = None
    replayed: int = 0  # records applied from the WAL
    rejected: int = 0  # records the sketch deterministically rejected
    skipped: int = 0  # records already covered by the snapshot
    torn_bytes: int = 0  # bytes truncated off a torn final record
    truncated_segment: Optional[Path] = None
    quarantined: List[Path] = field(default_factory=list)
    corruption_detail: str = ""
    sealed_count: int = 0  # sealed entries restored from sealed.log
    sealed_bytes: int = 0  # the verified sealed.log prefix they came from

    @property
    def clean(self) -> bool:
        """True when nothing was torn, quarantined, or rejected."""
        return not (self.torn_bytes or self.quarantined or self.corruption_detail)


def _quarantine(fs: OsFilesystem, path: Path, suffix: str) -> Path:
    """Move a damaged file aside (never delete evidence)."""
    target = path.with_suffix(path.suffix + suffix)
    fs.replace(path, target)
    fs.fsync_dir(path.parent)
    if _TEL.enabled:
        _QUARANTINED.inc()
    return target


def _load_newest_snapshot(
    directory: Path,
    fs: OsFilesystem,
    result_quarantined: List[Path],
    factory: Optional[Callable[[], Any]],
) -> tuple:
    """Newest loadable snapshot as ``(snapshot, path)``; corrupt ones moved aside.

    A :class:`DeltaSnapshot` comes back with its head already restored
    (into ``factory()`` when there is a factory, so wrappers it builds
    survive; into the head itself otherwise).
    """
    log = None
    for path in list_snapshots(directory):
        try:
            snapshot = load_sketch(path, expected_class=(Snapshot, DeltaSnapshot))
            if snapshot.seqno != snapshot_seqno(path):
                raise SketchFileError(f"{path}: seqno does not match its name")
            if isinstance(snapshot, DeltaSnapshot):
                if log is None:
                    log_path = directory / SEALED_LOG
                    log = log_path.read_bytes() if log_path.exists() else b""
                snapshot.sketch = _restore_delta(snapshot, log, directory, factory)
        except SketchFileError:
            result_quarantined.append(_quarantine(fs, path, ".corrupt"))
            continue
        return snapshot, path
    return None, None


def _restore_delta(
    snapshot: DeltaSnapshot, log: bytes, directory: Path, factory
) -> Any:
    """Verify the snapshot's ``sealed.log`` prefix and restore its head."""
    origin = str(directory / SEALED_LOG)
    if len(log) < snapshot.sealed_bytes:
        raise SketchFileError(
            f"{origin}: {len(log)} bytes, snapshot needs {snapshot.sealed_bytes}"
        )
    sealed = [
        entry
        for frame in decode_frames(
            memoryview(log)[: snapshot.sealed_bytes], origin, expected_class=list
        )
        for entry in frame
    ]
    if len(sealed) != snapshot.sealed_count:
        raise SketchFileError(
            f"{origin}: prefix holds {len(sealed)} sealed entries, "
            f"snapshot needs {snapshot.sealed_count}"
        )
    head = snapshot.sketch
    target = head if factory is None else factory()
    target.restore(head, sealed)
    return target


@timed(_RECOVERY_SECONDS)
def recover(
    directory,
    factory: Optional[Callable[[], Any]] = None,
    *,
    strict: bool = True,
    fs: Optional[OsFilesystem] = None,
) -> RecoveryResult:
    """Rebuild a sketch from a :class:`DurableSketch` directory.

    ``factory`` builds the empty sketch when no usable snapshot exists (it
    must construct it exactly as the original run did — same parameters,
    same seed — for replay to reproduce the same state); a delta
    snapshot's head is restored into a fresh ``factory()`` too.  With ``strict``
    (default), interior WAL corruption raises :class:`WalCorruptionError`
    after quarantining the damaged segment; with ``strict=False`` replay
    stops at the damage and the partial state is returned.
    """
    with span("recovery.recover"):
        return _recover_inner(directory, factory, strict=strict, fs=fs)


def _recover_inner(
    directory,
    factory: Optional[Callable[[], Any]] = None,
    *,
    strict: bool = True,
    fs: Optional[OsFilesystem] = None,
) -> RecoveryResult:
    if _TEL.enabled:
        _RECOVERIES.inc()
    directory = Path(directory)
    fs = fs or OsFilesystem()
    if not directory.is_dir():
        raise SketchFileError(f"{directory}: not a directory")

    quarantined: List[Path] = []
    snapshot, snapshot_path = _load_newest_snapshot(
        directory, fs, quarantined, factory
    )
    if snapshot is not None:
        sketch = snapshot.sketch
        base_seqno = snapshot.seqno
    else:
        if factory is None:
            raise SketchFileError(
                f"{directory}: no usable snapshot and no factory to start from"
            )
        sketch = factory()
        base_seqno = 0

    result = RecoveryResult(
        sketch=sketch,
        last_seqno=base_seqno,
        snapshot_seqno=base_seqno,
        snapshot_path=snapshot_path,
        quarantined=quarantined,
    )
    if isinstance(snapshot, DeltaSnapshot):
        result.sealed_count = snapshot.sealed_count
        result.sealed_bytes = snapshot.sealed_bytes

    segments = list_segments(directory)
    for position, path in enumerate(segments):
        is_final = position == len(segments) - 1
        scan: SegmentScan = scan_segment(path)
        if scan.status == "corrupt" or (scan.status == "torn" and not is_final):
            # Interior damage: a closed segment must scan clean end-to-end.
            result.quarantined.append(_quarantine(fs, path, ".quarantine"))
            result.corruption_detail = f"{path.name}: {scan.detail}"
            if strict:
                raise WalCorruptionError(
                    f"{path}: interior WAL corruption ({scan.detail}); "
                    f"segment quarantined as {result.quarantined[-1].name} — "
                    f"records after seqno {result.last_seqno} are lost"
                )
            break  # cannot safely replay anything past the damage
        if scan.status == "torn":
            # Normal crash residue: drop the unacknowledged partial record.
            size = path.stat().st_size
            result.torn_bytes = size - scan.good_bytes
            result.truncated_segment = path
            if scan.good_bytes == 0:
                fs.remove(path)
                fs.fsync_dir(directory)
            else:
                fs.truncate(path, scan.good_bytes)
                fs.fsync_file(path)
        for record in scan.records:
            if record.seqno <= base_seqno:
                result.skipped += 1
                continue
            if record.seqno != result.last_seqno + 1:
                detail = (
                    f"{path.name}: sequence gap — expected "
                    f"{result.last_seqno + 1}, found {record.seqno}"
                )
                result.corruption_detail = detail
                if strict:
                    raise WalCorruptionError(f"{directory}: {detail}")
                return result
            try:
                if isinstance(record, WalBatchRecord):
                    # Same dispatch as ingest: the valid prefix of a
                    # mid-batch-rejected record re-applies identically.
                    apply_stream_batch(
                        sketch, record.values, record.timestamps, record.weights
                    )
                else:
                    apply_stream_update(
                        sketch, record.value, record.timestamp, record.weight
                    )
                result.replayed += 1
                if _TEL.enabled:
                    _REPLAYED.inc()
            except ValueError:
                # The sketch rejected this offer at ingest time too (same
                # state, same record, deterministic validation): skip it.
                result.rejected += 1
            result.last_seqno = record.seqno
    return result
