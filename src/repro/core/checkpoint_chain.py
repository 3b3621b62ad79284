"""Checkpoint chaining: streaming sketch -> ATTP sketch (Section 4, Lemma 4.1).

Run the streaming sketch as usual; additionally snapshot ("checkpoint") its
full state whenever the stream weight has grown by a factor ``1 + eps`` since
the last checkpoint.  A query at time ``t`` is answered from the latest
checkpoint at or before ``t``; the weight that arrived after that checkpoint
is at most ``eps * W(t)``, so any additive-error guarantee of the base sketch
degrades by only ``eps * W(t)``.  The number of checkpoints is
``O((1/eps) log W)`` because the checkpoint weights grow geometrically.

The snapshot taken when item ``a_i`` crosses the threshold is of the state
*before* ``a_i`` is applied, stamped with the previous element's timestamp —
exactly the paper's construction.
"""

from __future__ import annotations

import copy
import inspect
import math
from typing import Any, Callable, Optional

import numpy as np

from repro.core.base import (
    TimestampGuard,
    check_batch_lengths,
    check_positive_weight,
    first_invalid_weight,
    first_timestamp_violation,
)
from repro.core.timeindex import History
from repro.evaluation.memory import CHECKPOINT_ENTRY_BYTES
from repro.telemetry.registry import TELEMETRY as _TEL, timed

_UPDATES = _TEL.counter(
    "persistent_updates_total",
    "Stream items applied to a persistent structure, by structure.",
    structure="checkpoint_chain",
)
_SEALS = _TEL.counter(
    "checkpoint_seals_total",
    "Checkpoint snapshots sealed, by structure.",
    structure="checkpoint_chain",
)
_QUERY_SECONDS = _TEL.histogram(
    "persistent_query_seconds",
    "Wall time of historical queries, by structure and operation.",
    structure="checkpoint_chain",
    op="sketch_at",
)


class CheckpointChain:
    """Generic full-sketch checkpoint chain over any additive-error sketch.

    Parameters
    ----------
    sketch_factory:
        Zero-argument callable building a fresh streaming sketch.
    eps:
        Relative weight growth between checkpoints (the chaining error).
    apply_update:
        ``(sketch, value, weight) -> None``; defaults to
        ``sketch.update(value, weight)`` and falls back to
        ``sketch.update(value)`` for unweighted sketches.
    snapshot:
        ``(sketch) -> frozen state``; defaults to ``copy.deepcopy``.
    """

    def __init__(
        self,
        sketch_factory: Callable[[], Any],
        eps: float,
        apply_update: Optional[Callable] = None,
        snapshot: Optional[Callable] = None,
    ):
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.eps = eps
        self.live = sketch_factory()
        self._apply_update = apply_update or _resolve_apply(self.live)
        self._apply_batch = resolve_apply_batch(self.live, self._apply_update)
        self._snapshot = snapshot or copy.deepcopy
        self._guard = TimestampGuard()
        self._checkpoints = History()
        self._weight_at_last_checkpoint = 0.0
        self._previous_timestamp: Optional[float] = None
        self.total_weight = 0.0
        self.count = 0

    def update(self, value: Any, timestamp: float, weight: float = 1.0) -> None:
        """Feed one stream item through the chain."""
        check_positive_weight(weight)
        self._guard.check(timestamp)
        threshold_crossed = (
            self._weight_at_last_checkpoint > 0.0
            and self.total_weight - self._weight_at_last_checkpoint
            > self.eps * self._weight_at_last_checkpoint
        )
        if threshold_crossed:
            # Snapshot the state *before* this item, at the previous timestamp.
            self._checkpoints.append(
                self._previous_timestamp, self._snapshot(self.live)
            )
            self._weight_at_last_checkpoint = self.total_weight
            if _TEL.enabled:
                _SEALS.inc()
        self._apply_update(self.live, value, weight)
        self.total_weight += weight
        self.count += 1
        self._previous_timestamp = timestamp
        if _TEL.enabled:
            _UPDATES.inc()
        if self._weight_at_last_checkpoint == 0.0:
            # Seed the chain: first checkpoint after the first item.
            self._checkpoints.append(timestamp, self._snapshot(self.live))
            self._weight_at_last_checkpoint = self.total_weight
            if _TEL.enabled:
                _SEALS.inc()

    def update_batch(self, values, timestamps, weights=None) -> None:
        """Feed one batch through the chain; checkpoint-exact vs the scalar loop.

        Checkpoint trigger points *within* the batch are located by binary
        search on the cumulative batch weight (a checkpoint fires before the
        first item whose pre-application total exceeds ``(1+eps)`` times the
        weight at the last checkpoint — the same rule :meth:`update` applies
        per item), and the runs between triggers are applied to the live
        sketch through its vectorized ``update_batch`` when it has one.
        A mid-batch weight or timestamp violation applies the prefix before
        it and raises, exactly like the scalar loop.
        """
        n = check_batch_lengths(values, timestamps, weights)
        if n == 0:
            return
        timestamp_array = np.asarray(timestamps, dtype=float)
        weight_array = (
            np.ones(n, dtype=float)
            if weights is None
            else np.asarray(weights, dtype=float)
        )
        bad_weight = first_invalid_weight(weight_array)
        bad_time = first_timestamp_violation(self._guard.last, timestamp_array)
        candidates = [index for index in (bad_weight, bad_time) if index >= 0]
        if candidates:
            bad = min(candidates)
            if bad:
                self.update_batch(
                    values[:bad], timestamp_array[:bad], weight_array[:bad]
                )
            # Reproduce the scalar error, in the scalar check order.
            check_positive_weight(float(weight_array[bad]))
            self._guard.check(float(timestamp_array[bad]))
            raise AssertionError("unreachable: batch validation found no violation")
        # cumulative[i] = batch weight before item i; fixed for the whole batch.
        cumulative = np.concatenate(([0.0], np.cumsum(weight_array)))
        base = self.total_weight
        position = 0
        if self._weight_at_last_checkpoint == 0.0:
            # Seed the chain exactly like the scalar path: first item, then
            # the first checkpoint.
            self.update(
                values[0], float(timestamp_array[0]), float(weight_array[0])
            )
            position = 1
        while position < n:
            limit = (1.0 + self.eps) * self._weight_at_last_checkpoint
            trigger = int(np.searchsorted(cumulative, limit - base, side="right"))
            if trigger <= position:
                # The next item crosses the threshold: snapshot the state
                # before it, at the previous item's timestamp.
                self._checkpoints.append(
                    self._previous_timestamp, self._snapshot(self.live)
                )
                self._weight_at_last_checkpoint = self.total_weight
                if _TEL.enabled:
                    _SEALS.inc()
                continue
            end = min(trigger, n)
            self._guard.last = float(timestamp_array[end - 1])
            if self._apply_batch is not None:
                self._apply_batch(
                    self.live, values[position:end], weight_array[position:end]
                )
            else:
                for i in range(position, end):
                    self._apply_update(self.live, values[i], float(weight_array[i]))
            self.total_weight = base + float(cumulative[end])
            self.count += end - position
            if _TEL.enabled:
                _UPDATES.inc(end - position)
            self._previous_timestamp = float(timestamp_array[end - 1])
            position = end

    @timed(_QUERY_SECONDS)
    def sketch_at(self, timestamp: float) -> Any:
        """The checkpointed sketch state as of ``timestamp`` (or None).

        The returned object is the stored snapshot; callers must not mutate
        it.  For ``timestamp`` at or past the last update, the live sketch is
        returned (zero staleness).
        """
        if self._previous_timestamp is not None and timestamp >= self._previous_timestamp:
            return self.live
        return self._checkpoints.value_at(timestamp)

    def num_checkpoints(self) -> int:
        """Number of stored snapshots."""
        return len(self._checkpoints)

    def checkpoints(self):
        """Iterate ``(timestamp, snapshot)`` pairs (oldest first)."""
        return iter(self._checkpoints)

    def persist_since(self, marker: int) -> tuple:
        """Delta-snapshot hook: ``(head, sealed, new_marker)``.

        A sealed checkpoint never changes (Lemma 4.1's chain only appends),
        so a durable store persists each one once.  ``marker`` counts the
        checkpoints already persisted; ``sealed`` is the list of
        ``(timestamp, snapshot)`` pairs sealed since, and ``new_marker`` the
        count after them.  ``head`` is everything else — the live sketch,
        the guard, the weights and counts — as a chain whose history is
        empty: small, and rewritten by every snapshot.
        """
        if not 0 <= marker <= len(self._checkpoints):
            raise ValueError(
                f"marker {marker} outside the {len(self._checkpoints)} "
                f"sealed checkpoints"
            )
        head = copy.copy(self)
        head._checkpoints = History()
        return head, self._checkpoints.entries(marker), len(self._checkpoints)

    def restore(self, head: "CheckpointChain", sealed) -> None:
        """Inverse of :meth:`persist_since`: adopt ``head`` plus ``sealed``.

        ``sealed`` holds every persisted checkpoint, oldest first (the
        concatenation of the deltas).  Afterwards this chain answers
        exactly as the chain ``head`` was taken from.
        """
        self.__dict__.update(vars(head))
        self._checkpoints = History()
        self._checkpoints.extend(sealed)

    def checkpoints_between(self, start: float, end: float) -> list:
        """Timestamps of stored checkpoints with ``start <= ts <= end``.

        Ground truth for explain-plan fidelity checks: a
        :meth:`plan_at` answer sourced from a checkpoint must name a
        timestamp this method returns for the enclosing range.
        """
        return [ts for ts, _ in self._checkpoints if start <= ts <= end]

    def plan_at(self, timestamp: float) -> dict:
        """Explain :meth:`sketch_at`: what *would* answer, without answering.

        Mirrors the ``sketch_at`` resolution rule exactly (shared bisect
        over the same history) and reports: the ``source`` (``"live"`` for
        zero-staleness reads at/past the last update, ``"checkpoint"`` for
        a sealed snapshot, ``"empty"`` before the first checkpoint), the
        chosen checkpoint's index and timestamp, how many sealed snapshots
        vs. live partials the read touches, and the chaining error bound
        contributed (``eps``, relative to ``W(t)``; ``0`` for live reads).
        """
        stored = len(self._checkpoints)
        base = {
            "structure": "checkpoint_chain",
            "checkpoints_stored": stored,
            "checkpoint_index": None,
            "checkpoint_timestamp": None,
        }
        if (
            self._previous_timestamp is not None
            and timestamp >= self._previous_timestamp
        ):
            base.update(source="live", sealed_read=0, live_partial=1, error_bound=0.0)
            return base
        index = self._checkpoints.index_at(timestamp)
        if index < 0:
            base.update(source="empty", sealed_read=0, live_partial=0, error_bound=0.0)
            return base
        base.update(
            source="checkpoint",
            checkpoint_index=index,
            checkpoint_timestamp=self._checkpoints.times()[index],
            sealed_read=1,
            live_partial=0,
            error_bound=self.eps,
        )
        return base

    def memory_bytes(self) -> int:
        """Sum of snapshot sizes (via each snapshot's ``memory_bytes``) plus
        the live sketch and a chain entry (timestamp + snapshot pointer)
        per checkpoint."""
        return sum(self.memory_breakdown().values())

    def memory_breakdown(self) -> dict:
        """Component map for the memory accountant; sums to ``memory_bytes``."""
        snapshots = sum(snap.memory_bytes() for _, snap in self._checkpoints)
        return {
            "live_sketch": self.live.memory_bytes(),
            "checkpoint_snapshots": snapshots,
            "chain_entries": len(self._checkpoints) * CHECKPOINT_ENTRY_BYTES,
        }

    def space_bound_bytes(self) -> int:
        """Lemma 4.1 bound at the current stream position: the live sketch
        plus ``O(log_{1+eps} W)`` checkpoints of (modelled) equal size."""
        live = self.live.memory_bytes()
        if self.total_weight <= 1.0:
            return live + (live + CHECKPOINT_ENTRY_BYTES) * min(1, self.count)
        checkpoints = 1 + math.ceil(
            math.log(self.total_weight) / math.log(1.0 + self.eps)
        )
        return live + checkpoints * (live + CHECKPOINT_ENTRY_BYTES)


def apply_weighted(target: Any, value: Any, weight: float) -> None:
    """Standard apply for sketches with ``update(value, weight)``."""
    target.update(value, weight)


def apply_unweighted(target: Any, value: Any, weight: float) -> None:
    """Apply for single-argument sketches; rejects non-unit weights."""
    if weight != 1.0:
        raise ValueError(
            f"{type(target).__name__}.update takes no weight; got weight={weight}"
        )
    target.update(value)


def apply_value_only(target: Any, value: Any, weight: float) -> None:
    """Apply that drops the weight (e.g. matrix rows into FD sketches)."""
    target.update(value)


def apply_int_weighted(target: Any, value: Any, weight: float) -> None:
    """Apply for integer-count sketches (e.g. Misra-Gries)."""
    target.update(value, int(weight))


def _resolve_apply(sketch: Any) -> Callable:
    """Pick the update convention once, from the sketch's signature.

    Sketches with a two-argument ``update(value, weight)`` receive the weight;
    single-argument ones (e.g. KLL) must only be fed unit weights.  The
    returned functions are module-level so chains stay picklable.
    """
    params = list(inspect.signature(sketch.update).parameters.values())
    if len(params) >= 2:
        return apply_weighted
    return apply_unweighted


def apply_batch_weighted(target: Any, values, weights) -> None:
    """Batch apply for sketches with ``update_batch(values, weights)``."""
    target.update_batch(values, weights)


def apply_batch_unweighted(target: Any, values, weights) -> None:
    """Batch apply for value-only sketches; rejects non-unit weights."""
    if weights is not None and np.any(np.asarray(weights) != 1.0):
        raise ValueError(
            f"{type(target).__name__}.update takes no weight; "
            f"got a batch with non-unit weights"
        )
    target.update_batch(values)


def apply_batch_value_only(target: Any, values, weights) -> None:
    """Batch apply that drops the weights (e.g. keys into Bloom filters)."""
    target.update_batch(values)


def apply_batch_int_weighted(target: Any, values, weights) -> None:
    """Batch apply for integer-count sketches (e.g. Misra-Gries)."""
    if weights is None:
        target.update_batch(values)
    else:
        target.update_batch(values, np.asarray(weights, dtype=np.int64))


_BATCH_APPLY = {
    apply_weighted: apply_batch_weighted,
    apply_unweighted: apply_batch_unweighted,
    apply_value_only: apply_batch_value_only,
    apply_int_weighted: apply_batch_int_weighted,
}


def resolve_apply_batch(sketch: Any, apply_update: Callable) -> Optional[Callable]:
    """The batch counterpart of a scalar apply convention, if one exists.

    Returns None — meaning "loop the scalar apply" — when the base sketch has
    no ``update_batch`` or the scalar apply is a custom callable we cannot
    translate.  Module-level returns keep chains picklable.
    """
    if getattr(type(sketch), "update_batch", None) is None:
        return None
    return _BATCH_APPLY.get(apply_update)
