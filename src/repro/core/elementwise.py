"""Elementwise checkpoint chains (Section 4.1, Lemma 4.2).

For *h-component* additive-error sketches — where each stream element touches
at most ``h`` counters whose meaning is stable over the stream (Misra-Gries:
h=1, CountMin / Count sketch: h=depth) — checkpointing the whole sketch is
wasteful.  Instead each counter keeps its own history and records a new
``(timestamp, value)`` entry only when it has drifted more than
``eps * W(t_now)`` from its last recorded value.  Total checkpoints stay
``O((1/eps) log W)`` but each costs one counter, not a full sketch: space
``O(h * (1/eps) * log W)`` (Theorem 4.2).

This module provides three instantiations:

* :class:`ChainMisraGries` — "CMG", the ATTP heavy-hitters sketch evaluated
  in Section 6.1.  Recall is guaranteed (no false negatives) when queried
  with the error margin.
* :class:`ChainCountMin` — "CCM", the linear-sketch variant; used here for
  point queries and the elementwise-vs-full-chain ablation.
* :class:`ChainCountSketch` — the same construction over a Count sketch,
  for signed (turnstile) streams.

The two linear chains ingest batches with a vectorized kernel that is
bit-identical to their scalar loop (:meth:`_LinearCellChain.update_batch`).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

import numpy as np

from repro.core.base import TimestampGuard, check_batch_lengths, first_timestamp_violation
from repro.core.timeindex import GeometricHistory, History
from repro.telemetry.registry import TELEMETRY as _TEL, timed


def _chain_metrics(structure: str):
    """Updates counter, seals counter and estimate_at histogram for one chain.

    The live base sketches (Misra-Gries dict / CountMin / Count sketch) tick
    their own ``sketch_*`` counters on top of these.
    """
    return (
        _TEL.counter(
            "persistent_updates_total",
            "Stream items applied to a persistent structure, by structure.",
            structure=structure,
        ),
        _TEL.counter(
            "checkpoint_seals_total",
            "Checkpoint snapshots sealed, by structure.",
            structure=structure,
        ),
        _TEL.histogram(
            "persistent_query_seconds",
            "Wall time of historical queries, by structure and operation.",
            structure=structure,
            op="estimate_at",
        ),
    )


_CMG_UPDATES, _CMG_SEALS, _CMG_QUERY = _chain_metrics("chain_misra_gries")
_CCM_UPDATES, _CCM_SEALS, _CCM_QUERY = _chain_metrics("chain_countmin")
_CCS_UPDATES, _CCS_SEALS, _CCS_QUERY = _chain_metrics("chain_countsketch")


class ChainMisraGries:
    """ATTP Misra-Gries via per-key counter histories (the paper's CMG).

    Parameters
    ----------
    eps:
        Total additive error target: the live MG uses ``k = ceil(2/eps) - 1``
        counters (error ``eps/2 * W``) and counter histories record on drift
        beyond ``eps/2 * W`` — overall ``eps * W`` additive error at any
        historical time, never overestimating by more than that.
    """

    def __init__(self, eps: float):
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.eps = eps
        self._mg_eps = eps / 2.0
        self._ckpt_eps = eps / 2.0
        self.k = max(1, math.ceil(1.0 / self._mg_eps) - 1)
        self._guard = TimestampGuard()
        self._counters: Dict[int, int] = {}
        self._histories: Dict[int, History] = {}
        self._last_recorded: Dict[int, float] = {}
        self._weight_history = GeometricHistory(delta=0.01)
        self.total_weight = 0.0
        self.count = 0

    def update(self, key: int, timestamp: float, weight: int = 1) -> None:
        """Add ``weight`` occurrences of ``key`` at ``timestamp``."""
        if weight <= 0:
            raise ValueError("Misra-Gries is insertion-only; weight must be > 0")
        self._guard.check(timestamp)
        self.count += 1
        self.total_weight += weight
        if _TEL.enabled:
            _CMG_UPDATES.inc()
        self._weight_history.observe(timestamp, self.total_weight)
        self._mg_update(key, weight, timestamp)

    def update_batch(self, keys, timestamps, weights=None) -> None:
        """Bulk :meth:`update` as a scalar loop.

        Unlike the linear chains this one is not vectorized: when the
        summary is full, a Misra-Gries decrement touches every counter, so
        cell values are not per-item deltas and the cumsum-and-repair
        kernel does not apply.  A mid-batch violation applies the prefix
        before it and raises, like the loop."""
        n = check_batch_lengths(keys, timestamps, weights)
        for index in range(n):
            self.update(
                keys[index],
                float(timestamps[index]),
                1 if weights is None else int(weights[index]),
            )

    def _mg_update(self, key: int, weight: int, timestamp: float) -> None:
        counters = self._counters
        if key in counters:
            counters[key] += weight
            self._maybe_record(key, timestamp)
            return
        if len(counters) < self.k:
            counters[key] = weight
            self._maybe_record(key, timestamp)
            return
        dec = min(weight, min(counters.values()))
        remaining = weight - dec
        dead = []
        for other, value in counters.items():
            value -= dec
            if value <= 0:
                dead.append(other)
            else:
                counters[other] = value
                self._maybe_record(other, timestamp)
        for other in dead:
            del counters[other]
            self._maybe_record(other, timestamp)
        if remaining > 0:
            self._mg_update(key, remaining, timestamp)

    def _maybe_record(self, key: int, timestamp: float) -> None:
        current = float(self._counters.get(key, 0))
        last = self._last_recorded.get(key, 0.0)
        if abs(current - last) > self._ckpt_eps * self.total_weight:
            history = self._histories.get(key)
            if history is None:
                history = History()
                self._histories[key] = history
            history.append(timestamp, current)
            self._last_recorded[key] = current
            if _TEL.enabled:
                _CMG_SEALS.inc()

    def total_weight_at(self, timestamp: float) -> float:
        """W(t) from the geometric weight history (slight underestimate)."""
        return self._weight_history.value_at(timestamp)

    @timed(_CMG_QUERY)
    def estimate_at(self, key: int, timestamp: float) -> float:
        """Estimated count of ``key`` in ``A^timestamp``.

        Within ``eps * W(t)`` of the truth, and never above it by more than
        the checkpoint drift ``(eps/2) * W(t)``.
        """
        history = self._histories.get(key)
        if history is None:
            return 0.0
        return float(history.value_at(timestamp, default=0.0))

    def estimate_now(self, key: int) -> float:
        """Estimated count of ``key`` over the whole stream (live MG)."""
        return float(self._counters.get(key, 0))

    def heavy_hitters_at(
        self, timestamp: float, phi: float, guarantee_recall: bool = True
    ) -> List[int]:
        """Keys with frequency >= ``phi * W(t)`` in ``A^timestamp``.

        With ``guarantee_recall`` the reporting threshold is lowered by the
        total error margin, so every true phi-heavy hitter is returned (the
        "recall = 1" property the paper highlights for CMG) at the price of
        some false positives near the threshold.
        """
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        w_t = self.total_weight_at(timestamp)
        margin = (self._mg_eps + self._ckpt_eps) * w_t if guarantee_recall else 0.0
        cut = phi * w_t - margin
        hitters = []
        for key, history in self._histories.items():
            if float(history.value_at(timestamp, default=0.0)) >= cut:
                hitters.append(key)
        return sorted(hitters)

    def num_checkpoints(self) -> int:
        """Total counter-history entries stored."""
        return sum(len(history) for history in self._histories.values())

    def memory_bytes(self) -> int:
        """History entry: key(4, amortised)+time(8)+value(8); plus the live
        MG counters (12 each) and the W(t) history."""
        return sum(self.memory_breakdown().values())

    def memory_breakdown(self) -> dict:
        """Component map for the memory accountant; sums to ``memory_bytes``."""
        return {
            "counter_histories": self.num_checkpoints() * 20,
            "live_counters": len(self._counters) * 12,
            "weight_history": self._weight_history.memory_bytes(),
        }


def _integral_weight(weight) -> int:
    """``weight`` as an int; 1 and 1.0 pass, 1.5 raises ``ValueError``.

    The linear chains count in int64 cells, so a fractional weight would be
    truncated in the table while the weight total kept the fraction.
    """
    if isinstance(weight, (int, np.integer)):
        return int(weight)
    if not float(weight).is_integer():
        raise ValueError(f"weight must be integral, got {weight}")
    return int(weight)


def _integral_weights(weights, n: int):
    """(int64 weights, mask of the integral ones) for a batch column."""
    if weights is None:
        return np.ones(n, dtype=np.int64), np.ones(n, dtype=bool)
    array = np.asarray(weights)
    if array.dtype.kind in "biu":
        return array.astype(np.int64), np.ones(n, dtype=bool)
    array = array.astype(float)
    integral = np.isfinite(array) & (array == np.floor(array))
    return np.where(integral, array, 0.0).astype(np.int64), integral


#: Vector rounds of a batch's record search before one scalar pass finishes it.
_VECTOR_ROUNDS = 4


class _LinearCellChain:
    """Per-cell histories over a linear sketch (Lemma 4.2 with ``h = depth``).

    Shared by :class:`ChainCountMin` and :class:`ChainCountSketch`.  An item
    moves cell ``(row, h_row(key))`` of each row by a delta fixed by the item
    alone (the weight, times a sign for the Count sketch).  A cell records
    ``(t, value)`` when it has drifted more than ``eps_ckpt * W`` from its
    last record, ``W`` being the running absolute stream weight.

    Subclasses set the live sketch, the weight rule and the telemetry
    counters, and implement :meth:`_row_deltas`.
    """

    #: Turnstile chains accept negative weights and measure drift as ``|.|``.
    _turnstile = False
    _WEIGHT_ERROR = ""

    def __init__(self, sketch, eps_ckpt: float):
        if not 0 < eps_ckpt < 1:
            raise ValueError(f"eps_ckpt must be in (0, 1), got {eps_ckpt}")
        self.eps_ckpt = eps_ckpt
        self._sketch = sketch
        self._guard = TimestampGuard()
        self._histories: Dict[tuple, History] = {}
        # Value of each cell at its last record (0 before the first).
        self._last_recorded = np.zeros((sketch.depth, sketch.width), dtype=np.int64)
        self._weight_history = GeometricHistory(delta=0.01)
        self._absolute_weight = 0
        self.count = 0

    @property
    def total_weight(self) -> int:
        return self._sketch.total_weight

    def _accepts(self, weight):
        """Weight rule, elementwise on arrays: non-zero, or positive."""
        return weight != 0 if self._turnstile else weight > 0

    def update(self, key: int, timestamp: float, weight: int = 1) -> None:
        """Add ``weight`` to ``key`` at ``timestamp``."""
        weight = _integral_weight(weight)
        if not self._accepts(weight):
            raise ValueError(self._WEIGHT_ERROR)
        self._guard.check(timestamp)
        self.count += 1
        self._sketch.update(key, weight)
        if _TEL.enabled:
            self._UPDATES.inc()
        self._absolute_weight += abs(weight)
        self._weight_history.observe(timestamp, float(self._absolute_weight))
        threshold = self.eps_ckpt * self._absolute_weight
        counters = self._sketch.counters()
        for row, h in enumerate(self._sketch._hashes):
            bucket = h(key)
            current = int(counters[row, bucket])
            drift = current - int(self._last_recorded[row, bucket])
            if (abs(drift) if self._turnstile else drift) > threshold:
                self._record((row, bucket), timestamp, current)
                self._last_recorded[row, bucket] = current
                if _TEL.enabled:
                    self._SEALS.inc()

    def _record(self, cell: tuple, timestamp: float, value: int) -> None:
        history = self._histories.get(cell)
        if history is None:
            history = History()
            self._histories[cell] = history
        history.append(timestamp, value)

    def update_batch(self, keys, timestamps, weights=None) -> None:
        """Bulk :meth:`update`, bit-identical to the scalar loop.

        Simulate, then repair.  ``W`` after every item is a cumsum.  Cells
        whose drift cannot reach the batch's smallest threshold are
        skipped; for the rest, a stable sort by cell plus a segmented
        cumsum gives each cell's value after every item.  The records are
        then found in rounds (:meth:`_crossings`): each round takes, per
        cell still in play, the first item whose drift crosses the
        threshold, records it, and re-examines only that cell's later
        items.

        The batch is validated first; the items before the first one the
        scalar :meth:`update` would reject are applied, then that item
        goes to :meth:`update` so it raises exactly as the loop did.
        """
        n = check_batch_lengths(keys, timestamps, weights)
        if n == 0:
            return
        timestamps, weight_array, limit = self._valid_prefix(timestamps, weights)
        if limit:
            keys = np.asarray(keys)
            self._apply(
                keys[:limit].astype(np.uint64), timestamps[:limit], weight_array[:limit]
            )
        if limit < n:
            self.update(
                keys[limit], float(timestamps[limit]), 1 if weights is None else weights[limit]
            )

    def _valid_prefix(self, timestamps, weights):
        """``(timestamps, int64 weights, limit)`` for a batch; ``limit`` is the
        index of the first item :meth:`update` rejects, else its length."""
        timestamps = np.asarray(timestamps, dtype=float)
        weight_array, integral = _integral_weights(weights, timestamps.size)
        limit = timestamps.size
        bad_time = first_timestamp_violation(self._guard.last, timestamps)
        if bad_time >= 0:
            limit = bad_time
        bad_weight = ~(integral & self._accepts(weight_array))
        if bad_weight[:limit].any():
            limit = int(np.argmax(bad_weight))
        return timestamps, weight_array, limit

    def _row_deltas(self, keys: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``(depth, m)`` change each item makes to its cell in each row."""
        raise NotImplementedError

    def _apply(self, keys: np.ndarray, timestamps: np.ndarray, weights: np.ndarray) -> None:
        """Ingest a batch that :meth:`_valid_prefix` has fully accepted."""
        sketch = self._sketch
        m = keys.size
        width = sketch.width
        running = self._absolute_weight + np.cumsum(np.abs(weights))
        # Events, row-major: entry ``row * m + i`` is item i's cell in ``row``.
        cells = np.concatenate(
            [h(keys) + row * width for row, h in enumerate(sketch._hashes)]
        )
        deltas = self._row_deltas(keys, weights).reshape(-1)
        table = sketch.counters().reshape(-1)
        last = self._last_recorded.reshape(-1)
        # A cell's drift in this batch is at most its drift now plus all the
        # change the batch brings it; only cells where that can exceed the
        # smallest threshold of the batch may record.
        reach = np.abs(table - last) + np.bincount(
            cells, np.abs(deltas), minlength=table.size
        )
        live = np.flatnonzero((reach > self.eps_ckpt * running[0])[cells])
        if live.size:
            self._record_batch(live, cells, deltas, table, timestamps, running, m)
        sketch.update_batch(keys, weights)
        self._guard.last = float(timestamps[-1])
        self.count += m
        self._absolute_weight = int(running[-1])
        self._weight_history.observe_batch(timestamps, running)
        if _TEL.enabled:
            self._UPDATES.inc(m)

    def _record_batch(self, live, cells, deltas, table, timestamps, running, m) -> None:
        """Append the records the ``live`` events make, in scalar order.

        ``table`` holds the cells' values before the batch.
        """
        # Stable sort by cell keeps each cell's events in time order;
        # 16-bit ids take NumPy's radix sort (~10x faster).
        key = cells[live]
        if table.size <= 1 << 16:
            key = key.astype(np.uint16)
        order = live[np.argsort(key, kind="stable")]
        cell = cells[order]
        step = deltas[order]
        item = order % m
        starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
        ends = np.append(starts[1:], cell.size)
        lengths = ends - starts
        summed = np.cumsum(step)
        value = table[cell] + summed - np.repeat(summed[starts] - step[starts], lengths)
        end = np.repeat(ends, lengths)
        threshold = self.eps_ckpt * running[item]
        found = self._crossings(cell, value, threshold, end)
        if not found:
            return
        records = np.concatenate(found)
        # Scalar order: by item, then by row (cell ids grow with row).
        records = records[np.lexsort((cell[records], item[records]))]
        rows, buckets = np.divmod(cell[records], self._sketch.width)
        for row, bucket, timestamp, current in zip(
            rows.tolist(),
            buckets.tolist(),
            timestamps[item[records]].tolist(),
            value[records].tolist(),
        ):
            self._record((row, bucket), timestamp, current)
        if _TEL.enabled:
            self._SEALS.inc(records.size)

    def _crossings(self, cell, value, threshold, end) -> list:
        """Positions (into the cell-sorted events) of every record, in
        arrays; moves ``_last_recorded`` to each recorded value.

        Vector rounds find each cell's next crossing.  A cell that records
        many times in one batch (a hot key while ``W`` is small, or a top
        dyadic level) would cost a round per record, so after
        ``_VECTOR_ROUNDS`` rounds one scalar pass finishes the events left.
        """
        last = self._last_recorded.reshape(-1)
        found = []
        active = np.arange(cell.size)
        for _ in range(_VECTOR_ROUNDS):
            drift = value[active] - last[cell[active]]
            if self._turnstile:
                drift = np.abs(drift)
            hits = active[drift > threshold[active]]
            if not hits.size:
                return found
            first = hits[np.concatenate(([True], cell[hits[1:]] != cell[hits[:-1]]))]
            found.append(first)
            last[cell[first]] = value[first]
            tail = end[first] - first - 1
            active = np.repeat(first + 1 - np.cumsum(tail) + tail, tail) + np.arange(
                tail.sum()
            )
        recorded = {}
        positions = []
        cells = cell[active]
        for position, c, current, limit, initial in zip(
            active.tolist(),
            cells.tolist(),
            value[active].tolist(),
            threshold[active].tolist(),
            last[cells].tolist(),
        ):
            drift = current - recorded.get(c, initial)
            if (abs(drift) if self._turnstile else drift) > limit:
                positions.append(position)
                recorded[c] = current
        if positions:
            found.append(np.array(positions, dtype=np.int64))
            for c, current in recorded.items():
                last[c] = current
        return found

    def total_weight_at(self, timestamp: float) -> float:
        """W(t) from the geometric weight history (slight underestimate)."""
        return self._weight_history.value_at(timestamp)

    def _cell_values_at(self, key: int, timestamp: float) -> List[float]:
        """Each row's recorded value, at ``timestamp``, of ``key``'s cell."""
        values = []
        for row, h in enumerate(self._sketch._hashes):
            history = self._histories.get((row, h(key)))
            value = history.value_at(timestamp, default=0.0) if history else 0.0
            values.append(float(value))
        return values

    def num_checkpoints(self) -> int:
        """Total cell-history entries stored."""
        return sum(len(history) for history in self._histories.values())

    def memory_bytes(self) -> int:
        """History entry: cell id(4)+time(8)+value(8); plus live table."""
        return sum(self.memory_breakdown().values())

    def memory_breakdown(self) -> dict:
        """Component map for the memory accountant; sums to ``memory_bytes``."""
        return {
            "cell_histories": self.num_checkpoints() * 20,
            "live_table": self._sketch.memory_bytes(),
            "weight_history": self._weight_history.memory_bytes(),
        }


class ChainCountMin(_LinearCellChain):
    """ATTP CountMin via per-cell counter histories (elementwise chaining).

    Each update touches ``depth`` cells; a cell records a checkpoint when it
    has grown more than ``eps_ckpt * W`` since its last record.  Point
    queries at time ``t`` take the min over rows of each cell's historical
    value; the estimate inherits CountMin's one-sided overestimate plus the
    checkpoint drift (the historical value is a slight *underestimate* of the
    cell, so the two partially cancel in practice).
    """

    _UPDATES, _SEALS = _CCM_UPDATES, _CCM_SEALS
    _WEIGHT_ERROR = "ChainCountMin is insertion-only; weight must be > 0"

    def __init__(self, width: int, depth: int = 3, eps_ckpt: float = 0.001, seed: int = 0):
        from repro.sketches.countmin import CountMinSketch

        super().__init__(CountMinSketch(width, depth, seed=seed), eps_ckpt)

    @property
    def _cm(self):
        return self._sketch

    def _row_deltas(self, keys, weights):
        return np.broadcast_to(weights, (self._sketch.depth, keys.size))

    @timed(_CCM_QUERY)
    def estimate_at(self, key: int, timestamp: float) -> float:
        """Estimated count of ``key`` in ``A^timestamp``."""
        return min(self._cell_values_at(key, timestamp))

    def estimate_now(self, key: int) -> int:
        """Estimated count over the whole stream (live CountMin)."""
        return self._sketch.query(key)

    def heavy_hitters_at(
        self, timestamp: float, phi: float, candidates: Iterable[int]
    ) -> List[int]:
        """Candidates whose estimated count at ``t`` reaches ``phi * W(t)``.

        CountMin cannot enumerate keys by itself; callers supply candidates
        (e.g. from a dyadic hierarchy or an exact candidate set in benches).
        """
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        cut = phi * self.total_weight_at(timestamp)
        return sorted(
            key for key in candidates if self.estimate_at(key, timestamp) >= cut
        )

    def estimate_between(self, key: int, start: float, end: float) -> float:
        """FATP-style estimate of ``key``'s count in the interval ``(start, end]``.

        Linear sketches difference cleanly: the per-cell histories are
        monotone counters, so ``est(end) - est(start)`` bounds the interval
        count with twice the single-query error.  This is the query form the
        PCM baseline supports natively; provided here as the paper suggests
        its ATTP chains subsume it for linear sketches.
        """
        if end < start:
            raise ValueError(f"empty interval ({start}, {end}]")
        return max(0.0, self.estimate_at(key, end) - self.estimate_at(key, start))


class ChainCountSketch(_LinearCellChain):
    """ATTP Count sketch via per-cell histories (elementwise chaining).

    The Count sketch is linear — each of its ``depth`` touched cells has a
    consistent meaning, so Lemma 4.2 applies with ``h = depth``.  Unlike the
    CountMin chain, cells move in both directions (signed updates), so the
    drift rule uses absolute deviation and the stream supports *turnstile*
    updates (insertions and deletions) as long as the total |weight| grows.
    """

    _UPDATES, _SEALS = _CCS_UPDATES, _CCS_SEALS
    _WEIGHT_ERROR = "weight must be non-zero"
    _turnstile = True

    def __init__(self, width: int, depth: int = 5, eps_ckpt: float = 0.001, seed: int = 0):
        from repro.sketches.countsketch import CountSketch

        super().__init__(CountSketch(width, depth, seed=seed), eps_ckpt)

    @property
    def _cs(self):
        return self._sketch

    def _row_deltas(self, keys, weights):
        return np.stack([sign(keys) * weights for sign in self._sketch._signs])

    @timed(_CCS_QUERY)
    def estimate_at(self, key: int, timestamp: float) -> float:
        """Median-of-rows estimate of ``key``'s signed count in ``A^timestamp``."""
        signs = [sign(key) for sign in self._sketch._signs]
        values = self._cell_values_at(key, timestamp)
        return float(np.median([s * v for s, v in zip(signs, values)]))

    def estimate_now(self, key: int) -> int:
        """Estimate over the whole stream (live Count sketch)."""
        return self._sketch.query(key)

    def estimate_between(self, key: int, start: float, end: float) -> float:
        """FATP-style estimate of the signed count in ``(start, end]``."""
        if end < start:
            raise ValueError(f"empty interval ({start}, {end}]")
        return self.estimate_at(key, end) - self.estimate_at(key, start)
