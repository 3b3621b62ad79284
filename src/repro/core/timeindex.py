"""Small time-indexing helpers shared by the persistent structures.

Persistent sketches repeatedly need "the latest recorded state at or before
time t" over an append-only, time-ordered history.  ``History`` wraps the
bisect bookkeeping once so each sketch stores plain parallel lists.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np


class History:
    """An append-only sequence of ``(timestamp, value)`` with time lookups.

    Timestamps must be non-decreasing (appends enforce it).  ``value_at(t)``
    returns the value of the last entry with ``timestamp <= t`` — exactly the
    "state as of time t" semantics of a checkpoint chain.
    """

    __slots__ = ("_times", "_values")

    def __init__(self) -> None:
        self._times: List[float] = []
        self._values: List[Any] = []

    def append(self, timestamp: float, value: Any) -> None:
        """Record a new state; timestamps may repeat but not decrease."""
        if self._times and timestamp < self._times[-1]:
            raise ValueError(
                f"timestamp {timestamp} is earlier than the previous {self._times[-1]}"
            )
        self._times.append(timestamp)
        self._values.append(value)

    def value_at(self, timestamp: float, default: Any = None) -> Any:
        """Value of the last entry at or before ``timestamp``."""
        idx = bisect.bisect_right(self._times, timestamp) - 1
        if idx < 0:
            return default
        return self._values[idx]

    def entry_at(self, timestamp: float) -> Optional[Tuple[float, Any]]:
        """``(time, value)`` of the last entry at or before ``timestamp``."""
        idx = bisect.bisect_right(self._times, timestamp) - 1
        if idx < 0:
            return None
        return self._times[idx], self._values[idx]

    def index_at(self, timestamp: float) -> int:
        """Index of the last entry at or before ``timestamp``, or ``-1``."""
        return bisect.bisect_right(self._times, timestamp) - 1

    def times(self) -> List[float]:
        """A copy of the recorded timestamps (non-decreasing order)."""
        return list(self._times)

    def last(self) -> Optional[Tuple[float, Any]]:
        """The most recent entry, or None when empty."""
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    def __iter__(self) -> Iterator[Tuple[float, Any]]:
        return iter(zip(self._times, self._values))

    def __len__(self) -> int:
        return len(self._times)


class GeometricHistory:
    """History of a non-decreasing scalar, checkpointed geometrically.

    A new entry is recorded only when the value has grown by a factor of at
    least ``1 + delta`` since the last entry, so the history holds
    ``O(log(max/min) / delta)`` entries and ``value_at(t)`` underestimates the
    true value at ``t`` by at most that factor.  Used for W(t) and
    ``||A(t)||_F^2`` bookkeeping inside the samplers.
    """

    __slots__ = ("delta", "_history", "_last_recorded")

    def __init__(self, delta: float = 0.01):
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = delta
        self._history = History()
        self._last_recorded = 0.0

    def observe(self, timestamp: float, value: float) -> None:
        """Offer the current running value; records only on geometric growth."""
        if value < self._last_recorded:
            raise ValueError("GeometricHistory requires a non-decreasing value")
        if self._last_recorded == 0.0 or value >= self._last_recorded * (1.0 + self.delta):
            self._history.append(timestamp, value)
            self._last_recorded = value

    def observe_batch(self, timestamps, values) -> None:
        """:meth:`observe` each ``(timestamps[i], values[i])`` in turn.

        ``values`` must be non-decreasing and start at or above the last
        recorded value; a batch that is not is rejected whole, before any
        entry is recorded.  One ``searchsorted`` per recorded entry finds
        the next geometric step, so the cost scales with the records, not
        with the batch.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        if np.any(np.diff(values, prepend=self._last_recorded) < 0):
            raise ValueError("GeometricHistory requires a non-decreasing value")
        start = 0
        while start < values.size:
            if self._last_recorded != 0.0:
                start += int(np.searchsorted(
                    values[start:], self._last_recorded * (1.0 + self.delta)
                ))
                if start == values.size:
                    break
            value = float(values[start])
            self._history.append(float(timestamps[start]), value)
            self._last_recorded = value
            start += 1

    def value_at(self, timestamp: float) -> float:
        """Recorded value at or before ``timestamp`` (a slight underestimate)."""
        return self._history.value_at(timestamp, default=0.0)

    def memory_bytes(self) -> int:
        """Modelled size: two 8-byte scalars per entry."""
        return len(self._history) * 16

    def __len__(self) -> int:
        return len(self._history)


def count_at_or_before(timestamps: List[float], t: float) -> int:
    """How many of the (sorted) ``timestamps`` are ``<= t``."""
    return bisect.bisect_right(timestamps, t)
