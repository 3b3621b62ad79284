"""Seeded input streams of unbounded length, and their exact ground truth.

A run ingests for a fixed wall time, so it cannot know its stream length in
advance.  Each stream is therefore a seeded base block of ``BASE_ITEMS``
keys, drawn from the repo's WorldCup-style generators, repeated cyclically:
item ``i`` has key ``base[i % L]`` and timestamp ``T0 + i``.  The key
distribution (Zipf skew, universe) is the generator's, memory stays bounded
whatever the ingest rate, and exact prefix counts stay cheap:
``count(key, n) = (n // L) * count_in_base(key) + count_in_base_prefix(key, n % L)``.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.worldcup import client_id_stream, object_id_stream

T0 = 900_000_000.0
BASE_ITEMS = 1 << 19

GENERATORS = {"client-id": client_id_stream, "object-id": object_id_stream}


class CyclicStream:
    """Item ``i`` is ``(base[i % L], T0 + i)``; every weight is 1."""

    def __init__(self, name: str, seed: int, base_items: int = BASE_ITEMS):
        self.name = name
        self.base = GENERATORS[name](base_items, seed=seed).keys.astype(np.int64)
        self.length = len(self.base)
        self._order = None

    def keys(self, start: int, stop: int) -> np.ndarray:
        """Keys of items ``[start, stop)``."""
        return self.base[np.arange(start, stop) % self.length]

    @staticmethod
    def timestamps(start: int, stop: int) -> np.ndarray:
        """Timestamps of items ``[start, stop)``."""
        return np.arange(start, stop, dtype=float) + T0

    @staticmethod
    def index_of(timestamp: float) -> int:
        """The item index carrying ``timestamp``."""
        return int(round(timestamp - T0))

    def _index(self):
        if self._order is None:
            order = np.argsort(self.base, kind="stable")
            sorted_keys = self.base[order]
            self._order = (order, sorted_keys)
        return self._order

    def count(self, key: int, n: int) -> int:
        """Exact occurrences of ``key`` among items ``[0, n)``."""
        order, sorted_keys = self._index()
        lo = np.searchsorted(sorted_keys, key, side="left")
        hi = np.searchsorted(sorted_keys, key, side="right")
        positions = order[lo:hi]  # ascending: the argsort is stable
        cycles, rest = divmod(n, self.length)
        return int(cycles * (hi - lo) + np.searchsorted(positions, rest, side="left"))
