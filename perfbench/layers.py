"""Per-layer timing reached only through the program's public hooks.

Nothing here patches ``src/``.  The traced run wraps:

* the structure factory in :class:`CoreProxy` — the persistent structure
  itself (``core``); inside a durable shard it sits *under* the
  ``DurableSketch``, so its time excludes WAL and snapshots;
* each shard sketch, through the service's public ``sketch_wrapper`` hook,
  in :class:`ShardProxy` — one fused apply as the shard worker issues it,
  WAL and snapshot included (``worker.apply``);
* the durable filesystem shim (``fs=``) in :class:`CountingFilesystem`,
  which counts the bytes each snapshot writes.

Everything else is read from histograms and counters the program already
exports (:func:`hist`, :func:`counter`).
"""

from __future__ import annotations

import threading
import time

from repro.core.base import apply_stream_batch
from repro.durability import DurableSketch
from repro.durability.faults import OsFilesystem
from repro.telemetry import TELEMETRY

#: Structure methods whose time counts as ``core.query_s``.
QUERY_METHODS = frozenset(
    {
        "estimate_at",
        "estimate_since",
        "total_weight_at",
        "heavy_hitters_since",
        "sketch_at",
        "sketch_since",
    }
)


class LayerStats:
    """Counters one shard's proxies accumulate (plain fields: picklable)."""

    FIELDS = ("apply_s", "applies", "items", "core_update_s", "core_items",
              "core_query_s", "core_queries")

    def __init__(self):
        self.label = None  # tenant slug of a tenant's durable shard
        self.sizes = []  # fused-apply sizes, in apply order
        for name in self.FIELDS:
            setattr(self, name, 0.0 if name.endswith("_s") else 0)

    def as_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in self.FIELDS}
        payload["label"] = self.label
        payload["sizes"] = list(self.sizes)
        return payload


def sum_stats(entries) -> dict:
    """Field-wise sum of ``LayerStats.as_dict()`` payloads."""
    total = {name: 0 for name in LayerStats.FIELDS}
    for entry in entries:
        for name in LayerStats.FIELDS:
            total[name] += entry[name]
    return total


class CoreProxy:
    """Wraps a persistent structure; times live applies and queries.

    Timing is off until a :class:`ShardProxy` attaches its stats; only
    applies issued through that shard proxy count (``_live``), so a WAL
    replay during recovery never counts as live ingest.  Pickles as the
    bare structure plus this wrapper, so durable snapshots stay loadable.
    """

    def __init__(self, inner):
        self._inner = inner
        self._stats = None
        self._live = False

    def __getstate__(self):
        return {"_inner": self._inner}

    def __setstate__(self, state):
        self.__init__(state["_inner"])

    def update_batch(self, values, timestamps=None, weights=None):
        stats = self._stats if self._live else None
        if stats is None:
            return apply_stream_batch(self._inner, values, timestamps, weights)
        start = time.perf_counter()
        apply_stream_batch(self._inner, values, timestamps, weights)
        stats.core_update_s += time.perf_counter() - start
        stats.core_items += len(values)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        attr = getattr(self._inner, name)
        stats = self._stats
        if stats is None or name not in QUERY_METHODS:
            return attr

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                stats.core_query_s += time.perf_counter() - start
                stats.core_queries += 1

        return timed


def _core_of(sketch):
    if isinstance(sketch, DurableSketch):
        sketch = sketch.sketch
    return sketch if isinstance(sketch, CoreProxy) else None


class ShardProxy:
    """Wraps one shard's sketch (``sketch_wrapper`` hook): times fused applies."""

    def __init__(self, inner, stats: LayerStats):
        self._inner = inner
        self._stats = stats
        self._core = _core_of(inner)
        if self._core is not None:
            self._core._stats = stats
        if isinstance(inner, DurableSketch):
            # <service dir>/shard-NN: a tenant's service dir is its slug
            stats.label = inner.directory.parent.name

    def update_batch(self, values, timestamps=None, weights=None):
        stats = self._stats
        core = self._core
        start = time.perf_counter()
        if core is not None:
            core._live = True
        try:
            apply_stream_batch(self._inner, values, timestamps, weights)
        finally:
            if core is not None:
                core._live = False
        stats.apply_s += time.perf_counter() - start
        stats.applies += 1
        stats.items += len(values)
        stats.sizes.append(len(values))

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


class StatsRegistry:
    """Every shard's stats in this process, in creation order."""

    def __init__(self):
        self.entries = []

    def wrapper(self, shard, sketch):
        stats = LayerStats()
        self.entries.append(stats)
        return ShardProxy(sketch, stats)


class CountingFilesystem(OsFilesystem):
    """The real filesystem, counting snapshot writes and their bytes."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self.snapshots = 0
        self.snapshot_bytes = 0

    def write_atomic(self, path, data: bytes, durable: bool = True) -> int:
        written = super().write_atomic(path, data, durable)
        if str(path).rsplit("/", 1)[-1].startswith("snapshot-"):
            with self._lock:
                self.snapshots += 1
                self.snapshot_bytes += written
        return written


def _children(name):
    family = TELEMETRY.registry.get(name)
    return [] if family is None else list(family.samples())


def hist(name: str, **match):
    """``(sum, count)`` over a histogram's children whose labels match."""
    total, count = 0.0, 0
    for labels, child in _children(name):
        if all(labels.get(k) == v for k, v in match.items()):
            total += child.sum
            count += child.count
    return total, count


def counter(name: str) -> float:
    """A counter family's total over all labels."""
    return float(sum(child.value for _, child in _children(name)))


def span_seconds(name: str) -> float:
    """Total wall seconds of the program's own spans called ``name``."""
    return hist("span_wall_seconds", span=name)[0]
