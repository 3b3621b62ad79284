"""Persistent heavy-hitter sketches (the paper's Section 6.1 / 6.2 lineup).

ATTP (query any prefix ``A^t``):

* :class:`AttpSampleHeavyHitter` — "SAMPLING": persistent top-k uniform
  sample; a key is reported when its sample fraction reaches the threshold.
* :class:`AttpChainMisraGries` — "CMG": elementwise-checkpointed Misra-Gries.
* :class:`AttpChainCountMin` — "CCM": elementwise-checkpointed CountMin
  (point queries / ablations; needs candidates for enumeration).

BITP (query any suffix ``A[t, now]``):

* :class:`BitpSampleHeavyHitter` — "SAMPLING-BITP": batched BITP priority
  sampling with uniform priorities.
* :class:`BitpTreeMisraGries` — "TMG": dyadic merge tree of Misra-Gries
  summaries.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import List

import numpy as np

from repro.core.base import check_batch_lengths, first_timestamp_violation
from repro.core.bitp_sampling import BitpPrioritySample
from repro.core.checkpoint_chain import apply_int_weighted
from repro.core.elementwise import ChainCountMin, ChainMisraGries
from repro.core.merge_tree import MergeTreePersistence
from repro.core.persistent_sampling import PersistentTopKSample
from repro.core.timeindex import GeometricHistory
from repro.sketches.misra_gries import MisraGries


class AttpSampleHeavyHitter:
    """ATTP heavy hitters from a persistent uniform sample (SAMPLING).

    Keeps a persistent without-replacement sample of size ``k``; at query
    time the sample of the prefix is materialised and a key is reported when
    its sample multiplicity is at least ``phi * |sample|``.  With
    ``k = O(eps^-2 log(1/delta))`` this is an eps-FE summary of any prefix
    (Theorem 3.1).
    """

    def __init__(self, k: int, seed: int = 0):
        self._sample = PersistentTopKSample(k, seed=seed)
        self._count_history = GeometricHistory(delta=0.01)
        self.k = k
        self.count = 0

    def update(self, key: int, timestamp: float) -> None:
        """Insert one occurrence of ``key`` at ``timestamp``."""
        self._sample.update(key, timestamp)
        self.count += 1
        self._count_history.observe(timestamp, float(self.count))

    def update_batch(self, keys, timestamps) -> None:
        """Bulk insert: vectorised sampler ingest plus the count history.

        Equivalent to repeated :meth:`update` (same sample, same RNG
        stream), but the persistent sample ingests the whole batch at once.
        A mid-batch timestamp violation applies (and observes) the valid
        prefix, then raises the scalar error.
        """
        timestamp_array = np.asarray(timestamps, dtype=float)
        n = check_batch_lengths(keys, timestamp_array)
        if n == 0:
            return
        bad = first_timestamp_violation(self._sample._guard.last, timestamp_array)
        limit = n if bad < 0 else bad
        try:
            self._sample.update_batch(keys, timestamp_array)
        finally:
            for index in range(limit):
                self.count += 1
                self._count_history.observe(
                    float(timestamp_array[index]), float(self.count)
                )

    def update_many(self, keys, timestamps) -> None:
        """Backward-compatible alias of :meth:`update_batch`."""
        self.update_batch(keys, timestamps)

    def heavy_hitters_at(self, timestamp: float, phi: float) -> List[int]:
        """Keys with estimated frequency >= ``phi * n(t)`` in ``A^timestamp``."""
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        sample = self._sample.sample_at(timestamp)
        if not sample:
            return []
        counts = Counter(sample)
        cut = phi * len(sample)
        return sorted(key for key, count in counts.items() if count >= cut)

    def estimate_at(self, key: int, timestamp: float) -> float:
        """Estimated count of ``key`` in ``A^timestamp``."""
        sample = self._sample.sample_at(timestamp)
        if not sample:
            return 0.0
        n_t = self._count_history.value_at(timestamp)
        return sample.count(key) / len(sample) * n_t

    def memory_bytes(self) -> int:
        """Modelled C-layout footprint (see repro.evaluation.memory)."""
        return self._sample.memory_bytes() + self._count_history.memory_bytes()


class AttpChainMisraGries(ChainMisraGries):
    """ATTP Misra-Gries with elementwise checkpoints (CMG).

    Inherits the full implementation from
    :class:`repro.core.elementwise.ChainMisraGries`; exposed here under the
    paper's name as part of the heavy-hitters public API.
    """


class AttpChainCountMin(ChainCountMin):
    """ATTP CountMin with elementwise checkpoints (CCM).

    See :class:`repro.core.elementwise.ChainCountMin`.
    """


class AttpDyadicChainCountMin:
    """ATTP heavy hitters from a dyadic hierarchy of Chain CountMin sketches.

    ``AttpChainCountMin`` answers point queries but cannot enumerate heavy
    hitters by itself.  Stacking one elementwise-checkpointed CountMin per
    dyadic level of the key universe (the same retrieval structure PCM_HH
    uses, but with the paper's chains instead of piecewise-linear counters)
    yields self-contained enumeration at any historical time — and, being
    built on linear sketches, it also answers FATP-style interval queries by
    differencing.
    """

    def __init__(
        self,
        universe_bits: int,
        eps: float = 0.005,
        depth: int = 3,
        eps_ckpt: float = 0.002,
        seed: int = 0,
    ):
        if universe_bits < 1:
            raise ValueError(f"universe_bits must be >= 1, got {universe_bits}")
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.universe_bits = universe_bits
        width = max(4, int(2.0 / eps))
        self.levels: List[ChainCountMin] = [
            ChainCountMin(width, depth, eps_ckpt=eps_ckpt, seed=seed + level)
            for level in range(universe_bits + 1)
        ]
        self.count = 0

    def update(self, key: int, timestamp: float, weight: int = 1) -> None:
        """Add ``weight`` to ``key`` at ``timestamp`` in every level."""
        if not 0 <= key < (1 << self.universe_bits):
            raise ValueError(
                f"key {key} outside universe [0, 2**{self.universe_bits})"
            )
        for level, sketch in enumerate(self.levels):
            sketch.update(key >> level, timestamp, weight)
        self.count += 1

    def update_batch(self, keys, timestamps, weights=None) -> None:
        """Bulk :meth:`update`: each level's chain takes the batch's shifted
        keys (``keys >> level``) in one vectorized call.

        The batch is validated once, against every rule :meth:`update`
        applies; the items before the first rejected one go to every level,
        then that item goes to :meth:`update` and raises like the loop.
        """
        n = check_batch_lengths(keys, timestamps, weights)
        if n == 0:
            return
        key_array = np.asarray(keys)
        timestamp_array, weight_array, limit = self.levels[0]._valid_prefix(
            timestamps, weights
        )
        outside = (key_array < 0) | (key_array >= 1 << self.universe_bits)
        if outside[:limit].any():
            limit = int(np.argmax(outside))
        if limit:
            prefix = key_array[:limit].astype(np.uint64)
            for level, sketch in enumerate(self.levels):
                sketch._apply(
                    prefix >> np.uint64(level),
                    timestamp_array[:limit],
                    weight_array[:limit],
                )
            self.count += limit
        if limit < n:
            self.update(
                int(key_array[limit]),
                float(timestamp_array[limit]),
                1 if weights is None else weights[limit],
            )

    def total_weight_at(self, timestamp: float) -> float:
        """W(t) from the level-0 chain's weight history."""
        return self.levels[0].total_weight_at(timestamp)

    def estimate_at(self, key: int, timestamp: float) -> float:
        """Point estimate of ``key``'s count in ``A^timestamp``."""
        return self.levels[0].estimate_at(key, timestamp)

    def estimate_between(self, key: int, start: float, end: float) -> float:
        """FATP-style interval estimate (see ChainCountMin)."""
        return self.levels[0].estimate_between(key, start, end)

    def heavy_hitters_at(self, timestamp: float, phi: float) -> List[int]:
        """Keys with estimated prefix count >= ``phi * n(t)``; no candidates
        needed — the dyadic tree is descended, expanding qualifying nodes."""
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        cut = phi * self.total_weight_at(timestamp)
        if cut <= 0:
            return []
        hitters = []
        frontier = [(self.universe_bits, 0)]
        while frontier:
            level, node = frontier.pop()
            if self.levels[level].estimate_at(node, timestamp) < cut:
                continue
            if level == 0:
                hitters.append(node)
            else:
                frontier.append((level - 1, node * 2))
                frontier.append((level - 1, node * 2 + 1))
        return sorted(hitters)

    def num_checkpoints(self) -> int:
        """Total cell-history entries across all levels."""
        return sum(sketch.num_checkpoints() for sketch in self.levels)

    def memory_bytes(self) -> int:
        """Sum over the per-level chained sketches."""
        return sum(sketch.memory_bytes() for sketch in self.levels)


class BitpSampleHeavyHitter:
    """BITP heavy hitters from batched BITP priority sampling (SAMPLING-BITP)."""

    def __init__(self, k: int, seed: int = 0):
        self._sample = BitpPrioritySample(k, seed=seed)
        self.k = k

    @property
    def count(self) -> int:
        return self._sample.count

    def update(self, key: int, timestamp: float) -> None:
        """Insert one occurrence of ``key`` at ``timestamp``."""
        self._sample.update(key, timestamp, weight=1.0)

    def update_batch(self, keys, timestamps) -> None:
        """Bulk insert (equivalent to repeated :meth:`update`, but faster)."""
        self._sample.update_batch(keys, timestamps)

    def update_many(self, keys, timestamps) -> None:
        """Backward-compatible alias of :meth:`update_batch`."""
        self.update_batch(keys, timestamps)

    def heavy_hitters_since(self, timestamp: float, phi: float) -> List[int]:
        """Keys with estimated frequency >= ``phi * |window|`` in ``A[t, now]``."""
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        sample = [value for value, _ in self._sample.raw_sample_since(timestamp)]
        if not sample:
            return []
        counts = Counter(sample)
        cut = phi * len(sample)
        return sorted(key for key, count in counts.items() if count >= cut)

    def estimate_since(self, key: int, timestamp: float) -> float:
        """Estimated count of ``key`` in the window ``A[timestamp, now]``."""
        sample = [value for value, _ in self._sample.raw_sample_since(timestamp)]
        if not sample:
            return 0.0
        window = self._sample.suffix_count_since(timestamp)
        return sample.count(key) / len(sample) * window

    @property
    def peak_memory_bytes(self) -> int:
        return self._sample.peak_memory_bytes

    def memory_bytes(self) -> int:
        """Modelled C-layout footprint (see repro.evaluation.memory)."""
        return self._sample.memory_bytes()


class AttpTreeMisraGries:
    """ATTP Misra-Gries via the dyadic merge tree (Theorem 5.1, ATTP mode).

    The paper evaluates the merge tree in BITP mode (TMG); Theorem 5.1 states
    the same construction with left-spine retention answers prefix queries.
    Included for completeness and the chaining-vs-tree comparison: CMG
    dominates this on space (the paper's Section 5 discussion).
    """

    def __init__(self, eps: float, block_size: int = 64):
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.eps = eps
        self._tree = MergeTreePersistence(
            functools.partial(MisraGries.from_error, eps / 2.0),
            eps=eps / 2.0,
            mode="attp",
            block_size=block_size,
            apply_update=apply_int_weighted,
        )

    @property
    def count(self) -> int:
        return self._tree.count

    def update(self, key: int, timestamp: float) -> None:
        """Insert one occurrence of ``key`` at ``timestamp``."""
        self._tree.update(key, timestamp, weight=1)

    def update_batch(self, keys, timestamps) -> None:
        """Bulk insert: block-exact batched merge-tree ingest."""
        self._tree.update_batch(keys, timestamps)

    def heavy_hitters_at(
        self, timestamp: float, phi: float, guarantee_recall: bool = True
    ) -> List[int]:
        """Keys with estimated frequency >= ``phi * n(t)`` in ``A^timestamp``."""
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        merged = self._tree.sketch_at(timestamp)
        if merged.total_weight == 0:
            return []
        threshold = phi
        if guarantee_recall:
            threshold = max(phi - self.eps, 1e-12)
        return merged.heavy_hitters(threshold)

    def estimate_at(self, key: int, timestamp: float) -> float:
        """Estimated count of ``key`` in ``A^timestamp``."""
        return float(self._tree.sketch_at(timestamp).query(key))

    def memory_bytes(self) -> int:
        """Modelled C-layout footprint (see repro.evaluation.memory)."""
        return self._tree.memory_bytes()


class BitpTreeMisraGries:
    """BITP Misra-Gries via the dyadic merge tree (TMG, Section 5).

    Guarantees no false negatives when queried with the error margin, at the
    cost of the extra ``1/eps`` space factor the paper discusses.
    """

    def __init__(self, eps: float, block_size: int = 64):
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.eps = eps
        # Split the error: half to the MG summaries, half to merge-tree slack.
        self._tree = MergeTreePersistence(
            functools.partial(MisraGries.from_error, eps / 2.0),
            eps=eps / 2.0,
            mode="bitp",
            block_size=block_size,
            apply_update=apply_int_weighted,
        )

    @property
    def count(self) -> int:
        return self._tree.count

    def update(self, key: int, timestamp: float) -> None:
        """Insert one occurrence of ``key`` at ``timestamp``."""
        self._tree.update(key, timestamp, weight=1)

    def update_batch(self, keys, timestamps) -> None:
        """Bulk insert: block-exact batched merge-tree ingest."""
        self._tree.update_batch(keys, timestamps)

    def heavy_hitters_since(
        self, timestamp: float, phi: float, guarantee_recall: bool = True
    ) -> List[int]:
        """Keys with estimated frequency >= ``phi * |window|`` in ``A[t, now]``."""
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        merged = self._tree.sketch_since(timestamp)
        if merged.total_weight == 0:
            return []
        threshold = phi
        if guarantee_recall:
            # MG underestimates by <= eps/2 and the cover drops <= eps/2.
            threshold = max(phi - self.eps, 1e-12)
        return merged.heavy_hitters(threshold)

    def estimate_since(self, key: int, timestamp: float) -> float:
        """Estimated count of ``key`` in the window ``A[timestamp, now]``."""
        return float(self._tree.sketch_since(timestamp).query(key))

    @property
    def peak_memory_bytes(self) -> int:
        return self._tree.peak_memory_bytes

    def memory_bytes(self) -> int:
        """Modelled C-layout footprint (see repro.evaluation.memory)."""
        return self._tree.memory_bytes()
