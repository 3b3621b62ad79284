"""Batch ≡ scalar-loop equivalence through the persistence layers.

The persistence constructions have side effects at *positions* in the stream
— checkpoint triggers in the chain, block seals in the merge tree, death
marks in the persistent samplers — so batch ingest must reproduce them at
exactly the scalar positions, not merely end in an equivalent summary.
These tests feed identical streams through a scalar loop and through
``update_batch`` (with batch edges deliberately straddling checkpoint and
block boundaries) and assert identical historical answers, identical
structure, and — on mid-batch violations — identical prefix-apply state.
"""

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.telemetry as telemetry
from repro.core import (
    BitpPrioritySample,
    ChainCountMin,
    ChainCountSketch,
    CheckpointChain,
    MergeTreePersistence,
    MonotoneViolation,
    PersistentPrioritySample,
    PersistentReservoirChains,
    PersistentTopKSample,
    PersistentWeightedWR,
)
from repro.persistent import AttpDyadicChainCountMin
from repro.sketches import CountMinSketch, KllSketch

N = 600
RNG = np.random.default_rng(1234)
KEYS = RNG.integers(0, 120, size=N).tolist()
VALUES = RNG.normal(size=N).tolist()
TIMESTAMPS = np.sort(RNG.random(N) * 100.0).tolist()
WEIGHTS = (RNG.random(N) + 0.1).tolist()
QUERY_TIMES = [1.0, 13.0, 42.0, 77.0, 99.99]
# Deliberately awkward batch sizes: straddle checkpoint/block boundaries,
# include size-1 and empty slices.
CHUNKS = [1, 63, 64, 65, 200, 0, 7, 300]


def feed_scalar(obj, items, times, weights=None):
    for i in range(len(items)):
        if weights is None:
            obj.update(items[i], times[i])
        else:
            obj.update(items[i], times[i], weights[i])


def feed_batch(obj, items, times, weights=None):
    position = 0
    for chunk in CHUNKS:
        stop = min(position + chunk, len(items))
        if weights is None:
            obj.update_batch(items[position:stop], times[position:stop])
        else:
            obj.update_batch(
                items[position:stop], times[position:stop], weights[position:stop]
            )
        position = stop
    if position < len(items):
        obj.update_batch(items[position:], times[position:], *(
            () if weights is None else (weights[position:],)
        ))


class TestCheckpointChain:
    def test_countmin_chain_checkpoints_and_answers_identical(self):
        scalar = CheckpointChain(functools.partial(CountMinSketch, 64, seed=3), eps=0.05)
        batch = CheckpointChain(functools.partial(CountMinSketch, 64, seed=3), eps=0.05)
        feed_scalar(scalar, KEYS, TIMESTAMPS)
        feed_batch(batch, KEYS, TIMESTAMPS)
        assert scalar.num_checkpoints() == batch.num_checkpoints()
        assert scalar.count == batch.count
        assert scalar.total_weight == batch.total_weight
        for t in QUERY_TIMES:
            a, b = scalar.sketch_at(t), batch.sketch_at(t)
            if a is None:
                assert b is None
                continue
            assert np.array_equal(a._table, b._table)

    def test_kll_chain_quantiles_identical(self):
        scalar = CheckpointChain(functools.partial(KllSketch, 60, seed=3), eps=0.05)
        batch = CheckpointChain(functools.partial(KllSketch, 60, seed=3), eps=0.05)
        feed_scalar(scalar, VALUES, TIMESTAMPS)
        feed_batch(batch, VALUES, TIMESTAMPS)
        assert scalar.num_checkpoints() == batch.num_checkpoints()
        for t in QUERY_TIMES:
            a, b = scalar.sketch_at(t), batch.sketch_at(t)
            if a is None:
                assert b is None
                continue
            for phi in (0.1, 0.5, 0.9):
                assert a.quantile(phi) == b.quantile(phi)

    def test_one_giant_batch_crosses_many_checkpoints(self):
        """A single batch spanning dozens of checkpoint triggers must place
        every checkpoint at its scalar position."""
        scalar = CheckpointChain(functools.partial(CountMinSketch, 64, seed=3), eps=0.01)
        batch = CheckpointChain(functools.partial(CountMinSketch, 64, seed=3), eps=0.01)
        feed_scalar(scalar, KEYS, TIMESTAMPS)
        batch.update_batch(KEYS, TIMESTAMPS)
        assert scalar.num_checkpoints() == batch.num_checkpoints() > 20
        for (ta, _), (tb, _) in zip(scalar.checkpoints(), batch.checkpoints()):
            assert ta == tb

    def test_weighted_chain_respects_error_budget_at_boundaries(self):
        """Checkpoint spacing (Lemma 4.1's (1+eps) growth) is preserved by
        batch ingest: consecutive checkpoint weights grow by >= eps."""
        chain = CheckpointChain(functools.partial(CountMinSketch, 64, seed=3), eps=0.1)
        weights = [float(w) for w in RNG.integers(1, 5, size=N)]
        feed_batch(chain, KEYS, TIMESTAMPS, weights)
        checkpoint_weights = []
        running = 0.0
        position = 0
        # Recompute the cumulative weight at each checkpoint time.
        cumulative = np.cumsum(weights)
        for t, _ in chain.checkpoints():
            idx = np.searchsorted(np.asarray(TIMESTAMPS), t, side="right") - 1
            checkpoint_weights.append(float(cumulative[idx]))
        for earlier, later in zip(checkpoint_weights, checkpoint_weights[1:]):
            assert later - earlier >= 0.0  # monotone
        assert chain.total_weight == pytest.approx(float(cumulative[-1]))


class TestMergeTree:
    @pytest.mark.parametrize("mode", ["attp", "bitp"])
    def test_tree_structure_and_answers_identical(self, mode):
        factory = functools.partial(CountMinSketch, 64, seed=5)
        scalar = MergeTreePersistence(factory, eps=0.1, mode=mode, block_size=64)
        batch = MergeTreePersistence(factory, eps=0.1, mode=mode, block_size=64)
        feed_scalar(scalar, KEYS, TIMESTAMPS)
        feed_batch(batch, KEYS, TIMESTAMPS)
        assert scalar.count == batch.count
        assert scalar.num_nodes() == batch.num_nodes()
        assert scalar.peak_memory_bytes == batch.peak_memory_bytes
        for t in QUERY_TIMES:
            if mode == "attp":
                a, b = scalar.sketch_at(t), batch.sketch_at(t)
            else:
                a, b = scalar.sketch_since(t), batch.sketch_since(t)
            assert np.array_equal(a._table, b._table)

    def test_batch_smaller_and_larger_than_block(self):
        """Seals happen at exact scalar positions whether a batch is a
        fraction of a block or spans several blocks."""
        factory = functools.partial(CountMinSketch, 32, seed=5)
        scalar = MergeTreePersistence(factory, eps=0.1, block_size=16)
        batch = MergeTreePersistence(factory, eps=0.1, block_size=16)
        feed_scalar(scalar, KEYS[:200], TIMESTAMPS[:200])
        batch.update_batch(KEYS[:5], TIMESTAMPS[:5])  # partial block
        batch.update_batch(KEYS[5:150], TIMESTAMPS[5:150])  # many blocks
        batch.update_batch(KEYS[150:200], TIMESTAMPS[150:200])
        assert scalar.num_nodes() == batch.num_nodes()
        assert np.array_equal(
            scalar.sketch_at(TIMESTAMPS[199])._table,
            batch.sketch_at(TIMESTAMPS[199])._table,
        )


class TestPersistentSamplers:
    """Seeded-RNG determinism: batch must consume PCG64 exactly as scalar."""

    def test_topk_sample(self):
        scalar = PersistentTopKSample(32, seed=7)
        batch = PersistentTopKSample(32, seed=7)
        feed_scalar(scalar, KEYS, TIMESTAMPS)
        feed_batch(batch, KEYS, TIMESTAMPS)
        assert [
            (r.value, r.birth, r.death, r.priority) for r in scalar.records()
        ] == [(r.value, r.birth, r.death, r.priority) for r in batch.records()]
        for t in QUERY_TIMES:
            assert scalar.sample_at(t) == batch.sample_at(t)
        assert scalar._rng.bit_generator.state == batch._rng.bit_generator.state

    def test_reservoir_chains(self):
        scalar = PersistentReservoirChains(8, seed=7)
        batch = PersistentReservoirChains(8, seed=7)
        feed_scalar(scalar, KEYS, TIMESTAMPS)
        feed_batch(batch, KEYS, TIMESTAMPS)
        for t in QUERY_TIMES:
            assert scalar.sample_at(t) == batch.sample_at(t)
        assert scalar.total_records() == batch.total_records()
        assert scalar._rng.bit_generator.state == batch._rng.bit_generator.state

    def test_priority_sample_weighted(self):
        scalar = PersistentPrioritySample(32, seed=7)
        batch = PersistentPrioritySample(32, seed=7)
        feed_scalar(scalar, KEYS, TIMESTAMPS, WEIGHTS)
        feed_batch(batch, KEYS, TIMESTAMPS, WEIGHTS)
        for t in QUERY_TIMES:
            assert scalar.sample_at(t) == batch.sample_at(t)
        assert scalar.total_weight == batch.total_weight
        assert scalar._rng.bit_generator.state == batch._rng.bit_generator.state

    def test_weighted_wr_chains(self):
        scalar = PersistentWeightedWR(8, seed=7)
        batch = PersistentWeightedWR(8, seed=7)
        feed_scalar(scalar, KEYS, TIMESTAMPS, WEIGHTS)
        feed_batch(batch, KEYS, TIMESTAMPS, WEIGHTS)
        for t in QUERY_TIMES:
            assert scalar.sample_at(t) == batch.sample_at(t)
        assert scalar._rng.bit_generator.state == batch._rng.bit_generator.state

    def test_bitp_priority_sample(self):
        scalar = BitpPrioritySample(32, seed=7)
        batch = BitpPrioritySample(32, seed=7)
        feed_scalar(scalar, KEYS, TIMESTAMPS, WEIGHTS)
        feed_batch(batch, KEYS, TIMESTAMPS, WEIGHTS)
        for t in QUERY_TIMES:
            assert scalar.raw_sample_since(t) == batch.raw_sample_since(t)
        assert scalar.kept_count() == batch.kept_count()
        assert scalar.peak_memory_bytes == batch.peak_memory_bytes
        assert scalar._rng.bit_generator.state == batch._rng.bit_generator.state


class TestPrefixApplyOnViolation:
    """A mid-batch violation applies the valid prefix, then raises the
    scalar exception — matching the scalar loop item for item."""

    def test_monotone_violation_applies_prefix(self):
        scalar = PersistentTopKSample(8, seed=1)
        batch = PersistentTopKSample(8, seed=1)
        values = [10, 20, 30, 40]
        times = [0.0, 1.0, 0.5, 2.0]
        with pytest.raises(MonotoneViolation):
            feed_scalar(scalar, values, times)
        with pytest.raises(MonotoneViolation):
            batch.update_batch(values, times)
        assert scalar.count == batch.count == 2
        assert scalar.sample_at(1.0) == batch.sample_at(1.0)
        assert scalar._rng.bit_generator.state == batch._rng.bit_generator.state

    def test_bad_weight_applies_prefix_and_matches_scalar_error(self):
        scalar = PersistentPrioritySample(8, seed=1)
        batch = PersistentPrioritySample(8, seed=1)
        values = [10, 20, 30]
        times = [0.0, 1.0, 2.0]
        weights = [1.0, -2.0, 1.0]
        scalar_error = batch_error = None
        try:
            feed_scalar(scalar, values, times, weights)
        except ValueError as error:
            scalar_error = str(error)
        try:
            batch.update_batch(values, times, weights)
        except ValueError as error:
            batch_error = str(error)
        assert scalar_error is not None and scalar_error == batch_error
        assert scalar.count == batch.count == 1
        assert scalar._rng.bit_generator.state == batch._rng.bit_generator.state

    def test_violating_batch_can_be_resumed(self):
        """After a rejected batch, a corrected batch continues cleanly and
        matches the scalar feed of the same accepted stream."""
        batch = PersistentTopKSample(8, seed=1)
        with pytest.raises(MonotoneViolation):
            batch.update_batch([1, 2, 3], [0.0, 5.0, 4.0])
        batch.update_batch([4, 5], [6.0, 7.0])
        scalar = PersistentTopKSample(8, seed=1)
        for value, timestamp in [(1, 0.0), (2, 5.0), (4, 6.0), (5, 7.0)]:
            scalar.update(value, timestamp)
        assert scalar.sample_at(7.0) == batch.sample_at(7.0)
        assert scalar._rng.bit_generator.state == batch._rng.bit_generator.state

    def test_chain_rejects_mid_batch_then_matches_scalar(self):
        scalar = CheckpointChain(functools.partial(CountMinSketch, 32, seed=1), eps=0.1)
        batch = CheckpointChain(functools.partial(CountMinSketch, 32, seed=1), eps=0.1)
        values = [1, 2, 3, 4]
        times = [0.0, 1.0, 0.25, 2.0]
        with pytest.raises(MonotoneViolation):
            feed_scalar(scalar, values, times)
        with pytest.raises(MonotoneViolation):
            batch.update_batch(values, times)
        assert scalar.count == batch.count == 2
        assert scalar.num_checkpoints() == batch.num_checkpoints()


class TestProblemLayerSpotChecks:
    """End-to-end through the Section 3/6 problem classes."""

    def test_attp_sample_heavy_hitter(self):
        from repro.persistent import AttpSampleHeavyHitter

        scalar = AttpSampleHeavyHitter(64, seed=4)
        batch = AttpSampleHeavyHitter(64, seed=4)
        feed_scalar(scalar, KEYS, TIMESTAMPS)
        feed_batch(batch, KEYS, TIMESTAMPS)
        assert scalar.count == batch.count
        for t in QUERY_TIMES:
            assert scalar.heavy_hitters_at(t, 0.05) == batch.heavy_hitters_at(t, 0.05)
            assert scalar.estimate_at(7, t) == batch.estimate_at(7, t)

    def test_attp_sample_heavy_hitter_violation_observes_prefix(self):
        from repro.persistent import AttpSampleHeavyHitter

        scalar = AttpSampleHeavyHitter(16, seed=1)
        batch = AttpSampleHeavyHitter(16, seed=1)
        with pytest.raises(MonotoneViolation):
            feed_scalar(scalar, [1, 2, 3, 4], [0.0, 1.0, 0.5, 2.0])
        with pytest.raises(MonotoneViolation):
            batch.update_batch([1, 2, 3, 4], [0.0, 1.0, 0.5, 2.0])
        assert scalar.count == batch.count == 2
        assert scalar.estimate_at(1, 1.0) == batch.estimate_at(1, 1.0)

    def test_attp_kmv_distinct(self):
        from repro.persistent.distinct import AttpKmvDistinct

        scalar = AttpKmvDistinct(32, seed=9)
        batch = AttpKmvDistinct(32, seed=9)
        feed_scalar(scalar, KEYS, TIMESTAMPS)
        feed_batch(batch, KEYS, TIMESTAMPS)
        assert scalar.num_records() == batch.num_records()
        for t in QUERY_TIMES:
            assert scalar.distinct_at(t) == batch.distinct_at(t)

    def test_attp_norm_sampling_with_zero_rows(self):
        from repro.persistent.matrix import AttpNormSampling

        rows = RNG.normal(size=(N, 5))
        rows[::40] = 0.0  # zero rows are skipped, exactly as in scalar
        scalar = AttpNormSampling(24, 5, seed=6)
        batch = AttpNormSampling(24, 5, seed=6)
        feed_scalar(scalar, list(rows), TIMESTAMPS)
        feed_batch(batch, rows, TIMESTAMPS)
        assert scalar.count == batch.count
        for t in QUERY_TIMES:
            assert np.array_equal(scalar.covariance_at(t), batch.covariance_at(t))

    def test_attp_norm_sampling_nonfinite_row_prefix(self):
        from repro.persistent.matrix import AttpNormSampling

        rows = np.ones((4, 2))
        rows[2, 0] = np.nan
        scalar = AttpNormSampling(8, 2, seed=1)
        batch = AttpNormSampling(8, 2, seed=1)
        scalar_error = batch_error = None
        try:
            feed_scalar(scalar, list(rows), [0.0, 1.0, 2.0, 3.0])
        except ValueError as error:
            scalar_error = str(error)
        try:
            batch.update_batch(rows, [0.0, 1.0, 2.0, 3.0])
        except ValueError as error:
            batch_error = str(error)
        assert scalar_error is not None and scalar_error == batch_error
        assert scalar.count == batch.count == 2

    def test_attp_quantiles_family(self):
        from repro.persistent.quantiles import AttpChainKll, AttpSampleQuantiles

        for cls in (AttpSampleQuantiles, AttpChainKll):
            scalar = cls(k=60, seed=3)
            batch = cls(k=60, seed=3)
            feed_scalar(scalar, VALUES, TIMESTAMPS)
            feed_batch(batch, VALUES, TIMESTAMPS)
            for t in QUERY_TIMES:
                for phi in (0.25, 0.5, 0.75):
                    try:
                        expected = scalar.quantile_at(t, phi)
                    except ValueError:
                        with pytest.raises(ValueError):
                            batch.quantile_at(t, phi)
                        continue
                    assert expected == batch.quantile_at(t, phi)

    def test_durable_range_counting_history(self):
        from repro.persistent.range_counting import AttpRangeCounting

        points = RNG.normal(size=(N, 2))
        scalar = AttpRangeCounting(32, 2, seed=8)
        batch = AttpRangeCounting(32, 2, seed=8)
        feed_scalar(scalar, list(points), TIMESTAMPS)
        feed_batch(batch, points, TIMESTAMPS)
        for t in QUERY_TIMES:
            assert scalar.range_count_at(t, [-1, -1], [1, 1]) == batch.range_count_at(
                t, [-1, -1], [1, 1]
            )


# -- elementwise chains (Section 4.1): hypothesis-driven batch == scalar -----

UNIVERSE_BITS = 5


def chain_state(chain):
    """Everything ingest leaves in a linear elementwise chain, in order."""
    return (
        [(cell, list(history)) for cell, history in chain._histories.items()],
        list(chain._weight_history._history),
        chain._sketch.counters().tolist(),
        chain._last_recorded.tolist(),
        chain.count,
        chain.total_weight,
    )


def dyadic_state(stack):
    return stack.count, [chain_state(level) for level in stack.levels]


def make_elementwise(kind, eps_ckpt):
    if kind == "ccm":
        return ChainCountMin(width=8, depth=3, eps_ckpt=eps_ckpt, seed=5)
    if kind == "ccs":
        return ChainCountSketch(width=8, depth=3, eps_ckpt=eps_ckpt, seed=5)
    return AttpDyadicChainCountMin(
        UNIVERSE_BITS, eps=0.25, depth=2, eps_ckpt=eps_ckpt, seed=5
    )


def state_of(structure):
    if isinstance(structure, AttpDyadicChainCountMin):
        return dyadic_state(structure)
    return chain_state(structure)


@contextlib.contextmanager
def chain_totals():
    """Telemetry on; yields ``{name: delta}`` of the two chain counters."""
    families = ("persistent_updates_total", "checkpoint_seals_total")

    def totals():
        return {
            name: sum(c.value for _, c in telemetry.TELEMETRY.registry.get(name).samples())
            for name in families
        }

    telemetry.enable()
    before, deltas = totals(), {}
    try:
        yield deltas
    finally:
        deltas.update({k: v - before[k] for k, v in totals().items()})
        telemetry.disable()


def run_scalar(structure, keys, times, weights):
    with chain_totals() as totals:
        try:
            for i in range(len(keys)):
                structure.update(keys[i], times[i], 1 if weights is None else weights[i])
            error = None
        except ValueError as exc:
            error = (type(exc), str(exc))
    return error, totals


def run_batched(structure, keys, times, weights, chunks):
    with chain_totals() as totals:
        position, error = 0, None
        try:
            for size in list(chunks) + [len(keys)]:
                stop = min(position + size, len(keys))
                structure.update_batch(
                    keys[position:stop],
                    np.asarray(times[position:stop]),
                    None if weights is None else weights[position:stop],
                )
                position = stop
        except ValueError as exc:
            error = (type(exc), str(exc))
    return error, totals


@st.composite
def elementwise_streams(draw, kind):
    """(keys, times, weights, chunks, eps_ckpt) with frequent timestamp ties
    and tight drift thresholds, so chunk edges straddle many records."""
    n = draw(st.integers(0, 80))
    keys = draw(st.lists(st.integers(0, (1 << UNIVERSE_BITS) - 1), min_size=n, max_size=n))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=n, max_size=n))
    times = np.cumsum(gaps).tolist()
    if draw(st.booleans()):
        low = -4 if kind == "ccs" else 1
        weights = draw(st.lists(
            st.integers(low, 4).filter(bool), min_size=n, max_size=n
        ))
    else:
        weights = None
    chunks = draw(st.lists(st.sampled_from([0, 1, 1, 2, 3, 7, 16]), max_size=12))
    eps_ckpt = draw(st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    return keys, times, weights, chunks, eps_ckpt


ELEMENTWISE_KINDS = ["ccm", "ccs", "dyadic"]


class TestElementwiseChains:
    """``update_batch`` of the linear elementwise chains reproduces the
    scalar loop exactly: cell histories (in creation order), weight
    history, live table, last-recorded values, counts and telemetry."""

    @pytest.mark.parametrize("kind", ELEMENTWISE_KINDS)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_batch_matches_scalar(self, kind, data):
        keys, times, weights, chunks, eps_ckpt = data.draw(elementwise_streams(kind))
        scalar, batch = make_elementwise(kind, eps_ckpt), make_elementwise(kind, eps_ckpt)
        scalar_result = run_scalar(scalar, keys, times, weights)
        batch_result = run_batched(batch, keys, times, weights, chunks)
        assert scalar_result == batch_result
        assert state_of(scalar) == state_of(batch)

    @pytest.mark.parametrize("kind", ELEMENTWISE_KINDS)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mid_batch_rejection_applies_identical_prefix(self, kind, data):
        keys, times, weights, chunks, eps_ckpt = data.draw(elementwise_streams(kind))
        if not keys:
            return
        bad = data.draw(st.integers(0, len(keys) - 1))
        weights = [1] * len(keys) if weights is None else list(weights)
        fault = data.draw(st.sampled_from(
            ["earlier", "nan", "zero", "fraction"] + (["negative"] if kind != "ccs" else [])
        ))
        if fault == "earlier":
            times[bad] = times[bad - 1] - 0.5 if bad else float("-inf")
        elif fault == "nan":
            times[bad] = float("nan")
        else:
            weights[bad] = {"zero": 0, "fraction": 1.5, "negative": -1}[fault]
        scalar, batch = make_elementwise(kind, eps_ckpt), make_elementwise(kind, eps_ckpt)
        scalar_result = run_scalar(scalar, keys, times, weights)
        batch_result = run_batched(batch, keys, times, weights, chunks)
        assert scalar_result[0] is not None
        assert scalar_result == batch_result
        assert state_of(scalar) == state_of(batch)

    @pytest.mark.parametrize("kind", ELEMENTWISE_KINDS)
    def test_one_batch_matches_scalar_on_a_long_stream(self, kind):
        """One 600-item batch whose cells record many times each."""
        keys = [key % (1 << UNIVERSE_BITS) for key in KEYS]
        weights = [int(w) + 1 for w in RNG.integers(0, 3, size=N)]
        if kind == "ccs":
            weights = [w if i % 3 else -w for i, w in enumerate(weights)]
        scalar, batch = make_elementwise(kind, 0.01), make_elementwise(kind, 0.01)
        run_scalar(scalar, keys, TIMESTAMPS, weights)
        run_batched(batch, keys, TIMESTAMPS, weights, [])
        assert state_of(scalar) == state_of(batch)
        assert scalar.num_checkpoints() == batch.num_checkpoints() > 100
