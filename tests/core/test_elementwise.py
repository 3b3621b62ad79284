"""Tests for elementwise checkpoint chains: CMG and CCM (Section 4.1)."""

import numpy as np
import pytest

from repro.core.base import MonotoneViolation
from repro.core.elementwise import ChainCountMin, ChainCountSketch, ChainMisraGries
from repro.persistent import AttpDyadicChainCountMin


def zipf_stream(n, universe, seed=0, a=1.3):
    rng = np.random.default_rng(seed)
    return (rng.zipf(a, size=n) % universe).astype(int)


class TestChainMisraGries:
    def test_estimate_at_additive_error(self):
        eps = 0.02
        cmg = ChainMisraGries(eps=eps)
        n = 20_000
        keys = zipf_stream(n, 100, seed=0)
        for index, key in enumerate(keys):
            cmg.update(int(key), float(index))
        for t_index in (4_999, 9_999, 19_999):
            prefix = keys[: t_index + 1]
            counts = np.bincount(prefix, minlength=100)
            for key in range(100):
                err = abs(cmg.estimate_at(key, float(t_index)) - counts[key])
                assert err <= eps * (t_index + 1) + 1

    def test_never_overestimates_beyond_drift(self):
        eps = 0.05
        cmg = ChainMisraGries(eps=eps)
        n = 5_000
        keys = zipf_stream(n, 50, seed=1)
        for index, key in enumerate(keys):
            cmg.update(int(key), float(index))
        t = float(n - 1)
        counts = np.bincount(keys, minlength=50)
        for key in range(50):
            # MG never overestimates; only checkpoint drift can push above.
            assert cmg.estimate_at(key, t) <= counts[key] + (eps / 2) * n + 1

    def test_recall_guaranteed(self):
        cmg = ChainMisraGries(eps=0.005)
        n = 30_000
        keys = zipf_stream(n, 500, seed=2)
        for index, key in enumerate(keys):
            cmg.update(int(key), float(index))
        phi = 0.02
        for t_index in (9_999, 29_999):
            prefix = keys[: t_index + 1]
            counts = np.bincount(prefix, minlength=500)
            truth = {k for k in range(500) if counts[k] >= phi * (t_index + 1)}
            reported = set(cmg.heavy_hitters_at(float(t_index), phi))
            assert truth <= reported

    def test_precision_without_margin(self):
        cmg = ChainMisraGries(eps=0.001)
        n = 30_000
        keys = zipf_stream(n, 500, seed=3)
        for index, key in enumerate(keys):
            cmg.update(int(key), float(index))
        phi = 0.02
        t = float(n - 1)
        counts = np.bincount(keys, minlength=500)
        near = {k for k in range(500) if counts[k] >= (phi - 0.002) * n}
        reported = set(cmg.heavy_hitters_at(t, phi, guarantee_recall=False))
        assert reported <= near  # no wild false positives

    def test_checkpoints_logarithmic(self):
        eps = 0.01
        cmg = ChainMisraGries(eps=eps)
        n = 50_000
        for index in range(n):
            cmg.update(index % 5, float(index))
        # O((1/eps) log W) total checkpoints across all counters.
        bound = 6 * (1.0 / eps) * np.log(n)
        assert cmg.num_checkpoints() <= bound

    def test_query_now_matches_plain_mg(self):
        from repro.sketches import MisraGries

        cmg = ChainMisraGries(eps=0.02)
        mg = MisraGries(cmg.k)
        keys = zipf_stream(2_000, 30, seed=4)
        for index, key in enumerate(keys):
            cmg.update(int(key), float(index))
            mg.update(int(key))
        for key in range(30):
            assert cmg.estimate_now(key) == mg.query(key)

    def test_total_weight_at_underestimates_slightly(self):
        cmg = ChainMisraGries(eps=0.1)
        for index in range(10_000):
            cmg.update(0, float(index))
        w = cmg.total_weight_at(4_999.0)
        assert 4_500 <= w <= 5_000

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ChainMisraGries(eps=0.0)
        cmg = ChainMisraGries(eps=0.1)
        with pytest.raises(ValueError):
            cmg.update(1, 1.0, weight=0)
        cmg.update(1, 5.0)
        with pytest.raises(MonotoneViolation):
            cmg.update(1, 4.0)
        with pytest.raises(ValueError):
            cmg.heavy_hitters_at(5.0, 0.0)

    def test_memory_grows_with_checkpoints(self):
        cmg = ChainMisraGries(eps=0.05)
        cmg.update(1, 1.0)
        small = cmg.memory_bytes()
        for index in range(2, 5_000):
            cmg.update(index % 7, float(index))
        assert cmg.memory_bytes() > small


class TestChainCountMin:
    def test_point_estimates_track_prefix(self):
        ccm = ChainCountMin(width=512, depth=3, eps_ckpt=0.005, seed=0)
        n = 10_000
        keys = zipf_stream(n, 50, seed=5)
        for index, key in enumerate(keys):
            ccm.update(int(key), float(index))
        t_index = 4_999
        counts = np.bincount(keys[: t_index + 1], minlength=50)
        for key in range(0, 50, 5):
            err = abs(ccm.estimate_at(key, float(t_index)) - counts[key])
            assert err <= 0.02 * (t_index + 1) + 2

    def test_estimate_now_matches_live_countmin(self):
        ccm = ChainCountMin(width=256, depth=3, eps_ckpt=0.01, seed=1)
        keys = zipf_stream(3_000, 40, seed=6)
        for index, key in enumerate(keys):
            ccm.update(int(key), float(index))
        for key in range(40):
            assert ccm.estimate_now(key) == ccm._cm.query(key)

    def test_heavy_hitters_with_candidates(self):
        ccm = ChainCountMin(width=1024, depth=3, eps_ckpt=0.002, seed=2)
        n = 20_000
        keys = zipf_stream(n, 200, seed=7)
        for index, key in enumerate(keys):
            ccm.update(int(key), float(index))
        phi = 0.03
        t = float(n - 1)
        counts = np.bincount(keys, minlength=200)
        truth = {k for k in range(200) if counts[k] >= phi * n}
        reported = set(ccm.heavy_hitters_at(t, phi, candidates=range(200)))
        # CountMin overestimates and the chain underestimates; near-threshold
        # keys can flip, but clear hitters are found.
        clear = {k for k in range(200) if counts[k] >= 1.3 * phi * n}
        assert clear <= reported
        assert reported <= {k for k in range(200) if counts[k] >= 0.7 * phi * n}

    def test_checkpoints_bounded(self):
        ccm = ChainCountMin(width=128, depth=3, eps_ckpt=0.01, seed=3)
        n = 20_000
        for index in range(n):
            ccm.update(index % 4, float(index))
        # h-component bound: O(depth * (1/eps) * log W).
        bound = 6 * 3 * (1.0 / 0.01) * np.log(n)
        assert ccm.num_checkpoints() <= bound

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ChainCountMin(width=16, eps_ckpt=0.0)
        ccm = ChainCountMin(width=16, eps_ckpt=0.1)
        with pytest.raises(ValueError):
            ccm.update(1, 1.0, weight=-1)


class TestIntegralWeights:
    """The linear chains count in int64 cells: a fractional weight is
    rejected on both paths before any state changes; 1.0 is accepted."""

    FRACTIONAL = "weight must be integral"

    @pytest.mark.parametrize("make", [
        lambda: ChainCountMin(width=16, eps_ckpt=0.1),
        lambda: ChainCountSketch(width=16, eps_ckpt=0.1),
        lambda: AttpDyadicChainCountMin(universe_bits=4, eps=0.25),
    ])
    @pytest.mark.parametrize("weight", [1.5, 0.5, float("nan"), float("inf")])
    def test_fractional_weight_rejected_by_update_and_update_batch(self, make, weight):
        for feed in (
            lambda chain: chain.update(5, 1.0, weight),
            lambda chain: chain.update_batch([5], [1.0], [weight]),
        ):
            chain = make()
            with pytest.raises(ValueError, match=self.FRACTIONAL):
                feed(chain)
            assert chain.count == 0
            assert chain.num_checkpoints() == 0
            assert chain.total_weight_at(1.0) == 0.0

    def test_countmin_update_keeps_table_and_total_weight_in_step(self):
        ccm = ChainCountMin(width=16, eps_ckpt=0.1)
        with pytest.raises(ValueError, match=self.FRACTIONAL):
            ccm.update(5, 1.0, 1.5)
        assert ccm.total_weight == 0
        assert not ccm._cm.counters().any()

    def test_countsketch_batch_reports_fractional_not_zero(self):
        ccs = ChainCountSketch(width=16, eps_ckpt=0.1)
        with pytest.raises(ValueError, match=self.FRACTIONAL):
            ccs.update_batch([5], [1.0], weights=[0.5])

    @pytest.mark.parametrize("cls", [ChainCountMin, ChainCountSketch])
    def test_integral_float_weights_accepted(self, cls):
        ints, floats = cls(width=16, eps_ckpt=0.1), cls(width=16, eps_ckpt=0.1)
        ints.update(3, 0.0, 2)
        floats.update(3, 0.0, 2.0)
        ints.update_batch([4, 5], [1.0, 2.0], [1, 3])
        floats.update_batch([4, 5], [1.0, 2.0], np.array([1.0, 3.0]))
        assert ints.total_weight == floats.total_weight == 6
        assert np.array_equal(ints._sketch.counters(), floats._sketch.counters())
        assert ints.estimate_at(5, 2.0) == floats.estimate_at(5, 2.0)
