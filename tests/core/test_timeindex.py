"""Tests for History and GeometricHistory."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeindex import GeometricHistory, History, count_at_or_before


class TestHistory:
    def test_value_at_returns_latest_before(self):
        h = History()
        h.append(1.0, "a")
        h.append(5.0, "b")
        h.append(9.0, "c")
        assert h.value_at(0.5) is None
        assert h.value_at(1.0) == "a"
        assert h.value_at(4.9) == "a"
        assert h.value_at(5.0) == "b"
        assert h.value_at(100.0) == "c"

    def test_default_when_before_first(self):
        h = History()
        h.append(10.0, 1)
        assert h.value_at(5.0, default=-1) == -1

    def test_entry_at(self):
        h = History()
        h.append(1.0, "x")
        h.append(2.0, "y")
        assert h.entry_at(1.5) == (1.0, "x")
        assert h.entry_at(0.0) is None

    def test_rejects_decreasing_timestamps(self):
        h = History()
        h.append(5.0, 1)
        with pytest.raises(ValueError):
            h.append(4.0, 2)

    def test_equal_timestamps_allowed(self):
        h = History()
        h.append(5.0, 1)
        h.append(5.0, 2)
        assert h.value_at(5.0) == 2  # latest entry wins

    def test_last_and_len_and_iter(self):
        h = History()
        assert h.last() is None
        h.append(1.0, "a")
        h.append(2.0, "b")
        assert h.last() == (2.0, "b")
        assert len(h) == 2
        assert list(h) == [(1.0, "a"), (2.0, "b")]

    @given(
        times=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_lookup_matches_linear_scan(self, times):
        times = sorted(times)
        h = History()
        for index, t in enumerate(times):
            h.append(t, index)
        for probe in times + [times[0] - 1, times[-1] + 1]:
            expected = None
            for index, t in enumerate(times):
                if t <= probe:
                    expected = index
            assert h.value_at(probe) == expected


class TestGeometricHistory:
    def test_underestimates_within_factor(self):
        g = GeometricHistory(delta=0.1)
        value = 0.0
        for step in range(1, 1_000):
            value += 1.0
            g.observe(float(step), value)
        for probe in (10.0, 100.0, 500.0, 999.0):
            recorded = g.value_at(probe)
            assert recorded <= probe
            assert recorded >= probe / 1.1 - 1.0

    def test_logarithmic_size(self):
        g = GeometricHistory(delta=0.1)
        value = 0.0
        for step in range(1, 100_000):
            value += 1.0
            g.observe(float(step), value)
        assert len(g) < 150  # ~ log(1e5)/log(1.1) ~ 120

    def test_rejects_decreasing_value(self):
        g = GeometricHistory(delta=0.1)
        g.observe(1.0, 10.0)
        with pytest.raises(ValueError):
            g.observe(2.0, 5.0)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            GeometricHistory(delta=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 50), max_size=60),
        st.lists(st.integers(0, 20), min_size=1, max_size=4),
        st.sampled_from([0.01, 0.1, 1.0]),
    )
    def test_observe_batch_matches_observe_loop(self, steps, cuts, delta):
        values = [float(v) for v in itertools.accumulate(steps)]
        times = [float(i) for i in range(len(values))]
        looped, batched = GeometricHistory(delta), GeometricHistory(delta)
        for t, v in zip(times, values):
            looped.observe(t, v)
        start = 0
        for cut in cuts + [len(values)]:
            batched.observe_batch(times[start:start + cut], values[start:start + cut])
            start = min(start + cut, len(values))
        assert list(looped._history) == list(batched._history)
        assert looped._last_recorded == batched._last_recorded

    def test_observe_batch_rejects_a_decrease_whole(self):
        g = GeometricHistory(delta=0.1)
        g.observe(0.0, 10.0)
        for values in ([12.0, 11.0], [9.0, 20.0]):
            with pytest.raises(ValueError):
                g.observe_batch([1.0, 2.0], values)
        assert list(g._history) == [(0.0, 10.0)]

    def test_zero_before_first(self):
        g = GeometricHistory(delta=0.1)
        assert g.value_at(5.0) == 0.0

    def test_memory_model(self):
        g = GeometricHistory(delta=0.5)
        g.observe(1.0, 1.0)
        g.observe(2.0, 2.0)
        assert g.memory_bytes() == len(g) * 16


def test_count_at_or_before():
    times = [1.0, 2.0, 2.0, 5.0]
    assert count_at_or_before(times, 0.5) == 0
    assert count_at_or_before(times, 2.0) == 3
    assert count_at_or_before(times, 9.0) == 4
