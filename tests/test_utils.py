"""Tests for the shared numeric and randomness helpers."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.utils.rng import substream
from repro.utils.stats import Summary, harmonic_number, percentile, summarize


class TestHarmonicNumber:
    def test_known_values(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0
        assert harmonic_number(3) == pytest.approx(1 + 0.5 + 1 / 3)

    def test_negative_is_zero(self):
        assert harmonic_number(-5) == 0.0

    @given(st.integers(1, 200))
    def test_close_to_log(self, k):
        # H_k ≈ ln k + γ, within 1/k of it.
        gamma = 0.5772156649
        assert harmonic_number(k) == pytest.approx(math.log(k) + gamma, abs=1.0 / k + 1e-9)


class TestPercentile:
    def test_basic(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 1.0) == 4.0

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 2.0)


class TestSummarize:
    def test_basic(self):
        s = summarize([2.0, 4.0, 6.0])
        assert s == Summary(mean=4.0, minimum=2.0, maximum=6.0, count=3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_as_row(self):
        row = summarize([1.0]).as_row()
        assert row == {"avg": 1.0, "min": 1.0, "max": 1.0, "n": 1}

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @example([0.1, 0.1, 0.1])
    def test_bounds(self, values):
        s = summarize(values)
        assert s.minimum <= s.mean <= s.maximum
        assert s.count == len(values)


class TestRng:
    def test_substreams_independent(self):
        a = substream(1, "spatial").random()
        b = substream(1, "text").random()
        assert a != b

    def test_substreams_deterministic(self):
        assert substream(2, "x").random() == substream(2, "x").random()
