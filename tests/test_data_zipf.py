"""Tests for the Zipf sampler."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.zipf import ZipfSampler


class TestZipfSampler:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, exponent=-1.0)

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(50, 1.0)
        total = sum(sampler.probability(k) for k in range(50))
        assert total == pytest.approx(1.0)

    def test_probability_monotone_decreasing(self):
        sampler = ZipfSampler(20, 1.2)
        probs = [sampler.probability(k) for k in range(20)]
        assert probs == sorted(probs, reverse=True)

    def test_probability_out_of_range(self):
        sampler = ZipfSampler(5)
        with pytest.raises(ValueError):
            sampler.probability(5)
        with pytest.raises(ValueError):
            sampler.probability(-1)

    def test_zero_exponent_is_uniform(self):
        sampler = ZipfSampler(10, exponent=0.0)
        for k in range(10):
            assert sampler.probability(k) == pytest.approx(0.1)

    def test_samples_in_range(self):
        sampler = ZipfSampler(7, 1.0)
        rng = random.Random(0)
        for _ in range(500):
            assert 0 <= sampler.sample(rng) < 7

    def test_skew_shows_in_samples(self):
        sampler = ZipfSampler(100, 1.0)
        rng = random.Random(1)
        draws = [sampler.sample(rng) for _ in range(5000)]
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 90)
        assert head > 5 * max(tail, 1)

    def test_sample_distinct_counts(self):
        sampler = ZipfSampler(30, 1.0)
        rng = random.Random(2)
        got = sampler.sample_distinct(rng, 5)
        assert len(got) == len(set(got)) == 5
        assert got == sorted(got)

    def test_sample_distinct_caps_at_support(self):
        sampler = ZipfSampler(4, 1.0)
        rng = random.Random(3)
        got = sampler.sample_distinct(rng, 10)
        assert got == [0, 1, 2, 3]

    @given(st.integers(1, 50), st.integers(0, 1000))
    @settings(max_examples=20)
    def test_sample_distinct_always_valid(self, n, seed):
        sampler = ZipfSampler(n, 1.0)
        rng = random.Random(seed)
        count = min(n, 6)
        got = sampler.sample_distinct(rng, count)
        assert len(got) == count
        assert all(0 <= g < n for g in got)
