"""Tests for dataset scaling and keyword densification."""

import pytest

from repro.data.augment import densify_keywords, scale_dataset
from repro.data.generators import uniform_dataset


@pytest.fixture(scope="module")
def base():
    return uniform_dataset(150, 25, mean_keywords=3.0, seed=17)


class TestScaleDataset:
    def test_grows_to_target(self, base):
        scaled = scale_dataset(base, 400, seed=1)
        assert len(scaled) == 400
        assert [o.oid for o in scaled] == list(range(400))

    def test_originals_preserved(self, base):
        scaled = scale_dataset(base, 300, seed=1)
        for original, kept in zip(base, scaled):
            assert original.location == kept.location
            assert original.keywords == kept.keywords

    def test_same_size_is_identity(self, base):
        assert scale_dataset(base, len(base)) is base

    def test_shrinking_refused(self, base):
        with pytest.raises(ValueError):
            scale_dataset(base, 10)

    def test_new_objects_follow_distribution(self, base):
        scaled = scale_dataset(base, 600, seed=2, jitter=1.0)
        rect = base.mbr()
        slack = 10.0  # jitter can step slightly outside the original MBR
        for obj in list(scaled)[len(base):]:
            assert rect.min_x - slack <= obj.location.x <= rect.max_x + slack
            assert rect.min_y - slack <= obj.location.y <= rect.max_y + slack
            assert obj.keywords  # copied from a donor, never empty

    def test_vocabulary_shared(self, base):
        scaled = scale_dataset(base, 200, seed=3)
        assert scaled.vocabulary is base.vocabulary

    def test_deterministic(self, base):
        a = scale_dataset(base, 250, seed=4)
        b = scale_dataset(base, 250, seed=4)
        assert [(o.location, o.keywords) for o in a] == [
            (o.location, o.keywords) for o in b
        ]


class TestDensifyKeywords:
    def test_raises_mean(self, base):
        denser = densify_keywords(base, 8.0, seed=1)
        before = sum(len(o.keywords) for o in base) / len(base)
        after = sum(len(o.keywords) for o in denser) / len(denser)
        assert after > before
        assert after == pytest.approx(8.0, rel=0.35)

    def test_noop_when_target_not_above_current(self, base):
        assert densify_keywords(base, 1.0) is base

    def test_locations_and_count_unchanged(self, base):
        denser = densify_keywords(base, 6.0, seed=2)
        assert len(denser) == len(base)
        for a, b in zip(base, denser):
            assert a.location == b.location
            assert a.keywords <= b.keywords

    def test_deterministic(self, base):
        a = densify_keywords(base, 6.0, seed=3)
        b = densify_keywords(base, 6.0, seed=3)
        assert [o.keywords for o in a] == [o.keywords for o in b]

    def test_name_records_transformation(self, base):
        assert "k6" in densify_keywords(base, 6.0).name
