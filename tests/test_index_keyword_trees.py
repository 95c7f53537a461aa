"""Tests for the keyword-tree index: its structure, the stream, NN(p, t), N(q)."""

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import SearchContext
from repro.data.generators import uniform_dataset
from repro.errors import InfeasibleQueryError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.keyword_trees import KeywordTreeIndex
from repro.index.neighbors import LinearScanIndex
from repro.model.dataset import Dataset
from repro.model.objects import SpatialObject
from repro.model.query import Query
from repro.model.vocabulary import Vocabulary
from repro.shard import ShardedIndex


@pytest.fixture(scope="module")
def ds():
    return uniform_dataset(250, 10, mean_keywords=2.5, seed=42)


@pytest.fixture(scope="module")
def tree(ds):
    return KeywordTreeIndex.build(ds, max_entries=6)


@pytest.fixture(scope="module")
def oracle(ds):
    return LinearScanIndex(ds)


def first_entry(index, point, keyword):
    """``NN(point, t)`` as ``(distance, oid)``: the single-keyword stream's head."""
    for dist, oid, _ in index.nearest_relevant_iter(point, frozenset((keyword,))):
        return dist, oid
    return None


def stream_mask(keywords, query):
    """The stream mask of ``keywords``: bit ``i`` for the ``i``-th smallest query keyword."""
    return sum(1 << i for i, t in enumerate(sorted(query)) if t in keywords)


def brute_stream(objects, point, keywords):
    """``(distance, oid, mask)`` of every carrier, by ``(distance, oid)``."""
    return sorted(
        (point.distance_to(o.location), o.oid, stream_mask(o.keywords, keywords))
        for o in objects
        if not o.keywords.isdisjoint(keywords)
    )


class TestStructure:
    def test_min_capacity_enforced(self, ds):
        with pytest.raises(ValueError):
            KeywordTreeIndex.build(ds, max_entries=3)

    def test_build_counts_and_invariants(self, ds, tree):
        assert len(tree) == len(ds)
        tree.check_invariants()

    def test_all_objects_round_trip(self, ds, tree):
        assert sorted(o.oid for o in tree.all_objects()) == list(range(len(ds)))

    def test_slots_are_dataset_keywords(self, ds, tree):
        expected = set()
        for o in ds:
            expected.update(o.keywords)
        assert list(tree._keywords) == sorted(expected)

    def test_empty_tree_queries(self):
        empty = Dataset([], Vocabulary(["a"]))
        index = KeywordTreeIndex.build(empty)
        assert len(index) == 0 and index.height() == 1
        index.check_invariants()
        assert list(index.nearest_relevant_iter(Point(0, 0), frozenset({0}))) == []
        disk = Circle(Point(0, 0), 10)
        assert list(index.nearest_relevant_iter(Point(0, 0), frozenset({0}), disk)) == []

    def test_height(self, tree):
        assert tree.height() >= 2

    def test_member_list_with_sparse_oids(self, ds):
        """A shard indexes a member list whose oids are not dense."""
        members = [o for o in ds if o.oid % 3 == 0]
        index = KeywordTreeIndex(ds, 4, [o.oid for o in reversed(members)])
        index.check_invariants()
        point = Point(400.0, 600.0)
        keywords = frozenset({1, 2, 5})
        got = list(index.nearest_relevant_iter(point, keywords))
        assert got == brute_stream(members, point, keywords)

    def test_id_columns_are_four_bytes(self, ds, tree):
        members = KeywordTreeIndex(ds, 4, range(0, len(ds), 3))
        assert members._members.itemsize == 4
        for index in (tree, members):
            for name in (
                "_keywords", "_offsets", "_roots", "_entries", "_lo", "_hi", "_kids"
            ):
                assert getattr(index, name).itemsize == 4, name
            for name in ("_x0", "_y0", "_x1", "_y1"):
                assert getattr(index, name).typecode == "d", name


class TestInvariantChecks:
    """``check_invariants`` catches each kind of drift it claims to check."""

    def test_leaf_mbr_must_hold_its_entries_doubles(self, ds):
        index = KeywordTreeIndex.build(ds, max_entries=4)
        # Push leaf 0's left edge past its entries' x.
        index._x0[0] = index._x1[0] + 1.0
        with pytest.raises(AssertionError, match="leaf MBR"):
            index.check_invariants()

    def test_members_must_be_ascending_distinct_oids(self, ds):
        for members, message in (([5, 5, 9], "ascending"), ([5, len(ds)], "not an oid")):
            index = KeywordTreeIndex(ds, 4, [5, 9])
            index._members = array("i", members)
            with pytest.raises(AssertionError, match=message):
                index.check_invariants()

    def test_keyword_tree_must_hold_its_carriers_once(self, ds):
        index = KeywordTreeIndex.build(ds, max_entries=4)
        # Repeat one carrier in place of another of the same keyword.
        index._entries[1] = index._entries[0]
        with pytest.raises(AssertionError):
            index.check_invariants()

    def test_node_mbr_must_contain_its_children(self, ds):
        index = KeywordTreeIndex.build(ds, max_entries=4)
        root = max(index._roots)
        index._x1[root] = index._x0[root]
        with pytest.raises(AssertionError):
            index.check_invariants()


class TestKeywordNN:
    def test_matches_linear_scan(self, ds, tree, oracle):
        for k in range(len(ds.vocabulary)):
            for q in (Point(100, 100), Point(900, 200), Point(0, 0)):
                assert first_entry(tree, q, k) == first_entry(oracle, q, k)

    def test_missing_keyword(self, tree):
        assert first_entry(tree, Point(0, 0), 99999) is None
        assert list(tree.nearest_relevant_iter(Point(0, 0), frozenset({-1, 99999}))) == []

    def test_nearest_relevant_iter_sorted_and_relevant(self, ds, tree):
        keywords = frozenset({0, 1})
        hits = list(tree.nearest_relevant_iter(Point(500, 500), keywords))
        distances = [d for d, _, _ in hits]
        assert distances == sorted(distances)
        assert all(
            mask == stream_mask(ds[oid].keywords, keywords) != 0 for _, oid, mask in hits
        )

    def test_nearest_relevant_iter_within_disk(self, tree, oracle):
        keywords = frozenset({0, 1, 2})
        disk = Circle(Point(500, 500), 150.0)
        got = list(tree.nearest_relevant_iter(Point(100, 100), keywords, within=disk))
        expected = list(
            oracle.nearest_relevant_iter(Point(100, 100), keywords, within=disk)
        )
        assert got == expected and got

    def test_nearest_relevant_iter_exhaustive(self, ds, tree):
        keywords = frozenset({3})
        got = {oid for _, oid, _ in tree.nearest_relevant_iter(Point(0, 0), keywords)}
        expected = {o.oid for o in ds if 3 in o.keywords}
        assert got == expected


class TestNNSet:
    def test_nearest_neighbor_set(self, ds):
        query = Query.create(500, 500, [0, 1, 2])
        tree = KeywordTreeIndex.build(ds, max_entries=6)
        got = SearchContext(ds).with_index(tree).nn_set(query)
        expected = SearchContext(ds, index_cls=LinearScanIndex).nn_set(query)
        assert got.by_keyword == expected.by_keyword
        assert got.d_f == expected.d_f

    def test_infeasible_raises(self, ds):
        with pytest.raises(InfeasibleQueryError) as err:
            SearchContext(ds).nn_set(Query.create(0, 0, [0, 99999]))
        assert err.value.missing_keywords == {99999}


#: Keyword ids of the shared-carrier property's datasets.
VOCAB = 8

#: A coarse grid, so that many carriers sit at exactly the same distance.
grid = st.integers(min_value=0, max_value=6).map(float)

shared_carrier_rows = st.lists(
    st.tuples(
        grid, grid, st.frozensets(st.integers(0, VOCAB - 1), min_size=1, max_size=6)
    ),
    max_size=60,
)


def dataset_of(rows) -> Dataset:
    objects = [
        SpatialObject(oid, Point(x, y), keywords)
        for oid, (x, y, keywords) in enumerate(rows)
    ]
    return Dataset(objects, Vocabulary("w%d" % i for i in range(VOCAB)))


class TestPropertyBased:
    @given(st.integers(0, 10_000), st.integers(4, 12))
    @settings(max_examples=15)
    def test_random_dataset_agreement(self, seed, fanout):
        dataset = uniform_dataset(80, 6, mean_keywords=2.0, seed=seed)
        tree = KeywordTreeIndex.build(dataset, max_entries=fanout)
        tree.check_invariants()
        oracle = LinearScanIndex(dataset)
        point = Point(321.0, 456.0)
        for keyword in range(3):
            assert first_entry(tree, point, keyword) == first_entry(
                oracle, point, keyword
            )

    @given(
        rows=shared_carrier_rows,
        px=grid,
        py=grid,
        keywords=st.frozensets(st.integers(0, VOCAB), min_size=1, max_size=5),
        fanout=st.integers(4, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_carriers_stream_once(self, rows, px, py, keywords, fanout):
        """Objects carrying several query keywords come out once, in order,
        with the bits of every query keyword they carry.

        The keyword trees, the linear scan and the sharded facade at 1, 3
        and 9 shards each yield exactly the brute-force ``(distance, oid,
        mask)`` list.
        """
        dataset = dataset_of(rows)
        index = KeywordTreeIndex.build(dataset, max_entries=fanout)
        index.check_invariants()
        point = Point(px, py)
        expected = brute_stream(dataset, point, keywords)
        backends = [index, LinearScanIndex(dataset)] + [
            ShardedIndex.build(dataset, max_entries=fanout, num_shards=shards)
            for shards in (1, 3, 9)
        ]
        for backend in backends:
            got = list(backend.nearest_relevant_iter(point, keywords))
            assert got == expected, backend

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([-1.5, -0.0, 0.0, 2.0]),
                st.sampled_from([-0.0, 0.0, 1.0]),
                st.frozensets(st.integers(0, VOCAB - 1), min_size=1, max_size=3),
            ),
            max_size=40,
        ),
        picks=st.lists(st.integers(0, 39), unique=True),
        fanout=st.integers(4, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_order_is_x_y_oid(self, rows, picks, fanout):
        """Repeated coordinates, signed zeros, sparse member oids in any order.

        Each multi-leaf keyword's leaves are the STR tiles of its carriers
        in ``(x, y, oid)`` order, and every entry is an oid.
        """
        dataset = dataset_of(rows)
        oids = [oid for oid in picks if oid < len(dataset)]
        index = KeywordTreeIndex(dataset, fanout, oids)
        index.check_invariants()
        assert len(index) == len(oids)
        assert [o.oid for o in index.all_objects()] == sorted(oids)
        for slot, k in enumerate(index._keywords):
            lo, hi = index._offsets[slot], index._offsets[slot + 1]
            carriers = sorted(
                (oid for oid in oids if k in dataset[oid].keywords),
                key=lambda oid: (dataset.xs[oid], dataset.ys[oid], oid),
            )
            if index._roots[slot] < 0:
                assert sorted(index._entries[lo:hi]) == sorted(carriers)
                continue
            leaves = [
                list(index._entries[index._lo[node] : index._hi[node]])
                for node in range(index._leaves)
                if lo <= index._lo[node] < hi
            ]
            assert leaves == str_tiles(dataset, carriers, fanout)


def str_tiles(dataset, carriers, cap):
    """The STR leaves of ``carriers``, given in ``(x, y, oid)`` order.

    Vertical slices of ``cap * ceil(tiles / ceil(sqrt(tiles)))``
    carriers, each ordered by ``(y, x, oid)`` and cut into runs of
    ``cap``.
    """
    tiles = -(-len(carriers) // cap)
    size = cap * -(-tiles // math.ceil(math.sqrt(tiles)))
    leaves = []
    for start in range(0, len(carriers), size):
        band = sorted(
            carriers[start : start + size],
            key=lambda oid: (dataset.ys[oid], dataset.xs[oid], oid),
        )
        leaves.extend(band[run : run + cap] for run in range(0, len(band), cap))
    return leaves
