"""The result cache under thread pressure (the serving daemon's use).

It promises: every lookup increments exactly one of hits/misses, the
LRU never exceeds its capacity, and ``stats_dict`` snapshots are
internally consistent.
"""

from __future__ import annotations

import threading

from repro.geometry.point import Point
from repro.model.query import Query
from repro.model.result import CoSKQResult
from repro.parallel.cache import ResultCache, result_key

THREADS = 8
ROUNDS = 40


def hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` on many threads; re-raise any failure."""
    errors = []

    def run(index):
        try:
            worker(index)
        except Exception as err:  # pragma: no cover - surfaced below
            errors.append(err)

    pool = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors, errors


class TestResultCacheConcurrency:
    def make_result(self, label):
        return CoSKQResult(algorithm=label, objects=(), cost=1.0)

    def test_hammered_get_put_counts_exactly(self, tiny_dataset):
        cache = ResultCache(capacity=16)
        keywords = frozenset(tiny_dataset.keywords_by_frequency()[:2])
        keys = [
            result_key(
                Query(Point(float(i), float(i)), keywords), "solver", "maxsum"
            )
            for i in range(6)
        ]

        def worker(thread_index):
            for round_number in range(ROUNDS):
                key = keys[(thread_index + round_number) % len(keys)]
                if cache.get(key) is None:
                    cache.put(key, self.make_result("r%d" % thread_index))

        hammer(worker)
        stats = cache.stats_dict()
        assert stats["hits"] + stats["misses"] == THREADS * ROUNDS
        assert len(cache) <= 16
        # steady state: every key resident, no evictions for 6 < 16 keys
        assert stats["evictions"] == 0
        assert len(cache) == len(keys)

    def test_capacity_bound_with_eviction_pressure(self, tiny_dataset):
        cache = ResultCache(capacity=4)
        keywords = frozenset(tiny_dataset.keywords_by_frequency()[:2])

        def worker(thread_index):
            for round_number in range(ROUNDS):
                query = Query(
                    Point(
                        float(thread_index * ROUNDS + round_number), 0.0
                    ),
                    keywords,
                )
                cache.put(
                    result_key(query, "solver", None),
                    self.make_result("x"),
                )

        hammer(worker)
        assert len(cache) <= 4
        stats = cache.stats_dict()
        assert stats["evictions"] == THREADS * ROUNDS - 4

    def test_snapshot_is_internally_consistent_under_load(self, tiny_dataset):
        cache = ResultCache(capacity=8)
        keywords = frozenset(tiny_dataset.keywords_by_frequency()[:2])
        key = result_key(Query(Point(1.0, 1.0), keywords), "solver", None)
        cache.put(key, self.make_result("seed"))
        stop = threading.Event()
        snapshots = []

        def reader(_):
            while not stop.is_set():
                snapshots.append(cache.stats_dict())

        def writer(thread_index):
            for _ in range(ROUNDS * 5):
                cache.get(key)
            stop.set()

        reader_thread = threading.Thread(target=reader, args=(0,), daemon=True)
        reader_thread.start()
        hammer(writer, threads=4)
        stop.set()
        reader_thread.join()
        final = cache.stats_dict()
        assert final["hits"] == 4 * ROUNDS * 5
        # monotone counters: no snapshot may exceed the final tally
        for snap in snapshots:
            assert snap["hits"] <= final["hits"]
            assert snap["misses"] <= final["misses"]
