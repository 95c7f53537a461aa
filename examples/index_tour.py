"""A tour of the spatial-textual index substrate.

Shows the one query the CoSKQ algorithms make of an index — relevant
objects around a point, streamed in ``(distance, oid)`` order — and what
they read from it: keyword nearest neighbors, the nearest-neighbor set
N(q) and the disk C(q, r).  It then measures how much the IR-tree's
keyword summaries save against a linear scan.

Run with::

    python examples/index_tour.py
"""

import itertools
import time

from repro import IRTree, LinearScanIndex, Point, Query, gn_like
from repro.algorithms.base import SearchContext


def main() -> None:
    dataset = gn_like(scale=0.003, seed=1)  # ~5.6k objects
    print("dataset:", dataset)

    # The IR-tree: an STR-packed R-tree whose nodes carry keyword masks.
    irtree = IRTree.build(dataset)
    print("ir-tree: %d objects, height %d" % (len(irtree), irtree.height()))
    here = Point(500.0, 500.0)
    keyword = dataset.keywords_by_frequency()[10]
    word = dataset.vocabulary.word_of(keyword)

    # The stream: objects carrying any of the keywords, nearest first.
    stream = irtree.nearest_relevant_iter(here, frozenset((keyword,)))
    print(
        "5 nearest objects containing %r:" % word,
        ["#%d at %.2f" % (obj.oid, dist) for dist, obj in itertools.islice(stream, 5)],
    )

    # NN(p, t) is the first entry of a single-keyword stream.
    dist, obj = next(irtree.nearest_relevant_iter(here, frozenset((keyword,))))
    print("\nnearest object containing %r: #%d at distance %.2f" % (word, obj.oid, dist))

    # N(q): one nearest carrier per query keyword — the seed of every
    # CoSKQ algorithm and the source of the d_f bound.  The context
    # checks feasibility, then reads N(q) from one stream over q's
    # keywords.
    context = SearchContext(dataset)
    frequent = dataset.keywords_by_frequency()[:4]
    query = Query(here, frozenset(frequent))
    nn = context.nn_set(query)
    print("N(q) over %d keywords: d_f = %.2f" % (len(nn.by_keyword), nn.d_f))

    # C(q, r) is the stream's prefix up to r.
    radius = 50.0
    in_disk = list(
        itertools.takewhile(
            lambda entry: entry[0] <= radius,
            context.index.nearest_relevant_iter(here, query.keywords),
        )
    )
    print("relevant objects within %.0f units: %d" % (radius, len(in_disk)))

    # IR-tree vs linear scan on the same N(q) lookups.
    linear = SearchContext(dataset, index_cls=LinearScanIndex)
    rounds = 300
    probes = [
        Query(Point(i % 1000, (i * 37) % 1000), query.keywords) for i in range(rounds)
    ]
    timings = []
    for ctx in (context, linear):
        ctx.nn_set(probes[0])  # build the indexes outside the timing
        started = time.perf_counter()
        for probe in probes:
            ctx.nn_set(probe)
        timings.append(time.perf_counter() - started)
    tree_time, scan_time = timings
    print(
        "\nN(q) microbenchmark (%d lookups): ir-tree %.3fs, "
        "linear scan %.3fs (%.1fx)"
        % (rounds, tree_time, scan_time, scan_time / max(tree_time, 1e-9))
    )


if __name__ == "__main__":
    main()
