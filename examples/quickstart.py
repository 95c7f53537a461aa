"""Quickstart: build a dataset, index it, run every CoSKQ flavor.

Run with::

    python examples/quickstart.py
"""

from repro import (
    DiaAppro,
    DiaExact,
    ExecutionPolicy,
    FallbackChain,
    MaxSumAppro,
    MaxSumExact,
    Query,
    ResilientExecutor,
    SearchContext,
    hotel_like,
)


def main() -> None:
    # 1. A synthetic stand-in for the paper's Hotel dataset (scale it up
    #    to 1.0 for the full 20,790 objects).
    dataset = hotel_like(scale=0.1, seed=42)
    print("dataset:", dataset)
    print("statistics:", dataset.statistics().as_row())

    # 2. One SearchContext builds and shares the keyword trees; the dataset
    #    already holds its keyword postings.
    context = SearchContext(dataset)

    # 3. A query: a location plus keywords to cover collectively.
    #    Keywords here are drawn from the generated vocabulary; with your
    #    own data you would use the real words.
    frequent = dataset.keywords_by_frequency()[:3]
    words = [dataset.vocabulary.word_of(k) for k in frequent]
    query = Query.from_words(500.0, 500.0, words, dataset.vocabulary)
    print("\nquery at (500, 500) for keywords:", words)

    # 4. The paper's four algorithms.
    for algorithm in (
        MaxSumExact(context),
        MaxSumAppro(context),
        DiaExact(context),
        DiaAppro(context),
    ):
        result = algorithm.solve(query)
        members = ", ".join(
            "#%d@(%.0f,%.0f)" % (o.oid, o.location.x, o.location.y)
            for o in result.objects
        )
        print(
            "%-13s cost=%8.3f  objects: %s" % (algorithm.name, result.cost, members)
        )

    # 5. Serving-grade execution: bound the exact search and degrade
    #    gracefully to the approximations when it blows the budget.
    #    (work_budget=25 is deliberately tiny so the degradation shows.)
    chain = FallbackChain.of(context, "maxsum-exact", "maxsum-appro", "nn-set")
    executor = ResilientExecutor(
        chain, ExecutionPolicy(deadline_ms=250.0, work_budget=25)
    )
    result = executor.solve(query)
    print("\nresilient: cost=%.3f" % result.cost)
    print("provenance:", result.provenance.describe())


if __name__ == "__main__":
    main()
