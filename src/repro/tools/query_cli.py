"""The ``coskq-query`` command line: ad-hoc CoSKQ over a dataset file.

Usage::

    coskq-query data.tsv --at 500 500 --keywords museum shopping restaurant
    coskq-query data.tsv --at 500 500 --keywords spa gym \
        --algorithm maxsum-appro --cost dia
    coskq-query data.tsv --at 500 500 --keywords spa gym --top 3
    coskq-query data.tsv --at 500 500 --keywords spa gym \
        --fallback "maxsum-exact -> maxsum-appro -> nn-set" \
        --deadline-ms 200 --budget 100000
    coskq-query --demo --at 500 500 --keywords w0001 w0002   # demo dataset
    coskq-query data.tsv --batch queries.tsv --workers 4 --cache full

The dataset file uses the library's text format — one object per line,
``x<TAB>y<TAB>word word ...`` (see :meth:`repro.model.Dataset.load`).
``--batch`` files use the same shape per query
(:func:`repro.data.queries.load_query_file`); the batch runs on the
process-parallel engine (:mod:`repro.parallel`) with per-query failure
isolation — the exit code is 0 only when every query answered.

Both modes turn the same flags into one
:class:`~repro.parallel.spec.SolverSpec`, so a malformed flag is refused
with one ``error:`` line before anything is solved, and solve through a
:class:`~repro.parallel.worker.WorkerRuntime` — the recipe and runtime
``coskq-serve`` uses too.

Exit codes (scriptable; also tabulated in ``docs/ROBUSTNESS.md``):

====  ==========================================================
code  meaning
====  ==========================================================
0     answered
1     library error outside the execution taxonomy (bad dataset,
      malformed solver flag, infeasible query, unknown keyword, I/O
      failure)
2     usage error (bad flag combination)
3     ``SearchAbortedError`` — a solver stopped mid-search
4     ``DeadlineExceededError`` — the wall-clock deadline expired
5     ``BudgetExceededError`` — the work budget ran out
6     ``InjectedFaultError`` — a chaos fault surfaced uncaught
7     ``ExecutionFailedError`` — every fallback stage failed
====  ==========================================================

Subclass checks run most-specific-first, so a deadline abort exits 4
even though it is also a ``SearchAbortedError``.  With the default
``always_answer`` policy a chain that ends in an approximation degrades
instead of failing; an exact last stage (a lone exact ``--algorithm``
under ``--deadline-ms``, or a ``--fallback`` ending in one) stays bound
and exits 7 when it runs out of time, and ``--hard-deadline`` makes the
envelope a hard wall for every stage.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.algorithms.base import SearchContext
from repro.algorithms.registry import ALGORITHM_NAMES
from repro.algorithms.topk import TopKCoSKQ
from repro.cost.functions import ALL_COSTS, cost_by_name
from repro.errors import (
    BudgetExceededError,
    CoSKQError,
    DeadlineExceededError,
    ExecutionError,
    ExecutionFailedError,
    InjectedFaultError,
    SearchAbortedError,
)
from repro.model.dataset import Dataset
from repro.model.query import Query
from repro.parallel.spec import CACHE_MODES, CacheSpec, SolverSpec, WorkerEnv
from repro.parallel.worker import WorkerRuntime

__all__ = ["main", "exit_code_for", "EXIT_CODES"]

#: The documented exit-code table (module docstring / docs/ROBUSTNESS.md).
EXIT_CODES = {
    "ok": 0,
    "error": 1,
    "usage": 2,
    SearchAbortedError.__name__: 3,
    DeadlineExceededError.__name__: 4,
    BudgetExceededError.__name__: 5,
    InjectedFaultError.__name__: 6,
    ExecutionFailedError.__name__: 7,
}


def exit_code_for(error: BaseException) -> int:
    """The documented exit code of an execution-taxonomy failure.

    Most-specific-first: the deadline/budget subclasses win over their
    ``SearchAbortedError`` base; anything outside the taxonomy is the
    generic failure exit.
    """
    if isinstance(error, DeadlineExceededError):
        return EXIT_CODES[DeadlineExceededError.__name__]
    if isinstance(error, BudgetExceededError):
        return EXIT_CODES[BudgetExceededError.__name__]
    if isinstance(error, SearchAbortedError):
        return EXIT_CODES[SearchAbortedError.__name__]
    if isinstance(error, InjectedFaultError):
        return EXIT_CODES[InjectedFaultError.__name__]
    if isinstance(error, ExecutionFailedError):
        return EXIT_CODES[ExecutionFailedError.__name__]
    return EXIT_CODES["error"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coskq-query",
        description="Run a collective spatial keyword query over a dataset file.",
    )
    parser.add_argument("dataset", nargs="?", help="dataset file (text format)")
    parser.add_argument(
        "--demo",
        action="store_true",
        help="use a generated demo dataset instead of a file",
    )
    parser.add_argument(
        "--at",
        nargs=2,
        type=float,
        metavar=("X", "Y"),
        default=None,
        help="query location (required unless --batch)",
    )
    parser.add_argument(
        "--keywords",
        nargs="+",
        default=None,
        help="query keywords (words, not ids; required unless --batch)",
    )
    parser.add_argument(
        "--batch",
        default=None,
        metavar="FILE",
        help=(
            "run a whole query file (x<TAB>y<TAB>word word ...) through "
            "the parallel batch engine instead of one --at/--keywords query"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for --batch (default: 1, in-process)",
    )
    parser.add_argument(
        "--cache",
        default="none",
        choices=CACHE_MODES,
        help="'full' reuses whole answers across a --batch (default: %(default)s)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help=(
            "query a sharded index with N STR shards through the "
            "scatter-gather engine (0 = single index); answers are "
            "bit-identical either way"
        ),
    )
    parser.add_argument(
        "--algorithm",
        default="maxsum-exact",
        choices=sorted(ALGORITHM_NAMES),
        help="solver to run (default: maxsum-exact)",
    )
    parser.add_argument(
        "--cost",
        default=None,
        choices=sorted(ALL_COSTS),
        help="override the solver's default cost function",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="K",
        help="report the K cheapest sets instead of one (monotone costs)",
    )
    parser.add_argument(
        "--fallback",
        default=None,
        metavar="CHAIN",
        help=(
            "run a resilient fallback chain instead of --algorithm, e.g. "
            "'maxsum-exact -> maxsum-appro -> nn-set' (also accepts commas)"
        ),
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock deadline for the whole fallback chain",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="per-attempt work budget (search-state expansions etc.)",
    )
    parser.add_argument(
        "--hard-deadline",
        action="store_true",
        help=(
            "make --deadline-ms/--budget a hard wall for every stage "
            "(disables the always-answer exemption of an approximate "
            "last stage)"
        ),
    )
    return parser


def _print_result(result, dataset: Dataset, query: Query, rank: Optional[int]) -> None:
    prefix = "" if rank is None else "#%d " % rank
    print("%s%s: cost %.6g" % (prefix, result.algorithm, result.cost))
    for obj in result.objects:
        words = sorted(dataset.vocabulary.word_of(k) for k in obj.keywords)
        print(
            "  object %d at (%.6g, %.6g), distance %.6g: %s"
            % (
                obj.oid,
                obj.location.x,
                obj.location.y,
                query.location.distance_to(obj.location),
                " ".join(words),
            )
        )


def _run_batch(args: argparse.Namespace, dataset: Dataset, spec: SolverSpec) -> int:
    """--batch mode: the whole file through the parallel engine."""
    from repro.data.queries import load_query_file
    from repro.parallel.executor import ParallelBatchExecutor

    queries = load_query_file(args.batch, dataset.vocabulary)
    env = WorkerEnv(
        dataset=dataset, cache=CacheSpec(mode=args.cache), shards=args.shards
    )
    # Build the solver once before the engine starts (this context
    # builds no index): a stage that cannot take the cost refuses it here.
    spec.build(SearchContext(dataset))
    with ParallelBatchExecutor(env, spec, workers=args.workers) as engine:
        report = engine.run(queries)
    print(report.summary())
    for index, result in enumerate(report.results):
        if result is not None:
            objects = " ".join(str(obj.oid) for obj in result.objects)
            print(
                "query #%d: cost %.6g, objects [%s], answered by %s"
                % (index, result.cost, objects, result.algorithm)
            )
    for failure in report.failures:
        print(str(failure), file=sys.stderr)
    if report.cache_stats is not None:
        stats = " ".join(
            "%s=%d" % (key, value)
            for key, value in sorted(report.cache_stats.items())
        )
        print("cache: %s" % stats)
    return 0 if report.ok() else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.demo == (args.dataset is not None):
        print("provide a dataset file or --demo (not both)", file=sys.stderr)
        return 2
    if args.shards < 0:
        print("--shards must be >= 0", file=sys.stderr)
        return 2
    if args.batch is not None:
        if args.at is not None or args.keywords is not None:
            print("--batch replaces --at/--keywords", file=sys.stderr)
            return 2
        if args.top is not None:
            print("--top cannot be combined with --batch", file=sys.stderr)
            return 2
        if args.workers < 1:
            print("--workers must be >= 1", file=sys.stderr)
            return 2
    else:
        if args.at is None or args.keywords is None:
            print("--at and --keywords are required without --batch", file=sys.stderr)
            return 2
        if not all(math.isfinite(v) for v in args.at):
            print("--at coordinates must be finite", file=sys.stderr)
            return 2
        if args.workers != 1 or args.cache != "none":
            print("--workers/--cache only apply to --batch runs", file=sys.stderr)
            return 2
    try:
        spec = SolverSpec(
            algorithm=args.algorithm,
            chain=args.fallback,
            cost=args.cost,
            deadline_ms=args.deadline_ms,
            work_budget=args.budget,
            always_answer=not args.hard_deadline,
        )
        if spec.resilient and args.top is not None:
            print(
                "--top cannot be combined with --fallback/--deadline-ms/--budget",
                file=sys.stderr,
            )
            return 2
        if args.demo:
            from repro.data.generators import hotel_like

            dataset = hotel_like(scale=0.1, seed=0)
        else:
            dataset = Dataset.load(args.dataset)
        if args.batch is not None:
            return _run_batch(args, dataset, spec)
        runtime = WorkerRuntime(WorkerEnv(dataset=dataset, shards=args.shards))
        x, y = args.at
        query = Query.from_words(x, y, args.keywords, dataset.vocabulary)
        if args.top is not None:
            cost = cost_by_name(args.cost or "maxsum")
            topk = TopKCoSKQ(runtime.context, cost, k=args.top)
            for rank, result in enumerate(topk.solve_topk(query), start=1):
                _print_result(result, dataset, query, rank)
            return 0
        result = runtime.solver_for(spec, 0).solve(query)
        _print_result(result, dataset, query, None)
        if result.provenance is not None:
            print("  [%s]" % result.provenance.describe())
        elif args.shards > 0:
            print(
                "  [shards: scanned %d of %d]"
                % (
                    result.counters.get("shards_scanned", 0),
                    result.counters.get("shards_total", 0),
                )
            )
        return 0
    except ExecutionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exit_code_for(exc)
    except CoSKQError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
