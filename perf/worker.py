"""Child process of the library workloads: set up, then run one job.

Run by ``perf/run.py``, never by hand::

    python perf/worker.py <workload> [--prepare]

Protocol (one JSON object per line):

1. Set up — load the dataset through the program's ``DatasetCache``
   (whose hash must match ``perf/pins.json``), build the index (the
   sharded one on a sharded workload), and print ``{"event": "ready",
   "load_s": ..., "index_build_s": ...}``.  The parent times process
   start to this line as the workload's set-up.
2. Read one job from stdin.  End of input means "set-up probe only":
   exit 0.
3. Run the job's closed loop — whole passes over its queries, for about
   ``seconds`` — then the out-of-loop reference solves, and print
   ``{"event": "result", ...}``.

With ``--prepare`` the child only materializes the dataset (generating
and caching it on a miss) and exits.

Everything the program is asked arrives in the job as words and
coordinates; answers go back as object ids and costs, and the parent
checks them.  In a traced job every query is solved twice — bare, and
through :class:`timing.TimingIndex` with spans — so the tracing
overhead is measured on identical work.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

from timing import Spans, TimingIndex, peak_rss_kb, probe_ns
from workloads import CACHE_DIR, WORKLOADS, load_pins

from repro.algorithms.base import SearchContext
from repro.algorithms.registry import make_algorithm
from repro.bench.macro.datasets import DatasetCache, DatasetSpec
from repro.cost.functions import cost_by_name
from repro.model.query import Query
from repro.shard import ScatterGather, ShardedIndex, ShardedIndexFactory

#: Timed passes at least.  A query's latency is the median of its
#: passes, and pools are sized so that a run holds about five.
MIN_PASSES = 3

#: Queries between two speed probes.
PROBE_EVERY = 4

#: The exact counterpart an appro answer is compared against.
COUNTERPART = {"maxsum-appro": "maxsum-exact", "dia-appro": "dia-exact"}


def emit(payload: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def answer(result) -> Tuple[float, List[int]]:
    return result.cost, [obj.oid for obj in result.objects]


class Runner:
    """One workload's program state: dataset, contexts, solvers."""

    def __init__(self, workload_name: str):
        self.workload = WORKLOADS[workload_name]
        pin = load_pins()["datasets"][self.workload.dataset]
        spec = DatasetSpec(**pin["spec"])
        started = time.perf_counter()
        self.dataset, meta = DatasetCache(CACHE_DIR).materialize(spec)
        self.load_s = time.perf_counter() - started
        if meta["content_hash"] != pin["sha256"]:
            raise SystemExit(
                "pinned dataset %s changed: sha256 %s, pinned %s"
                % (spec.name, meta["content_hash"], pin["sha256"])
            )
        self.single: Optional[SearchContext] = None
        started = time.perf_counter()
        if self.workload.shards:
            self.context = SearchContext(
                self.dataset, index_cls=ShardedIndexFactory(self.workload.shards)
            )
        else:
            self.context = SearchContext(self.dataset)
            self.single = self.context
        self.context.index  # noqa: B018 - build for effect
        self.context.inverted  # noqa: B018
        self.index_build_s = time.perf_counter() - started

    def solvers(self, context: SearchContext) -> Dict[str, object]:
        """One solver per name over ``context``."""
        names = self.workload.solvers
        if self.workload.shards:
            return {name: ScatterGather(context, name) for name in names}
        return {name: make_algorithm(name, context) for name in names}

    def query(self, item) -> Query:
        _, _, x, y, words = item
        return Query.from_words(x, y, words, self.dataset.vocabulary)

    # -- the timed loops -------------------------------------------------------

    def solve(self, solver, query, idx: int) -> list:
        """``[idx, latency_ns, cost, oids, counters, error]`` of one solve."""
        clock = time.perf_counter_ns
        error = None
        cost = oids = None
        counters: Dict[str, int] = {}
        start = clock()
        try:
            result = solver.solve(query)
        except Exception as err:  # a failed query is counted, the run goes on
            error = "%s: %s" % (type(err).__name__, err)
        else:
            cost, oids = answer(result)
            counters = result.counters
        latency = clock() - start
        return [idx, latency, cost, oids, counters, error]

    def loop(self, queries, solvers, seconds: float, rng: random.Random) -> Dict[str, object]:
        """Solve whole passes over ``queries`` for about ``seconds``.

        Only whole passes are timed, so every query is solved equally
        often whatever the run's seed or speed.  The run stops at the
        pass boundary nearest to ``seconds``, after at least
        ``MIN_PASSES``.  Each pass walks its own ``rng`` order, so a
        query's median is not tied to the queries before it.  A speed
        probe runs before every ``PROBE_EVERY``-th solve; ``probe_at[i]``
        is the last probe before record ``i``.
        """
        clock = time.perf_counter_ns
        records: List[list] = []
        probes: List[int] = []
        probe_at: List[int] = []
        passes = 0
        started = clock()
        while not _enough(clock() - started, passes, seconds, MIN_PASSES):
            rng.shuffle(queries)
            for n, (idx, name, query) in enumerate(queries):
                if n % PROBE_EVERY == 0:
                    probes.append(probe_ns())
                records.append(self.solve(solvers[name], query, idx))
                probe_at.append(len(probes) - 1)
            passes += 1
        return {"records": records, "passes": passes, "probes": probes, "probe_at": probe_at}

    def traced_loop(self, queries, solvers, seconds: float, rng: random.Random):
        """Solve each query bare and traced, alternating which goes first.

        Pairing the two solves of one query, in both orders, keeps warm
        caches from favouring either side, so the summed latencies give
        the tracing overhead.  Traced records carry the query's index
        tally as a seventh field; the spans are ``bench.query`` →
        ``algorithms.solve`` (``shard.solve`` when sharded).
        """
        timer, traced = self._traced()
        span_name = "shard.solve" if self.workload.shards else "algorithms.solve"
        clock = time.perf_counter_ns
        spans = Spans()
        bare: List[list] = []
        records: List[list] = []
        started = clock()
        passes = 0
        while not _enough(clock() - started, passes, seconds, 1):
            rng.shuffle(queries)
            for i, (idx, name, query) in enumerate(queries):
                for bare_first in ((True, False) if i % 2 == 0 else (False, True)):
                    if bare_first:
                        bare.append(self.solve(solvers[name], query, idx))
                        continue
                    start = clock()
                    record = self.solve(traced[name], query, idx)
                    tally = timer.take()
                    request = len(records)
                    parent = spans.add("bench.query", start, clock(), request)
                    spans.add(
                        span_name,
                        start,
                        start + record[1],
                        request,
                        parent,
                        index=tally,
                        solver=name,
                    )
                    records.append(record + [tally])
            passes += 1
        return bare, records, spans

    # -- out-of-loop references ------------------------------------------------

    def references(self, items, solvers, records) -> List[list]:
        """``[idx, subject_cost, subject_oids, ref_cost, ref_oids]`` per item."""
        kind = self.workload.reference
        if kind is None:
            return []
        answered = {r[0]: (r[2], r[3]) for r in records if r[5] is None}
        if kind == "single-tree" and self.single is None:
            self.single = SearchContext(self.dataset)
        out = []
        for item in items:
            idx, name = item[0], item[1]
            query = self.query(item)
            subject = answered.get(idx)
            if subject is None:
                subject = answer(solvers[name].solve(query))
            if kind == "counterpart":
                ref = make_algorithm(COUNTERPART[name], self.context).solve(query)
            elif kind == "single-tree":
                ref = make_algorithm(name, self.single).solve(query)
            else:
                # "maxsum-exact" optimizes "maxsum", "dia-exact" "dia".
                cost = cost_by_name(name.split("-")[0])
                ref = make_algorithm("cao-exact", self.context, cost).solve(query)
            out.append([idx, subject[0], subject[1], *answer(ref)])
        return out

    def run(self, job: Dict[str, object]) -> Dict[str, object]:
        queries = [(item[0], item[1], self.query(item)) for item in job["items"]]
        rng = random.Random(job["seed"])
        seconds = float(job["seconds"])
        solvers = self.solvers(self.context)
        result: Dict[str, object] = {"event": "result"}
        if not job["trace"]:
            result.update(self.loop(queries, solvers, seconds, rng))
            result["rss_kb"] = peak_rss_kb()
            records = result["records"]
            bare: List[list] = []
        else:
            bare, records, spans = self.traced_loop(queries, solvers, seconds, rng)
            result["spans"] = spans.spans
        result["records"] = records
        result["bare_records"] = bare
        result["reference"] = self.references(job["reference"], solvers, bare + records)
        return result

    def _traced(self) -> Tuple[TimingIndex, Dict[str, object]]:
        """A timer and solvers whose index calls it times."""
        index = self.context.index
        if not self.workload.shards:
            timer = TimingIndex(index)
            return timer, self.solvers(self.context.with_index(timer))
        # ScatterGather needs a real ShardedIndex on its context, so the
        # traced solvers get a second facade over the same shards whose
        # per-query restricted views are what get timed.
        facade = ShardedIndex(index.shards, index.num_shards_requested)
        timer = TimingIndex(facade)
        restricted = facade.restricted
        facade.restricted = lambda shard_ids: timer.view(restricted(shard_ids))
        return timer, self.solvers(self.context.with_index(facade))


def _enough(elapsed_ns: int, passes: int, seconds: float, minimum: int) -> bool:
    """Whether to stop: ``minimum`` passes done, and stopping now lands
    nearer ``seconds`` than one more pass would."""
    if passes < minimum:
        return False
    return elapsed_ns + elapsed_ns / passes / 2 >= seconds * 1e9


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perf/worker.py")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)
    if args.prepare:
        workload = WORKLOADS[args.workload]
        pin = load_pins()["datasets"][workload.dataset]
        DatasetCache(CACHE_DIR).materialize(DatasetSpec(**pin["spec"]))
        return 0
    runner = Runner(args.workload)
    emit({"event": "ready", "load_s": runner.load_s, "index_build_s": runner.index_build_s})
    line = sys.stdin.readline()
    if not line:
        return 0
    emit(runner.run(json.loads(line)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
