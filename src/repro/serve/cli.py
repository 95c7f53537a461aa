"""The ``coskq-serve`` command line: run the daemon over a dataset.

Usage::

    coskq-serve data.tsv --port 8787
    coskq-serve --demo --deadline-ms 100 --chain "maxsum-exact,nn-set"
    coskq-serve --demo --max-inflight 16 --cache full
    coskq-serve --demo --chaos-fail-rate 0.1 --chaos-seed 7   # chaos drill

Then from another terminal::

    python -m repro.serve.client http://127.0.0.1:8787 --requests 200 \
        --reconcile

See ``docs/SERVING.md`` for the endpoint reference, the degradation
semantics, and the failure-class → HTTP-status table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cost.functions import ALL_COSTS
from repro.errors import CoSKQError
from repro.model.dataset import Dataset
from repro.parallel.spec import CACHE_MODES, ChaosSpec
from repro.serve.config import (
    DEFAULT_CHAIN,
    DEFAULT_DEADLINE_MS,
    DEFAULT_MAX_INFLIGHT,
    ServerConfig,
)
from repro.serve.httpd import create_server

__all__ = ["main", "build_parser", "config_from_args"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coskq-serve",
        description="Serve collective spatial keyword queries over HTTP/JSON.",
    )
    parser.add_argument("dataset", nargs="?", help="dataset file (text format)")
    parser.add_argument(
        "--demo",
        action="store_true",
        help="serve a generated demo dataset instead of a file",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument(
        "--chain",
        default=DEFAULT_CHAIN,
        metavar="SPEC",
        help="fallback chain, strongest first (default: %(default)s)",
    )
    parser.add_argument(
        "--cost", default=None, choices=sorted(ALL_COSTS), help="cost override"
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=DEFAULT_DEADLINE_MS,
        metavar="MS",
        help="default per-request deadline (default: %(default)s)",
    )
    parser.add_argument(
        "--no-deadline",
        action="store_true",
        help="serve without a default deadline (clients may still set one)",
    )
    parser.add_argument("--work-budget", type=int, default=None, metavar="N")
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=DEFAULT_MAX_INFLIGHT,
        metavar="K",
        help="admission bound; 0 = drain mode (default: %(default)s)",
    )
    parser.add_argument(
        "--cache",
        default="none",
        choices=CACHE_MODES,
        help="'full' reuses whole answers across requests (default: %(default)s)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="serve a sharded index with N STR shards (0 = single index)",
    )
    parser.add_argument(
        "--chaos-fail-rate",
        type=float,
        default=None,
        metavar="P",
        help="inject faults into this fraction of index calls (chaos drill)",
    )
    parser.add_argument("--chaos-seed", type=int, default=0, metavar="S")
    parser.add_argument(
        "--chaos-latency-ms",
        type=float,
        default=None,
        metavar="MS",
        help="stall every 5th index call this long (chaos drill slowness)",
    )
    parser.add_argument("--verbose", action="store_true", help="log each request")
    return parser


def config_from_args(args: argparse.Namespace) -> ServerConfig:
    chaos = None
    if args.chaos_fail_rate is not None or args.chaos_latency_ms is not None:
        latency_s = (args.chaos_latency_ms or 0.0) / 1000.0
        chaos = ChaosSpec(
            seed=args.chaos_seed,
            fail_rate=args.chaos_fail_rate or 0.0,
            latency_s=latency_s,
            latency_every=5 if latency_s else 0,
        )
    return ServerConfig(
        host=args.host,
        port=args.port,
        chain=args.chain,
        cost=args.cost,
        deadline_ms=None if args.no_deadline else args.deadline_ms,
        work_budget=args.work_budget,
        max_inflight=args.max_inflight,
        cache_mode=args.cache,
        shards=args.shards,
        chaos=chaos,
        verbose=args.verbose,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.demo == (args.dataset is not None):
        print("provide a dataset file or --demo (not both)", file=sys.stderr)
        return 2
    try:
        config = config_from_args(args)
        if args.demo:
            from repro.data.generators import hotel_like

            dataset = hotel_like(scale=0.1, seed=0)
        else:
            dataset = Dataset.load(args.dataset)
        server = create_server(dataset, config)
    except (CoSKQError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(
        "serving %d objects on %s (chain: %s%s)"
        % (
            len(dataset),
            server.url,
            config.chain,
            ", shards: %d" % config.shards if config.shards else "",
        ),
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
