"""The four pinned workloads and the inputs the benchmark builds for them.

Everything the program is asked to do is generated here, by the
benchmark, from two pinned sources:

- **Datasets** come from the program's content-addressed
  ``DatasetSpec``/``DatasetCache`` (cached under ``perf/.cache/``).  The
  SHA-256 of every dataset file is pinned in ``perf/pins.json`` and
  checked before any timing, so a changed generator fails loudly instead
  of quietly measuring different data.
- **Query pools** are generated from the dataset rows with a fixed pool
  seed, and their SHA-256 is pinned too.  ``--seed`` never changes what
  is in a pool: it only shuffles the order each pass of a closed loop
  walks it and the order of each phase of the serving workload.  A run then
  covers the same multiset of queries whatever the seed, so the
  run-to-run spread measures the program, not the luck of the draw — a
  fresh random draw of the ``gn`` queries moves throughput by 30% on its
  own, because a handful of rare-keyword queries dominate the time.

The benchmark reads dataset files with its own parser (rows are
``x<TAB>y<TAB>word word ...``, oid = line number) and speaks to the
program in words, never in the program's keyword ids.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "CACHE_DIR",
    "OUT_DIR",
    "PERF_DIR",
    "ROOT",
    "SRC_DIR",
    "WORKLOADS",
    "Item",
    "Row",
    "Workload",
    "file_sha256",
    "load_pins",
    "make_pool",
    "pool_sha256",
    "read_rows",
]

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC_DIR = ROOT / "src"
CACHE_DIR = PERF_DIR / ".cache"
OUT_DIR = PERF_DIR / "out"
PINS_PATH = PERF_DIR / "pins.json"

#: Seed of every query pool.  Fixed: pools are pinned inputs like the
#: datasets; the run seed only orders and samples them.
POOL_SEED = 7


class Row(NamedTuple):
    """One dataset object as the benchmark sees it (oid = position)."""

    x: float
    y: float
    words: frozenset


class Item(NamedTuple):
    """One pool query: the solver to run (None for serving) and the query."""

    solver: Optional[str]
    x: float
    y: float
    words: Tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    """One pinned workload.

    ``sizes`` × ``per_size`` pool queries are drawn with ``|q.ψ|`` from
    ``sizes`` and keywords from the ``band`` most frequent share of the
    vocabulary (the paper draws from the top 40%).  ``solvers`` are
    assigned alternately within each size, so every solver sees every
    size equally.  ``reference`` names the out-of-loop answer check:

    - ``counterpart``: the exact counterpart of each appro solver on a
      pinned sample (cost ratio);
    - ``single-tree``: the same solver over one IR-tree (bit identity);
    - ``cao-exact``: the independent Cao et al. branch-and-bound.
    """

    name: str
    dataset: str
    loop: str  # "closed" (library calls) or "open" (HTTP daemon)
    sizes: Tuple[int, ...]
    per_size: int
    band: float
    solvers: Tuple[Optional[str], ...]
    shards: int = 0
    reference: Optional[str] = None
    reference_count: int = 0
    reference_max_size: int = 99


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="appro-gn100k",
            dataset="gn-100k",
            loop="closed",
            sizes=(3, 4, 5, 6),
            per_size=100,
            # The top 1%: drawn from the paper's top 40% of a 20k-word
            # vocabulary, single appro queries take up to ~28 s.
            band=0.01,
            solvers=("maxsum-appro", "dia-appro"),
            reference="counterpart",
            reference_count=48,
        ),
        Workload(
            name="sharded-gn100k",
            dataset="gn-100k",
            loop="closed",
            sizes=(3, 4, 5, 6),
            per_size=100,
            band=0.01,
            solvers=("maxsum-appro", "dia-appro"),
            shards=64,
            reference="single-tree",
            reference_count=120,
        ),
        Workload(
            name="exact-hotel20k",
            dataset="hotel-20k",
            loop="closed",
            sizes=(6, 8, 10, 12),
            per_size=50,
            band=0.4,
            solvers=("maxsum-exact", "dia-exact"),
            reference="cao-exact",
            reference_count=32,
            reference_max_size=6,
        ),
        Workload(
            name="serve-hotel20k",
            dataset="hotel-20k",
            loop="open",
            # Light queries: the serving layers, not the exact search
            # (``exact-hotel20k``), should set the time, and the daemon
            # should stay far from saturation at the nominal rate.
            sizes=(2, 3, 4, 5),
            per_size=1000,
            band=0.4,
            solvers=(None,),
        ),
    )
}


def load_pins() -> Dict[str, object]:
    """The pinned dataset specs and input hashes (``perf/pins.json``)."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_rows(path: Path) -> List[Row]:
    """Parse a dataset file; the oid of a row is its line number from 0."""
    rows: List[Row] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            x, y, words = line.rstrip("\n").split("\t")
            rows.append(Row(float(x), float(y), frozenset(words.split(" "))))
    return rows


def make_pool(rows: List[Row], workload: Workload) -> List[Item]:
    """The workload's pinned query pool, in canonical order.

    Locations are uniform over the rows' bounding box and keywords are
    distinct draws from the top ``band`` of the frequency ranking (ties
    broken by word).  The canonical order is a fixed shuffle, so any
    prefix — the reference samples, the Zipf ranks — mixes all sizes.
    """
    freq: Dict[str, int] = {}
    for row in rows:
        for word in row.words:
            freq[word] = freq.get(word, 0) + 1
    ranked = sorted(freq, key=lambda w: (-freq[w], w))
    band = ranked[: max(max(workload.sizes), int(workload.band * len(ranked)))]
    min_x = min(row.x for row in rows)
    max_x = max(row.x for row in rows)
    min_y = min(row.y for row in rows)
    max_y = max(row.y for row in rows)
    rng = random.Random(POOL_SEED)
    items: List[Item] = []
    for size in workload.sizes:
        for j in range(workload.per_size):
            x = rng.uniform(min_x, max_x)
            y = rng.uniform(min_y, max_y)
            words = tuple(sorted(rng.sample(band, size)))
            solver = workload.solvers[j % len(workload.solvers)]
            items.append(Item(solver, x, y, words))
    rng.shuffle(items)
    return items


def pool_sha256(pool: List[Item]) -> str:
    """SHA-256 of the pool's canonical JSON (exact float reprs)."""
    text = json.dumps([list(item) for item in pool], separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

