"""The experiment suite: one entry per paper table/figure (DESIGN.md §5).

Every experiment has two presets:

- ``quick`` — small datasets and few queries; this is what the
  pytest-benchmark files under ``benchmarks/`` exercise so the whole
  suite runs in minutes on a laptop;
- ``full``  — the paper-shaped sweep (all |q.ψ| settings, larger
  datasets, more queries) used by the ``coskq-bench`` CLI and recorded in
  EXPERIMENTS.md.

Each experiment returns a plain-text report containing the same rows or
series the paper's corresponding figure plots.
"""

from __future__ import annotations

import functools
import math
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.algorithms.base import CoSKQAlgorithm, SearchContext
from repro.algorithms.cao_appro import CaoAppro1, CaoAppro2
from repro.algorithms.cao_exact import CaoExact
from repro.algorithms.owner_appro import OwnerRingApproximation
from repro.algorithms.owner_exact import OwnerDrivenExact
from repro.algorithms.unified_appro import UnifiedAppro
from repro.algorithms.unified_exact import UnifiedExact
from repro.bench.report import SeriesTable, format_kv_table
from repro.bench.runner import ratio_study, time_algorithm
from repro.cost.functions import cost_by_name
from repro.cost.unified import INTERESTING_SETTINGS, UnifiedCost
from repro.data.augment import densify_keywords, scale_dataset
from repro.data.generators import gn_like, hotel_like, web_like
from repro.data.queries import generate_queries
from repro.index.neighbors import LinearScanIndex
from repro.model.dataset import Dataset

__all__ = ["EXPERIMENTS", "run_experiment", "Scale", "QUICK", "FULL"]


@dataclass(frozen=True)
class Scale:
    """Sizing knobs shared by all experiments."""

    hotel_scale: float
    gn_scale: float
    web_scale: float
    queries: int
    keyword_sweep: Tuple[int, ...]
    scalability_sizes: Tuple[int, ...]
    okeyword_sweep: Tuple[float, ...]
    seed: int = 7


QUICK = Scale(
    hotel_scale=0.12,
    gn_scale=0.004,
    web_scale=0.006,
    queries=6,
    keyword_sweep=(3, 6, 9),
    scalability_sizes=(4_000, 8_000, 12_000),
    okeyword_sweep=(4.0, 8.0, 16.0),
)

FULL = Scale(
    hotel_scale=1.0,
    gn_scale=0.04,
    web_scale=0.05,
    queries=25,
    keyword_sweep=(3, 6, 9, 12, 15),
    scalability_sizes=(20_000, 40_000, 60_000, 80_000, 100_000),
    okeyword_sweep=(4.0, 8.0, 16.0, 24.0, 32.0),
)

#: When set (the CLI's --svg flag), experiments additionally render
#: their series as SVG line/bar charts into this directory.
FIGURE_DIR: pathlib.Path | None = None


def _emit_tables(slug: str, tables) -> str:
    """Render tables as text; mirror them as SVG figures when enabled."""
    if FIGURE_DIR is not None:
        from repro.bench.svg import render_line_chart

        FIGURE_DIR.mkdir(parents=True, exist_ok=True)
        for index, table in enumerate(tables):
            log_y = "running time" in table.title
            path = FIGURE_DIR / ("%s_%d.svg" % (slug, index))
            path.write_text(render_line_chart(table, log_y=log_y))
    return "\n\n".join(table.render() for table in tables)


#: Expansion cap for the branch-and-bound baseline inside sweeps: past
#: this it registers as DNF (NaN in the tables) rather than stalling a
#: sweep — the paper reports the same situations as ">10 hours".
BASELINE_EXPANSION_CAP = 200_000


@functools.lru_cache(maxsize=16)
def _dataset(kind: str, scale: float, seed: int) -> Dataset:
    if kind == "hotel":
        return hotel_like(scale=scale, seed=seed)
    if kind == "gn":
        return gn_like(scale=scale, seed=seed)
    if kind == "web":
        return web_like(scale=scale, seed=seed)
    raise ValueError("unknown dataset kind %r" % (kind,))


def _scale_of(kind: str, scale: Scale) -> float:
    return {"hotel": scale.hotel_scale, "gn": scale.gn_scale, "web": scale.web_scale}[
        kind
    ]


def _safe_mean_time(algorithm: CoSKQAlgorithm, queries) -> float:
    """Mean per-query time; NaN when the algorithm blows its budget.

    Infeasible queries (possible when a sweep reuses one query set over
    truncated datasets) also land as NaN rather than aborting the sweep.
    """
    from repro.errors import InfeasibleQueryError, SearchAbortedError

    try:
        return time_algorithm(algorithm, queries, keep_results=False).mean_time
    except (RuntimeError, SearchAbortedError, InfeasibleQueryError):
        return math.nan


# -- Table 1 --------------------------------------------------------------------


def experiment_table1(scale: Scale) -> str:
    rows = []
    for kind in ("hotel", "gn", "web"):
        dataset = _dataset(kind, _scale_of(kind, scale), scale.seed)
        row = {"dataset": dataset.name}
        row.update(dataset.statistics().as_row())
        rows.append(row)
    report = format_kv_table(
        "Table 1: dataset statistics (synthetic stand-ins, see DESIGN.md §4)",
        rows,
        key="dataset",
    )
    return report


# -- per-cost, per-dataset |q.psi| sweeps (the paper's main figures) ---------------


def _sweep_cost_dataset(kind: str, cost_name: str, scale: Scale) -> str:
    """Running time (exact + appro) and ratios vs |q.ψ| for one dataset."""
    dataset = _dataset(kind, _scale_of(kind, scale), scale.seed)
    context = SearchContext(dataset)
    cost = cost_by_name(cost_name)

    exact_time = SeriesTable(
        title="%s on %s: exact running time" % (cost_name, dataset.name),
        x_label="|q.psi|",
        unit="s/query",
    )
    appro_time = SeriesTable(
        title="%s on %s: approximate running time" % (cost_name, dataset.name),
        x_label="|q.psi|",
        unit="s/query",
    )
    ratio_avg = SeriesTable(
        title="%s on %s: approximation ratio (average)" % (cost_name, dataset.name),
        x_label="|q.psi|",
    )
    ratio_max = SeriesTable(
        title="%s on %s: approximation ratio (maximum)" % (cost_name, dataset.name),
        x_label="|q.psi|",
    )

    for k in scale.keyword_sweep:
        queries = generate_queries(dataset, k, scale.queries, seed=scale.seed)
        exact_time.x_values.append(k)
        appro_time.x_values.append(k)
        ratio_avg.x_values.append(k)
        ratio_max.x_values.append(k)

        owner_exact = OwnerDrivenExact(context, cost)
        timing = time_algorithm(owner_exact, queries)
        exact_time.add("%s-exact" % cost_name, timing.mean_time)
        exact_time.add(
            "cao-exact", _safe_mean_time(
                CaoExact(
                    context,
                    cost_by_name(cost_name),
                    max_expansions=BASELINE_EXPANSION_CAP,
                ),
                queries,
            )
        )

        approximations = [
            OwnerRingApproximation(context, cost_by_name(cost_name)),
            CaoAppro1(context, cost_by_name(cost_name)),
            CaoAppro2(context, cost_by_name(cost_name)),
        ]
        approximations[0].name = "%s-appro" % cost_name
        for algo in approximations:
            appro_time.add(algo.name, _safe_mean_time(algo, queries))
        ratios = ratio_study(
            owner_exact, approximations, queries, optima=list(timing.results)
        )
        for algo in approximations:
            ratio_avg.add(algo.name, ratios[algo.name].ratios.mean)
            ratio_max.add(algo.name, ratios[algo.name].ratios.maximum)

    return _emit_tables(
        "%s_%s" % (cost_name, kind), (exact_time, appro_time, ratio_avg, ratio_max)
    )


# -- ratio bar chart ----------------------------------------------------------------


def experiment_ratio_bars(scale: Scale) -> str:
    """Avg/min/max ratio bars at the middle |q.ψ| setting (hotel)."""
    dataset = _dataset("hotel", scale.hotel_scale, scale.seed)
    context = SearchContext(dataset)
    k = scale.keyword_sweep[len(scale.keyword_sweep) // 2]
    queries = generate_queries(dataset, k, scale.queries, seed=scale.seed)
    sections: List[str] = []
    for cost_name in ("maxsum", "dia"):
        cost = cost_by_name(cost_name)
        exact = OwnerDrivenExact(context, cost)
        approximations = [
            OwnerRingApproximation(context, cost_by_name(cost_name)),
            CaoAppro1(context, cost_by_name(cost_name)),
            CaoAppro2(context, cost_by_name(cost_name)),
        ]
        approximations[0].name = "%s-appro" % cost_name
        ratios = ratio_study(exact, approximations, queries)
        rows = []
        for algo in approximations:
            row = {"algorithm": algo.name}
            row.update(ratios[algo.name].ratios.as_row())
            row["optimal_fraction"] = round(ratios[algo.name].optimal_fraction, 3)
            rows.append(row)
        title = "ratio bars: %s on %s, |q.psi|=%d" % (cost_name, dataset.name, k)
        sections.append(format_kv_table(title, rows, key="algorithm"))
        if FIGURE_DIR is not None:
            from repro.bench.svg import render_bar_chart

            FIGURE_DIR.mkdir(parents=True, exist_ok=True)
            bars = {
                algo.name: (
                    ratios[algo.name].ratios.mean,
                    ratios[algo.name].ratios.minimum,
                    ratios[algo.name].ratios.maximum,
                )
                for algo in approximations
            }
            (FIGURE_DIR / ("ratio_bars_%s.svg" % cost_name)).write_text(
                render_bar_chart(title, bars)
            )
    return "\n\n".join(sections)


# -- scalability -----------------------------------------------------------------------


def experiment_scalability(scale: Scale) -> str:
    base = _dataset("gn", scale.gn_scale, scale.seed)
    k = scale.keyword_sweep[min(1, len(scale.keyword_sweep) - 1)]
    table = SeriesTable(
        title="scalability: running time vs |O| (gn-like, |q.psi|=%d)" % k,
        x_label="|O|",
        unit="s/query",
    )
    # One query set for the whole size sweep, so the series varies only
    # in |O| and not in per-size query difficulty.  Queries come from the
    # *smallest* dataset of the sweep: every larger one is a superset
    # (prefix-truncations of the base plus augmented growths), so the
    # same queries stay feasible everywhere.
    def sized(size: int) -> Dataset:
        if size > len(base):
            return scale_dataset(base, size, seed=scale.seed)
        return Dataset(
            map(base.__getitem__, range(size)),
            base.vocabulary,
            name="%s-%d" % (base.name, size),
        )

    smallest = sized(min(scale.scalability_sizes))
    queries = generate_queries(smallest, k, scale.queries, seed=scale.seed)
    for size in scale.scalability_sizes:
        dataset = sized(size)
        context = SearchContext(dataset)
        table.x_values.append(size)
        table.add(
            "maxsum-exact",
            _safe_mean_time(OwnerDrivenExact(context, cost_by_name("maxsum")), queries),
        )
        appro = OwnerRingApproximation(context, cost_by_name("maxsum"))
        appro.name = "maxsum-appro"
        table.add("maxsum-appro", _safe_mean_time(appro, queries))
        table.add(
            "cao-appro1", _safe_mean_time(CaoAppro1(context, cost_by_name("maxsum")), queries)
        )
        table.add(
            "dia-exact",
            _safe_mean_time(OwnerDrivenExact(context, cost_by_name("dia")), queries),
        )
        dia_appro = OwnerRingApproximation(context, cost_by_name("dia"))
        dia_appro.name = "dia-appro"
        table.add("dia-appro", _safe_mean_time(dia_appro, queries))
    return _emit_tables("scalability", (table,))


# -- effect of average |o.psi| -------------------------------------------------------------


def experiment_okeywords(scale: Scale) -> str:
    base = _dataset("hotel", scale.hotel_scale, scale.seed)
    k = scale.keyword_sweep[min(1, len(scale.keyword_sweep) - 1)]
    table = SeriesTable(
        title="effect of average |o.psi| (hotel-like, |q.psi|=%d)" % k,
        x_label="avg|o.psi|",
        unit="s/query",
    )
    # Fixed query set across the densification sweep: locations and
    # keyword ids stay meaningful because densification only *adds*
    # keywords at unchanged locations.
    queries = generate_queries(base, k, scale.queries, seed=scale.seed)
    for mean_keywords in scale.okeyword_sweep:
        dataset = densify_keywords(base, mean_keywords, seed=scale.seed)
        context = SearchContext(dataset)
        table.x_values.append(mean_keywords)
        table.add(
            "maxsum-exact",
            _safe_mean_time(OwnerDrivenExact(context, cost_by_name("maxsum")), queries),
        )
        appro = OwnerRingApproximation(context, cost_by_name("maxsum"))
        appro.name = "maxsum-appro"
        table.add("maxsum-appro", _safe_mean_time(appro, queries))
        table.add(
            "cao-exact", _safe_mean_time(
                CaoExact(
                    context,
                    cost_by_name("maxsum"),
                    max_expansions=BASELINE_EXPANSION_CAP,
                ),
                queries,
            )
        )
    return _emit_tables("okeywords", (table,))


# -- ablations -----------------------------------------------------------------------


def experiment_ablation_pruning(scale: Scale) -> str:
    dataset = _dataset("hotel", scale.hotel_scale, scale.seed)
    context = SearchContext(dataset)
    k = scale.keyword_sweep[min(1, len(scale.keyword_sweep) - 1)]
    queries = generate_queries(dataset, k, scale.queries, seed=scale.seed)
    variants = {
        "full-pruning": {},
        "appro-seeded": {"seed_with_appro": True},
        "no-candidate-filter": {"filter_candidates": False},
        "no-ring-pruning": {"ring_pruning": False},
        "no-pruning-at-all": {
            "filter_candidates": False,
            "ring_pruning": False,
        },
    }
    rows = []
    for label, kwargs in variants.items():
        algo = OwnerDrivenExact(context, cost_by_name("maxsum"), **kwargs)
        timing = time_algorithm(algo, queries, keep_results=False)
        owners = sum(
            algo.counters.get(c, 0) for c in ("owners_tried",)
        )
        rows.append(
            {
                "variant": label,
                "mean_time_s": round(timing.mean_time, 6),
                "last_query_owners": owners,
            }
        )
    return format_kv_table(
        "ablation: owner-driven pruning components (maxsum-exact, |q.psi|=%d)" % k,
        rows,
        key="variant",
    )


def experiment_ablation_index(scale: Scale) -> str:
    dataset = _dataset("hotel", scale.hotel_scale, scale.seed)
    k = scale.keyword_sweep[min(1, len(scale.keyword_sweep) - 1)]
    queries = generate_queries(dataset, k, scale.queries, seed=scale.seed)
    rows = []
    for label, index_cls in (("keyword-trees", None), ("linear-scan", LinearScanIndex)):
        context = (
            SearchContext(dataset)
            if index_cls is None
            else SearchContext(dataset, index_cls=index_cls)
        )
        appro = OwnerRingApproximation(context, cost_by_name("maxsum"))
        timing = time_algorithm(appro, queries, keep_results=False)
        rows.append({"index": label, "appro_mean_time_s": round(timing.mean_time, 6)})
    return format_kv_table(
        "ablation: keyword trees vs linear scan (maxsum-appro, |q.psi|=%d)" % k,
        rows,
        key="index",
    )


# -- unified extension ------------------------------------------------------------------


def experiment_unified(scale: Scale) -> str:
    dataset = _dataset("hotel", min(scale.hotel_scale, 0.25), scale.seed)
    context = SearchContext(dataset)
    k = min(scale.keyword_sweep)
    queries = generate_queries(dataset, k, scale.queries, seed=scale.seed)
    rows = []
    for alpha, phi1, phi2 in INTERESTING_SETTINGS:
        cost = UnifiedCost(alpha, phi1, phi2)
        exact = UnifiedExact(context, cost)
        appro = UnifiedAppro(context, UnifiedCost(alpha, phi1, phi2))
        exact_timing = time_algorithm(exact, queries)
        ratios = ratio_study(exact, [appro], queries, optima=list(exact_timing.results))
        named = cost.named_equivalent() or cost.name
        rows.append(
            {
                "cost": named,
                "exact_time_s": round(exact_timing.mean_time, 6),
                "appro_ratio_avg": round(ratios[appro.name].ratios.mean, 4),
                "appro_ratio_max": round(ratios[appro.name].ratios.maximum, 4),
            }
        )
    return format_kv_table(
        "unified cost extension: Unified-E/Unified-A across settings (|q.psi|=%d)" % k,
        rows,
        key="cost",
    )


# -- registry -------------------------------------------------------------------------


EXPERIMENTS: Dict[str, Callable[[Scale], str]] = {
    "table1": experiment_table1,
    "maxsum_hotel": lambda s: _sweep_cost_dataset("hotel", "maxsum", s),
    "maxsum_gn": lambda s: _sweep_cost_dataset("gn", "maxsum", s),
    "maxsum_web": lambda s: _sweep_cost_dataset("web", "maxsum", s),
    "dia_hotel": lambda s: _sweep_cost_dataset("hotel", "dia", s),
    "dia_gn": lambda s: _sweep_cost_dataset("gn", "dia", s),
    "dia_web": lambda s: _sweep_cost_dataset("web", "dia", s),
    "ratio_bars": experiment_ratio_bars,
    "scalability": experiment_scalability,
    "okeywords": experiment_okeywords,
    "ablation_pruning": experiment_ablation_pruning,
    "ablation_index": experiment_ablation_index,
    "unified": experiment_unified,
}


def run_experiment(experiment_id: str, quick: bool = False, scale: Scale | None = None) -> str:
    """Run one experiment and return its text report."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            "unknown experiment %r; known: %s" % (experiment_id, sorted(EXPERIMENTS))
        )
    if scale is None:
        scale = QUICK if quick else FULL
    return EXPERIMENTS[experiment_id](scale)
