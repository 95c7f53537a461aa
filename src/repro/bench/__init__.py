"""Benchmark harness: runners, reports and the experiment suite.

The names below resolve on first use (:mod:`repro.utils.lazy`), so
importing one submodule, such as :mod:`repro.bench.macro.datasets`,
imports no other.
"""

from repro.utils.lazy import lazy_exports

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "Scale",
    "QUICK",
    "FULL",
    "SeriesTable",
    "format_kv_table",
    "TimingResult",
    "RatioResult",
    "time_algorithm",
    "ratio_study",
    "solve_all",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "experiments": ("EXPERIMENTS", "FULL", "QUICK", "Scale", "run_experiment"),
        "report": ("SeriesTable", "format_kv_table"),
        "runner": (
            "RatioResult",
            "TimingResult",
            "ratio_study",
            "solve_all",
            "time_algorithm",
        ),
    },
)
