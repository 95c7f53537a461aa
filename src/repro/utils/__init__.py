"""Shared numeric and randomness helpers."""

from repro.utils.floatcmp import (
    EPSILON,
    float_eq,
    float_geq,
    float_leq,
    is_zero,
)
from repro.utils.rng import substream
from repro.utils.stats import Summary, harmonic_number, percentile, summarize

__all__ = [
    "EPSILON",
    "float_eq",
    "float_leq",
    "float_geq",
    "is_zero",
    "substream",
    "harmonic_number",
    "percentile",
    "Summary",
    "summarize",
]
