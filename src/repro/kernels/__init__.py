"""Flat-array distance kernels and per-owner distance memoization.

The single-query fast path of the reproduction (docs/PERFORMANCE.md):
:mod:`repro.kernels.flat` provides stdlib ``array('d')`` struct-of-arrays
kernels whose guarded squared-distance fast paths are bit-identical to
the scalar ``math.hypot`` loops they replace, and
:mod:`repro.kernels.oracle` memoizes the owner↔candidate and
candidate↔candidate distances the owner-driven exact search re-asks on
every bisection probe.

The whole layer sits below :mod:`repro.geometry` in the dependency
stack (it imports nothing from the rest of the package).
"""

from repro.kernels.flat import (
    cap_bands,
    distances_from,
    farthest_pair,
    lens_lower_bound,
    lens_scan,
    max_distance_from,
    pack_objects,
    pack_points,
    pairwise_max,
)
from repro.kernels.oracle import DistanceOracle

__all__ = [
    "DistanceOracle",
    "cap_bands",
    "distances_from",
    "farthest_pair",
    "lens_lower_bound",
    "lens_scan",
    "max_distance_from",
    "pack_objects",
    "pack_points",
    "pairwise_max",
]
