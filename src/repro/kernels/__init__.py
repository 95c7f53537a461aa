"""Flat-array distance kernels and per-owner distance memoization.

The single-query fast path of the reproduction (docs/PERFORMANCE.md):
:mod:`repro.kernels.flat` provides stdlib ``array('d')`` struct-of-arrays
kernels whose guarded squared-distance fast paths are bit-identical to
the scalar ``math.hypot`` loops they replace, and
:mod:`repro.kernels.oracle` memoizes the owner↔candidate and
candidate↔candidate distances the owner-driven exact search re-asks on
every bisection probe.

The whole layer sits below :mod:`repro.geometry` in the dependency
stack (it imports nothing from the rest of the package) and can be
switched off with ``REPRO_KERNELS=0`` or
:func:`~repro.kernels.flat.set_enabled` — the differential test suite
runs every solver both ways and requires identical answers.
"""

from repro.kernels.flat import (
    any_beyond,
    cap_bands,
    distances_from,
    farthest_pair,
    kernels_enabled,
    lens_lower_bound,
    lens_scan,
    max_distance_from,
    pack_objects,
    pack_points,
    pairwise_max,
    select_within,
    set_enabled,
)
from repro.kernels.oracle import DistanceOracle

__all__ = [
    "DistanceOracle",
    "any_beyond",
    "cap_bands",
    "distances_from",
    "farthest_pair",
    "kernels_enabled",
    "lens_lower_bound",
    "lens_scan",
    "max_distance_from",
    "pack_objects",
    "pack_points",
    "pairwise_max",
    "select_within",
    "set_enabled",
]
