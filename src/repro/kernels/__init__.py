"""Flat-array distance kernels.

The single-query fast path of the reproduction (docs/PERFORMANCE.md):
:mod:`repro.kernels.flat` provides stdlib ``array('d')`` struct-of-arrays
kernels whose guarded squared-distance fast paths are bit-identical to
the scalar ``math.hypot`` loops they replace.  Among them are the lens
selection of the owner-driven solvers (:func:`lens_scan`) and the pair
check and realized diameter of the exact search's cover search
(:func:`first_beyond`, :func:`pairwise_max_at`), which read the query's
owner stream arrays by stream index.

The whole layer sits below :mod:`repro.geometry` in the dependency
stack (it imports nothing from the rest of the package).
"""

from repro.kernels.flat import (
    cap_bands,
    first_beyond,
    lens_lower_bound,
    lens_scan,
    max_distance_from,
    pack_objects,
    pairwise_max,
    pairwise_max_at,
)

__all__ = [
    "cap_bands",
    "first_beyond",
    "lens_lower_bound",
    "lens_scan",
    "max_distance_from",
    "pack_objects",
    "pairwise_max",
    "pairwise_max_at",
]
