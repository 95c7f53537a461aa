"""Deterministic random-number plumbing.

All generators and workloads take explicit seeds so every experiment is
reproducible; this module centralizes how seeds become `random.Random`
streams and how independent substreams are derived.
"""

from __future__ import annotations

import random

__all__ = ["substream"]


def substream(seed: int, label: str) -> random.Random:
    """An independent stream derived from ``(seed, label)``.

    Deriving named substreams (rather than sharing one stream) keeps a
    generator's spatial draw stable when only its textual draw changes,
    which makes A/B comparisons between dataset variants meaningful.
    """
    derived = random.Random()
    derived.seed("%d/%s" % (seed, label))
    return derived
