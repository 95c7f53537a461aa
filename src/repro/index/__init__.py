"""Spatial-textual indexing: keyword trees, the linear-scan oracle, signatures."""

from repro.index.keyword_trees import DEFAULT_MAX_ENTRIES, KeywordTreeIndex
from repro.index.neighbors import LinearScanIndex
from repro.index.protocol import SpatialTextIndex
from repro.index.signatures import mask_of

__all__ = [
    "SpatialTextIndex",
    "KeywordTreeIndex",
    "LinearScanIndex",
    "DEFAULT_MAX_ENTRIES",
    "mask_of",
]
