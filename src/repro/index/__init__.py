"""Spatial-textual indexing: inverted index, keyword trees, signatures."""

from repro.index.inverted import InvertedIndex
from repro.index.keyword_trees import DEFAULT_MAX_ENTRIES, KeywordTreeIndex
from repro.index.neighbors import LinearScanIndex
from repro.index.protocol import SpatialTextIndex
from repro.index.signatures import mask_of

__all__ = [
    "SpatialTextIndex",
    "InvertedIndex",
    "KeywordTreeIndex",
    "LinearScanIndex",
    "DEFAULT_MAX_ENTRIES",
    "mask_of",
]
