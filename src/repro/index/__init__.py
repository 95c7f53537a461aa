"""Spatial-textual indexing: inverted index, R-tree, IR-tree, signatures."""

from repro.index.inverted import InvertedIndex
from repro.index.irtree import IRTree, IRTreeNode
from repro.index.neighbors import LinearScanIndex
from repro.index.protocol import SpatialTextIndex
from repro.index.rtree import DEFAULT_MAX_ENTRIES, RTree, RTreeNode
from repro.index.signatures import mask_of, pack_masks

__all__ = [
    "SpatialTextIndex",
    "InvertedIndex",
    "RTree",
    "RTreeNode",
    "IRTree",
    "IRTreeNode",
    "LinearScanIndex",
    "DEFAULT_MAX_ENTRIES",
    "mask_of",
    "pack_masks",
]
