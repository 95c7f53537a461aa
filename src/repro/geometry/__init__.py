"""Planar geometry substrate: points, rectangles and disks."""

from repro.geometry.circle import Circle
from repro.geometry.mbr import MBR
from repro.geometry.point import (
    Point,
    centroid,
    diameter,
    distance,
    distance_xy,
    farthest_pair,
    midpoint,
    squared_distance,
)

__all__ = [
    "Point",
    "MBR",
    "Circle",
    "distance",
    "distance_xy",
    "squared_distance",
    "midpoint",
    "centroid",
    "diameter",
    "farthest_pair",
]
