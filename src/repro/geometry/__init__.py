"""Planar geometry substrate: points, rectangles and disks."""

from repro.geometry.circle import Circle
from repro.geometry.mbr import MBR
from repro.geometry.point import Point

__all__ = [
    "Point",
    "MBR",
    "Circle",
]
