"""Workload substrate: generators, query workloads and augmentation."""

from repro.data.augment import densify_keywords, scale_dataset
from repro.data.generators import (
    GeneratorProfile,
    clustered_dataset,
    generate_profile,
    gn_like,
    hotel_like,
    uniform_dataset,
    web_like,
)
from repro.data.queries import QueryWorkload, generate_queries
from repro.data.zipf import ZipfSampler

__all__ = [
    "ZipfSampler",
    "GeneratorProfile",
    "generate_profile",
    "uniform_dataset",
    "clustered_dataset",
    "hotel_like",
    "gn_like",
    "web_like",
    "QueryWorkload",
    "generate_queries",
    "scale_dataset",
    "densify_keywords",
]
