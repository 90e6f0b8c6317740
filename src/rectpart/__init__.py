"""Partition a rectangle into panes of prescribed areas.

Two guillotine partitioners (a pairwise-merge divide and conquer scheme and a
faster threshold-bundling variant), quality reports against a valid naive
lower bound and a forced-aware value that is not a bound on every input
(ROADMAP item 12), an exhaustive optimum for small instances, seeded
instance generators, JSON and SVG output, and a CLI tying them together.
"""

from .bounds import PaneQuality, QualityReport, detect_forced, report
from .cli import cli_main
from .dc import (
    APPROX_FACTOR,
    APPROX_FACTOR_SQUARISH,
    Block,
    ReductionStats,
    bipartition_two_smallest,
    partition_dc,
    sort_descending,
)
from .fileio import (
    FileFormatError,
    parse_instance,
    parse_layout,
    report_to_json,
    serialize_instance,
    serialize_layout,
)
from .geometry import (
    Cut,
    Instance,
    Internal,
    Layout,
    LayoutDiagnostics,
    LayoutTree,
    Leaf,
    Rect,
    make_instance,
    split_rect,
    validate_layout,
)
from .instances import FAMILIES, GenSpec, generate
from .mdc import mdc_reduce_step, partition_mdc
from .oracle import OracleSizeError, optimal_guillotine
from .svg import render_svg

__all__ = [
    "APPROX_FACTOR",
    "APPROX_FACTOR_SQUARISH",
    "Block",
    "Cut",
    "FAMILIES",
    "FileFormatError",
    "GenSpec",
    "Instance",
    "Internal",
    "Layout",
    "LayoutDiagnostics",
    "LayoutTree",
    "Leaf",
    "OracleSizeError",
    "PaneQuality",
    "QualityReport",
    "Rect",
    "ReductionStats",
    "bipartition_two_smallest",
    "cli_main",
    "detect_forced",
    "generate",
    "make_instance",
    "mdc_reduce_step",
    "optimal_guillotine",
    "parse_instance",
    "parse_layout",
    "partition_dc",
    "partition_mdc",
    "render_svg",
    "report",
    "report_to_json",
    "serialize_instance",
    "serialize_layout",
    "sort_descending",
    "split_rect",
    "validate_layout",
]
