"""Threshold-bundling variant of the divide-and-conquer partitioner.

It differs from dc only in where a reduction step's tail starts: at the first
entry strictly below the mean of the working list, not at the last two. When
nothing qualifies (no entry lies strictly below the mean, as in an all-equal
list, whose rounded mean may even exceed every entry; or only the last entry
does) the tail is the lower half of the list. dc's fold does the rest: the
folded entry's id is the list of the tail's ids, so the ids nest into the
merge forest both rules share. Each step removes at least one entry and
usually many, so the reduction takes far fewer iterations than the pairwise
rule; the resulting layouts carry no quality guarantee.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

from .dc import Block, ReductionStats, _fold, _insertion_point, _partition, _reduce
from .geometry import Instance, Layout


def _below_mean(values: list[float]) -> int:
    k = len(values)
    # The head is never below the exact mean, but the rounded mean of an
    # all-equal list can exceed it (three 0.2s average 0.20000000000000004),
    # so p = 0 counts as a missing minorant.
    p = _insertion_point(values, math.fsum(values) / k)
    return p if 0 < p < k - 1 else (k - 1) // 2


def mdc_reduce_step(
    sorted_areas: Sequence[float], blocks: Sequence[Block]
) -> tuple[list[float], list[Block]]:
    """One bundling step on a non-increasing working list of length > 2.

    Let tau be the mean of the current entries and i the first 1-based
    position strictly below tau. The tail from m = i is folded into a single
    entry, except when i does not exist (all entries equal), is the first
    position or is the last, in which case m = ceil(length / 2). The folded
    entry is reinserted where it keeps the list sorted, ties after equal
    entries. Returns the shortened list and the matching block list, whose
    totals are the entries of the shortened list. Raises ValueError unless
    ``blocks`` has one block per entry.
    """
    if len(sorted_areas) <= 2:
        raise ValueError("reduction step needs more than two entries")
    if len(blocks) != len(sorted_areas):
        raise ValueError(f"{len(blocks)} blocks for {len(sorted_areas)} entries")
    values = list(sorted_areas)
    s = _below_mean(values)
    values, ids = _fold(values, list(range(len(values))), s)
    merged = tuple(sorted(chain.from_iterable(b.members for b in blocks[s:])))
    members = [merged if isinstance(i, list) else blocks[i].members for i in ids]
    return values, [Block(m, v) for m, v in zip(members, values)]


def _reduce_below_mean(sorted_areas: Sequence[float], stats: ReductionStats | None = None):
    return _reduce(_below_mean, sorted_areas, stats)


def partition_mdc(inst: Instance, stats: ReductionStats | None = None) -> Layout:
    """Lay out ``inst`` with the threshold-bundling rule.

    Same placer and cut conventions as :func:`rectpart.dc.partition_dc`;
    only the reduction rule differs.
    """
    return Layout.of_columns(inst.n, _partition(inst, _reduce_below_mean, stats))
