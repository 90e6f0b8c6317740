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

import bisect
import math
from itertools import chain
from typing import Sequence

from .dc import Block, ReductionStats, _fold, _partition, _reduce
from .geometry import Instance, Layout


def _below_mean(values: list[float], stats: ReductionStats | None = None) -> tuple[int, float]:
    # values ascends, so the entries strictly below the mean are its first e.
    # The head is never below the exact mean, but the rounded mean of an
    # all-equal list can exceed it (three 0.2s average 0.20000000000000004),
    # so e = k counts as a missing minorant. math.fsum runs far faster on
    # long chains largest first, the order of the sorted input.
    k = len(values)
    e = bisect.bisect_left(values, math.fsum(reversed(values)) / k)
    if not 1 < e < k:
        e = k // 2 + 1
    total = math.fsum(values[e - 1 :: -1])
    if stats is not None:
        stats.iterations += 1
        stats.rewritten += bisect.bisect_left(values, total, e)
    return e, total


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
    k = len(sorted_areas)
    if k <= 2:
        raise ValueError("reduction step needs more than two entries")
    if len(blocks) != k:
        raise ValueError(f"{len(blocks)} blocks for {k} entries")
    values = list(sorted_areas)
    values.reverse()
    ids = list(range(k - 1, -1, -1))
    e, total = _below_mean(values)
    _fold(values, ids, e, total)
    values.reverse()
    ids.reverse()
    merged = tuple(sorted(chain.from_iterable(b.members for b in blocks[k - e :])))
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
