"""Divide-and-conquer partitioner that repeatedly merges the two smallest areas.

The driver sorts the target areas once (non-increasing), reduces the working
list to two compound blocks, cuts the rectangle in proportion to the two block
totals, and treats both pieces the same way; an explicit stack replaces the
paper's recursion, so chains of any depth lay out. A reduction rule only says
where the working list's tail starts (here: at the last two entries). One fold,
shared by both rules, replaces the tail with one entry, its sum, reinserted
where the list stays sorted, and rewrites the list only from that point on;
the entry's id lists the tail's ids, so ids nest into one merge forest. Once
two entries remain, each is expanded once into its ascending member positions.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .geometry import Cut, Instance, Layout, NodeColumns, cut_across, cut_pane
from .geometry import split_rect  # noqa: F401  (perfbench's tracer wraps dc.split_rect)

#: Worst-case ratio between the produced total half-perimeter and the best
#: possible one, over all instances.
APPROX_FACTOR = 1.203

#: Tighter guarantee for runs in which every pane either has aspect ratio at
#: most 3 or has its dimensions pinned by the tiling.
APPROX_FACTOR_SQUARISH = 2.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class Block:
    """A group of positions in the sorted working list, merged during reduction.

    During a reduction each entry is only an id in the merge forest: an input
    position (an int), or a fold of the tail its rule picked (the list of the
    tail's ids, so ids nest). ``members`` is read off the forest once per
    node, when two entries remain, and lists the positions in ascending
    order. ``total`` always equals the block's entry in the working list,
    which is the sum of its member areas up to float rounding.
    """

    members: tuple[int, ...]
    total: float


@dataclass
class ReductionStats:
    """Mutable counters for comparing the two reduction rules.

    ``iterations`` counts loop passes actually spent. ``pairwise_equivalent``
    accumulates length - 2 per bipartition, which is what the pairwise rule
    spends on a list of that length no matter its content; for the pairwise
    rule itself the two counters always agree. ``rewritten`` sums, over the
    folds, the entries from the sum's insertion point to the end of the list
    the fold is handed: the reduction's list work, counted exactly.
    """

    iterations: int = 0
    pairwise_equivalent: int = 0
    rewritten: int = 0


def sort_descending(areas: Sequence[float]) -> tuple[list[float], list[int]]:
    """Non-increasing copy of ``areas`` plus the permutation mapping sorted
    position to original index. Stable: equal areas keep their input order."""
    perm = sorted(range(len(areas)), key=lambda i: -areas[i])
    return [areas[i] for i in perm], perm


def _insertion_point(values: list[float], value: float, hi: int | None = None) -> int:
    # Position in the non-increasing values[:hi]; ties land after the existing
    # equal entries, so older blocks stay first. The negated entries ascend,
    # so the search runs in C on the list itself, with no copy.
    return bisect.bisect_right(values, -value, 0, hi, key=operator.neg)


def _two_smallest(values: list[float]) -> int:
    # The pairwise rule: the tail is the last two entries.
    return len(values) - 2


def _fold(values: list[float], ids: list, s: int) -> int:
    # The one fold of both rules, in place on lists the caller owns: the tail
    # from s becomes one entry, its sum, whose id is the list of the tail's
    # ids, reinserted where the list stays sorted. Only the suffix from that
    # point is rewritten; returns how many entries it held. fsum of two floats
    # is their rounded + but raises on overflow, before either list changes.
    value = math.fsum(values[s:])
    pos = _insertion_point(values, value, s)
    rewritten = len(values) - pos
    values[pos:] = [value, *values[pos:s]]
    ids[pos:] = [ids[s:], *ids[pos:s]]
    return rewritten


def _reduce(
    rule: Callable[[list[float]], int], sorted_areas: Sequence[float], stats: ReductionStats | None
) -> tuple[Block, Block]:
    # Both rules reduce here; a rule's tail must hold at least two entries.
    # An int id is a position of the sorted input, and a list id is a fold,
    # holding its tail's ids: the ids nest into the merge forest.
    if len(sorted_areas) < 2:
        raise ValueError("need at least two areas to bipartition")
    if stats is not None:
        stats.pairwise_equivalent += len(sorted_areas) - 2
    values = list(sorted_areas)
    ids: list = list(range(len(values)))
    while len(values) > 2:
        rewritten = _fold(values, ids, rule(values))
        if stats is not None:
            stats.iterations += 1
            stats.rewritten += rewritten
    return Block(_members(ids[0]), values[0]), Block(_members(ids[1]), values[1])


def _members(node: int | list) -> tuple[int, ...]:
    # The ascending input positions under one id, gathered with a stack:
    # ids nest as deep as the list is long.
    if isinstance(node, int):
        return (node,)
    leaves: list[int] = []
    stack = [node]
    while stack:
        for i in stack.pop():
            if isinstance(i, int):
                leaves.append(i)
            else:
                stack.append(i)
    leaves.sort()
    return tuple(leaves)


def bipartition_two_smallest(
    sorted_areas: Sequence[float], stats: ReductionStats | None = None
) -> tuple[Block, Block]:
    """Reduce a non-increasing area list to two blocks, merging the two
    smallest entries at every step and reinserting the sum where it keeps the
    list sorted.

    Returns the blocks in working-list order, so the first total is >= the
    second. Raises ValueError for lists shorter than two.
    """
    return _reduce(_two_smallest, sorted_areas, stats)


Reducer = Callable[[Sequence[float], "ReductionStats | None"], tuple[Block, Block]]

#: A node's choice: the cut, the first piece's area and the ascending
#: positions of the values that go to each piece.
Choice = tuple[Cut, float, Sequence[int], Sequence[int]]


def _place(inst: Instance, choose: Callable[[float, float, list[float]], Choice]) -> NodeColumns:
    # The one tree builder. Each job is a pane (x, y, w, h) with its block's
    # area indices, largest area first; choose(w, h, values) picks the cut from
    # their areas and cut_pane makes the pieces. The second piece is pushed
    # first, so the nodes come out in preorder as rows (kind, x, y, w, h); it
    # returns their columns, from which each caller builds its Layout.
    areas = inst.areas
    c = inst.container
    rows: list[tuple] = []
    stack = [((c.x, c.y, c.w, c.h), sort_descending(areas)[1])]
    while stack:
        pane, indices = stack.pop()
        if len(indices) == 1:
            rows.append((indices[0], *pane))
            continue
        cut, a1, m1, m2 = choose(pane[2], pane[3], [areas[i] for i in indices])
        rows.append((cut, *pane))
        first, second = cut_pane(*pane, cut, a1)
        stack.append((second, [indices[i] for i in m2]))
        stack.append((first, [indices[i] for i in m1]))
    return tuple(zip(*rows))  # type: ignore[return-value]


def _partition(inst: Instance, reduce_to_two: Reducer, stats: ReductionStats | None) -> NodeColumns:
    def choose(w: float, h: float, values: list[float]) -> Choice:
        b1, b2 = reduce_to_two(values, stats)
        return cut_across(w, h), b1.total, b1.members, b2.members

    return _place(inst, choose)


def partition_dc(inst: Instance, stats: ReductionStats | None = None) -> Layout:
    """Lay out ``inst`` with the pairwise smallest-merge rule.

    Deterministic: the same instance always yields the same layout. The first
    block of every bipartition (the one with the larger total) takes the
    left piece of a vertical cut or the top piece of a horizontal one.
    """
    return Layout.of_columns(inst.n, _partition(inst, bipartition_two_smallest, stats))
