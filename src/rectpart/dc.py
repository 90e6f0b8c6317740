"""Divide-and-conquer partitioner that repeatedly merges the two smallest areas.

The driver sorts the target areas once (non-increasing), reduces the working
list to two compound blocks, cuts the rectangle in proportion to the two block
totals, and treats both pieces the same way; an explicit stack replaces the
paper's recursion, so chains of any depth lay out. The reduction keeps the
working list reversed, so it ascends and every search is a plain bisect. A
reduction rule says how many of the smallest entries form the tail and what
they sum to. The pairwise rule takes the two smallest, and since pairwise sums
never decrease (van Leeuwen 1976), it goes on taking the next entry while the
newest sum stays one of the two smallest: a run of merges whose order is fixed
before the list changes, each sum rounded as a single merge rounds it. One
fold, shared by both rules, replaces the tail with one entry, its sum,
reinserted where the list stays sorted, and rewrites the list only up to that
point; the entry's id lists the tail's ids, so ids nest into one merge forest.
Once two entries remain, each is expanded once into its ascending member
positions; when one of them is a single input, the other holds the rest.
"""

from __future__ import annotations

import bisect
import math
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

    ``iterations`` counts merges: every pairwise merge of the pairwise rule,
    though it folds a run of them in one step, and every fold of the mean
    rule. ``pairwise_equivalent`` accumulates length - 2 per bipartition,
    which is what the pairwise rule spends on a list of that length no matter
    its content; for the pairwise rule itself the two counters always agree.
    ``rewritten`` sums, over the merges, what a fold of that merge alone
    rewrites: its tail's entries plus the entries its sum moves past. For the
    mean rule that is its list work exactly; for the pairwise rule, whose run
    of merges rewrites the list once, it is an upper bound on the entries
    copied. Neither counts the one move that shifts the untouched rest of the
    list down.
    """

    iterations: int = 0
    pairwise_equivalent: int = 0
    rewritten: int = 0


def sort_descending(areas: Sequence[float]) -> tuple[list[float], list[int]]:
    """Non-increasing copy of ``areas`` plus the permutation mapping sorted
    position to original index. Stable: equal areas keep their input order."""
    perm = sorted(range(len(areas)), key=lambda i: -areas[i])
    return [areas[i] for i in perm], perm


def _two_smallest(values: list[float], stats: ReductionStats | None) -> tuple[int, float]:
    # The pairwise rule, a run of merges at a time. While the newest sum is at
    # most the second smallest remaining entry (ties land before it), it is
    # one of the two smallest, so the next merge takes it with the smallest
    # remaining entry: the tail grows by that entry, added with the same
    # rounding as the merge's own sum. The run stops where the list would
    # reach two entries.
    e, last = 2, len(values) - 1
    total = values[0] + values[1]
    while e < last and total <= values[e + 1]:
        total += values[e]
        e += 1
    if stats is not None:
        _count_run(values, e, stats)
    return e, total


def _count_run(values: list[float], e: int, stats: ReductionStats) -> None:
    # What the one-merge fold would count for each merge of the run of e
    # entries: its two tail entries plus the entries its sum moves past.
    # Every merge but the last moves its sum past none or one.
    stats.iterations += e - 1
    total = values[0] + values[1]
    for j in range(2, e):
        stats.rewritten += 2 if total <= values[j] else 3
        total += values[j]
    stats.rewritten += 2 + bisect.bisect_left(values, total, e) - e


def _fold(values: list[float], ids: list, e: int, total: float) -> None:
    # The one fold of both rules, in place on ascending lists the caller owns:
    # the tail values[:e] becomes one entry, total, whose id is the list of
    # the tail's ids, reinserted where the list stays sorted, before equal
    # entries, so that in the non-increasing order older blocks stay first.
    # Only the prefix up to that point is rewritten.
    pos = bisect.bisect_left(values, total, e)
    values[:pos] = [*values[e:pos], total]
    ids[:pos] = [*ids[e:pos], ids[:e]]


def _reduce(
    rule: Callable[[list[float], ReductionStats | None], tuple[int, float]],
    sorted_areas: Sequence[float],
    stats: ReductionStats | None,
) -> tuple[Block, Block]:
    # Both rules reduce here, on the areas reversed, so that the list ascends
    # and every search is a plain bisect with no key; reversing copies no
    # float, where negating would make one per entry. A rule returns how many
    # of the smallest entries form the tail, at least two, and their sum, and
    # counts its merges into stats. An int id is a position of the sorted
    # input, and a list id is a fold, holding its tail's ids: the ids nest
    # into the merge forest.
    k = len(sorted_areas)
    if k < 2:
        raise ValueError("need at least two areas to bipartition")
    if stats is not None:
        stats.pairwise_equivalent += k - 2
    values = list(sorted_areas)
    values.reverse()
    ids: list = list(range(k - 1, -1, -1))
    while len(values) > 2:
        e, total = rule(values, stats)
        _fold(values, ids, e, total)
    v2, v1 = values
    # A sum past the largest float is inf and so lands last; math.fsum of
    # the two entries that made it raises, so the reduction does too.
    if v1 == math.inf != sorted_areas[0]:
        raise OverflowError("intermediate overflow in fsum")
    # An int id leaves every other position to the other block.
    b, a = ids
    if isinstance(a, int):
        m1 = (a,)
        m2 = (b,) if isinstance(b, int) else (*range(a), *range(a + 1, k))
    elif isinstance(b, int):
        m1, m2 = (*range(b), *range(b + 1, k)), (b,)
    else:
        m1, m2 = _members(a), _members(b)
    return Block(m1, v1), Block(m2, v2)


def _members(node: list) -> tuple[int, ...]:
    # The ascending input positions under one fold, gathered with a stack:
    # ids nest as deep as the list is long.
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
