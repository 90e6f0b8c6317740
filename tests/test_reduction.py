"""Both reduction rules against the member-tuple reducers in conftest: the
merge forest must give the same blocks, totals and counters."""

import sys

import pytest
from hypothesis import example, given, strategies as st

import rectpart as rp
from rectpart.dc import Block, ReductionStats
from rectpart.mdc import _reduce_below_mean

from conftest import reference_fold_below_mean, reference_merge_two_smallest, reference_reduce

#: Positive areas with frequent ties, including ties of the merged sums.
AREAS = st.sampled_from([0.2, 0.5, 1.0, 2.0]) | st.floats(min_value=1e-300, max_value=1e300)


def _descending(raw):
    return sorted(raw, reverse=True)


@given(st.lists(AREAS, min_size=2, max_size=60).map(_descending))
@example([0.2] * 3)
@example([1.0] * 8)
@example([4.0, 1.0, 1.0, 1.0, 1.0])
@example([3.0, 3.0, 2.0, 2.0, 1.0, 1.0])
@example([1.0, 5e-324, 5e-324])
@example([1.0] + [5e-324] * 5)
@example([0.5] * 40)
# The folded sum ties entries in the head, so it must land after them: a
# search that puts ties first gives other blocks on each of these.
@example([2.0, 1.0, 1.0])
@example([3.0, 3.0, 1.0, 1.0, 1.0])
@example([0.4, 0.2, 0.2])
@example([0.5, 0.2, 0.2, 0.1])  # 0.2 + 0.1 rounds up, and then ties 0.5
def test_reducers_match_tuple_reference(values):
    for reduce_to_two, step in (
        (rp.bipartition_two_smallest, reference_merge_two_smallest),
        (_reduce_below_mean, reference_fold_below_mean),
    ):
        stats, want_stats = ReductionStats(), ReductionStats()
        before = list(values)
        got = reduce_to_two(values, stats)
        assert values == before  # the fold works on a copy, not on the caller's list
        assert got == reference_reduce(step, values, want_stats)
        assert stats == want_stats


@st.composite
def block_lists(draw):
    """A non-increasing list of length 3-60 and one block per entry, whose
    members are disjoint index tuples in any order and whose totals need not
    match the entries."""
    values = draw(st.lists(AREAS, min_size=3, max_size=60).map(_descending))
    k = len(values)
    order = draw(st.permutations(range(k + draw(st.integers(0, 20)))))
    cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1), min_size=k - 1, max_size=k - 1)))
    groups = [tuple(order[a:b]) for a, b in zip([0, *cuts], [*cuts, len(order)])]
    totals = draw(st.lists(AREAS, min_size=k, max_size=k))
    return values, [Block(m, t) for m, t in zip(groups, totals)]


@given(block_lists())
def test_reduce_step_matches_tuple_reference(case):
    values, blocks = case
    want_values, want_members = reference_fold_below_mean(
        list(values), [b.members for b in blocks]
    )
    before = list(values)
    got_values, got_blocks = rp.mdc_reduce_step(values, blocks)
    assert values == before  # the fold works on a copy, not on the caller's list
    assert got_values == want_values
    assert got_blocks == [Block(m, v) for m, v in zip(want_members, want_values)]


def test_fold_raises_on_an_overflowing_sum():
    # The fold sums with math.fsum, which raises where + would give inf; no
    # Instance gets here, as its areas sum to a finite container area.
    values = [1.7e308, 1e308, 1e308]
    blocks = [Block((i,), v) for i, v in enumerate(values)]
    for call in (
        lambda: rp.bipartition_two_smallest(values),
        lambda: _reduce_below_mean(values),
        lambda: rp.mdc_reduce_step(values, blocks),
    ):
        with pytest.raises(OverflowError):
            call()


def test_deep_forest_expands_without_recursion():
    # Every merge takes the block of the previous one: a forest 1998 merges
    # deep, expanded at the default recursion limit.
    values = [0.5**i for i in range(2000)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        b1, b2 = rp.bipartition_two_smallest(values)
    finally:
        sys.setrecursionlimit(limit)
    assert b1.members == (0,)
    assert b2.members == tuple(range(1, 2000))
    assert (b1, b2) == reference_reduce(reference_merge_two_smallest, values, None)
