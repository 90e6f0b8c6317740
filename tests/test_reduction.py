"""Both reduction rules against the member-tuple reducers in conftest: the
merge forest must give the same blocks, totals and counters."""

import sys

import pytest
from hypothesis import example, given, strategies as st

import rectpart as rp
from rectpart.dc import Block, ReductionStats, _partition
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
# Runs of merges on the newest sum: one that goes on through a sum landing one
# entry in, one through a sum that ties the entry before it, one that ends at
# once, and one that reaches the two-entry stop.
@example([1.0, 0.6, 0.35, 0.3])
@example([4.0, 2.0, 1.0, 1.0])
@example([1.0, 0.3, 0.3, 0.2, 0.2])
@example([0.5**i for i in range(40)])
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


@pytest.mark.parametrize(
    "family, q, n",
    [("geometric", 0.5, 120), ("geometric", 0.7, 120), ("geometric", 0.9, 120), ("uniform", 0.5, 300)],
)
def test_partition_dc_matches_tuple_reference_layout(family, q, n):
    # Every node's reduction at once: the layout partition_dc builds, runs of
    # merges and all, is the one the one-merge tuple reference builds.
    inst = rp.generate(rp.GenSpec(n=n, family=family, seed=n, container=rp.Rect(0, 0, 1, 1), q=q))

    def reference(values, stats):
        return reference_reduce(reference_merge_two_smallest, values, stats)

    assert rp.partition_dc(inst) == rp.Layout.of_columns(n, _partition(inst, reference, None))


def test_fold_raises_on_an_overflowing_sum():
    # The reduction raises where math.fsum would, as + would give inf; no
    # Instance gets here, as its areas sum to a finite container area. The
    # second list's pairwise merges form one run whose last sum overflows.
    for values in ([1.7e308, 1e308, 1e308], [1.7e308, 1e308, 6e307, 5e307]):
        blocks = [Block((i,), v) for i, v in enumerate(values)]
        for call in (
            lambda: rp.bipartition_two_smallest(values),
            lambda: _reduce_below_mean(values),
            lambda: rp.mdc_reduce_step(values, blocks),
        ):
            with pytest.raises(OverflowError):
                call()


def test_deep_forest_expands_without_recursion():
    # Pairs of equal areas, each pair 2x the next: every run of merges takes
    # the fold of the run before it, so the forest is 998 folds deep. On
    # 0.5**i one run of 1998 merges folds all but the head in one step. Both
    # expand at a recursion limit below their depth.
    pairs = sorted((1.5 * 2.0**j for j in range(1000) for _ in range(2)), reverse=True)
    chain = [0.5**i for i in range(2000)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = [rp.bipartition_two_smallest(values) for values in (pairs, chain)]
    finally:
        sys.setrecursionlimit(limit)
    b1, b2 = got[1]
    assert b1.members == (0,)
    assert b2.members == tuple(range(1, 2000))
    assert got == [reference_reduce(reference_merge_two_smallest, v, None) for v in (pairs, chain)]
