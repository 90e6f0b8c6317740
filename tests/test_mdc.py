import math

import pytest
from hypothesis import example, given, strategies as st

import rectpart as rp
from rectpart.dc import Block, ReductionStats
from rectpart.mdc import _reduce_below_mean


def _singletons(values):
    return [Block((i,), v) for i, v in enumerate(values)]


def test_reduce_step_bundles_below_mean():
    values, blocks = rp.mdc_reduce_step([5.0, 4.0, 3.0, 2.0, 1.0], _singletons([5, 4, 3, 2, 1]))
    assert values == [5.0, 4.0, 3.0, 3.0]
    assert [b.members for b in blocks] == [(0,), (1,), (2,), (3, 4)]


def test_reduce_step_chains():
    values, blocks = rp.mdc_reduce_step([5.0, 4.0, 3.0, 2.0, 1.0], _singletons([5, 4, 3, 2, 1]))
    values, blocks = rp.mdc_reduce_step(values, blocks)
    assert values == [6.0, 5.0, 4.0]
    assert [b.members for b in blocks] == [(2, 3, 4), (0,), (1,)]


def test_reduce_step_all_equal_folds_half():
    values, blocks = rp.mdc_reduce_step([2.0, 2.0, 2.0, 2.0], _singletons([2, 2, 2, 2]))
    assert values == [6.0, 2.0]
    assert [b.members for b in blocks] == [(1, 2, 3), (0,)]
    # the rounded mean of three 0.2s, 0.20000000000000004, is above every entry
    values, blocks = rp.mdc_reduce_step([0.2] * 3, _singletons([0.2] * 3))
    assert values == [0.4, 0.2]
    assert [b.members for b in blocks] == [(1, 2), (0,)]


def test_reduce_step_minorant_at_tail_folds_half():
    blocks = [Block((2, 3, 4), 6.0), Block((0,), 5.0), Block((1,), 4.0)]
    values, blocks = rp.mdc_reduce_step([6.0, 5.0, 4.0], blocks)
    assert values == [9.0, 6.0]
    assert [b.members for b in blocks] == [(0, 1), (2, 3, 4)]


def test_reduce_step_rejects_short_lists():
    with pytest.raises(ValueError):
        rp.mdc_reduce_step([2.0, 1.0], _singletons([2, 1]))


def test_reduce_step_rejects_mismatched_blocks():
    with pytest.raises(ValueError, match="1 blocks for 3 entries"):
        rp.mdc_reduce_step([3.0, 2.0, 1.0], [Block((0,), 3.0)])
    with pytest.raises(ValueError):
        rp.mdc_reduce_step([3.0, 2.0, 1.0], _singletons([3, 2, 1, 1]))


@given(
    st.lists(
        st.sampled_from([0.2, 1.0, 2.0]) | st.floats(min_value=1e-3, max_value=1e3),
        min_size=2,
        max_size=40,
    )
)
@example([0.2] * 3)
@example([1.0] * 8)
@example([3.0, 3.0, 2.0, 2.0, 1.0, 1.0])
def test_public_step_folds_like_partition_reducer(raw):
    values = sorted(raw, reverse=True)
    blocks = _singletons(values)
    while len(values) > 2:
        values, blocks = rp.mdc_reduce_step(values, blocks)
    assert tuple(blocks) == _reduce_below_mean(sorted(raw, reverse=True), None)


@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=3, max_size=40))
def test_reduce_step_properties(raw):
    values = sorted(raw, reverse=True)
    new_values, new_blocks = rp.mdc_reduce_step(values, _singletons(values))
    assert len(new_values) <= len(values) - 1
    assert new_values == sorted(new_values, reverse=True)
    members = sorted(m for b in new_blocks for m in b.members)
    assert members == list(range(len(values)))
    for b in new_blocks:
        assert b.total == pytest.approx(sum(values[i] for i in b.members), rel=1e-12)


def test_partition_mdc_five_equal_areas():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.2] * 5)
    assert rp.validate_layout(inst, rp.partition_mdc(inst)).ok


@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=2, max_value=60))
def test_partition_mdc_equal_areas(area, n):
    inst = rp.make_instance(rp.Rect(0, 0, n * area, 1), [area] * n)
    stats = ReductionStats()
    assert rp.validate_layout(inst, rp.partition_mdc(inst, stats)).ok
    assert stats.iterations <= stats.pairwise_equivalent


def test_partition_mdc_halves_matches_dc():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    assert rp.partition_mdc(inst) == rp.partition_dc(inst)
    assert rp.partition_mdc(inst).total_half_perimeter() == 3.0


def test_partition_mdc_five_areas_matches_dc():
    inst = rp.make_instance(rp.Rect(0, 0, 5, 3), [5, 4, 3, 2, 1])
    layout = rp.partition_mdc(inst)
    assert layout == rp.partition_dc(inst)
    assert layout.total_half_perimeter() == pytest.approx(17.5, rel=1e-12)


def test_partition_mdc_single_area():
    container = rp.Rect(0, 0, 4, 1)
    layout = rp.partition_mdc(rp.make_instance(container, [4.0]))
    assert layout.rects == (container,)


@pytest.mark.parametrize("family,q", [("uniform", 0.5), ("geometric", 0.5), ("geometric", 0.99)])
@pytest.mark.parametrize("n", [3, 10, 60])
def test_partition_mdc_valid_and_never_slower(family, q, n):
    spec = rp.GenSpec(n=n, family=family, seed=n + 17, container=rp.Rect(0, 0, 1, 1), q=q)
    inst = rp.generate(spec)
    mdc_stats = ReductionStats()
    layout = rp.partition_mdc(inst, mdc_stats)
    assert rp.validate_layout(inst, layout).ok
    # every bipartition finishes in at most the pairwise rule's length - 2
    assert mdc_stats.iterations <= mdc_stats.pairwise_equivalent
    assert rp.partition_mdc(inst) == layout


def test_pairwise_rule_spends_exactly_its_equivalent():
    inst = rp.generate(rp.GenSpec(n=35, family="uniform", seed=2, container=rp.Rect(0, 0, 1, 1)))
    stats = ReductionStats()
    rp.partition_dc(inst, stats)
    assert stats.iterations == stats.pairwise_equivalent


@given(
    st.lists(
        st.sampled_from([0.1, 0.2, 0.3, 1.0]) | st.floats(min_value=1e-3, max_value=1e3),
        min_size=3,
        max_size=40,
    )
)
@example([0.2] * 3)
@example([5.0, 4.0, 3.0, 2.0, 1.0])
@example([6.0, 5.0, 4.0])
def test_reduce_step_folds_from_first_entry_below_mean(raw):
    values = sorted(raw, reverse=True)
    k = len(values)
    tau = math.fsum(values) / k
    i = next((j + 1 for j, a in enumerate(values) if a < tau), None)
    m = i if i is not None and 1 < i < k else math.ceil(k / 2)
    _, blocks = rp.mdc_reduce_step(values, _singletons(values))
    folded = [b for b in blocks if len(b.members) > 1]
    assert folded == [Block(tuple(range(m - 1, k)), math.fsum(values[m - 1 :]))]
