import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rectpart as rp

from conftest import CONTAINERS, column_layouts, parent_ids, reference_detect_forced


def test_single_pane_tree_is_forced():
    inst = rp.make_instance(rp.Rect(0, 0, 2, 1), [2.0])
    layout = rp.partition_dc(inst)
    assert rp.detect_forced(layout, inst.areas) == {0}


def test_dominant_area_forces_everything_in_halving():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.6, 0.4])
    layout = rp.partition_dc(inst)
    # preorder: 0 root, 1 top pane (0.6), 2 bottom pane (0.4)
    forced = rp.detect_forced(layout, inst.areas)
    assert forced == {0, 1, 2}


@pytest.mark.parametrize("partition", [rp.partition_dc, rp.partition_mdc])
def test_square_forced_through_its_second_edge_pair(partition):
    inst = rp.make_instance(rp.Rect(0, 0, 1, 2), [1.0, 1.0])
    layout = partition(inst)
    # preorder: 0 the tall container, 1 top square, 2 bottom square. The
    # container's long edges cover the top square's vertical pair; its top
    # edge y=2 lies in no forced long edge, so only the second pair counts.
    assert rp.detect_forced(layout, inst.areas) == {0, 1, 2}


@pytest.mark.parametrize("partition", [rp.partition_dc, rp.partition_mdc])
def test_squares_under_a_dominant_half(partition):
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.25, 0.25])
    layout = partition(inst)
    # preorder: 0 root, 1 top half, 2 bottom half, 3 and 4 its two squares
    assert rp.detect_forced(layout, inst.areas) == {0, 1, 2, 3, 4}


def test_no_dominant_area_keeps_right_child_unforced():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.4, 0.3, 0.3])
    layout = rp.partition_dc(inst)
    forced = rp.detect_forced(layout, inst.areas)
    assert forced == {0}


def test_detect_forced_rejects_flat_layouts_and_unknown_leaves():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    layout = rp.partition_dc(inst)
    with pytest.raises(ValueError, match="the layout carries no cut tree"):
        rp.detect_forced(rp.Layout(layout.rects, None), inst.areas)
    with pytest.raises(ValueError, match="leaf index 1 outside the area list"):
        rp.detect_forced(layout, inst.areas[:1])


def test_lower_bound_halves():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    layout = rp.partition_dc(inst)
    rep = rp.report(inst, layout)
    naive, forced = rep.naive_lower_bound, rep.forced_aware_lower_bound
    assert naive == pytest.approx(4 * math.sqrt(0.5), rel=1e-12)
    assert forced == pytest.approx(3.0, rel=1e-12)


def test_lower_bound_dominant_halving_reaches_total():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.6, 0.4])
    layout = rp.partition_dc(inst)
    rep = rp.report(inst, layout)
    naive, forced = rep.naive_lower_bound, rep.forced_aware_lower_bound
    assert naive == pytest.approx(2.8141, abs=1e-4)
    assert forced == pytest.approx(3.0, rel=1e-12)
    assert rep.approx_ratio == pytest.approx(1.0, rel=1e-12)


def test_lower_bound_single_area_is_container():
    container = rp.Rect(0, 0, 4, 1)
    inst = rp.make_instance(container, [4.0])
    layout = rp.partition_dc(inst)
    rep = rp.report(inst, layout)
    naive, forced = rep.naive_lower_bound, rep.forced_aware_lower_bound
    assert forced == container.w + container.h == 5.0
    assert naive == pytest.approx(4.0, rel=1e-12)


def test_lower_bound_flat_single_pane_layout():
    container = rp.Rect(0, 0, 4, 1)
    inst = rp.make_instance(container, [4.0])
    flat = rp.Layout((container,), None)
    forced = rp.report(inst, flat).forced_aware_lower_bound
    assert forced == 5.0


def test_flat_multi_pane_layout_falls_back_to_naive():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    flat = rp.Layout((rp.Rect(0, 0.5, 1, 0.5), rp.Rect(0, 0, 1, 0.5)), None)
    rep = rp.report(inst, flat)
    naive, forced = rep.naive_lower_bound, rep.forced_aware_lower_bound
    assert forced == naive


def test_report_halves():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    rep = rp.report(inst, rp.partition_dc(inst))
    assert rep.total_half_perimeter == pytest.approx(3.0, rel=1e-12)
    assert rep.forced_aware_lower_bound == pytest.approx(3.0, rel=1e-12)
    assert rep.approx_ratio == pytest.approx(1.0, rel=1e-12)
    assert rep.max_aspect_ratio == pytest.approx(2.0, rel=1e-12)
    assert all(p.forced for p in rep.per_rect)


def test_report_five_areas():
    inst = rp.make_instance(rp.Rect(0, 0, 5, 3), [5, 4, 3, 2, 1])
    rep = rp.report(inst, rp.partition_dc(inst))
    assert rep.total_half_perimeter == pytest.approx(17.5, rel=1e-12)
    naive_expected = 2 * (math.sqrt(5) + 2 + math.sqrt(3) + math.sqrt(2) + 1)
    assert rep.naive_lower_bound == pytest.approx(naive_expected, rel=1e-12)
    assert rep.approx_ratio <= 17.5 / naive_expected + 1e-9
    assert [p.index for p in rep.per_rect] == [0, 1, 2, 3, 4]


def test_report_single_area_ratio_one():
    inst = rp.make_instance(rp.Rect(0, 0, 2, 3), [6.0])
    rep = rp.report(inst, rp.partition_dc(inst))
    assert rep.approx_ratio == pytest.approx(1.0, rel=1e-12)


def test_report_rejects_invalid_layout():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    bad = rp.Layout((rp.Rect(0, 0, 1, 0.5), rp.Rect(0, 0, 1, 0.5)), None)
    with pytest.raises(ValueError):
        rp.report(inst, bad)


@pytest.mark.parametrize("family,q", [("uniform", 0.5), ("geometric", 0.5), ("geometric", 0.9)])
@pytest.mark.parametrize("n", [2, 5, 23, 77])
def test_bound_and_closure_invariants(family, q, n):
    spec = rp.GenSpec(n=n, family=family, seed=n * 7 + 3, container=rp.Rect(0, 0, 1, 1), q=q)
    inst = rp.generate(spec)
    layout = rp.partition_dc(inst)
    rep = rp.report(inst, layout)
    assert rep.forced_aware_lower_bound >= rep.naive_lower_bound - 1e-9
    assert rep.approx_ratio >= 1.0 - 1e-9
    # every forced node's parent is forced as well
    forced = rp.detect_forced(layout, inst.areas)
    parents = parent_ids(layout)
    for node_id in forced:
        assert parents[node_id] == -1 or parents[node_id] in forced


@settings(max_examples=300, deadline=None)
@given(column_layouts(tree=st.just(True)), st.data())
def test_detect_forced_matches_reference_on_column_trees(layout, data):
    n = len(layout.panes[0])
    areas = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    assert rp.detect_forced(layout, areas) == reference_detect_forced(layout, areas)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(CONTAINERS + (rp.Rect(0, 0, 1, 1),)),
    st.one_of(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30),
        st.lists(st.sampled_from((1.0, 2.0, 4.0)), min_size=1, max_size=30),
        st.builds(lambda n, q: [q**i for i in range(n)], st.integers(1, 30), st.floats(0.1, 0.95)),
    ),
    st.sampled_from([rp.partition_dc, rp.partition_mdc]),
)
def test_detect_forced_matches_reference_on_partitions(container, areas, partition):
    inst = rp.make_instance(container, areas, normalize=True)
    try:
        layout = partition(inst)
    except ValueError:
        assume(False)  # no representable cut (ROADMAP item 4)
    assert rp.detect_forced(layout, inst.areas) == reference_detect_forced(layout, inst.areas)
