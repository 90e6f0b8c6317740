import copy
import json
import math
import pickle
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings, strategies as st

import rectpart as rp
from rectpart import geometry

from conftest import CONTAINERS, dense_validate_layout, geometric_chain, strip_chain

coord = st.floats(min_value=-100.0, max_value=100.0)
extent = st.floats(min_value=1e-3, max_value=1e3)
rect_st = st.builds(rp.Rect, coord, coord, extent, extent)


def test_rect_rejects_bad_fields():
    with pytest.raises(ValueError):
        rp.Rect(0, 0, 0, 1)
    with pytest.raises(ValueError):
        rp.Rect(0, 0, 1, -2)
    with pytest.raises(ValueError):
        rp.Rect(0, 0, math.inf, 1)
    with pytest.raises(ValueError):
        rp.Rect(math.nan, 0, 1, 1)


def test_split_rect_wide_cuts_vertically():
    assert geometry.cut_across(2, 1) is rp.Cut.VERTICAL
    first, second = rp.split_rect(rp.Rect(0, 0, 2, 1), 1.2)
    assert first == rp.Rect(0, 0, 1.2, 1)
    assert second.x == pytest.approx(1.2) and second.w == pytest.approx(0.8)
    assert second.y == 0 and second.h == 1


def test_split_rect_square_cuts_horizontally_top_first():
    assert geometry.cut_across(1, 1) is rp.Cut.HORIZONTAL
    first, second = rp.split_rect(rp.Rect(0, 0, 1, 1), 0.5)
    assert first == rp.Rect(0, 0.5, 1, 0.5)
    assert second == rp.Rect(0, 0, 1, 0.5)


def test_split_rect_tall_cuts_horizontally():
    assert geometry.cut_across(1, 3) is rp.Cut.HORIZONTAL
    first, second = rp.split_rect(rp.Rect(0, 0, 1, 3), 1.0)
    assert first == rp.Rect(0, 2.0, 1, 1.0)
    assert second == rp.Rect(0, 0, 1, 2.0)


def test_split_rect_rejects_out_of_range_area():
    q = rp.Rect(0, 0, 2, 1)
    for a1 in (0.0, -1.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            rp.split_rect(q, a1)
    # cut_extents refuses exactly what cut_pane refuses, including first
    # pieces whose remainder rounds away and pieces that underflow to zero.
    for q in (rp.Rect(0, 0, 2, 1), rp.Rect(0, 0, 1.3, 3), rp.Rect(1.5, -2, 0.3, 0.7),
              rp.Rect(0, 0, 1e300, 1e-300)):
        area = q.area
        below = math.nextafter(area, 0.0)
        for a1 in (0.0, -1.0, area, 2 * area, area * (1 - 1e-17), below, math.nextafter(below, 0.0),
                   area * (1 - 1e-16), area * (1 - 3e-16), area / 2, 5e-324, math.nan):
            for cut in rp.Cut:
                ext = geometry.cut_extents(q.w, q.h, cut, a1)
                try:
                    geometry.cut_pane(q.x, q.y, q.w, q.h, cut, a1)
                except ValueError:
                    assert ext is None, (q, cut, a1)
                else:
                    assert ext is not None, (q, cut, a1)
    # 1.3 * 3 rounds up, so the largest area below it leaves no remainder...
    below = math.nextafter(1.3 * 3.0, 0.0)
    assert geometry.cut_extents(1.3, 3.0, rp.Cut.VERTICAL, below) is None
    assert geometry.cut_extents(1.3, 3.0, rp.Cut.HORIZONTAL, below) is None
    # ...and the smallest double, cut off a 1e300-wide pane, has no height.
    assert geometry.cut_extents(1e300, 1e-300, rp.Cut.HORIZONTAL, 5e-324) is None


@given(rect_st, st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@example(rp.Rect(0.5, 1.0, 3.0, 1.0), 0.3)  # wide
@example(rp.Rect(0.5, 1.0, 1.0, 3.0), 0.3)  # tall
@example(rp.Rect(0.5, 1.0, 2.0, 2.0), 0.3)  # square
def test_split_rect_tiles_exactly(r, frac):
    a1 = r.area * frac
    assert rp.split_rect(r, a1) == tuple(
        rp.Rect(*p) for p in geometry.cut_pane(r.x, r.y, r.w, r.h, geometry.cut_across(r.w, r.h), a1)
    )
    for cut in rp.Cut:
        first, second = (rp.Rect(*p) for p in geometry.cut_pane(r.x, r.y, r.w, r.h, cut, a1))
        assert geometry.cut_extents(r.w, r.h, cut, a1) == (first.w, first.h, second.w, second.h)
        assert first.area == pytest.approx(a1, rel=1e-12)
        assert first.area + second.area == pytest.approx(r.area, rel=1e-11)
        if cut is rp.Cut.VERTICAL:
            assert first.h == r.h == second.h and first.y == r.y == second.y
            assert first.x == r.x and second.x == first.x + first.w
            assert first.w + second.w == pytest.approx(r.w, rel=1e-12)
        else:
            assert first.w == r.w == second.w and first.x == r.x == second.x
            assert second.y == r.y and first.y == second.y + second.h
            assert first.h + second.h == pytest.approx(r.h, rel=1e-12)


def _bits(values):
    return tuple(map(float.hex, values))


def _assert_children_are_the_pieces(layout):
    kind, *cols = layout.nodes
    panes = list(zip(*cols))
    for i, (cut, a, b) in enumerate(zip(kind, *layout.children)):
        if a >= 0:
            e = panes[a][2] if cut is rp.Cut.VERTICAL else panes[a][3]
            want = geometry._pieces(*panes[i], cut, e)
            assert _bits(chain(*want)) == _bits(panes[a] + panes[b]), i
    geometry.check_cuts(layout)


@pytest.mark.parametrize("family, q", [("uniform", 0.5), ("geometric", 0.5), ("geometric", 0.9)])
@pytest.mark.parametrize("w, h", [(1, 1), (2, 1), (1, 3)])
def test_placed_children_are_the_cut_rules_pieces_bit_for_bit(family, q, w, h):
    # The placer and the reader's judge share one cut rule, so a placed
    # tree's children are its rule's pieces exactly, not merely within the
    # slack check_cuts allows.
    container = rp.Rect(0, 0, w, h)
    for seed, n in ((1, 6), (2, 40), (3, 200)):
        inst = rp.generate(rp.GenSpec(n=n, family=family, seed=seed, container=container, q=q))
        _assert_children_are_the_pieces(rp.partition_dc(inst))
        _assert_children_are_the_pieces(rp.partition_mdc(inst))
        if n <= 6:
            _assert_children_are_the_pieces(rp.optimal_guillotine(inst)[1])


def test_chain_children_are_the_cut_rules_pieces_bit_for_bit():
    inst = geometric_chain(n=300)
    _assert_children_are_the_pieces(rp.partition_dc(inst))
    _assert_children_are_the_pieces(rp.partition_mdc(inst))
    _assert_children_are_the_pieces(strip_chain(50))


#: A two-leaf tree per cut orientation: the root pane and its first child's extent.
TWO_LEAF_CUTS = {
    rp.Cut.VERTICAL: ((0.25, -0.5, 2.0, 1.0), 0.75),
    rp.Cut.HORIZONTAL: ((0.25, -0.5, 1.0, 3.0), 1.25),
}


@pytest.mark.parametrize("cut", list(rp.Cut), ids=lambda cut: cut.value)
def test_check_cuts_refuses_any_child_coordinate_off_by_twice_the_slack(cut):
    root, e = TWO_LEAF_CUTS[cut]
    slack = geometry.REL_TOL * max(root[2], root[3])
    children = list(chain(*geometry._pieces(*root, cut, e)))

    def layout(coords):
        rows = [(cut, *root), (0, *coords[:4]), (1, *coords[4:])]
        return rp.Layout.of_columns(2, tuple(zip(*rows)))

    text = f"^the children of tree node 0 do not tile it along its {cut.value} cut$"
    geometry.check_cuts(layout(children))
    for k in range(8):
        near = children.copy()
        near[k] += slack / 2
        geometry.check_cuts(layout(near))
        for step in (2 * slack, -2 * slack):
            moved = children.copy()
            moved[k] += step
            with pytest.raises(ValueError, match=text):
                geometry.check_cuts(layout(moved))
            with pytest.raises(rp.FileFormatError, match=text):
                rp.parse_layout(rp.serialize_layout(layout(moved), include_tree=True))


def test_instance_requires_matching_sum():
    container = rp.Rect(0, 0, 1, 1)
    with pytest.raises(ValueError):
        rp.make_instance(container, [0.5, 0.6])
    inst = rp.make_instance(container, [0.5, 0.6], normalize=True)
    assert math.fsum(inst.areas) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        rp.make_instance(container, [])
    with pytest.raises(ValueError):
        rp.make_instance(container, [1.0, -0.1], normalize=True)
    # sums beyond the largest double
    with pytest.raises(ValueError, match="container's area"):
        rp.make_instance(rp.Rect(0, 0, 1e200, 1e200), [1.0])
    for normalize in (False, True):
        with pytest.raises(ValueError, match="largest double"):
            rp.make_instance(container, [1e308, 1e308], normalize=normalize)
    # integers beyond a double
    with pytest.raises(ValueError, match="largest double"):
        rp.Rect(0, 0, 10**400, 1)
    for normalize in (False, True):
        with pytest.raises(ValueError, match="largest double"):
            rp.make_instance(container, [10**400], normalize=normalize)
    with pytest.raises(ValueError, match="largest double"):
        rp.Instance(container, (10**400,))


def test_instance_and_validation_reject_mismatched_input():
    # The areas sum to the container's, but one is negative.
    with pytest.raises(ValueError, match="area #1 must be positive and finite, got -0.5"):
        rp.Instance(rp.Rect(0, 0, 1, 1), (1.5, -0.5))
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    with pytest.raises(ValueError, match="layout carries 1 rects for 2 areas"):
        rp.validate_layout(inst, rp.Layout((rp.Rect(0, 0, 1, 1),), None))


@pytest.mark.parametrize("areas, error", [
    ([], "at least one target area is required (n >= 1)"),
    ([0.5, 10**400], "area #1 lies beyond the largest double"),
    ([0.5, math.nan], "area #1 must be positive and finite, got nan"),
    ([0.5, math.inf], "area #1 must be positive and finite, got inf"),
    ([0.5, 0.5, 0], "area #2 must be positive and finite, got 0.0"),
    ([1.5, -0.5], "area #1 must be positive and finite, got -0.5"),
], ids=["empty", "beyond-double", "nan", "inf", "zero", "negative"])
def test_instance_and_make_instance_share_one_area_judge(areas, error):
    container = rp.Rect(0, 0, 1, 1)
    for build in (
        lambda: rp.Instance(container, tuple(areas)),
        lambda: rp.make_instance(container, areas),
        lambda: rp.make_instance(container, areas, normalize=True),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == error


def test_layout_names_the_row_beyond_a_double():
    big = 10**400
    with pytest.raises(ValueError) as info:
        rp.Layout.of_columns(3, None, ((0, 0, 0), (0, 1, big), (1, 1, 1), (1, big, 1)))
    assert str(info.value) == "pane columns hold a number beyond the largest double in row 1"
    kind = (rp.Cut.HORIZONTAL, 0, 1)
    with pytest.raises(ValueError) as info:
        rp.Layout.of_columns(2, (kind, (0, 0, big), (0, 0.5, 0), (1, 1, 1), (1, 0.5, 0.5)))
    assert str(info.value) == "tree node columns hold a number beyond the largest double in row 2"


def test_validate_layout_accepts_exact_halves():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    layout = rp.Layout((rp.Rect(0, 0.5, 1, 0.5), rp.Rect(0, 0, 1, 0.5)), None)
    diag = rp.validate_layout(inst, layout)
    assert diag.ok


def test_validate_layout_flags_overlap():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    layout = rp.Layout((rp.Rect(0, 0, 1, 0.5), rp.Rect(0, 0, 1, 0.5)), None)
    diag = rp.validate_layout(inst, layout)
    assert not diag.ok
    assert not diag.overlap_ok
    assert diag.overlaps == ((0, 1),)

    # Several overlaps, listed by (i, j) with i < j in lexicographic order
    # whatever the panes' positions along either axis.
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.25] * 4)
    layout = rp.Layout(
        (
            rp.Rect(0.5, 0.0, 0.5, 0.5),
            rp.Rect(0.0, 0.5, 0.5, 0.5),
            rp.Rect(0.25, 0.25, 0.5, 0.5),
            rp.Rect(0.0, 0.0, 0.5, 0.5),
        ),
        None,
    )
    diag = rp.validate_layout(inst, layout)
    assert not diag.overlap_ok
    assert diag.overlaps == ((0, 2), (1, 2), (2, 3))


def test_validate_layout_flags_area_mismatch():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.6, 0.4])
    layout = rp.Layout((rp.Rect(0, 0.5, 1, 0.5), rp.Rect(0, 0, 1, 0.5)), None)
    diag = rp.validate_layout(inst, layout)
    assert not diag.area_ok
    assert diag.bad_areas == (0, 1)
    # tiling and containment still hold for this layout
    assert diag.total_ok and diag.overlap_ok and diag.containment_ok


def test_validate_layout_flags_escapees():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    layout = rp.Layout((rp.Rect(0.5, 0, 1, 0.5), rp.Rect(0, 0, 1, 0.5)), None)
    diag = rp.validate_layout(inst, layout)
    assert not diag.containment_ok
    assert diag.escapees == (0,)


def test_layout_from_tree_checks_indices():
    r = rp.Rect(0, 0, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        rp.Layout((r,), rp.Leaf(r, 1))
    top, bottom = rp.Rect(0, 0.5, 1, 0.5), rp.Rect(0, 0, 1, 0.5)
    double = rp.Internal(r, rp.Cut.HORIZONTAL, rp.Leaf(top, 0), rp.Leaf(bottom, 0))
    with pytest.raises(ValueError, match="appears in two leaves"):
        rp.Layout((top, bottom), double)
    with pytest.raises(ValueError, match=r"no leaf for area indices \[1\]"):
        rp.Layout((r, r), rp.Leaf(r, 0))
    with pytest.raises(ValueError, match=r"rects\[0\] disagrees"):
        rp.Layout((top,), rp.Leaf(r, 0))
    lay = rp.Layout((r,), rp.Leaf(r, 0))
    assert lay.rects == (r,)


def _round_trips(value):
    """Copies of ``value`` by pickle (protocol 0 and the highest) and by deepcopy."""
    pickled = [pickle.loads(pickle.dumps(value, p)) for p in (0, pickle.HIGHEST_PROTOCOL)]
    return [*pickled, copy.deepcopy(value)]


def test_layout_equality_and_hash_do_not_recurse():
    # Chains about n cuts deep under both partitioners, at the default
    # recursion limit: trees compare and hash, layouts print, and copies
    # by pickle and deepcopy equal the original.
    for inst in (geometric_chain(), geometric_chain(1000, seed=1)):
        for partition in (rp.partition_dc, rp.partition_mdc):
            a, b = partition(inst), partition(inst)
            assert a == b and hash(a) == hash(b)
            assert a != rp.Layout(a.rects, None)
            assert a.tree == b.tree and hash(a.tree) == hash(b.tree)
            assert repr(a)
            assert all(copied == a for copied in _round_trips(a))
    chain = strip_chain(3000)
    assert chain == strip_chain(3000) and hash(chain) == hash(strip_chain(3000))
    tree = chain.tree
    assert tree == strip_chain(3000).tree and hash(tree) == hash(strip_chain(3000).tree)
    assert repr(tree)
    assert all(copied == tree for copied in _round_trips(tree))


def test_layout_equality_compares_tree_nodes():
    top, bottom = rp.Rect(0, 0.5, 1, 0.5), rp.Rect(0, 0, 1, 0.5)
    tree = rp.Internal(rp.Rect(0, 0, 1, 1), rp.Cut.HORIZONTAL, rp.Leaf(top, 0), rp.Leaf(bottom, 1))
    layout = rp.Layout((top, bottom), tree)
    assert layout == rp.Layout((top, bottom), tree)
    assert layout != rp.Layout((top, bottom), rp.Internal(tree.rect, rp.Cut.VERTICAL, tree.left, tree.right))
    assert layout != rp.Layout((top, bottom), None)
    assert layout != (top, bottom)


def _grid_edge(k: int, nudge: int) -> float:
    """k/4, optionally moved one ulp down (-1) or up (+1)."""
    v = k / 4
    return v if nudge == 0 else math.nextafter(v, nudge * math.inf)


nudge_st = st.sampled_from((0, 0, 0, -1, 1))


@st.composite
def grid_rect_st(draw):
    """Rects on a quarter grid that spills past the unit square, so shared
    edges, edges one ulp apart, duplicate low coordinates and escapees are
    all common; now and then a free-floating one."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.builds(
            rp.Rect,
            st.floats(-0.5, 1.0), st.floats(-0.5, 1.0),
            st.floats(1e-3, 1.0), st.floats(1e-3, 1.0),
        ))
    kx, ky = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    kw, kh = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x, y = _grid_edge(kx, draw(nudge_st)), _grid_edge(ky, draw(nudge_st))
    x2, y2 = _grid_edge(kx + kw, draw(nudge_st)), _grid_edge(ky + kh, draw(nudge_st))
    return rp.Rect(x, y, x2 - x, y2 - y)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(grid_rect_st(), st.sampled_from((1.0, 1.0, 1.0, 1.5))), min_size=1, max_size=40)
)
def test_validate_layout_matches_dense_reference(panes):
    rects = tuple(r for r, _ in panes)
    # A target off by a factor of 1.5 makes that pane an area mismatch.
    inst = rp.make_instance(
        rp.Rect(0, 0, 1, 1), [r.area * skew for r, skew in panes], normalize=True
    )
    layout = rp.Layout(rects, None)
    assert rp.validate_layout(inst, layout) == dense_validate_layout(inst, layout)


@pytest.mark.parametrize("overlap", [1, 60])
def test_validate_layout_full_width_strips(overlap):
    """n=1500 full-width strips, each reaching ``overlap`` strips up. Every
    pair overlaps along x, so none retires from the sweep; along y each strip
    meets its next ``overlap - 1`` neighbours."""
    n = 1500
    step = 1.0 / (n + overlap - 1)
    rects = tuple(rp.Rect(0.0, k * step, 1.0, overlap * step) for k in range(n))
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [r.area for r in rects], normalize=True)
    layout = rp.Layout(rects, None)
    diag = rp.validate_layout(inst, layout)
    assert diag == dense_validate_layout(inst, layout)
    assert diag.overlap_ok == (overlap == 1)


def test_validate_layout_after_the_sweep_loses_its_order():
    # A valid dc layout with one pane moved onto its right-hand neighbour,
    # which it outgrows in height. The two start at the same point, so the
    # second to enter the sweep breaks the y order of the active panes; the
    # moved pane then reaches past its neighbour's top into panes further
    # up, which a scan that still stopped early would miss. A quarter or
    # more of the panes lie further right and enter after the break.
    inst = rp.generate(rp.GenSpec(n=200, family="uniform", seed=1, container=rp.Rect(0, 0, 1, 1)))
    layout = rp.partition_dc(inst)
    assert rp.validate_layout(inst, layout).ok
    x, y, w, h = map(list, layout.panes)
    i, j = next(
        (i, j) for i in range(inst.n) for j in range(inst.n)
        if x[j] == x[i] + w[i] and y[j] < y[i] + h[i] and y[i] < y[j] + h[j] and h[i] > h[j]
    )
    assert sum(xk > x[j] for xk in x) > inst.n // 4
    x[i], y[i] = x[j], y[j]
    moved = rp.Layout.of_columns(inst.n, None, (x, y, w, h))
    diag = rp.validate_layout(inst, moved)
    assert tuple(sorted((i, j))) in diag.overlaps
    assert sum(i in pair for pair in diag.overlaps) > 1
    assert diag == dense_validate_layout(inst, moved)


#: Containers for generated layouts: the shared ones, huge and tiny
#: extents included, a wide one, and a unit square far from the origin.
VALIDATION_CONTAINERS = CONTAINERS + (rp.Rect(0, 0, 4, 1), rp.Rect(1e6, 1e6, 1, 1))


@st.composite
def generated_layouts(draw):
    """An instance and a dc or mdc layout of it, of n <= 200 uniform or
    geometric areas, as placed or with one pane perturbed: moved onto
    another pane, shifted by a fraction of its extents, or resized."""
    container = draw(st.sampled_from(VALIDATION_CONTAINERS))
    family, q = draw(st.sampled_from(
        [("uniform", 0.5)] + [("geometric", q) for q in (0.3, 0.5, 0.9, 0.99)]
    ))
    spec = rp.GenSpec(
        n=draw(st.integers(1, 200)), family=family, q=q,
        seed=draw(st.integers(0, 2**32 - 1)), container=container,
    )
    partition = draw(st.sampled_from((rp.partition_dc, rp.partition_mdc)))
    try:
        inst = rp.generate(spec)
        layout = partition(inst)
    except ValueError:
        # An area that underflows, or a cut that leaves no extent.
        reject()
    x, y, w, h = map(list, layout.panes)
    i = draw(st.integers(0, inst.n - 1))
    change = draw(st.sampled_from(("none", "move", "shift", "resize")))
    if change == "move":
        j = draw(st.integers(0, inst.n - 1))
        x[i], y[i] = x[j], y[j]
    elif change == "shift":
        x[i] += draw(st.floats(-1.0, 1.0)) * w[i]
        y[i] += draw(st.floats(-1.0, 1.0)) * h[i]
    elif change == "resize":
        # Factors of at least 0.75 keep the smallest subnormal extent.
        w[i] *= draw(st.floats(0.75, 2.0))
        h[i] *= draw(st.floats(0.75, 2.0))
    return inst, rp.Layout.of_columns(inst.n, None, (x, y, w, h))


@settings(max_examples=300, deadline=None)
@given(generated_layouts())
def test_validate_layout_matches_dense_reference_on_generated_layouts(case):
    inst, layout = case
    assert rp.validate_layout(inst, layout) == dense_validate_layout(inst, layout)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 23")
def test_validate_layout_fails_a_tiny_pane_moved_onto_another():
    # Pane 59 (area 8.5e-19) lies wholly on pane 58, yet their overlap is
    # below the absolute limit, so every check passes.
    inst = rp.generate(rp.GenSpec(n=60, family="geometric", q=0.5, seed=1, container=rp.Rect(0, 0, 1, 1)))
    x, y, w, h = map(list, rp.partition_mdc(inst).panes)
    x[59], y[59] = x[58], y[58]
    assert not rp.validate_layout(inst, rp.Layout.of_columns(60, None, (x, y, w, h))).ok


def test_validate_layout_geometric_spiral():
    inst = geometric_chain()
    layout = rp.partition_dc(inst)
    assert rp.validate_layout(inst, layout) == dense_validate_layout(inst, layout)


def test_validate_layout_golden_fixture_matches_dense_reference():
    golden = json.loads((Path(__file__).parent / "data" / "golden_n25.json").read_text())
    spec = golden["genSpec"]
    inst = rp.generate(rp.GenSpec(
        n=spec["n"], family=spec["family"], seed=spec["seed"],
        container=rp.Rect(0, 0, spec["container"]["width"], spec["container"]["height"]),
    ))
    for partition in (rp.partition_dc, rp.partition_mdc):
        layout = partition(inst)
        diag = rp.validate_layout(inst, layout)
        assert diag.ok
        assert diag == dense_validate_layout(inst, layout)


def test_validate_layout_memory_is_linear():
    inst = rp.generate(rp.GenSpec(n=3000, family="uniform", seed=3000, container=rp.Rect(0, 0, 1, 1)))
    layout = rp.partition_dc(inst)
    tracemalloc.start()
    try:
        assert rp.validate_layout(inst, layout).ok
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < 32.0, f"validate_layout peaked at {peak_mb:.1f} MB for n=3000"
