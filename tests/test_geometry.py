import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rectpart as rp
from rectpart import geometry

from conftest import dense_validate_layout, geometric_chain, strip_chain

coord = st.floats(min_value=-100.0, max_value=100.0)
extent = st.floats(min_value=1e-3, max_value=1e3)
rect_st = st.builds(rp.Rect, coord, coord, extent, extent)


def test_half_perimeter_examples():
    assert rp.half_perimeter(rp.Rect(0, 0, 1, 1)) == 2.0
    assert rp.half_perimeter(rp.Rect(0, 0, 3, 1)) == 4.0
    assert rp.half_perimeter(rp.Rect(0, 0, 0.5, 2.25)) == 2.75


def test_aspect_ratio_examples():
    assert rp.aspect_ratio(rp.Rect(0, 0, 1, 1)) == 1.0
    assert rp.aspect_ratio(rp.Rect(0, 0, 3, 1)) == 3.0
    assert rp.aspect_ratio(rp.Rect(0, 0, 1, 4)) == 4.0


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
    first, second = rp.split_rect(rp.Rect(0, 0, 2, 1), 1.2)
    assert first == rp.Rect(0, 0, 1.2, 1)
    assert second.x == pytest.approx(1.2) and second.w == pytest.approx(0.8)
    assert second.y == 0 and second.h == 1


def test_split_rect_square_cuts_horizontally_top_first():
    first, second = rp.split_rect(rp.Rect(0, 0, 1, 1), 0.5)
    assert first == rp.Rect(0, 0.5, 1, 0.5)
    assert second == rp.Rect(0, 0, 1, 0.5)


def test_split_rect_tall_cuts_horizontally():
    first, second = rp.split_rect(rp.Rect(0, 0, 1, 3), 1.0)
    assert first == rp.Rect(0, 2.0, 1, 1.0)
    assert second == rp.Rect(0, 0, 1, 2.0)


def test_split_rect_rejects_out_of_range_area():
    q = rp.Rect(0, 0, 2, 1)
    for a1 in (0.0, -1.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            rp.split_rect(q, a1)


@given(rect_st)
def test_aspect_ratio_transpose_invariant(r):
    transposed = rp.Rect(r.y, r.x, r.h, r.w)
    assert rp.aspect_ratio(r) == rp.aspect_ratio(transposed)


@given(rect_st)
def test_half_perimeter_at_least_square(r):
    hp = rp.half_perimeter(r)
    floor = 2.0 * math.sqrt(r.area)
    assert hp >= floor - 1e-12 * hp
    if abs(r.w - r.h) <= 1e-12 * max(r.w, r.h):
        assert hp == pytest.approx(floor, rel=1e-12)


def test_half_perimeter_strictly_above_floor_for_non_squares():
    r = rp.Rect(0, 0, 2, 1)
    assert rp.half_perimeter(r) > 2.0 * math.sqrt(r.area) * (1 + 1e-12)


@given(rect_st, st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_split_rect_tiles_exactly(r, frac):
    a1 = r.area * frac
    first, second = rp.split_rect(r, a1)
    assert first.area == pytest.approx(a1, rel=1e-12)
    assert first.area + second.area == pytest.approx(r.area, rel=1e-11)
    if r.w > r.h:
        assert first.h == r.h == second.h and first.y == r.y == second.y
        assert first.x == r.x and second.x == first.x + first.w
        assert first.w + second.w == pytest.approx(r.w, rel=1e-12)
    else:
        assert first.w == r.w == second.w and first.x == r.x == second.x
        assert second.y == r.y and first.y == second.y + second.h
        assert first.h + second.h == pytest.approx(r.h, rel=1e-12)


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
    with pytest.raises(ValueError):
        rp.Layout.from_tree(rp.Leaf(r, 1), 1)
    lay = rp.Layout.from_tree(rp.Leaf(r, 0), 1)
    assert lay.rects == (r,)


def test_layout_equality_and_hash_do_not_recurse():
    inst = geometric_chain()
    a, b = rp.partition_dc(inst), rp.partition_dc(inst)
    assert a == b and hash(a) == hash(b)
    assert a != rp.Layout(a.rects, None)
    chain = strip_chain(3000)
    assert chain == strip_chain(3000) and hash(chain) == hash(strip_chain(3000))


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
    expected = dense_validate_layout(inst, layout)
    assert rp.validate_layout(inst, layout) == expected
    # Tiny chunks split the candidate pairs at every possible place.
    with mock.patch.object(geometry, "_SWEEP_CHUNK", 3):
        assert rp.validate_layout(inst, layout) == expected


def _pane_arrays(layout):
    x = np.array([r.x for r in layout.rects])
    y = np.array([r.y for r in layout.rects])
    return x, y, x + np.array([r.w for r in layout.rects]), y + np.array([r.h for r in layout.rects])


@pytest.mark.parametrize("overlap", [1, 60])
def test_validate_layout_full_width_strips(overlap):
    """n=1500 full-width strips, each reaching ``overlap`` strips up. Every
    pair overlaps along x; along y each strip meets its next ``overlap - 1``
    neighbours, which for ``overlap=60`` spans more than one chunk."""
    n = 1500
    step = 1.0 / (n + overlap - 1)
    rects = tuple(rp.Rect(0.0, k * step, 1.0, overlap * step) for k in range(n))
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [r.area for r in rects], normalize=True)
    layout = rp.Layout(rects, None)
    x, y, x2, y2 = _pane_arrays(layout)
    assert geometry._sweep_candidates(x, x2)[1].sum() == n * (n - 1) // 2
    if overlap > 1:
        assert geometry._sweep_candidates(y, y2)[1].sum() > geometry._SWEEP_CHUNK
    diag = rp.validate_layout(inst, layout)
    assert diag == dense_validate_layout(inst, layout)
    assert diag.overlap_ok == (overlap == 1)


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
