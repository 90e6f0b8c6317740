"""Shared test helpers: readers of a layout's tree columns, a dense
validation reference, reference reducers, writers and forced-pane closure
that the library's must match, and dc in exact arithmetic."""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction
from itertools import chain
from typing import Any, Sequence

import numpy as np
from hypothesis import strategies as st

from rectpart import Cut, GenSpec, Instance, Layout, Rect, generate
from rectpart.bounds import QualityReport
from rectpart.dc import Block, ReductionStats
from rectpart.fileio import LAYOUT_VERSION
from rectpart.geometry import OVERLAP_REL_TOL, REL_TOL, LayoutDiagnostics


def geometric_chain(n=600, seed=7):
    """Geometric q=0.5 instance, whose dc layout is a chain about n cuts deep."""
    return generate(GenSpec(n=n, family="geometric", seed=seed, container=Rect(0, 0, 1, 1), q=0.5))


def strip_chain(n):
    """n unit squares in a 1-high strip, cut off the left one at a time: a
    tree n - 1 cuts deep, listed in preorder as columns. Cut i at x = i
    precedes its left leaf, square i; the last node is square n - 1."""
    kind = [k for i in range(n - 1) for k in (Cut.VERTICAL, i)] + [n - 1]
    x = [i for i in range(n - 1) for _ in (0, 1)] + [n - 1]
    w = [v for i in range(n - 1) for v in (n - i, 1)] + [1]
    m = len(kind)
    return Layout.of_columns(n, (tuple(kind), tuple(x), (0,) * m, tuple(w), (1,) * m))


def aspect(w, h):
    """max(w/h, h/w): at least 1, exactly 1 for a square."""
    return max(w / h, h / w)


def consecutive_ratio_cap(inst):
    """Aspect-ratio cap every tree node must respect: the container's own
    ratio, 3, or one plus the largest consecutive ratio of the sorted areas."""
    dec = sorted(inst.areas, reverse=True)
    max_ratio = max((dec[i] / dec[i + 1] for i in range(len(dec) - 1)), default=1.0)
    return max(aspect(inst.container.w, inst.container.h), 3.0, 1.0 + max_ratio)


def node_invariants(inst, layout):
    """(balance_ok, ar_ok) checked at every node of the layout tree.

    balance: the left child of every cut holds at least a third of its
    parent's area, and so does the right child whenever no single target
    area claims more than two thirds of the parent.
    ar: every node's aspect ratio stays under consecutive_ratio_cap.
    """
    kind, _, _, ws, hs = layout.nodes
    left_id, right_id = layout.children
    count = len(kind)
    area = [w * h for w, h in zip(ws, hs)]
    amax = [0.0] * count
    for i in range(count - 1, -1, -1):
        if left_id[i] < 0:
            amax[i] = inst.areas[kind[i]]
        else:
            amax[i] = max(amax[left_id[i]], amax[right_id[i]])

    cap = consecutive_ratio_cap(inst) + 1e-9
    ar_ok = all(aspect(w, h) <= cap for w, h in zip(ws, hs))

    balance_ok = True
    for i in range(count):
        if left_id[i] >= 0:
            eps = 1e-9 * area[i]
            if area[left_id[i]] < area[i] / 3.0 - eps:
                balance_ok = False
            if amax[i] <= (2.0 / 3.0) * area[i] and area[right_id[i]] < area[i] / 3.0 - eps:
                balance_ok = False
    return balance_ok, ar_ok


def parent_ids(layout):
    """parent id per preorder node id of the layout's tree, -1 for the root."""
    left_id, right_id = layout.children
    parents = [-1] * len(left_id)
    for i in range(len(left_id)):
        if left_id[i] >= 0:
            parents[left_id[i]] = i
            parents[right_id[i]] = i
    return parents


def dense_validate_layout(inst, layout):
    """Reference for :func:`rectpart.validate_layout`: the same checks, with
    the overlap test done pairwise on n x n arrays (O(n^2) time and memory)."""
    n = inst.n
    if len(layout.rects) != n:
        raise ValueError(f"layout carries {len(layout.rects)} rects for {n} areas")
    c = inst.container
    x = np.fromiter((r.x for r in layout.rects), dtype=float, count=n)
    y = np.fromiter((r.y for r in layout.rects), dtype=float, count=n)
    w = np.fromiter((r.w for r in layout.rects), dtype=float, count=n)
    h = np.fromiter((r.h for r in layout.rects), dtype=float, count=n)
    target = np.asarray(inst.areas, dtype=float)

    areas = w * h
    bad = np.nonzero(np.abs(areas - target) > REL_TOL * target)[0]

    total_ok = abs(math.fsum(float(a) for a in areas) - c.area) <= REL_TOL * c.area

    x2 = x + w
    y2 = y + h
    ox = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x[:, None], x[None, :])
    oy = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y[:, None], y[None, :])
    inter = np.clip(ox, 0.0, None) * np.clip(oy, 0.0, None)
    iu, ju = np.triu_indices(n, k=1)
    hot = inter[iu, ju] > OVERLAP_REL_TOL * c.area
    pairs = tuple((int(i), int(j)) for i, j in zip(iu[hot], ju[hot]))

    eps = REL_TOL * max(c.w, c.h)
    out = np.nonzero(
        (x < c.x - eps) | (y < c.y - eps) | (x2 > c.x + c.w + eps) | (y2 > c.y + c.h + eps)
    )[0]

    return LayoutDiagnostics(
        area_ok=bad.size == 0,
        bad_areas=tuple(int(i) for i in bad),
        total_ok=total_ok,
        overlap_ok=len(pairs) == 0,
        overlaps=pairs,
        containment_ok=out.size == 0,
        escapees=tuple(int(i) for i in out),
    )


#: Coordinates for hand-built layouts: zeros of both signs, which compare
#: equal but print apart, the smallest subnormal and near-overflow extents.
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300, -1e300, 1.7976931348623157e308
)

#: Containers at the origin with signed zeros, at an offset, and with
#: extents near the smallest subnormal and near 1e300.
CONTAINERS = (
    Rect(-0.0, -0.0, 1, 1),
    Rect(3.25, -7.5, 2, 1),
    Rect(0, 0, 1e300, 1e-300),
    Rect(0, 0, 5e-324, 1e300),
)


@st.composite
def column_layouts(draw, tree=st.booleans()):
    """A layout built from columns: a random cut tree over 1..12 leaves (or
    flat panes) whose finite coordinates and positive extents come from
    small pools, so that values repeat, print alike or apart, and edges
    meet."""
    n = draw(st.integers(1, 12))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    at = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), finite), min_size=1, max_size=6))
    extent = draw(st.lists(
        st.one_of(
            st.sampled_from([v for v in SPECIAL_FLOATS if v > 0]), finite.filter(lambda v: v > 0)
        ),
        min_size=1, max_size=6,
    ))
    def coords(m):
        return tuple(
            tuple(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)))
            for pool in (at, at, extent, extent)
        )
    if not draw(tree):
        return Layout.of_columns(n, None, coords(n))
    kind: list = []
    leaves = iter(draw(st.permutations(range(n))))
    sizes = [n]  # leaves still to place under each pending subtree, preorder
    while sizes:
        size = sizes.pop()
        if size == 1:
            kind.append(next(leaves))
        else:
            kind.append(draw(st.sampled_from(Cut)))
            left = draw(st.integers(1, size - 1))
            sizes += [size - left, left]
    return Layout.of_columns(n, (tuple(kind), *coords(len(kind))))


def reference_reduce(step, sorted_areas: Sequence[float], stats: ReductionStats | None):
    """Reference for ``rectpart.dc._reduce``: each step carries every
    entry's members as a sorted tuple."""
    # Both rules reduce here; each step must shorten both lists by at least one.
    if len(sorted_areas) < 2:
        raise ValueError("need at least two areas to bipartition")
    if stats is not None:
        stats.pairwise_equivalent += len(sorted_areas) - 2
    values = list(sorted_areas)
    members: list[tuple[int, ...]] = [(i,) for i in range(len(values))]
    while len(values) > 2:
        values, members = step(values, members)
        if stats is not None:
            stats.iterations += 1
    return Block(members[0], values[0]), Block(members[1], values[1])


def _insertion_point(values: list[float], value: float) -> int:
    # Position in a non-increasing list; ties land after the existing equal
    # entries, so older blocks stay first. The ascending view costs a full
    # copy but keeps the search itself in C.
    return len(values) - bisect.bisect_left(values[::-1], value)


def reference_merge_two_smallest(values: list[float], members: list[tuple[int, ...]]):
    """Reference for the pairwise rule's fold (``rectpart.dc._two_smallest``
    and ``_fold``) on member tuples."""
    value = values[-2] + values[-1]
    merged = tuple(sorted(members[-2] + members[-1]))
    rest_v = values[:-2]
    rest_m = members[:-2]
    pos = _insertion_point(rest_v, value)
    return rest_v[:pos] + [value] + rest_v[pos:], rest_m[:pos] + [merged] + rest_m[pos:]


def reference_fold_below_mean(values: list[float], members: list[tuple[int, ...]]):
    """Reference for the mean rule's fold (``rectpart.mdc._below_mean`` and
    ``rectpart.dc._fold``) on member tuples."""
    k = len(values)
    tau = math.fsum(values) / k
    # The head is never below the exact mean, but the rounded mean of an
    # all-equal list can exceed it (three 0.2s average 0.20000000000000004),
    # so p = 0 counts as a missing minorant.
    p = _insertion_point(values, tau)
    m = p + 1 if 0 < p < k - 1 else (k + 1) // 2
    value = math.fsum(values[m - 1 :])
    merged = tuple(sorted(chain.from_iterable(members[m - 1 :])))
    pos = _insertion_point(values[: m - 1], value)
    return (
        [*values[:pos], value, *values[pos : m - 1]],
        [*members[:pos], merged, *members[pos : m - 1]],
    )


def _exact_two_smallest(values: list[Fraction]) -> list[tuple[tuple[int, ...], Fraction]]:
    # The pairwise rule on exact values: the last two entries merge, and the
    # sum goes after every entry at least as large, as in dc's fold.
    entries = [((i,), v) for i, v in enumerate(values)]
    while len(entries) > 2:
        (m1, v1), (m2, v2) = entries[-2:]
        merged = (tuple(sorted(m1 + m2)), v1 + v2)
        del entries[-2:]
        pos = sum(1 for _, v in entries if v >= merged[1])
        entries.insert(pos, merged)
    return entries


def exact_dc(inst) -> tuple[tuple, Fraction]:
    """dc decided in exact arithmetic: the preorder kind column and the exact
    total half-perimeter of ``rectpart.partition_dc``'s algorithm run on the
    rationals of the input doubles (ROADMAP item 17). It keeps the library's
    stable non-increasing sort, its tie rule (a merged sum goes after equal
    entries), its cut rule (vertical when the pane is wider than tall) and
    its remainder piece, but no sum, quotient or comparison rounds."""
    areas = [Fraction(a) for a in inst.areas]
    c = inst.container
    kind: list = []
    total = Fraction(0)
    stack = [(Fraction(c.w), Fraction(c.h), sorted(range(len(areas)), key=lambda i: -areas[i]))]
    while stack:
        w, h, indices = stack.pop()
        if len(indices) == 1:
            kind.append(indices[0])
            total += w + h
            continue
        (m1, a1), (m2, _) = _exact_two_smallest([areas[i] for i in indices])
        cut = Cut.VERTICAL if w > h else Cut.HORIZONTAL
        kind.append(cut)
        if cut is Cut.VERTICAL:
            first, second = (a1 / h, h), (w - a1 / h, h)
        else:
            first, second = (w, a1 / w), (w, h - a1 / w)
        stack.append((*second, [indices[i] for i in m2]))
        stack.append((*first, [indices[i] for i in m1]))
    return tuple(kind), total


def _dumps(doc: Any) -> bytes:
    return (json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")


def _pane_obj(x: float, y: float, w: float, h: float) -> dict:
    return {"x": x, "y": y, "width": w, "height": h}


def reference_serialize_layout(layout: Layout, *, include_tree: bool = False) -> bytes:
    """Reference for :func:`rectpart.serialize_layout`: the document built as
    dicts and written by ``json.dumps``."""
    doc: dict[str, Any] = {
        "version": LAYOUT_VERSION,
        "rects": [
            {"index": i, "x": x, "y": y, "width": w, "height": h}
            for i, (x, y, w, h) in enumerate(zip(*layout.panes))
        ],
        "totalHalfPerimeter": layout.total_half_perimeter(),
    }
    if include_tree and layout.nodes is not None:
        doc["tree"] = [
            {"index": k, "rect": _pane_obj(*pane)} if isinstance(k, int)
            else {"cut": k.value, "rect": _pane_obj(*pane)}
            for k, *pane in zip(*layout.nodes)
        ]
    return _dumps(doc)


def reference_serialize_instance(inst: Instance) -> bytes:
    """Reference for :func:`rectpart.serialize_instance`: the document built
    as dicts and written by ``json.dumps`` with two-space indentation."""
    doc = {
        "container": {"width": inst.container.w, "height": inst.container.h},
        "areas": list(inst.areas),
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _ratio(r: float) -> float | None:
    return r if r != math.inf else None


def reference_report_to_json(rep: QualityReport) -> bytes:
    """Reference for :func:`rectpart.report_to_json`: the document built as
    dicts and written by ``json.dumps``."""
    doc = {
        "totalHalfPerimeter": rep.total_half_perimeter,
        "naiveLowerBound": rep.naive_lower_bound,
        "forcedAwareLowerBound": rep.forced_aware_lower_bound,
        "approxRatio": rep.approx_ratio,
        "maxAspectRatio": _ratio(rep.max_aspect_ratio),
        "perRect": [
            {
                "index": p.index,
                "halfPerimeter": p.half_perimeter,
                "aspectRatio": _ratio(p.aspect_ratio),
                "isForced": p.forced,
            }
            for p in rep.per_rect
        ],
    }
    return _dumps(doc)


def _long_edges(x: float, y: float, w: float, h: float) -> list[tuple[str, float, float, float]]:
    """Long edges of a pane as (orientation, line coordinate, span start, span end).

    Horizontal edges for wide panes, vertical for tall ones, all four for
    exact squares.
    """
    horiz = [("h", y, x, x + w), ("h", y + h, x, x + w)]
    vert = [("v", x, y, y + h), ("v", x + w, y, y + h)]
    if w > h:
        return horiz
    if h > w:
        return vert
    return horiz + vert


def reference_detect_forced(layout: Layout, areas: Sequence[float]) -> set[int]:
    """Reference for :func:`rectpart.detect_forced`: the same closure over a
    candidate index built from per-node edge lists."""
    if layout.nodes is None:
        raise ValueError("the layout carries no cut tree")
    kind, xs, ys, ws, hs = layout.nodes
    left_id, right_id = layout.children
    n_nodes = len(kind)

    a_max = [0.0] * n_nodes
    for i in range(n_nodes - 1, -1, -1):
        if left_id[i] < 0:
            if not 0 <= kind[i] < len(areas):
                raise ValueError(f"leaf index {kind[i]} outside the area list")
            a_max[i] = float(areas[kind[i]])
        else:
            a_max[i] = max(a_max[left_id[i]], a_max[right_id[i]])

    tol = REL_TOL * max(ws[0], hs[0])

    # All candidate long edges, bucketed by orientation and sorted by their
    # supporting line so a forced edge only scans nearby candidates.
    edges_of = list(map(_long_edges, xs, ys, ws, hs))
    cand: dict[str, list[tuple[float, float, float, int, int]]] = {"h": [], "v": []}
    for i, edges in enumerate(edges_of):
        for slot, (orient, c, lo, hi) in enumerate(edges):
            cand[orient].append((c, lo, hi, i, slot))
    for orient in cand:
        cand[orient].sort(key=lambda t: t[0])
    coords = {orient: [t[0] for t in cand[orient]] for orient in cand}

    covered = [0] * n_nodes
    forced = [False] * n_nodes
    queue: list[int] = []

    def force(i: int) -> None:
        if not forced[i]:
            forced[i] = True
            queue.append(i)

    force(0)
    while queue:
        f = queue.pop()
        if left_id[f] >= 0 and a_max[f] >= 0.5 * (ws[f] * hs[f]) * (1.0 - 1e-12):
            force(right_id[f])
        by_f: dict[int, int] = {}  # the bits that f alone covers, per candidate
        for orient, c, lo, hi in edges_of[f]:
            start = bisect.bisect_left(coords[orient], c - tol)
            stop = bisect.bisect_right(coords[orient], c + tol)
            for _, clo, chi, j, slot in cand[orient][start:stop]:
                if not forced[j] and clo >= lo - tol and chi <= hi + tol:
                    by_f[j] = by_f.get(j, 0) | 1 << slot
        for j, bits in by_f.items():
            bits = covered[j] = covered[j] | bits
            if bits & 0b0011 == 0b0011 or bits & 0b1100 == 0b1100:
                force(j)
    return {i for i in range(n_nodes) if forced[i]}
