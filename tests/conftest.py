"""Shared test helpers: layout-tree walkers and a dense validation reference."""

from __future__ import annotations

import math

import numpy as np

from rectpart import Cut, GenSpec, Internal, Layout, Leaf, Rect, aspect_ratio, generate
from rectpart.bounds import _index_tree
from rectpart.geometry import OVERLAP_REL_TOL, REL_TOL, LayoutDiagnostics


def geometric_chain(n=600):
    """Geometric q=0.5 instance, whose dc layout is a chain about n cuts deep."""
    return generate(GenSpec(n=n, family="geometric", seed=7, container=Rect(0, 0, 1, 1), q=0.5))


def strip_chain(n):
    """n unit squares in a 1-high strip, cut off the left one at a time: a
    tree n - 1 cuts deep, built bottom-up without recursion."""
    tree = Leaf(Rect(n - 1, 0, 1, 1), n - 1)
    for i in range(n - 2, -1, -1):
        tree = Internal(Rect(i, 0, n - i, 1), Cut.VERTICAL, Leaf(Rect(i, 0, 1, 1), i), tree)
    return Layout.from_tree(tree, n)


def consecutive_ratio_cap(inst):
    """Aspect-ratio cap every tree node must respect: the container's own
    ratio, 3, or one plus the largest consecutive ratio of the sorted areas."""
    dec = sorted(inst.areas, reverse=True)
    max_ratio = max((dec[i] / dec[i + 1] for i in range(len(dec) - 1)), default=1.0)
    return max(aspect_ratio(inst.container), 3.0, 1.0 + max_ratio)


def node_invariants(inst, layout):
    """(balance_ok, ar_ok) checked at every node of the layout tree.

    balance: the left child of every cut holds at least a third of its
    parent's area, and so does the right child whenever no single target
    area claims more than two thirds of the parent.
    ar: every node's aspect ratio stays under consecutive_ratio_cap.
    """
    nodes, left_id, right_id = _index_tree(layout.tree)
    count = len(nodes)
    amax = [0.0] * count
    for i in range(count - 1, -1, -1):
        node = nodes[i]
        if isinstance(node, Leaf):
            amax[i] = inst.areas[node.area_index]
        else:
            amax[i] = max(amax[left_id[i]], amax[right_id[i]])

    cap = consecutive_ratio_cap(inst) + 1e-9
    ar_ok = all(aspect_ratio(node.rect) <= cap for node in nodes)

    balance_ok = True
    for i, node in enumerate(nodes):
        if isinstance(node, Internal):
            area = node.rect.area
            eps = 1e-9 * area
            if nodes[left_id[i]].rect.area < area / 3.0 - eps:
                balance_ok = False
            if amax[i] <= (2.0 / 3.0) * area and nodes[right_id[i]].rect.area < area / 3.0 - eps:
                balance_ok = False
    return balance_ok, ar_ok


def parent_ids(tree):
    """parent id per preorder node id, -1 for the root."""
    nodes, left_id, right_id = _index_tree(tree)
    parents = [-1] * len(nodes)
    for i in range(len(nodes)):
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
