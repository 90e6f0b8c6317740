"""Axis-aligned rectangles, guillotine cut trees, and layout validation.

Coordinates use the mathematical convention: y grows upward, so the "top"
piece of a horizontal cut is the one with the larger y. The SVG renderer
flips the axis at the output boundary, nothing else does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence, Union

import numpy as np

#: Relative tolerance for all area bookkeeping (per-pane and totals).
REL_TOL = 1e-9

#: Allowed pairwise interior overlap, relative to the container area.
OVERLAP_REL_TOL = 1e-12

#: Candidate pairs the overlap sweep expands and tests at a time.
_SWEEP_CHUNK = 1 << 14


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by its lower-left corner and extents."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        try:
            for name in ("x", "y", "w", "h"):
                object.__setattr__(self, name, float(getattr(self, name)))
        except OverflowError:
            raise ValueError(f"rectangle field {name} lies beyond the largest double") from None
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w, self.h)):
            raise ValueError(f"rectangle fields must be finite: {self!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"rectangle extents must be positive: w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h


def half_perimeter(r: Rect) -> float:
    """Width plus height, the per-pane cost the partitioners minimize."""
    return r.w + r.h


def aspect_ratio(r: Rect) -> float:
    """max(w/h, h/w); always >= 1, exactly 1 for a square."""
    return max(r.w / r.h, r.h / r.w)


class Cut(Enum):
    """Orientation of a guillotine cut."""

    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


def cut_for(q: Rect) -> Cut:
    """The partitioners' cut for ``q``: vertical when it is wider than tall,
    horizontal otherwise."""
    return Cut.VERTICAL if q.w > q.h else Cut.HORIZONTAL


def cut_extents(
    w: float, h: float, cut: Cut, a1: float
) -> tuple[float, float, float, float] | None:
    """Extents ``(w1, h1, w2, h2)`` of the two pieces of :func:`cut_rect` on a
    ``w`` x ``h`` pane, or None when ``a1`` lies outside (0, w*h) or rounding
    leaves a piece without positive extent.

    The second piece takes whatever extent remains, so the pieces tile the
    pane exactly and no coordinate drift accumulates.
    """
    if not 0.0 < a1 < w * h:
        return None
    if cut is Cut.VERTICAL:
        w1 = a1 / h
        w2 = w - w1
        return (w1, h, w2, h) if w1 > 0.0 and w2 > 0.0 else None
    h1 = a1 / w
    h2 = h - h1
    return (w, h1, w, h2) if h1 > 0.0 and h2 > 0.0 else None


def cut_rect(q: Rect, cut: Cut, a1: float) -> tuple[Rect, Rect]:
    """Cut ``q`` along ``cut`` into two pieces, the first of which has area
    ``a1``: the left piece of a vertical cut, the top piece of a horizontal one.
    The pieces take the extents that :func:`cut_extents` gives; where it
    gives None, raises ValueError.
    """
    ext = cut_extents(q.w, q.h, cut, a1)
    if ext is None:
        raise ValueError(
            f"a {cut.value} cut of {q} at first-piece area {a1} leaves a piece without extent"
        )
    w1, h1, w2, h2 = ext
    if cut is Cut.VERTICAL:
        return Rect(q.x, q.y, w1, h1), Rect(q.x + w1, q.y, w2, h2)
    return Rect(q.x, q.y + h2, w1, h1), Rect(q.x, q.y, w2, h2)


def split_rect(q: Rect, a1: float) -> tuple[Rect, Rect]:
    """:func:`cut_rect` along :func:`cut_for`; the first piece has area ``a1``."""
    return cut_rect(q, cut_for(q), a1)


@dataclass(frozen=True)
class Leaf:
    """Terminal pane of a cut tree, tagged with the index of its target area."""

    rect: Rect
    area_index: int


@dataclass(frozen=True)
class Internal:
    """One guillotine cut. ``left`` is the left piece of a vertical cut or
    the top piece of a horizontal one; the children tile ``rect`` exactly.
    A tree's value is its preorder listing (leaves, and cuts as ``(rect,
    cut)``): equality, hashing, pickling and copying go through it, so none
    of them recurses. The repr omits the children."""

    rect: Rect
    cut: Cut
    left: "LayoutTree" = field(repr=False)
    right: "LayoutTree" = field(repr=False)

    def _listing(self) -> tuple[PreorderNode, ...]:
        return tuple(n if isinstance(n, Leaf) else (n.rect, n.cut) for n in preorder(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Internal):
            return NotImplemented
        return self._listing() == other._listing()

    def __hash__(self) -> int:
        return hash(self._listing())

    def __reduce__(self):
        return tree_from_preorder, (self._listing(),)


LayoutTree = Union[Leaf, Internal]

#: A cut-tree node listed in preorder before assembly: a leaf, or an
#: internal node's (rect, cut) pair.
PreorderNode = Union[Leaf, tuple[Rect, Cut]]


def child_ids(nodes: Sequence[PreorderNode | Internal]) -> tuple[list[int], list[int]]:
    """Left and right child ids of each node in a preorder listing, -1 for a
    :class:`Leaf` (any other node is internal). Raises ValueError unless the
    listing forms exactly one tree."""
    left = [-1] * len(nodes)
    right = [-1] * len(nodes)
    stack: list[int] = []
    # Scanning backwards completes both subtrees of a node, left on top,
    # before the node itself is reached.
    for i in range(len(nodes) - 1, -1, -1):
        if not isinstance(nodes[i], Leaf):
            if len(stack) < 2:
                raise ValueError(f"internal tree node {i} lacks a child")
            left[i] = stack.pop()
            right[i] = stack.pop()
        stack.append(i)
    if len(stack) != 1:
        raise ValueError(f"tree nodes form {len(stack)} trees instead of one")
    return left, right


def tree_from_preorder(nodes: Sequence[PreorderNode]) -> LayoutTree:
    """The cut tree listed by ``nodes``: each parent, then its left subtree,
    then its right subtree."""
    left, right = child_ids(nodes)
    built: list = list(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        if left[i] >= 0:
            built[i] = Internal(*nodes[i], built[left[i]], built[right[i]])
    return built[0]


def preorder(tree: LayoutTree) -> list[LayoutTree]:
    """All nodes of ``tree``, each parent before its children, root first."""
    out: list[LayoutTree] = []
    stack: list[LayoutTree] = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Internal):
            stack.append(node.right)
            stack.append(node.left)
    return out


def iter_leaves(tree: LayoutTree) -> Iterator[Leaf]:
    for node in preorder(tree):
        if isinstance(node, Leaf):
            yield node


def _area_floats(areas) -> tuple[float, ...]:
    """``areas`` as floats; ValueError when one lies beyond the largest double."""
    try:
        return tuple(float(a) for a in areas)
    except OverflowError:
        raise ValueError("an area lies beyond the largest double") from None


def _area_sum(areas: Sequence[float]) -> float:
    """Exact sum of ``areas``; ValueError when it overflows a double."""
    try:
        return math.fsum(areas)
    except OverflowError:
        raise ValueError("the areas sum beyond the largest double") from None


@dataclass(frozen=True)
class Instance:
    """A container rectangle plus the list of target areas to carve from it.

    Construction is strict: the areas must already sum to the container area
    within ``REL_TOL``. Use :func:`make_instance` with ``normalize=True`` to
    rescale sloppy inputs first.
    """

    container: Rect
    areas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "areas", _area_floats(self.areas))
        if len(self.areas) == 0:
            raise ValueError("at least one target area is required")
        if not math.isfinite(self.container.area):
            raise ValueError(f"the container's area overflows: {self.container!r}")
        for i, a in enumerate(self.areas):
            if not (math.isfinite(a) and a > 0):
                raise ValueError(f"area #{i} must be positive and finite, got {a!r}")
        total = _area_sum(self.areas)
        if abs(total - self.container.area) > REL_TOL * self.container.area:
            raise ValueError(
                f"areas sum to {total} but the container holds {self.container.area}; "
                "rescale with make_instance(..., normalize=True)"
            )

    @property
    def n(self) -> int:
        return len(self.areas)


def make_instance(container: Rect, areas, *, normalize: bool = False) -> Instance:
    """Build an :class:`Instance`, optionally rescaling the areas so they
    fill the container exactly."""
    vals = _area_floats(areas)
    if normalize:
        if not vals or any(not (math.isfinite(a) and a > 0) for a in vals):
            raise ValueError("normalization needs a non-empty list of positive finite areas")
        total = _area_sum(vals)
        vals = tuple(a / total * container.area for a in vals)
    return Instance(container, vals)


@dataclass(frozen=True)
class Layout:
    """Placed panes, one per target area and in the same order, plus the cut
    tree that produced them. ``tree`` is None for layouts loaded from flat
    files that carried no tree.

    Two layouts are equal when their rects are equal and their trees list
    equal nodes (kind, rect, and cut or area index) in preorder, the value
    of a tree (see :class:`Internal`); so layouts of any depth compare,
    hash, print, copy and pickle."""

    rects: tuple[Rect, ...]
    tree: LayoutTree | None

    def __post_init__(self) -> None:
        # Coverage before agreement: from_tree keeps the last of two leaves
        # with one index, so the first would otherwise read as a disagreement.
        if self.tree is None:
            return
        n = len(self.rects)
        leaves = list(iter_leaves(self.tree))
        seen = [False] * n
        for leaf in leaves:
            if not 0 <= leaf.area_index < n:
                raise ValueError(f"leaf index {leaf.area_index} out of range for n={n}")
            if seen[leaf.area_index]:
                raise ValueError(f"area index {leaf.area_index} appears in two leaves")
            seen[leaf.area_index] = True
        if not all(seen):
            missing = [i for i, hit in enumerate(seen) if not hit]
            raise ValueError(f"tree has no leaf for area indices {missing}")
        for leaf in leaves:
            if self.rects[leaf.area_index] != leaf.rect:
                raise ValueError(f"rects[{leaf.area_index}] disagrees with its leaf")

    @classmethod
    def from_tree(cls, tree: LayoutTree, n: int) -> "Layout":
        """The layout of the tree's leaves; raises ValueError unless they cover 0..n-1 once."""
        rects = {leaf.area_index: leaf.rect for leaf in iter_leaves(tree)}
        return cls(tuple(rects.get(i) for i in range(n)), tree)  # type: ignore[arg-type]

    def total_half_perimeter(self) -> float:
        return math.fsum(r.w + r.h for r in self.rects)


@dataclass(frozen=True)
class LayoutDiagnostics:
    """Per-check outcome of :func:`validate_layout` with offending indices."""

    area_ok: bool
    bad_areas: tuple[int, ...]
    total_ok: bool
    overlap_ok: bool
    overlaps: tuple[tuple[int, int], ...]
    containment_ok: bool
    escapees: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.area_ok and self.total_ok and self.overlap_ok and self.containment_ok


def _sweep_candidates(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable order of the panes by ``lo``, and each sorted pane's number of
    later panes whose ``lo`` lies below its ``hi``."""
    order = np.argsort(lo, kind="stable")
    lo_sorted = lo[order]
    stop = np.searchsorted(lo_sorted, hi[order], side="left")
    return order, np.clip(stop - np.arange(1, lo.size + 1), 0, None)


def _overlapping_pairs(
    x: np.ndarray, y: np.ndarray, x2: np.ndarray, y2: np.ndarray, limit: float
) -> tuple[tuple[int, int], ...]:
    """Pairs ``(i, j)``, ``i < j`` in lexicographic order, whose intersection
    area exceeds ``limit``.

    A pair can only exceed ``limit >= 0`` when the two extents overlap on
    both axes, so sweeping one axis suffices: with the panes sorted by their
    low edge, each pane's candidates are the later panes that start before it
    ends. The axis with fewer candidates is swept, which keeps strips and
    spirals (quadratic on one axis) cheap on the other. Candidates are
    expanded ``_SWEEP_CHUNK`` at a time and kept when they also overlap on
    the cross axis; the survivors are tested with the pairwise formula
    ``clip(min(x2) - max(x)) * clip(min(y2) - max(y)) > limit``, so each
    decision is the same float computation as a full n x n test.
    """
    order, cnt = _sweep_candidates(x, x2)
    cross_lo, cross_hi = y, y2
    order_y, cnt_y = _sweep_candidates(y, y2)
    if cnt_y.sum() < cnt.sum():
        order, cnt = order_y, cnt_y
        cross_lo, cross_hi = x, x2
    cross_lo = cross_lo[order]
    cross_hi = cross_hi[order]
    ends = np.cumsum(cnt)
    starts = ends - cnt
    hot_a: list[np.ndarray] = []
    hot_b: list[np.ndarray] = []
    p0, n = 0, cnt.size
    while p0 < n:
        # Sorted positions [p0, p1) hold at most _SWEEP_CHUNK candidates,
        # unless position p0 alone holds more (it then forms its own chunk).
        p1 = max(int(np.searchsorted(ends, starts[p0] + _SWEEP_CHUNK, side="right")), p0 + 1)
        span = cnt[p0:p1]
        pos = np.repeat(np.arange(p0, p1), span)
        partner = pos + 1 + np.arange(pos.size) - np.repeat(starts[p0:p1] - starts[p0], span)
        meet = (
            np.minimum(cross_hi[pos], cross_hi[partner])
            - np.maximum(cross_lo[pos], cross_lo[partner])
            > 0.0
        )
        a = order[pos[meet]]
        b = order[partner[meet]]
        ox = np.minimum(x2[a], x2[b]) - np.maximum(x[a], x[b])
        oy = np.minimum(y2[a], y2[b]) - np.maximum(y[a], y[b])
        hot = np.clip(ox, 0.0, None) * np.clip(oy, 0.0, None) > limit
        hot_a.append(a[hot])
        hot_b.append(b[hot])
        p0 = p1
    a = np.concatenate(hot_a)
    b = np.concatenate(hot_b)
    i = np.minimum(a, b)
    j = np.maximum(a, b)
    rank = np.lexsort((j, i))
    return tuple(zip(i[rank].tolist(), j[rank].tolist()))


def validate_layout(inst: Instance, layout: Layout) -> LayoutDiagnostics:
    """Check a layout against its instance.

    Three independent checks: every pane area matches its target within
    ``REL_TOL`` (relative); the panes tile the container (total area matches
    and no pair overlaps by more than ``OVERLAP_REL_TOL`` of the container
    area); every pane stays inside the container. Failures are reported,
    never raised.

    The overlap check sorts the panes along one axis and tests only pairs
    whose extents meet on it (see :func:`_overlapping_pairs`), so it takes
    O(n log n + k) time for k candidate pairs and O(n) memory beyond a
    fixed-size chunk. ``overlaps`` lists the offending pairs ``(i, j)``,
    ``i < j``, in lexicographic order.
    """
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
    pairs = _overlapping_pairs(x, y, x2, y2, OVERLAP_REL_TOL * c.area)

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
