"""Axis-aligned rectangles, guillotine cut trees, and layout validation.

Coordinates use the mathematical convention: y grows upward, so the "top"
piece of a horizontal cut is the one with the larger y. The SVG renderer
flips the axis at the output boundary, nothing else does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

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
        for name in ("x", "y", "w", "h"):
            object.__setattr__(self, name, float(getattr(self, name)))
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


def split_rect(q: Rect, a1: float) -> tuple[Rect, Rect]:
    """Cut ``q`` into two pieces, the first of which has area ``a1``.

    A wide rectangle (w > h) gets a vertical cut with the first piece on the
    left; otherwise the cut is horizontal and the first piece is on top.
    The two pieces tile ``q`` exactly: the second piece takes whatever extent
    remains, so no coordinate drift accumulates.
    """
    if not 0.0 < a1 < q.area:
        raise ValueError(f"first-piece area {a1} must lie strictly inside (0, {q.area})")
    if q.w > q.h:
        w1 = a1 / q.h
        return (
            Rect(q.x, q.y, w1, q.h),
            Rect(q.x + w1, q.y, q.w - w1, q.h),
        )
    h1 = a1 / q.w
    return (
        Rect(q.x, q.y + (q.h - h1), q.w, h1),
        Rect(q.x, q.y, q.w, q.h - h1),
    )


class Cut(Enum):
    """Orientation of a guillotine cut."""

    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


@dataclass(frozen=True)
class Leaf:
    """Terminal pane of a cut tree, tagged with the index of its target area."""

    rect: Rect
    area_index: int


@dataclass(frozen=True)
class Internal:
    """One guillotine cut. ``left`` is the left piece of a vertical cut or
    the top piece of a horizontal one; the children tile ``rect`` exactly."""

    rect: Rect
    cut: Cut
    left: "LayoutTree"
    right: "LayoutTree"


LayoutTree = Union[Leaf, Internal]


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
        object.__setattr__(self, "areas", tuple(float(a) for a in self.areas))
        if len(self.areas) == 0:
            raise ValueError("at least one target area is required")
        for i, a in enumerate(self.areas):
            if not (math.isfinite(a) and a > 0):
                raise ValueError(f"area #{i} must be positive and finite, got {a!r}")
        total = math.fsum(self.areas)
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
    vals = tuple(float(a) for a in areas)
    if normalize:
        if not vals or any(not (math.isfinite(a) and a > 0) for a in vals):
            raise ValueError("normalization needs a non-empty list of positive finite areas")
        total = math.fsum(vals)
        vals = tuple(a / total * container.area for a in vals)
    return Instance(container, vals)


def _node_key(node: LayoutTree) -> tuple:
    if isinstance(node, Leaf):
        return (Leaf, node.rect, node.area_index)
    return (Internal, node.rect, node.cut)


@dataclass(frozen=True, eq=False)
class Layout:
    """Placed panes, one per target area and in the same order, plus the cut
    tree that produced them. ``tree`` is None for layouts loaded from flat
    files that carried no tree.

    Two layouts are equal when their rects are equal and their trees list
    equal nodes (kind, rect, and cut or area index) in preorder; equality and
    hashing walk the tree iteratively, so deep chains compare fine."""

    rects: tuple[Rect, ...]
    tree: LayoutTree | None

    def _tree_key(self) -> tuple | None:
        return None if self.tree is None else tuple(map(_node_key, preorder(self.tree)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self.rects == other.rects and self._tree_key() == other._tree_key()

    def __hash__(self) -> int:
        return hash((self.rects, self._tree_key()))

    def __post_init__(self) -> None:
        if self.tree is not None:
            for leaf in iter_leaves(self.tree):
                if not 0 <= leaf.area_index < len(self.rects):
                    raise ValueError(f"leaf index {leaf.area_index} out of range")
                if self.rects[leaf.area_index] != leaf.rect:
                    raise ValueError(f"rects[{leaf.area_index}] disagrees with its leaf")

    @classmethod
    def from_tree(cls, tree: LayoutTree, n: int) -> "Layout":
        slots: list[Rect | None] = [None] * n
        for leaf in iter_leaves(tree):
            if not 0 <= leaf.area_index < n:
                raise ValueError(f"leaf index {leaf.area_index} out of range for n={n}")
            if slots[leaf.area_index] is not None:
                raise ValueError(f"area index {leaf.area_index} appears in two leaves")
            slots[leaf.area_index] = leaf.rect
        if any(r is None for r in slots):
            missing = [i for i, r in enumerate(slots) if r is None]
            raise ValueError(f"tree has no leaf for area indices {missing}")
        return cls(tuple(slots), tree)  # type: ignore[arg-type]

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
