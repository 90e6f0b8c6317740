"""Axis-aligned rectangles, guillotine cut trees, and layout validation.

Coordinates use the mathematical convention: y grows upward, so the "top"
piece of a horizontal cut is the one with the larger y. The SVG renderer
flips the axis at the output boundary, nothing else does.

Everything here, validation included, runs on Python floats and lists; the
module needs no numpy.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Sequence, Union

#: Relative tolerance for all area bookkeeping (per-pane and totals).
REL_TOL = 1e-9

#: Allowed pairwise interior overlap, relative to the container area.
OVERLAP_REL_TOL = 1e-12


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by its lower-left corner and extents."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        # Each refusal names the first bad field, in the order x, y, w, h.
        for name in ("x", "y", "w", "h"):
            try:
                value = float(getattr(self, name))
            except OverflowError:
                raise ValueError(f"rectangle field {name} lies beyond the largest double") from None
            if not math.isfinite(value):
                raise ValueError(f"rectangle field {name} must be finite, got {value}")
            if value <= 0 and name in ("w", "h"):
                raise ValueError(f"rectangle field {name} must be positive, got {value}")
            object.__setattr__(self, name, value)

    @property
    def area(self) -> float:
        return self.w * self.h


class Cut(Enum):
    """Orientation of a guillotine cut."""

    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


def cut_across(w: float, h: float) -> Cut:
    """The partitioners' cut of a ``w`` x ``h`` pane: vertical when it is
    wider than tall, horizontal otherwise."""
    return Cut.VERTICAL if w > h else Cut.HORIZONTAL


def cut_extents(
    w: float, h: float, cut: Cut, a1: float
) -> tuple[float, float, float, float] | None:
    """Extents ``(w1, h1, w2, h2)`` of the two pieces of :func:`cut_pane` on a
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


Pane = tuple[float, float, float, float]


def cut_pane(x: float, y: float, w: float, h: float, cut: Cut, a1: float) -> tuple[Pane, Pane]:
    """Cut the pane ``(x, y, w, h)`` along ``cut`` into two panes, the first
    of which has area ``a1``: the left piece of a vertical cut, the top piece
    of a horizontal one. The pieces take the extents that
    :func:`cut_extents` gives; where it gives None, raises ValueError.
    """
    ext = cut_extents(w, h, cut, a1)
    if ext is None:
        raise ValueError(
            f"a {cut.value} cut of Rect(x={x!r}, y={y!r}, w={w!r}, h={h!r}) "
            f"at first-piece area {a1} leaves a piece without extent"
        )
    return _pieces(x, y, w, h, cut, ext[0 if cut is Cut.VERTICAL else 1])


def _pieces(x: float, y: float, w: float, h: float, cut: Cut, e: float) -> tuple[Pane, Pane]:
    """The pieces of a ``cut`` of the pane ``(x, y, w, h)`` whose first, left or
    top, has extent ``e`` across it: the one cut rule of placer and reader."""
    if cut is Cut.VERTICAL:
        return (x, y, e, h), (x + e, y, w - e, h)
    return (x, y + (h - e), w, e), (x, y, w, h - e)


def check_cuts(layout: Layout) -> None:
    """ValueError at the first cut of ``layout``'s tree, if any, whose children
    are not the :func:`_pieces` of its first child's extent, within ``REL_TOL``
    times the root's longer side (:func:`validate_layout`'s containment slack)."""
    if layout.nodes is None:
        return
    kind, *cols = layout.nodes
    left, right = layout.children  # type: ignore[misc]
    panes = list(zip(*cols))
    tol = REL_TOL * max(panes[0][2], panes[0][3])
    for i, (cut, a, b) in enumerate(zip(kind, left, right)):
        if a >= 0:
            got = panes[a] + panes[b]
            p, q = _pieces(*panes[i], cut, got[2 if cut is Cut.VERTICAL else 3])
            if got != p + q and any(abs(g - v) > tol for g, v in zip(got, p + q)):
                raise ValueError(f"the children of tree node {i} do not tile it along its {cut.value} cut")


def split_rect(q: Rect, a1: float) -> tuple[Rect, Rect]:
    """:func:`cut_pane` on ``q`` along :func:`cut_across`, with the pieces as
    rects; the first piece has area ``a1``."""
    first, second = cut_pane(q.x, q.y, q.w, q.h, cut_across(q.w, q.h), a1)
    return Rect(*first), Rect(*second)


@dataclass(frozen=True)
class Leaf:
    """Terminal pane of a cut tree, tagged with the index of its target area."""

    rect: Rect
    area_index: int


@dataclass(frozen=True)
class Internal:
    """One guillotine cut. ``left`` is the left piece of a vertical cut or
    the top piece of a horizontal one; the children tile ``rect`` exactly.
    A tree's value is its columns (see :func:`tree_columns`): equality,
    hashing, pickling and copying go through them, so none of them recurses.
    The repr omits the children."""

    rect: Rect
    cut: Cut
    left: "LayoutTree" = field(repr=False)
    right: "LayoutTree" = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Internal):
            return NotImplemented
        return tree_columns(self) == tree_columns(other)

    def __hash__(self) -> int:
        return hash(tree_columns(self))

    def __reduce__(self):
        return tree_of_columns, (tree_columns(self),)


LayoutTree = Union[Leaf, Internal]

#: A cut tree as five columns in preorder (each parent, then its left
#: subtree, then its right subtree): the kind of each node, which is a
#: leaf's area index or an internal node's :class:`Cut`, then the x, y, w
#: and h of its pane.
NodeColumns = tuple[tuple, tuple, tuple, tuple, tuple]

#: Panes as four columns, x, y, w and h, in area-index order.
PaneColumns = tuple[tuple, tuple, tuple, tuple]


def child_ids(kind: Sequence) -> tuple[list[int], list[int]]:
    """Left and right child ids of each node of a preorder kind column, -1
    for a leaf: an area index (an ``int``) is a leaf, a :class:`Cut` internal.
    Raises ValueError on any other kind, or unless they form exactly one tree."""
    left = [-1] * len(kind)
    right = [-1] * len(kind)
    stack: list[int] = []
    # Scanning backwards completes both subtrees of a node, left on top,
    # before the node itself is reached.
    for i in range(len(kind) - 1, -1, -1):
        k = kind[i]
        if type(k) is not int:
            if not isinstance(k, Cut):
                raise ValueError(f"tree node {i} has kind {k!r}, neither an area index nor a Cut")
            if len(stack) < 2:
                raise ValueError(f"internal tree node {i} lacks a child")
            left[i] = stack.pop()
            right[i] = stack.pop()
        stack.append(i)
    if len(stack) != 1:
        raise ValueError(f"tree nodes form {len(stack)} trees instead of one")
    return left, right


def tree_columns(tree: LayoutTree) -> NodeColumns:
    """The columns of ``tree``, read in one preorder walk."""
    rows = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            rows.append((node.area_index, *_xywh(node.rect)))
        else:
            rows.append((node.cut, *_xywh(node.rect)))
            stack.append(node.right)
            stack.append(node.left)
    return tuple(zip(*rows))  # type: ignore[return-value]


def _xywh(r: Rect) -> Pane:
    return r.x, r.y, r.w, r.h


def tree_of_columns(
    nodes: NodeColumns, children: tuple[Sequence[int], Sequence[int]] | None = None
) -> LayoutTree:
    """The cut tree whose columns are ``nodes``; ``children`` are its left
    and right child ids, derived with :func:`child_ids` when not given."""
    kind = nodes[0]
    left, right = child_ids(kind) if children is None else children
    built: list = list(map(Rect, *nodes[1:]))
    for i in range(len(kind) - 1, -1, -1):
        if left[i] < 0:
            built[i] = Leaf(built[i], kind[i])
        else:
            built[i] = Internal(built[i], kind[i], built[left[i]], built[right[i]])
    return built[0]


def _floats(cols: Sequence[Sequence], beyond: str) -> tuple[tuple[float, ...], ...]:
    """Equal columns as tuples of floats; ValueError, ``beyond`` formatted with
    the row, at the first row that holds a number beyond the largest double."""
    try:
        return tuple(tuple(map(float, col)) for col in cols)
    except OverflowError:
        for row, values in enumerate(zip(*cols)):
            try:
                tuple(map(float, values))
            except OverflowError:
                raise ValueError(beyond.format(row)) from None
        raise


def _judge_areas(areas) -> tuple[tuple[float, ...], float]:
    """``areas`` as floats and their exact sum; ValueError if there is none,
    at the first that is not a finite positive double, or if the sum overflows."""
    (vals,) = _floats((tuple(areas),), "area #{} lies beyond the largest double")
    if not vals:
        raise ValueError("at least one target area is required (n >= 1)")
    if not (all(map(math.isfinite, vals)) and min(vals) > 0.0):
        i, a = next((i, a) for i, a in enumerate(vals) if not (math.isfinite(a) and a > 0.0))
        raise ValueError(f"area #{i} must be positive and finite, got {a!r}")
    try:
        return vals, math.fsum(vals)
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
        if not math.isfinite(self.container.area):
            raise ValueError(f"the container's area overflows: {self.container!r}")
        areas, total = _judge_areas(self.areas)
        object.__setattr__(self, "areas", areas)
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
    if normalize:
        vals, total = _judge_areas(areas)
        areas = tuple(a / total * container.area for a in vals)
    return Instance(container, areas)


def _leaf_ids(kind: Sequence, n: int) -> list[int]:
    """Node id of each area index's leaf in a kind column; ValueError unless
    the leaves cover 0..n-1 exactly once."""
    leaf = [-1] * n
    for i, k in enumerate(kind):
        if isinstance(k, int):
            if not 0 <= k < n:
                raise ValueError(f"leaf index {k} out of range for n={n}")
            if leaf[k] >= 0:
                raise ValueError(f"area index {k} appears in two leaves")
            leaf[k] = i
    if -1 in leaf:
        missing = [k for k, i in enumerate(leaf) if i < 0]
        raise ValueError(f"tree has no leaf for area indices {missing}")
    return leaf


def _float_columns(cols: Sequence[Sequence], length: int, what: str) -> tuple[tuple, ...]:
    """``cols`` as four tuples of floats, x, y, w and h; ValueError unless
    they are four columns of ``length`` finite numbers whose extents, w and
    h, are positive: the panes :class:`Rect` accepts."""
    if len(cols) != 4 or any(len(col) != length for col in cols):
        raise ValueError(f"{what} must be four columns of {length} numbers")
    floats = _floats(cols, f"{what} hold a number beyond the largest double in row {{}}")
    if not all(map(math.isfinite, chain.from_iterable(floats))):
        row = next(i for i, p in enumerate(zip(*floats)) if not all(map(math.isfinite, p)))
        raise ValueError(f"{what} must hold finite numbers; row {row} does not")
    if not min(chain(floats[2], floats[3]), default=1.0) > 0.0:
        row = next(i for i, wh in enumerate(zip(floats[2], floats[3])) if not min(wh) > 0.0)
        raise ValueError(f"{what} must hold positive extents; row {row} does not")
    return floats


class Layout:
    """Placed panes, one per target area and in the same order, plus the cut
    tree that produced them. ``tree`` is None for layouts loaded from flat
    files that carried no tree.

    A layout holds columns: ``panes`` (:data:`PaneColumns`) and ``nodes``,
    the tree's :data:`NodeColumns`, or None without a tree. The placer and
    the file reader write them with :meth:`of_columns`, ``Layout(rects,
    tree)`` reads them off the objects, and ``rects`` and ``tree`` are built
    from them on first read. Construction checks everything once: a layout
    has at least one pane; every pane and node is one :class:`Rect` would
    accept (finite coordinates, positive extents), kept as floats; the nodes
    form exactly one tree, whose ``children`` it keeps; and its leaves cover
    the area indices exactly once and agree with the rects.

    A layout's value is its node columns, whose leaves are its panes, or its
    pane columns when it has no tree. Equality, hashing and pickling read that
    alone, so a flat layout never equals a tree layout, and layouts of any
    depth compare, hash, print, copy and pickle."""

    __slots__ = ("_panes", "_nodes", "_children", "_rects", "_tree")

    def __init__(self, rects: Sequence[Rect], tree: LayoutTree | None) -> None:
        rects = tuple(rects)
        panes = tuple(zip(*map(_xywh, rects))) or ((), (), (), ())
        self._set(len(rects), None if tree is None else tree_columns(tree), panes)
        self._rects, self._tree = rects, tree

    @classmethod
    def of_columns(
        cls, n: int, nodes: NodeColumns | None, panes: PaneColumns | None = None
    ) -> "Layout":
        """The layout of ``n`` panes with tree columns ``nodes`` and pane
        columns ``panes``; either may be None, not both (ValueError). Without
        ``panes`` the panes are the tree's leaves."""
        layout = cls.__new__(cls)
        layout._set(n, nodes, panes)
        return layout

    def _set(self, n: int, nodes: NodeColumns | None, panes: PaneColumns | None) -> None:
        children = None
        if panes is not None:
            panes = _float_columns(panes, n, "pane columns")  # type: ignore[assignment]
        if nodes is not None:
            # An empty listing, even without columns, is no tree.
            nodes = tuple(nodes) or ((),) * 5  # type: ignore[assignment]
            kind = tuple(nodes[0])
            nodes = (kind, *_float_columns(nodes[1:], len(kind), "tree node columns"))
            # Shape, then coverage before agreement, so that a duplicated
            # leaf is named as such.
            children = tuple(map(tuple, child_ids(kind)))
            leaf = _leaf_ids(kind, n)
            placed = tuple(tuple([col[i] for i in leaf]) for col in nodes[1:])
            if panes is not None and panes != placed:
                bad = next(
                    k for k in range(n) if any(p[k] != q[k] for p, q in zip(panes, placed))
                )
                raise ValueError(f"rects[{bad}] disagrees with its leaf")
            panes = placed  # type: ignore[assignment]
        elif panes is None:
            raise ValueError("a layout needs a cut tree or pane columns")
        elif n < 1:
            # A tree always has a leaf, which no n < 1 admits.
            raise ValueError("a layout needs at least one pane")
        self._panes, self._nodes, self._children = panes, nodes, children
        self._rects = self._tree = None

    @property
    def panes(self) -> PaneColumns:
        return self._panes

    @property
    def nodes(self) -> NodeColumns | None:
        return self._nodes

    @property
    def children(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Left and right child ids of each tree node (see :func:`child_ids`),
        or None without a tree."""
        return self._children

    @property
    def rects(self) -> tuple[Rect, ...]:
        if self._rects is None:
            self._rects = tuple(map(Rect, *self._panes))
        return self._rects

    @property
    def tree(self) -> LayoutTree | None:
        if self._tree is None and self._nodes is not None:
            self._tree = tree_of_columns(self._nodes, self._children)
        return self._tree

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return (self._nodes or self._panes) == (other._nodes or other._panes)

    def __hash__(self) -> int:
        return hash(self._nodes or self._panes)

    def __repr__(self) -> str:
        return f"Layout(rects={self.rects!r}, tree={self.tree!r})"

    def __reduce__(self):
        panes = None if self._nodes else self._panes
        return Layout.of_columns, (len(self._panes[0]), self._nodes, panes)

    def total_half_perimeter(self) -> float:
        _, _, w, h = self._panes
        return math.fsum(map(operator.add, w, h))


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

    def __str__(self) -> str:
        """The failed checks on one line, each with its count and at most its
        first five offenders; the repr keeps the full lists."""
        failed = [] if self.total_ok else ["the pane areas do not sum to the container's"]
        for ok, what, found in (
            (self.area_ok, "panes off their area", self.bad_areas),
            (self.overlap_ok, "overlapping pairs", self.overlaps),
            (self.containment_ok, "panes outside the container", self.escapees),
        ):
            if not ok:
                more = ", ..." if len(found) > 5 else ""
                failed.append(f"{what}: {len(found)} ({', '.join(map(str, found[:5]))}{more})")
        return "; ".join(failed) or "all checks pass"


def _overlapping_pairs(
    x: Sequence[float], y: Sequence[float], x2: Sequence[float], y2: Sequence[float],
    limit: float, eps: float,
) -> tuple[tuple[int, int], ...]:
    """Pairs ``(i, j)``, ``i < j`` in lexicographic order, whose intersection
    area exceeds ``limit >= 0``: those with ``ox > 0``, ``oy > 0`` and
    ``ox * oy > limit``, where ``ox = min(x2) - max(x)`` and likewise ``oy``.

    A plane sweep along x in which every shortcut is exact, whatever the
    input. Rounding is monotone, so a pair's ``ox`` is at most either pane's
    computed width ``x2 - x``, and its ``oy`` at most the largest computed
    height. A pane whose width times that height, or whose height times the
    largest width, is at most ``limit`` is in no pair and never enters.
    Before pane ``a`` enters, each active pane ``b`` whose ``x2_b - x_a``
    times the largest height is at most ``limit`` can meet no later pane and
    retires. That test grows with ``x2_b``, so the panes retire in the order
    of their ``x2``; and no pane that has yet to enter passes it, since its
    width already does not.

    The active panes are kept sorted by their low y, and ``a`` is tested
    against those that start below its top, scanning down. While each active
    pane ends at most ``eps`` past the next one's start (``ordered``, checked
    at each insertion and kept by each retirement), no pane below one that
    starts ``eps`` or more under ``a`` reaches ``a``, so the scan stops
    there. Once an insertion breaks that order, which only panes that
    overlap along y do, each later scan runs to the bottom of the list.
    """
    wc = list(map(operator.sub, x2, x))
    hc = list(map(operator.sub, y2, y))
    wmax, hmax = max(wc), max(hc)
    order = sorted(
        (i for i in range(len(x)) if wc[i] * hmax > limit and hc[i] * wmax > limit),
        key=x.__getitem__,
    )
    by_end = sorted(order, key=x2.__getitem__)
    done = 0  # panes of by_end retired
    starts: list[float] = []  # the active panes' y, ascending
    ids: list[int] = []  # the active panes, in the same order
    ordered = True
    pairs = []
    for a in order:
        xa, ya, x2a, y2a = x[a], y[a], x2[a], y2[a]
        # Pane a passed the width test, so it does not retire here and the
        # loop stops before by_end runs out.
        while (x2[by_end[done]] - xa) * hmax <= limit:
            b = by_end[done]
            done += 1
            k = bisect.bisect_left(starts, y[b])
            while ids[k] != b:
                k += 1
            del starts[k], ids[k]
        for k in range(bisect.bisect_left(starts, y2a) - 1, -1, -1):
            b = ids[k]
            x2b, yb, y2b = x2[b], starts[k], y2[b]
            # Every active pane starts at or left of x_a, so max(x) is x_a.
            # Conditional expressions stand in for min and max, which cost
            # a quarter of the sweep's time as calls.
            ox = (x2a if x2a < x2b else x2b) - xa
            oy = (y2a if y2a < y2b else y2b) - (ya if ya > yb else yb)
            if ox > 0.0 and oy > 0.0 and ox * oy > limit:
                pairs.append((a, b) if a < b else (b, a))
            if ordered and yb + eps <= ya:
                break
        k = bisect.bisect_right(starts, ya)
        if ordered and (
            k and y2[ids[k - 1]] > ya + eps or k < len(starts) and y2a > starts[k] + eps
        ):
            ordered = False
        starts.insert(k, ya)
        ids.insert(k, a)
    pairs.sort()
    return tuple(pairs)


def validate_layout(inst: Instance, layout: Layout) -> LayoutDiagnostics:
    """Check a layout against its instance.

    Three independent checks: every pane area matches its target within
    ``REL_TOL`` (relative); the panes tile the container (total area matches
    and no pair overlaps by more than ``OVERLAP_REL_TOL`` of the container
    area); every pane stays inside the container, within ``REL_TOL`` times
    the container's longer side. Failures are reported, never raised.

    The area, total and containment checks are one pass each over the
    panes. The overlap check is a plane sweep (see
    :func:`_overlapping_pairs`): on a valid layout it tests each pane
    against about one active pane, with O(n log n) comparisons and O(n)
    memory; once two active panes overlap along y, each later pane is
    tested against every active pane that starts below its top. ``overlaps``
    lists the offending pairs ``(i, j)``, ``i < j``, in lexicographic order.
    """
    n = inst.n
    x, y, w, h = layout.panes
    if len(x) != n:
        raise ValueError(f"layout carries {len(x)} rects for {n} areas")
    c = inst.container

    areas = list(map(operator.mul, w, h))
    target = inst.areas
    bad = tuple(i for i in range(n) if abs(areas[i] - target[i]) > REL_TOL * target[i])

    total_ok = abs(math.fsum(areas) - c.area) <= REL_TOL * c.area

    x2 = list(map(operator.add, x, w))
    y2 = list(map(operator.add, y, h))
    eps = REL_TOL * max(c.w, c.h)
    pairs = _overlapping_pairs(x, y, x2, y2, OVERLAP_REL_TOL * c.area, eps)

    lo_x, lo_y = c.x - eps, c.y - eps
    hi_x, hi_y = c.x + c.w + eps, c.y + c.h + eps
    out = tuple(
        i for i in range(n) if x[i] < lo_x or y[i] < lo_y or x2[i] > hi_x or y2[i] > hi_y
    )

    return LayoutDiagnostics(
        area_ok=not bad,
        bad_areas=bad,
        total_ok=total_ok,
        overlap_ok=not pairs,
        overlaps=pairs,
        containment_ok=not out,
        escapees=out,
    )
