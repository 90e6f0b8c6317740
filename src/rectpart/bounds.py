"""A lower bound, a forced-aware value and quality reports for produced layouts.

Any pane of area A has half-perimeter at least 2*sqrt(A), attained by a
square, so the naive bound, the sum of 2*sqrt(A), is valid for every
tiling. The forced-aware value takes the realized width + height of the
panes whose shape this layout's own cuts pin ("forced" panes). The forced
set is the least fixed point of three rules:

* the container itself is forced;
* when a forced rectangle is cut and a single target area claims at least
  half of it, that area's order in the reduction never changes, so the
  second (right/bottom) piece is forced;
* a rectangle whose two long edges lie inside long edges of forced
  rectangles (within ``REL_TOL`` times the container's longer side), not
  necessarily the same one, is forced. A square's four edges all act as
  long edges, and it qualifies when either opposite pair is certified.

The closure keeps one bitmask per node: bit s is set once the node's long
edge s lies inside a forced long edge (bits 0-1 the long-edge pair, bits 2-3
a square's vertical pair). Each forced node ORs the bits it covers into the
candidates' masks once, forcing each candidate whose pair completes. The
rules are monotone, so the order of forcing does not change the set.

The forced-aware value sums width + height over forced terminal panes and
2*sqrt(A) over the rest; it is never smaller than the naive bound. It is not
a bound on every input: the rules argue about this layout's cuts, not about
every tiling, and on some instances it exceeds the guillotine optimum
(ROADMAP item 12).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .geometry import REL_TOL, Instance, Layout, validate_layout


def detect_forced(layout: Layout, areas: Sequence[float]) -> set[int]:
    """Ids of forced nodes, indexing the preorder node columns of ``layout``;
    ValueError when it carries no cut tree.

    ``areas`` is the instance's target-area list, looked up through each
    leaf's area index for the dominant-area rule. The closure runs as a
    worklist of forced nodes, each of which is scanned once.
    """
    if layout.nodes is None:
        raise ValueError("the layout carries no cut tree")
    kind, xs, ys, ws, hs = layout.nodes
    left_id, right_id = layout.children  # type: ignore[misc]
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

    # All candidate long edges as (line, span start, span end, node, slot),
    # bucketed by orientation and sorted by their line so a forced edge only
    # scans nearby candidates. Wide panes have horizontal long edges, tall
    # ones vertical, and squares all four: slots 0-1 then 2-3.
    horiz: list[tuple[float, float, float, int, int]] = []
    vert: list[tuple[float, float, float, int, int]] = []
    for i, (x, y, w, h) in enumerate(zip(xs, ys, ws, hs)):
        if w >= h:
            horiz.append((y, x, x + w, i, 0))
            horiz.append((y + h, x, x + w, i, 1))
        if h >= w:
            slot = 2 if w == h else 0
            vert.append((x, y, y + h, i, slot))
            vert.append((x + w, y, y + h, i, slot + 1))
    line = itemgetter(0)
    horiz.sort(key=line)
    vert.sort(key=line)

    covered = [0] * n_nodes
    forced = [True] + [False] * (n_nodes - 1)  # the container
    queue = [0]
    while queue:
        f = queue.pop()
        x, y, w, h = xs[f], ys[f], ws[f], hs[f]
        r = right_id[f]
        if r >= 0 and not forced[r] and a_max[f] >= 0.5 * (w * h) * (1.0 - 1e-12):
            forced[r] = True
            queue.append(r)
        own = []  # f's long edges: (candidates, line, span start, span end)
        if w >= h:
            own += (horiz, y, x, x + w), (horiz, y + h, x, x + w)
        if h >= w:
            own += (vert, x, y, y + h), (vert, x + w, y, y + h)
        for cand, c, lo, hi in own:
            start = bisect.bisect_left(cand, c - tol, key=line)
            stop = bisect.bisect_right(cand, c + tol, key=line)
            for _, clo, chi, j, slot in cand[start:stop]:
                if not forced[j] and clo >= lo - tol and chi <= hi + tol:
                    bits = covered[j] = covered[j] | 1 << slot
                    if bits & 0b0011 == 0b0011 or bits & 0b1100 == 0b1100:
                        forced[j] = True
                        queue.append(j)
    return {i for i in range(n_nodes) if forced[i]}


@dataclass(frozen=True)
class PaneQuality:
    """Per-pane metrics within a :class:`QualityReport`."""

    index: int
    half_perimeter: float
    aspect_ratio: float
    forced: bool


@dataclass(frozen=True)
class QualityReport:
    """Achieved cost, the naive bound, the forced-aware value, and per-pane shape statistics."""

    total_half_perimeter: float
    naive_lower_bound: float
    forced_aware_lower_bound: float
    approx_ratio: float
    max_aspect_ratio: float
    per_rect: tuple[PaneQuality, ...]


def report(inst: Instance, layout: Layout) -> QualityReport:
    """Full quality report; ``approx_ratio`` is total over the forced-aware value."""
    diag = validate_layout(inst, layout)
    if not diag.ok:
        raise ValueError(f"layout does not satisfy the instance: {diag}")
    return _report_valid(inst, layout)


def _report_valid(inst: Instance, layout: Layout) -> QualityReport:
    """:func:`report` for a layout the caller has already validated."""
    flags = [False] * inst.n
    if layout.nodes is not None:
        kind = layout.nodes[0]
        for node_id in detect_forced(layout, inst.areas):
            if isinstance(kind[node_id], int):
                flags[kind[node_id]] = True
    elif inst.n == 1:
        # A flat single-pane layout is the container itself, hence forced.
        flags[0] = True
    _, _, ws, hs = layout.panes
    per = tuple(
        PaneQuality(i, w + h, max(w / h, h / w), flags[i]) for i, (w, h) in enumerate(zip(ws, hs))
    )
    forced_aware = math.fsum(
        p.half_perimeter if p.forced else 2.0 * math.sqrt(a) for p, a in zip(per, inst.areas)
    )
    total = layout.total_half_perimeter()
    return QualityReport(
        total_half_perimeter=total,
        naive_lower_bound=math.fsum(2.0 * math.sqrt(a) for a in inst.areas),
        forced_aware_lower_bound=forced_aware,
        approx_ratio=total / forced_aware,
        max_aspect_ratio=max(p.aspect_ratio for p in per),
        per_rect=per,
    )
