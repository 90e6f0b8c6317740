"""Flat SVG rendering of a layout.

The viewBox is the container in layout units, so rect widths and heights in
the document equal the pane extents exactly; only the y coordinate is
flipped, because SVG grows downward while layouts grow upward. Like the
JSON writers in :mod:`rectpart.fileio`, :func:`render_svg` builds its document
as encoded chunks of at most ``fileio.CHUNK`` panes and returns their join or
writes them one by one to a destination, after every refusal has run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .fileio import CHUNK, Destination, _emit
from .geometry import Instance, Layout

#: Width of the rendered image in pixels; the height keeps the container's aspect.
PIXEL_WIDTH = 800

#: Fixed fill palette; panes pick a color by hashing their index.
PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
    "#5a7fb5", "#e08f5f", "#6aba78", "#cf5f62", "#9183c0",
    "#a18770", "#e39bd0", "#9c9c9c", "#d6c785", "#76c2d8",
)


def _color(index: int) -> str:
    # Knuth multiplicative hash scatters neighboring indices across the palette.
    return PALETTE[(index * 2654435761) % len(PALETTE)]


def _svg_chunks(head: str, layout: Layout, inst: Instance, labels: str) -> Iterator[bytes]:
    yield head.encode()
    c = inst.container
    n = len(layout.panes[0])
    for lo in range(0, n, CHUNK):
        parts = [""]
        for i, x, y, w, h in zip(range(lo, n), *(col[lo : lo + CHUNK] for col in layout.panes)):
            y_flipped = 2.0 * c.y + c.h - y - h
            parts.append(
                f'  <rect x="{x!r}" y="{y_flipped!r}" width="{w!r}" height="{h!r}" '
                f'fill="{_color(i)}" stroke="black" stroke-width="1" '
                'vector-effect="non-scaling-stroke"/>'
            )
            if labels != "none":
                text = str(i) if labels == "index" else f"{i}: {inst.areas[i]:.4g}"
                cx = x + w / 2.0
                cy = y_flipped + h / 2.0
                size = 0.3 * min(w, h)
                parts.append(
                    f'  <text x="{cx!r}" y="{cy!r}" font-size="{size!r}" '
                    'text-anchor="middle" dominant-baseline="central" '
                    f'font-family="sans-serif">{text}</text>'
                )
        yield "\n".join(parts).encode("utf-8")
    yield b"\n</svg>\n"


def render_svg(
    layout: Layout, inst: Instance, labels: str = "index", *, dest: Destination | None = None
) -> bytes | None:
    """One SVG document with one rect per pane, labeled by ``labels``: "none",
    "index" or "full" (index and target area), as bytes or, given ``dest``, written
    there in chunks, returning None. ValueError unless ``layout`` has one pane per
    area of ``inst``."""
    if labels not in ("none", "index", "full"):
        raise ValueError(f'labels must be "none", "index" or "full", got {labels!r}')
    if len(layout.panes[0]) != inst.n:
        raise ValueError(f"layout carries {len(layout.panes[0])} rects for {inst.n} areas")
    c = inst.container
    ratio = PIXEL_WIDTH * c.h / c.w
    # Where the quotient lies beyond the largest double, take it exactly.
    px_h = max(1, round(ratio if ratio < math.inf else PIXEL_WIDTH * Fraction(c.h) / Fraction(c.w)))
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PIXEL_WIDTH}" height="{px_h}" '
        f'viewBox="{c.x!r} {c.y!r} {c.w!r} {c.h!r}">'
    )
    return _emit(_svg_chunks(head, layout, inst, labels), dest)
