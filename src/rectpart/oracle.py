"""Exhaustive search for the cheapest guillotine tiling of a small instance.

Every node of the search tries every split of its area multiset into two
non-empty groups (2^(n-1) - 1 of them) and both cut orientations, recursing
on each side. States are memoized on the area multiset and the pane
dimensions, canonicalized up to transposition; the cost of a tiling is
invariant under transposing the pane, so the swap is lossless. Ties prefer
the lexicographically smallest group assignment, then a vertical cut, which
keeps results reproducible. Each area is rounded to 12 significant digits
once per search, for the memo keys. Non-guillotine partitions are outside the
search space, so the returned value is the guillotine optimum specifically.

One candidate loop serves the search and the witness. It prices every cut
through the placer's cut rule (:func:`geometry.cut_extents`), so a cut that
rounding would leave without a piece is never priced, as no witness could
make it. The search keeps each pane's cheapest candidate, and the
partitioners' placer lays out the witness from the first candidate that
reproduces the memoized optimum.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .dc import _place
from .geometry import Cut, Instance, Layout, Rect, cut_extents, cut_rect


class OracleSizeError(RuntimeError):
    """Instance is too large for exhaustive search; raised instead of hanging."""


def _sig12(v: float) -> float:
    # 12 significant digits: coarse enough to merge float noise in memo keys,
    # far finer than any area tolerance at supported sizes.
    return float(f"{v:.12g}")


def optimal_guillotine(inst: Instance, max_n: int = 8) -> tuple[float, Layout]:
    """Minimum total half-perimeter over all guillotine tilings, with a witness.

    Refuses instances with more than ``max_n`` areas. The witness layout
    follows the usual conventions: the first group of a split takes the left
    piece of a vertical cut or the top piece of a horizontal one.
    """
    if inst.n > max_n:
        raise OracleSizeError(f"exhaustive search refused for n={inst.n} > max_n={max_n}")

    memo: dict[tuple, float] = {}
    sig = {a: _sig12(a) for a in inst.areas}

    def key(vals: list[float], w: float, h: float) -> tuple:
        if w < h:
            w, h = h, w
        return (tuple(map(sig.__getitem__, vals)), _sig12(w), _sig12(h))

    def split(vals: Sequence, mask: int) -> tuple[list, list]:
        # Bit j-1 of the mask sends element j to the second group; element 0
        # always stays in the first, which halves the enumeration.
        g1, g2 = [], []
        for j, v in enumerate(vals):
            if j and (mask >> (j - 1)) & 1:
                g2.append(v)
            else:
                g1.append(v)
        return g1, g2

    def priced(vals: list[float], w: float, h: float) -> Iterator[tuple[float, int, Cut]]:
        # (value, mask, cut) of each representable cut of the w x h pane,
        # masks ascending and the vertical cut first, which is the tie order.
        for mask in range(1, 1 << (len(vals) - 1)):
            g1, g2 = split(vals, mask)
            s1 = math.fsum(g1)
            for cut in (Cut.VERTICAL, Cut.HORIZONTAL):
                ext = cut_extents(w, h, cut, s1)
                if ext is not None:
                    w1, h1, w2, h2 = ext
                    yield best(g1, w1, h1) + best(g2, w2, h2), mask, cut

    def best(vals: list[float], w: float, h: float) -> float:
        if len(vals) == 1:
            return w + h
        k = key(vals, w, h)
        hit = memo.get(k)
        if hit is not None:
            return hit
        best_v = math.inf
        for v, _, _ in priced(vals, w, h):
            if v < best_v:
                best_v = v
        memo[k] = best_v
        return best_v

    def choose(rect: Rect, values: list[float]):
        # The rounded memo keys merge states that differ beyond the 12th
        # digit, so the stored optimum can be off by ~1e-12 relative for this
        # exact rect; accept the first candidate within that noise band.
        target = best(values, rect.w, rect.h)
        if math.isinf(target):
            raise AssertionError(
                "no guillotine cut of the pane is representable in floating point"
            )
        limit = target + 1e-10 * target
        for v, mask, cut in priced(values, rect.w, rect.h):
            if v <= limit:
                a, b = cut_rect(rect, cut, math.fsum(split(values, mask)[0]))
                return (cut, a, b, *split(range(len(values)), mask))
        raise AssertionError("memoized optimum could not be reproduced")

    value = best(sorted(inst.areas, reverse=True), inst.container.w, inst.container.h)
    return value, _place(inst, choose)
