"""Exact search for the cheapest guillotine tiling of a small instance.

Every node of the search considers every split of its area multiset into two
non-empty groups (2^(n-1) - 1 of them) and both cut orientations, recursing
on each side. States are memoized on the exact area tuple and the pane
dimensions, canonicalized up to transposition; the cost of a tiling is
invariant under transposing the pane, so the swap is lossless. Ties prefer
the lexicographically smallest group assignment, then a vertical cut, which
keeps results reproducible. Non-guillotine partitions are outside the search
space, so the returned value is the guillotine optimum specifically.

One candidate loop serves the search and the witness. It prices every cut
through the placer's cut rule (:func:`geometry.cut_extents`), so a cut that
rounding would leave without a piece is never priced, as no witness could
make it. The search keeps each pane's cheapest candidate, and the
partitioners' placer lays out the witness from the first candidate that
reproduces the memoized optimum.

The loop skips a candidate whose lower bound already exceeds the cheapest
candidate it has priced so far by more than a relative margin of 1e-9. A
group's bound is exact for a single area (the piece itself) and otherwise
sums, per area, the least half-perimeter of a rectangle of that area whose
shorter side fits the pane's shorter side. While the cuts give each piece
its area to within the margin, the bound never exceeds a candidate's value
by more than the margin, so a skipped candidate could not have been the
cheapest, and each memo entry is still the exact minimum of its state: the
memo key is the exact state, not a rounding of it, so the entry cannot
depend on the order in which the search visits states. The skip margin is
wider than the witness's tie band, so every candidate the witness could
pick is still priced. Pruning therefore changes neither a value nor a
witness, except where rounding takes a piece off its area by more than the
margin; such a witness fails validation anyway, and its value may move in
the last bits.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .dc import _place
from .geometry import Cut, Instance, Layout, cut_extents


class OracleSizeError(RuntimeError):
    """Instance is too large for exhaustive search; raised instead of hanging."""


Memo = dict[tuple, float]


def _split(vals: Sequence, mask: int) -> tuple[list, list]:
    # Bit j-1 of the mask sends element j to the second group; element 0
    # always stays in the first, which halves the enumeration.
    g1, g2 = [], []
    for j, v in enumerate(vals):
        if j and (mask >> (j - 1)) & 1:
            g2.append(v)
        else:
            g1.append(v)
    return g1, g2


def _lower(vals: list[float], w: float, h: float) -> float:
    # A piece of area a with one side at most s costs at least 2*sqrt(a),
    # or s + a/s once a square of that area no longer fits.
    if len(vals) == 1:
        return w + h
    s = min(w, h)
    return sum(s + a / s if a > s * s else 2.0 * math.sqrt(a) for a in vals)


def _priced(memo: Memo, vals: list[float], w: float, h: float) -> Iterator[tuple[float, int, Cut]]:
    # (value, mask, cut) of each representable cut of the w x h pane that
    # may match the cheapest one, masks ascending and the vertical cut
    # first, which is the tie order.
    limit = math.inf
    for mask in range(1, 1 << (len(vals) - 1)):
        g1, g2 = _split(vals, mask)
        s1 = math.fsum(g1)
        for cut in (Cut.VERTICAL, Cut.HORIZONTAL):
            ext = cut_extents(w, h, cut, s1)
            if ext is None:
                continue
            w1, h1, w2, h2 = ext
            lower2 = _lower(g2, w2, h2)
            if _lower(g1, w1, h1) + lower2 > limit:
                continue
            v1 = _best(memo, g1, w1, h1)
            if v1 + lower2 > limit:
                continue
            v = v1 + _best(memo, g2, w2, h2)
            limit = min(limit, v + 1e-9 * v)
            yield v, mask, cut


def _best(memo: Memo, vals: list[float], w: float, h: float) -> float:
    if len(vals) == 1:
        return w + h
    k = (tuple(vals), w, h) if w >= h else (tuple(vals), h, w)
    hit = memo.get(k)
    if hit is not None:
        return hit
    memo[k] = best_v = min((v for v, _, _ in _priced(memo, vals, w, h)), default=math.inf)
    return best_v


def optimal_guillotine(inst: Instance, max_n: int = 8) -> tuple[float, Layout]:
    """Minimum total half-perimeter over all guillotine tilings, with a witness.

    Refuses instances with more than ``max_n`` areas. The witness layout
    follows the usual conventions: the first group of a split takes the left
    piece of a vertical cut or the top piece of a horizontal one.
    """
    if inst.n > max_n:
        raise OracleSizeError(f"exhaustive search refused for n={inst.n} > max_n={max_n}")

    memo: Memo = {}

    def choose(w: float, h: float, values: list[float]):
        # The memo holds the exact optimum of this pane and the loop prices
        # its candidates as the search did, so the optimum recurs; the band
        # is a guard, not a tolerance for memo noise. It must stay narrower
        # than _priced's skip margin, so that no candidate it accepts is
        # skipped.
        target = _best(memo, values, w, h)
        if math.isinf(target):
            raise AssertionError(
                "no guillotine cut of the pane is representable in floating point"
            )
        limit = target + 1e-10 * target
        for v, mask, cut in _priced(memo, values, w, h):
            if v <= limit:
                return (cut, math.fsum(_split(values, mask)[0]), *_split(range(len(values)), mask))
        raise AssertionError("memoized optimum could not be reproduced")

    value = _best(memo, sorted(inst.areas, reverse=True), inst.container.w, inst.container.h)
    return value, _place(inst, choose)
