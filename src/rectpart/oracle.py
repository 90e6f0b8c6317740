"""Exact search for the cheapest guillotine tiling of a small instance.

Every node of the search considers every split of its area multiset into two
non-empty groups (2^(n-1) - 1 of them) and both cut orientations, recursing
on each side. States are memoized on the exact area tuple and the pane
dimensions, canonicalized up to transposition; the cost of a tiling is
invariant under transposing the pane, so the swap is lossless. Ties prefer
the lexicographically smallest group assignment, then a vertical cut, which
keeps results reproducible. Non-guillotine partitions are outside the search
space, so the returned value is the guillotine optimum specifically.

One candidate loop prices every cut through the placer's cut rule
(:func:`geometry.cut_extents`), so a cut that rounding would leave without a
piece is never priced, as no witness could make it. Each exact memo entry
keeps its tie band, the candidates within a relative 1e-10 of its minimum,
and the partitioners' placer lays out the witness from the first candidate
of each pane's band in that pane's own tie order, so the witness prices
nothing.

The loop skips a candidate whose lower bound already exceeds the cheapest
candidate it has priced so far by more than a relative margin of 1e-9. A
group's bound is exact for a single area (the piece itself) and otherwise
sums, per area, the least half-perimeter of a rectangle of that area whose
shorter side fits the pane's shorter side. While the cuts give each piece
its area to within the margin, the bound never exceeds a candidate's value
by more than the margin, so a skipped candidate could not have been the
cheapest, and each exact memo entry is the exact minimum of its state: the
memo key is the exact state, not a rounding of it, so the entry cannot
depend on the order in which the search visits states. The skip margin is
wider than the tie band, so every candidate of a band is priced. Pruning
therefore changes neither a value nor a witness, except where rounding
takes a piece off its area by more than the margin; such a witness fails
validation anyway, and its value may move in the last bits.

Each search also carries a cap. It returns a pane's exact minimum when that
minimum is at most the cap, and otherwise a lower bound above the cap, which
the memo keeps flagged as a bound for later calls whose cap lies below it:
the fail-low entries of an alpha-beta transposition table (Knuth and Moore,
Artificial Intelligence 6, 1975). The loop starts its limit where pricing a
candidate that costs the cap would put it. It prices each child under what
the limit leaves it, widened by 1e-9 times the limit, seven orders of
magnitude more than the rounding of that subtraction: a child whose minimum
would let its candidate pass the limit comes back exact, and a child that
comes back as a bound fails the test its minimum would fail, as a bound
never exceeds the minimum. So the loop under a cap skips what the loop
without one would after pricing a candidate of the cap's cost, and each
skipped candidate costs more than the cap or than the cheapest one priced.
If that one costs at most the cap, it is the exact minimum; otherwise every
candidate costs more than the cap, and the entry, the least double above
it, is at most the minimum. An inexact entry thus never hides the optimum,
with the same margins and the same exception as the pruning.

The root's cap is the total of dc's own placed tiling, as partition_dc's
layout totals it, widened by the margin; the search prices that tiling
too, up to the rounding of each cut's first area. Where one of dc's cuts
has no piece, the cap is infinite; where dc's pieces are off their areas
so that its total falls below the optimum as priced here, the root comes
back as a bound and is searched again without a cap. An entry that comes
back as a bound keeps no band, but every pane the witness visits has one:
a candidate is kept only when both its children came back within their
caps, so exact, and the root is exact once the search returns.
"""

from __future__ import annotations

import math
from typing import Sequence

from .dc import _partition, _place, bipartition_two_smallest
from .geometry import Cut, Instance, Layout, cut_extents


class OracleSizeError(RuntimeError):
    """Instance is too large for exhaustive search; raised instead of hanging."""


Memo = dict[tuple, tuple[float, list[tuple[int, Cut]] | None]]


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


def _best(memo: Memo, vals: list[float], w: float, h: float, cap: float) -> float:
    # The exact minimum of the pane if it is at most cap, else a lower bound
    # above cap. An inexact memo entry answers only caps below it. The loop
    # runs on the pane as the memo key lies, wider side first, and prices
    # each representable cut that may match the cheapest one, masks ascending
    # and the vertical cut first. The cap starts the limit as a priced
    # candidate would, and each child's cap is what the limit leaves it,
    # widened by the margin (module docstring). A value above the limit may
    # rest on a bound, so only values within it are kept.
    if len(vals) == 1:
        return w + h
    if w < h:
        w, h = h, w
    k = (tuple(vals), w, h)
    hit = memo.get(k)
    if hit is not None and (hit[1] is not None or hit[0] > cap):
        return hit[0]
    priced = []
    limit = cap + 1e-9 * cap
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
            slack = 1e-9 * limit
            v1 = _best(memo, g1, w1, h1, limit - lower2 + slack)
            if v1 + lower2 > limit:
                continue
            v = v1 + _best(memo, g2, w2, h2, limit - v1 + slack)
            if v > limit:
                continue
            limit = min(limit, v + 1e-9 * v)
            priced.append((v, mask, cut))
    best_v = min((v for v, _, _ in priced), default=math.inf)
    if best_v > cap:
        memo[k] = (math.nextafter(cap, math.inf), None)
    else:
        tie = best_v + 1e-10 * best_v
        memo[k] = (best_v, [(mask, cut) for v, mask, cut in priced if v <= tie])
    return memo[k][0]


def _dc_total(inst: Instance) -> float:
    # The total of dc's own placed tiling, summed as its layout sums it; inf
    # where rounding leaves one of its cuts without a piece.
    try:
        kind, _, _, w, h = _partition(inst, bipartition_two_smallest, None)
    except ValueError:
        return math.inf
    return math.fsum(a + b for k, a, b in zip(kind, w, h) if isinstance(k, int))


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
        # The pane's exact entry holds its tie band with the cuts as the key
        # lies, wider side first. The pick follows the pane as it lies here,
        # masks ascending, then its own vertical cut, by construction rather
        # than by the order in which the search priced the band.
        value, band = memo[(tuple(values), w, h) if w >= h else (tuple(values), h, w)]
        if math.isinf(value):
            raise AssertionError(
                "no guillotine cut of the pane is representable in floating point"
            )
        vertical = Cut.VERTICAL if w >= h else Cut.HORIZONTAL  # this pane's, as the key lies
        mask, cut = min(band, key=lambda mc: (mc[0], mc[1] is not vertical))
        cut = Cut.VERTICAL if cut is vertical else Cut.HORIZONTAL
        return (cut, math.fsum(_split(values, mask)[0]), *_split(range(len(values)), mask))

    vals = sorted(inst.areas, reverse=True)
    c = inst.container
    cap = _dc_total(inst) * (1 + 1e-9)
    value = _best(memo, vals, c.w, c.h, cap)
    if value > cap:
        value = _best(memo, vals, c.w, c.h, math.inf)
    return value, Layout.of_columns(inst.n, _place(inst, choose))
