"""Seeded random instance generators.

Two families span the interesting range of area lists: ``uniform`` draws make
the areas similar in size, while ``geometric`` decay with ratio q makes them
shrink quickly (small q) or slowly (q near 1). The same spec gives the same
instance, bit for bit, on every machine, and no numpy is needed:

- the draws are PCG64's (O'Neill 2014), seeded and turned into doubles as
  numpy's ``Generator(PCG64(seed))`` does, so ``random()`` and
  ``uniform(0.9, 1.1)`` give numpy's values bit for bit;
- the geometric powers are a running product ``p *= q``, one IEEE-754
  multiplication per term, not a platform's ``pow`` loop;
- the raw terms are summed in the pairwise order in which numpy (2.4) sums
  a float64 array, so uniform instances are the same as when numpy drew and
  summed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .geometry import Instance, Rect

FAMILIES = ("uniform", "geometric")

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier, which numpy's PCG64 uses.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)`` for a seed
    in [0, 2**64): the seed's 32-bit words are hashed into a pool of four,
    mixed, and hashed out again as eight words."""
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src]) & _MASK32
                pool[dst] = v ^ v >> 16
    const = 0x8B51F9DD
    words = []
    for i in range(8):
        v = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        v = v * const & _MASK32
        words.append(v ^ v >> 16)
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


def _random(seed: int, n: int) -> list[float]:
    """``Generator(PCG64(seed)).random(n)``: XSL-RR output of the 128-bit
    LCG, its top 53 bits scaled into [0, 1)."""
    s0, s1, s2, s3 = _seed_words(seed)
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = (inc + (s0 << 64 | s1)) * _PCG_MULT + inc & _MASK128
    out = []
    for _ in range(n):
        state = state * _PCG_MULT + inc & _MASK128
        hi = state >> 64
        x = (hi ^ state) & _MASK64
        r = hi >> 58
        out.append((((x >> r | x << 64 - r) & _MASK64) >> 11) * 2.0**-53)
    return out


def _pairwise_sum(a: list[float], lo: int, hi: int) -> float:
    """numpy's float64 ``sum`` of ``a[lo:hi]``: blocks of at most 128 run
    eight strided accumulators, longer spans split near the middle."""
    n = hi - lo
    if n < 8:
        return reduce(add, a[lo:hi], 0.0)
    if n <= 128:
        stop = hi - n % 8
        r = [reduce(add, a[j + 8 : stop : 8], a[j]) for j in range(lo, lo + 8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, a[stop:hi], res)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(a, lo, lo + half) + _pairwise_sum(a, lo + half, hi)


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random instance: ``n`` and ``seed`` ints, ``q`` an int or float, no bools."""

    n: int
    family: str
    seed: int
    container: Rect
    q: float = 0.5

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"n must be an int of at least 1, got {self.n!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        if type(self.q) not in (int, float):
            raise ValueError(f"q must be an int or a float, got {self.q!r}")
        if self.family == "geometric" and not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must lie in (0, 1], got {self.q}")


def generate(spec: GenSpec) -> Instance:
    """Draw the area list for ``spec``, rescaled to fill the container exactly.

    uniform: independent draws from (0, 1].
    geometric: q**i decay as the running product, each term multiplied by
    independent jitter from [0.9, 1.1]. Small q with large n, or a tiny container, can underflow
    areas to 0.0; ValueError then names the first one.
    """
    draws = _random(spec.seed, spec.n)
    if spec.family == "uniform":
        raw = [1.0 - u for u in draws]
    else:
        raw, p = [], 1.0
        for u in draws:
            p *= spec.q
            raw.append(p * (0.9 + (1.1 - 0.9) * u))
    total = _pairwise_sum(raw, 0, spec.n)
    area = spec.container.area
    areas = tuple(v / total * area for v in raw)
    if 0.0 in areas:
        raise ValueError(
            f"area #{areas.index(0.0)} underflows to 0.0 "
            f"({spec.family} family, q={spec.q}, n={spec.n})"
        )
    return Instance(spec.container, areas)
