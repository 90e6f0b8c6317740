"""Seeded random instance generators.

Two families span the interesting range of area lists: ``uniform`` draws make
the areas similar in size, while ``geometric`` decay with ratio q makes them
shrink quickly (small q) or slowly (q near 1). Everything is driven by a
PCG64 generator seeded directly with the spec's 64-bit seed, whose draws do
not depend on the platform. The geometric family's powers ``q ** i`` do:
numpy's ``power`` picks its loop by CPU features, and on an AVX-512 machine
about 2.6% of its values differ in the last bits from the C library's
``pow``. The same spec always gives the same instance on one machine, but a
geometric one may differ in the last bits on another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Instance, Rect

FAMILIES = ("uniform", "geometric")


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
    geometric: q**i decay, each term multiplied by independent jitter from
    [0.9, 1.1]. Small q with large n, or a tiny container, can underflow
    areas to 0.0; ValueError then names the first one.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.family == "uniform":
        raw = 1.0 - rng.random(spec.n)
    else:
        raw = spec.q ** np.arange(1, spec.n + 1, dtype=float) * rng.uniform(0.9, 1.1, spec.n)
    total = float(raw.sum())
    area = spec.container.area
    areas = tuple(float(v) / total * area for v in raw)
    if 0.0 in areas:
        raise ValueError(
            f"area #{areas.index(0.0)} underflows to 0.0 "
            f"({spec.family} family, q={spec.q}, n={spec.n})"
        )
    return Instance(spec.container, areas)
