"""The benchmark's workloads: which instances each one draws from its seed, and its ops.

A workload is a fixed list of ops (one *pass*) that the runner repeats. Every
instance is drawn by ``rectpart.generate`` from a seed derived from the
workload name, the run's ``--seed`` and the instance key, so the same seed
always gives the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The workloads that BENCHMARK.json lists, in the order it lists them.
NAMES = ("uniform-large", "geometric-deep", "sweep-oracle")

#: The acceptance sweep's families: (family, q).
SWEEP_FAMILIES = (("uniform", 0.5), ("geometric", 0.5), ("geometric", 0.9), ("geometric", 0.99))


@dataclass(frozen=True)
class InstanceSpec:
    """One generated instance; ``key`` names its file and its ops."""

    key: str
    n: int
    family: str
    q: float = 0.5


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``partition`` is one ``rectpart partition`` CLI call with ``algo``;
    ``oracle`` is one ``rectpart oracle`` CLI call; ``pipeline`` is the
    acceptance sweep's library pipeline (both partitioners, ``report`` and
    ``validate_layout``) on one instance.
    """

    kind: str
    instance: str
    algo: str = ""

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.algo}:{self.instance}" if self.algo else f"{self.kind}:{self.instance}"


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[InstanceSpec, ...]
    ops: tuple[Op, ...]
    #: Wall time of one pass on the reference machine (2-core Xeon, Python
    #: 3.11); the runner makes round(seconds / pass_seconds) passes.
    pass_seconds: float

    def instance_seed(self, seed: int, key: str) -> int:
        return random.Random(f"{self.name}/{seed}/{key}").getrandbits(63)


def _partition_ops(specs: list[InstanceSpec]) -> list[Op]:
    return [Op("partition", s.key, algo) for s in specs for algo in ("dc", "mdc")]


def build(name: str, *, tiny: bool = False, with_defects: bool = False) -> Workload:
    """The workload ``name``; ``tiny`` shrinks every instance except the
    known-defect ones, which ``with_defects`` appends (they fail at the seed
    commit, so the default workloads leave them out)."""
    if name == "uniform-large":
        n = 60 if tiny else 3000
        specs = [InstanceSpec(f"u{n}-{k}", n, "uniform") for k in range(2)]
        return Workload(name, tuple(specs), tuple(_partition_ops(specs)), 4.3)

    if name == "geometric-deep":
        specs = [
            InstanceSpec("g50-n30" if tiny else "g50-n600", 30 if tiny else 600, "geometric", 0.5),
            InstanceSpec("g90-n40" if tiny else "g90-n1000", 40 if tiny else 1000, "geometric", 0.9),
        ]
        ops = _partition_ops(specs)
        if with_defects:
            # mdc recurses once per chain level and hits the default
            # recursion limit here (dc does too, after about ten seconds).
            specs.append(InstanceSpec("g50-n1000", 1000, "geometric", 0.5))
            ops.append(Op("partition", "g50-n1000", "mdc"))
        return Workload(name, tuple(specs), tuple(ops), 6.0)

    if name == "sweep-oracle":
        # The acceptance sweep's library pipeline over n=2..100, plus the
        # exhaustive oracle through the CLI: two n=7 calls and one n=8 call a
        # pass (0.2 s and 1.7 s each). The pipeline ops set the median, the
        # oracle ops the tail.
        top = 12 if tiny else 100
        specs = [
            InstanceSpec(f"{family[0]}{q:g}-n{n}", n, family, q)
            for family, q in SWEEP_FAMILIES
            for n in range(2, top + 1)
        ]
        if with_defects:
            # Extreme area ratios: split_rect's remainder arithmetic loses the
            # small panes, so most of these layouts fail validation.
            specs += [InstanceSpec(f"g1e-08-n{n}", n, "geometric", 1e-8) for n in range(2, 9)]
        ops = [Op("pipeline", s.key) for s in specs]
        oracle = [InstanceSpec(f"u{n}-{k}", n, "uniform") for k, n in enumerate((4, 4, 5) if tiny else (7, 7, 8))]
        specs += oracle
        ops += [Op("oracle", s.key) for s in oracle]
        return Workload(name, tuple(specs), tuple(ops), 5.0)

    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
