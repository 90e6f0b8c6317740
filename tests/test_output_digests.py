"""Bit-level sameness of the partitioners' and the oracle's outputs.

``tests/data/output_digests.json`` records, for a fixed set of instances,
the sha256 of ``serialize_layout(layout, include_tree=True)`` and the
``ReductionStats`` of dc and mdc, the sha256 of each layout's quality report
and its forced set, and the oracle's value and the digest of its witness.
Any changed bit in a rect, a cut, a counter or a forced flag fails here. A
change that is meant to move outputs rewrites the file with

    PYTHONPATH=src python tests/test_output_digests.py

and says in its description which outputs moved and why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import rectpart as rp

DIGESTS = Path(__file__).parent / "data" / "output_digests.json"

SQUARE = rp.Rect(0, 0, 1, 1)
WIDE = rp.Rect(0, 0, 2, 1)
TALL = rp.Rect(0, 0, 1, 3)


def _generated(family, n, seed, container, q=0.5):
    return rp.generate(rp.GenSpec(n=n, family=family, seed=seed, container=container, q=q))


def _tie_heavy(n, seed, container, values=(1.0, 2.0, 3.0)):
    # Areas drawn from a few values, so most reductions meet equal entries.
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.choice(values, size=n).tolist()
    return rp.make_instance(container, raw, normalize=True)


def partition_cases():
    cases = {}
    for cname, container in (("1x1", SQUARE), ("2x1", WIDE)):
        for n, seed in ((5, 1), (40, 2), (200, 3)):
            cases[f"uniform-n{n}-s{seed}-{cname}"] = _generated("uniform", n, seed, container)
        for q in (0.5, 0.9, 0.99):
            for n, seed in ((12, 4), (60, 5)):
                cases[f"geo{q}-n{n}-s{seed}-{cname}"] = _generated("geometric", n, seed, container, q)
        for n, seed in ((7, 6), (25, 7), (64, 8)):
            cases[f"ties-n{n}-s{seed}-{cname}"] = _tie_heavy(n, seed, container)
        cases[f"equal-n9-{cname}"] = rp.make_instance(container, [1.0] * 9, normalize=True)
    cases["chain-geo0.5-n300"] = _generated("geometric", 300, 7, SQUARE)
    return cases


def oracle_cases():
    cases = {}
    for cname, container in (("1x1", SQUARE), ("2x1", WIDE)):
        for n in range(2, 8):
            cases[f"uniform-n{n}-{cname}"] = _generated("uniform", n, 10 + n, container)
            if n <= 6:
                cases[f"geo0.6-n{n}-{cname}"] = _generated("geometric", n, 20 + n, container, 0.6)
        cases[f"equal-n4-{cname}"] = rp.make_instance(container, [1, 1, 1, 1], normalize=True)
        cases[f"pairs-n6-{cname}"] = rp.make_instance(container, [3, 3, 2, 2, 1, 1], normalize=True)
    # Equal candidate values, where the tie order picks the witness.
    for cname, container in (("1x1", SQUARE), ("2x1", WIDE), ("1x3", TALL)):
        for vname, values in (("123", (1.0, 2.0, 3.0)), ("112", (1.0, 1.0, 2.0)), ("124", (1.0, 2.0, 4.0))):
            for n in range(3, 8):
                cases[f"ties{vname}-n{n}-{cname}"] = _tie_heavy(n, 30 + n, container, values)
    # Distinct areas that agree to 12-13 significant digits, which pins that
    # the memo keeps them apart.
    for name, areas in (
        ("near12-n4", [0.123456789012, 0.1234567890123, 0.4, 0.3]),
        ("near13-n5", [0.2, 0.2000000000004, 0.19999999999997, 0.25, 0.15]),
        ("near12-n6", [1.0, 1.000000000001, 1.0000000000004, 2.0, 0.5, 0.4999999999998]),
    ):
        cases[name] = rp.make_instance(SQUARE, areas, normalize=True)
    cases["uniform-n8-1x3"] = _generated("uniform", 8, 18, TALL)
    return cases


def _sha(layout):
    return hashlib.sha256(rp.serialize_layout(layout, include_tree=True)).hexdigest()


def _partition(inst, algo, stats=None):
    return (rp.partition_dc if algo == "dc" else rp.partition_mdc)(inst, stats)


def partition_digest(inst, algo):
    stats = rp.ReductionStats()
    layout = _partition(inst, algo, stats)
    return {"layout": _sha(layout), "stats": [stats.iterations, stats.pairwise_equivalent]}


def forced_digest(inst, algo):
    # The report carries the forced flags of the leaves; the id list pins
    # them on every node, internal ones included.
    layout = _partition(inst, algo)
    report = rp.report_to_json(rp.report(inst, layout))
    forced = rp.detect_forced(layout, inst.areas)
    return {"report": hashlib.sha256(report).hexdigest(), "forced": sorted(forced)}


def oracle_digest(inst):
    value, witness = rp.optimal_guillotine(inst)
    return {"value": value, "witness": _sha(witness)}


def compute_all():
    return {
        "partition": {
            name: {algo: partition_digest(inst, algo) for algo in ("dc", "mdc")}
            for name, inst in partition_cases().items()
        },
        "forced": {
            name: {algo: forced_digest(inst, algo) for algo in ("dc", "mdc")}
            for name, inst in partition_cases().items()
        },
        "oracle": {name: oracle_digest(inst) for name, inst in oracle_cases().items()},
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("algo", ["dc", "mdc"])
def test_partition_outputs_match_recorded_digests(recorded, algo):
    got = {name: partition_digest(inst, algo) for name, inst in partition_cases().items()}
    want = {name: entry[algo] for name, entry in recorded["partition"].items()}
    assert got == want


@pytest.mark.parametrize("algo", ["dc", "mdc"])
def test_forced_flags_match_recorded_digests(recorded, algo):
    got = {name: forced_digest(inst, algo) for name, inst in partition_cases().items()}
    want = {name: entry[algo] for name, entry in recorded["forced"].items()}
    assert got == want


def test_oracle_outputs_match_recorded_digests(recorded):
    got = {name: oracle_digest(inst) for name, inst in oracle_cases().items()}
    assert got == recorded["oracle"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
