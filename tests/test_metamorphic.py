"""Metamorphic relations: the partitioners and the oracle checked against
themselves at sizes that no oracle run or pinned digest reaches (Chen, Cheung
& Yiu, *Metamorphic testing: a new approach for generating next test cases*,
1998).

- Scaling the container by 2**k and the areas by 4**k scales every pane and
  node coordinate by 2**k, bit for bit: each placement step is a product,
  quotient, exact sum or relative comparison, and none of them notices a
  power-of-two factor while no number leaves the normal range.
- Transposing a non-square container keeps the total bit for bit.
- Permuting distinct areas permutes the panes.

Together the tests take about 6 s; the large-n cases run once each.
"""

from math import ldexp

import pytest
from hypothesis import assume, given, settings, strategies as st

import rectpart as rp

PARTITIONS = [rp.partition_dc, rp.partition_mdc]
KS = (-40, -3, 5, 60)
CONTAINERS = [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (3.0, 2.0)]


def _instance(n, family, q, seed, w, h):
    spec = rp.GenSpec(n=n, family=family, q=q, seed=seed, container=rp.Rect(0, 0, w, h))
    return rp.generate(spec)


@st.composite
def instances(draw, max_n=120):
    family, q = draw(st.sampled_from([("uniform", 0.5), ("geometric", 0.5), ("geometric", 0.9)]))
    w, h = draw(st.sampled_from(CONTAINERS))
    return _instance(draw(st.integers(2, max_n)), family, q, draw(st.integers(0, 2**32)), w, h)


def _scaled(inst, k):
    c = inst.container
    return rp.make_instance(
        rp.Rect(0, 0, ldexp(c.w, k), ldexp(c.h, k)), [ldexp(a, 2 * k) for a in inst.areas]
    )


def _transposed(inst):
    return rp.make_instance(rp.Rect(0, 0, inst.container.h, inst.container.w), inst.areas)


def _permuted(inst, perm):
    return rp.make_instance(inst.container, [inst.areas[p] for p in perm])


def _assert_scaled(got, want, k):
    assert got.nodes[0] == want.nodes[0]
    for g, c in zip(got.nodes[1:] + got.panes, want.nodes[1:] + want.panes):
        assert g == tuple(ldexp(v, k) for v in c)


def _assert_permuted(got, want, perm):
    for g, c in zip(got.panes, want.panes):
        assert g == tuple(c[p] for p in perm)


def _check_all(partition, inst, perm):
    layout = partition(inst)
    for k in KS:
        _assert_scaled(partition(_scaled(inst, k)), layout, k)
    if inst.container.w != inst.container.h:
        total = partition(_transposed(inst)).total_half_perimeter()
        assert total == layout.total_half_perimeter()
    if len(set(inst.areas)) == inst.n:
        _assert_permuted(partition(_permuted(inst, perm)), layout, perm)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PARTITIONS), instances(), st.randoms(use_true_random=False))
def test_partitions_scale_transpose_and_permute(partition, inst, rnd):
    perm = list(range(inst.n))
    rnd.shuffle(perm)
    _check_all(partition, inst, perm)


@pytest.mark.parametrize(
    "partition, n", [(rp.partition_dc, 2000), (rp.partition_mdc, 10_000)], ids=["dc", "mdc"]
)
def test_relations_hold_at_large_n(partition, n):
    inst = _instance(n, "uniform", 0.5, 19, 2.0, 1.0)
    assert len(set(inst.areas)) == n  # so the permutation relation runs
    perm = list(range(n))[::-1]
    _check_all(partition, inst, perm)


@settings(max_examples=30, deadline=None)
@given(instances(max_n=7), st.randoms(use_true_random=False))
def test_oracle_value_and_witness_obey_the_relations(inst, rnd):
    value, witness = rp.optimal_guillotine(inst)
    for k in KS:
        v, w = rp.optimal_guillotine(_scaled(inst, k))
        assert v == ldexp(value, k)
        _assert_scaled(w, witness, k)
    if inst.container.w != inst.container.h:
        assert rp.optimal_guillotine(_transposed(inst))[0] == value
    assume(len(set(inst.areas)) == inst.n)
    perm = list(range(inst.n))
    rnd.shuffle(perm)
    v, w = rp.optimal_guillotine(_permuted(inst, perm))
    assert v == value
    _assert_permuted(w, witness, perm)
