import gc
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import rectpart as rp
from rectpart import dc, oracle
from rectpart.geometry import cut_extents

from conftest import aspect


def test_halves_optimum():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    value, layout = rp.optimal_guillotine(inst)
    assert value == pytest.approx(3.0, rel=1e-12)
    assert rp.validate_layout(inst, layout).ok


def test_three_thirds_prefers_nested_cut():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [1 / 3, 1 / 3, 1 / 3])
    value, layout = rp.optimal_guillotine(inst)
    # one strip of width 1/3 plus the remaining 2/3 column halved: 11/3;
    # three full strips would cost 4
    assert value == pytest.approx(11 / 3, rel=1e-9)
    assert rp.validate_layout(inst, layout).ok


def test_single_area_is_container():
    container = rp.Rect(0, 0, 3, 2)
    value, layout = rp.optimal_guillotine(rp.make_instance(container, [6.0]))
    assert value == container.w + container.h
    assert layout.rects == (container,)


def test_size_guard_refuses_large_instances():
    inst = rp.make_instance(rp.Rect(0, 0, 3, 3), [1.0] * 9)
    with pytest.raises(rp.OracleSizeError):
        rp.optimal_guillotine(inst)
    value, _ = rp.optimal_guillotine(inst, max_n=9)
    assert value == pytest.approx(18.0, rel=1e-9)  # 3x3 grid of unit squares


def test_value_matches_witness_total():
    inst = rp.generate(rp.GenSpec(n=6, family="uniform", seed=5, container=rp.Rect(0, 0, 2, 1)))
    value, layout = rp.optimal_guillotine(inst)
    assert value == pytest.approx(layout.total_half_perimeter(), rel=1e-9)


def test_permutation_invariance():
    areas = [5.0, 4.0, 3.0, 2.0, 1.0]
    values = set()
    for perm in itertools.permutations(areas):
        value, _ = rp.optimal_guillotine(rp.make_instance(rp.Rect(0, 0, 5, 3), list(perm)))
        values.add(value)
    assert len(values) == 1


def _check_sandwich(inst, max_n=8, forced=True):
    # forced lower bound <= optimum <= min(dc, mdc), dc within its proven
    # factor of the optimum, and a valid witness
    value, witness = rp.optimal_guillotine(inst, max_n=max_n)
    layout = rp.partition_dc(inst)
    dc_total = layout.total_half_perimeter()
    # the search's cap is the total of dc's own placed tiling, to the bit
    assert oracle._dc_total(inst) == dc_total
    rep = rp.report(inst, layout)
    if forced:
        assert value >= rep.forced_aware_lower_bound - 1e-9
    assert value >= rep.naive_lower_bound - 1e-9
    assert value <= dc_total + 1e-9
    assert value <= rp.partition_mdc(inst).total_half_perimeter() + 1e-9
    assert dc_total / value <= rp.APPROX_FACTOR + 1e-9
    assert rp.validate_layout(inst, witness).ok


@pytest.mark.parametrize("seed", range(8))
def test_oracle_sandwich_on_small_instances(seed):
    n = 2 + seed % 5
    family = "uniform" if seed % 2 == 0 else "geometric"
    spec = rp.GenSpec(n=n, family=family, seed=seed, container=rp.Rect(0, 0, 1, 1), q=0.6)
    _check_sandwich(rp.generate(spec))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("family", ["uniform", "geometric"])
def test_oracle_sandwich_at_n7_to_8(family, n, width, seed):
    container = rp.Rect(0, 0, width, 1)
    spec = rp.GenSpec(n=n, family=family, seed=4_000_000 + seed, container=container, q=0.6)
    _check_sandwich(rp.generate(spec))


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("family, q", [("uniform", 0.5), ("geometric", 0.5), ("geometric", 0.7)])
def test_oracle_sandwich_at_n9_to_10(family, q, width, n):
    # No forced-aware check: at q=0.5 and q=0.7 on 2x1 it exceeds the
    # optimum (ROADMAP item 12), which the strict xfail below pins.
    container = rp.Rect(0, 0, width, 1)
    spec = rp.GenSpec(n=n, family=family, seed=5_000_000 + n, container=container, q=q)
    _check_sandwich(rp.generate(spec), max_n=10, forced=False)


#: ROADMAP item 12's counterexample: dc forces all 8 panes, so its
#: forced-aware value is its own total, 4.63698, while the guillotine optimum
#: is 4.57681.
ITEM_12 = rp.GenSpec(n=8, family="geometric", q=0.5, seed=4, container=rp.Rect(0, 0, 1, 1))


def test_naive_bound_holds_on_the_item_12_instance():
    inst = rp.generate(ITEM_12)
    value, witness = rp.optimal_guillotine(inst)
    assert rp.validate_layout(inst, witness).ok
    assert rp.report(inst, rp.partition_dc(inst)).naive_lower_bound <= value


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: the forced-aware value is not a bound")
def test_forced_aware_value_stays_below_the_optimum_on_the_item_12_instance():
    inst = rp.generate(ITEM_12)
    value, _ = rp.optimal_guillotine(inst)
    assert rp.report(inst, rp.partition_dc(inst)).forced_aware_lower_bound <= value


#: ROADMAP item 20's grid. Every dissection of a rectangle into at most four
#: rectangles is guillotine, so for n <= 4 the oracle's value is the true
#: optimum. The lists [1, b, c, d] (normalized, cut to n = 2..4 entries) take
#: b >= c >= d from 9 points e^0, e^-0.5, ..., e^-4, in five containers.
SMALL_GRID = [math.exp(-k / 2) for k in range(9)]
SMALL_CONTAINERS = [rp.Rect(0, 0, w, 1) for w in (1, 1.5, 2, 3, 4)]


def test_exact_ratios_at_n_up_to_4():
    worst = {rp.partition_dc: (0.0, None), rp.partition_mdc: (0.0, None)}
    for n in (2, 3, 4):
        for tail in itertools.combinations_with_replacement(SMALL_GRID, n - 1):
            for container in SMALL_CONTAINERS:
                inst = rp.make_instance(container, [1.0, *tail], normalize=True)
                optimum = rp.optimal_guillotine(inst)[0]
                for partition in worst:
                    layout = partition(inst)
                    ratio = layout.total_half_perimeter() / optimum
                    if ratio > worst[partition][0]:
                        worst[partition] = ratio, inst
                    if partition is rp.partition_dc:
                        assert ratio <= 1.203, inst
                        if all(aspect(w, h) <= 3 for _, _, w, h in zip(*layout.panes)):
                            assert ratio <= 2 / math.sqrt(3), inst
    # Measured facts, not failures: dc's worst case is 5.63% above the
    # optimum, and mdc's is 53/48 on four equal areas, which its below-mean
    # rule splits 1 against 3 where the optimum is the 2 x 2 grid.
    ratio, inst = worst[rp.partition_dc]
    assert ratio == pytest.approx(1.0562721904999, rel=1e-12)
    expected = [1.0, SMALL_GRID[1], SMALL_GRID[1], SMALL_GRID[2]]
    assert inst == rp.make_instance(SMALL_CONTAINERS[0], expected, normalize=True)
    ratio, inst = worst[rp.partition_mdc]
    assert ratio == pytest.approx(53 / 48, rel=1e-12)
    assert inst == rp.make_instance(SMALL_CONTAINERS[0], [0.25] * 4)


def _plain_optimum(vals, w, h):
    # Every guillotine tiling of the pane, each cut made by the placer's cut
    # rule: no memo and no pruning.
    if len(vals) == 1:
        return w + h
    best = math.inf
    for k in range(1, len(vals)):
        for second in itertools.combinations(range(1, len(vals)), k):
            g1 = [v for i, v in enumerate(vals) if i not in second]
            g2 = [vals[i] for i in second]
            for cut in rp.Cut:
                ext = cut_extents(w, h, cut, math.fsum(g1))
                if ext is not None:
                    w1, h1, w2, h2 = ext
                    best = min(best, _plain_optimum(g1, w1, h1) + _plain_optimum(g2, w2, h2))
    return best


def _plain_choose(w, h, values):
    # The witness's tie rule on the plain enumeration: the first candidate
    # within 1e-10 of the pane's minimum, masks ascending, then the vertical
    # cut of the pane as it lies.
    priced = []
    for mask in range(1, 1 << (len(values) - 1)):
        m2 = [j for j in range(1, len(values)) if (mask >> (j - 1)) & 1]
        m1 = [j for j in range(len(values)) if j not in m2]
        g1, g2 = [values[j] for j in m1], [values[j] for j in m2]
        a1 = math.fsum(g1)
        for cut in (rp.Cut.VERTICAL, rp.Cut.HORIZONTAL):
            ext = cut_extents(w, h, cut, a1)
            if ext is not None:
                w1, h1, w2, h2 = ext
                v = _plain_optimum(g1, w1, h1) + _plain_optimum(g2, w2, h2)
                priced.append((v, (cut, a1, m1, m2)))
    best = min(v for v, _ in priced)
    return next(choice for v, choice in priced if v <= best + 1e-10 * best)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(1, 1), (2, 1), (1, 3), (2, 2.5)]),
    st.one_of(
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
        st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=2, max_size=5),
        st.lists(st.sampled_from([1.0, 1.0, 2.0, 4.0]), min_size=2, max_size=5),
        st.lists(st.just(1.0), min_size=2, max_size=5),
        st.lists(st.sampled_from([0.1, 0.2, 0.1 + 0.2]), min_size=2, max_size=5),
        st.lists(st.sampled_from([1 / 3, 2 / 3, 1.0]), min_size=2, max_size=5),
    ),
)
def test_pruned_search_matches_plain_enumeration(extent, raw):
    container = rp.Rect(0, 0, *extent)
    inst = rp.make_instance(container, raw, normalize=True)
    value, witness = rp.optimal_guillotine(inst)
    plain = _plain_optimum(list(inst.areas), container.w, container.h)
    assert value == pytest.approx(plain, rel=1e-12)
    assert rp.validate_layout(inst, witness).ok
    assert witness.total_half_perimeter() == pytest.approx(value, abs=1e-9)
    # The memo's tie bands pick the cuts the plain enumeration's tie rule
    # picks, pane by pane.
    assert witness == rp.Layout.of_columns(inst.n, dc._place(inst, _plain_choose))
    # A cap at or above the optimum gets it exactly; one below it gets a
    # bound in (cap, optimum], each from a fresh memo.
    vals = sorted(inst.areas, reverse=True)
    exact = oracle._best({}, vals, container.w, container.h, math.inf)
    assert exact == value
    for cap in (value, value * (1 + 1e-12), value * 1.01, value * 2):
        assert oracle._best({}, vals, container.w, container.h, cap) == value
    for cap in (value * (1 - 1e-12), value * 0.99, value * 0.5, 0.0):
        assert cap < oracle._best({}, vals, container.w, container.h, cap) <= value


@pytest.mark.parametrize(
    "spec",
    [
        rp.GenSpec(n=7, family="uniform", seed=3, container=rp.Rect(0, 0, 2, 1)),
        rp.GenSpec(n=6, family="geometric", q=0.6, seed=26, container=rp.Rect(0, 0, 1, 1)),
        ITEM_12,
    ],
)
def test_root_falls_back_to_the_search_without_a_cap(spec, monkeypatch):
    # Where dc cannot cut, or its total undercuts the optimum, the root is
    # searched without a cap: the value and the witness stay those of the
    # search that dc's total caps.
    inst = rp.generate(spec)
    value, witness = rp.optimal_guillotine(inst)
    vals = sorted(inst.areas, reverse=True)
    assert value == oracle._best({}, vals, inst.container.w, inst.container.h, math.inf)
    for total in (math.inf, value * 0.9):
        monkeypatch.setattr(oracle, "_dc_total", lambda inst: total)
        assert rp.optimal_guillotine(inst) == (value, witness)


def test_search_frees_its_memo_without_the_cycle_collector():
    # The memo is freed by reference counting as soon as the search returns:
    # no reference cycle keeps it, or the functions that fill it, alive.
    inst = rp.generate(rp.GenSpec(n=7, family="uniform", seed=3, container=rp.Rect(0, 0, 2, 1)))
    gc.collect()
    gc.disable()
    try:
        rp.optimal_guillotine(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()
