"""Layouts held as columns: equal to the same layouts built from objects, and
the partition path builds no pane objects."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rectpart as rp
from rectpart import geometry
from rectpart.cli import cli_main

PARTITIONERS = {
    "dc": rp.partition_dc,
    "mdc": rp.partition_mdc,
    "oracle": lambda inst: rp.optimal_guillotine(inst)[1],
}

areas_st = st.one_of(
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
    st.builds(lambda n, q: [q**i for i in range(n)], st.integers(1, 6), st.floats(0.1, 0.95)),
    st.lists(st.sampled_from((1.0, 2.0, 3.0)), min_size=1, max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(
    areas_st,
    st.sampled_from(((1.0, 1.0), (2.0, 1.0), (1.0, 3.0))),
    st.sampled_from(sorted(PARTITIONERS)),
)
def test_column_layouts_equal_object_layouts(areas, extents, algo):
    inst = rp.make_instance(rp.Rect(0, 0, *extents), areas, normalize=True)
    partition = PARTITIONERS[algo]
    layout = partition(inst)

    again = rp.parse_layout(rp.serialize_layout(layout, include_tree=True))
    assert again == layout and hash(again) == hash(layout)

    # Copies of a layout whose rects and tree were never read.
    fresh = partition(inst)
    copies = [pickle.loads(pickle.dumps(fresh, p)) for p in (0, pickle.HIGHEST_PROTOCOL)]
    copies.append(copy.deepcopy(fresh))
    for copied in copies:
        assert copied == layout and hash(copied) == hash(layout)

    diag = rp.validate_layout(inst, fresh)
    rep = rp.report(inst, fresh) if diag.ok else None
    fresh.rects, fresh.tree  # materialize the objects
    objects = rp.Layout(layout.rects, layout.tree)
    assert objects == fresh and hash(objects) == hash(fresh)
    for lay in (fresh, objects):
        assert rp.validate_layout(inst, lay) == diag
        if rep is not None:
            assert rp.report(inst, lay) == rep


@pytest.fixture
def count_pane_objects(monkeypatch):
    """Counts of Rect, Leaf and Internal constructions from now on."""
    counts = {cls.__name__: 0 for cls in (rp.Rect, rp.Leaf, rp.Internal)}
    for cls in (rp.Rect, rp.Leaf, rp.Internal):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.parametrize("algo", ["dc", "mdc"])
def test_cli_partition_builds_no_pane_objects(tmp_path, count_pane_objects, algo):
    inst = rp.generate(rp.GenSpec(n=200, family="uniform", seed=5, container=rp.Rect(0, 0, 2, 1)))
    path = tmp_path / "inst.json"
    path.write_bytes(rp.serialize_instance(inst))
    for name in count_pane_objects:
        count_pane_objects[name] = 0
    assert cli_main([
        "partition", "--algo", algo, "--input", str(path), "--output", str(tmp_path / "lay.json"),
        "--report", str(tmp_path / "rep.json"), "--svg", str(tmp_path / "lay.svg"),
    ]) == 0
    # Only the container read from the instance file.
    assert count_pane_objects == {"Rect": 1, "Leaf": 0, "Internal": 0}


@pytest.mark.parametrize("partition", [rp.partition_dc, rp.partition_mdc])
def test_library_pipeline_builds_no_pane_objects(count_pane_objects, partition):
    inst = rp.generate(rp.GenSpec(n=200, family="uniform", seed=5, container=rp.Rect(0, 0, 2, 1)))
    for name in count_pane_objects:
        count_pane_objects[name] = 0
    layout = partition(inst)
    rp.report(inst, layout)
    assert rp.validate_layout(inst, layout).ok
    assert count_pane_objects == {"Rect": 0, "Leaf": 0, "Internal": 0}
    # The objects appear on first read.
    assert len(layout.rects) == 200 and count_pane_objects["Rect"] == 200


@pytest.mark.parametrize("partition", list(PARTITIONERS.values()), ids=list(PARTITIONERS))
def test_placer_still_checks_each_piece(partition):
    # The second piece of the first cut would start at 1.7e308 + 0.75e308,
    # beyond the largest double: Rect refuses such a pane, so the placer must.
    inst = rp.Instance(rp.Rect(1.7e308, 0, 1.5e308, 1), (0.75e308, 0.75e308))
    with pytest.raises(ValueError, match="finite"):
        partition(inst)


def test_layout_checks_coverage_on_the_kind_column():
    panes = ((0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (0.5, 0.5))
    kind = (rp.Cut.HORIZONTAL, 0, 0)
    nodes = (kind, (0.0, 0.0, 0.0), (0.0, 0.5, 0.0), (1.0, 1.0, 1.0), (1.0, 0.5, 0.5))
    with pytest.raises(ValueError, match="appears in two leaves"):
        rp.Layout.of_columns(2, nodes)
    with pytest.raises(ValueError, match="appears in two leaves"):
        rp.Layout.of_columns(2, nodes, panes)
    assert geometry.child_ids(kind) == ([1, -1, -1], [2, -1, -1])


@pytest.mark.parametrize(
    "kind, bad",
    [
        (("vertical", 0, 1), 0),  # a cut's name, which the layout writer cannot write
        ((None, 0, 1), 0),
        ((rp.Cut.HORIZONTAL, np.int64(0), 1), 1),
        ((rp.Cut.HORIZONTAL, 0, True), 2),  # True == 1, but no area index
    ],
    ids=["cut-name", "none", "numpy-int", "bool"],
)
def test_layout_refuses_kinds_that_are_neither_index_nor_cut(kind, bad):
    # Each was accepted, or refused as a cut without children; the first then
    # failed in serialize_layout with a KeyError.
    nodes = (kind, (0.0, 0.0, 0.5), (0.0, 0.0, 0.0), (1.0, 0.5, 0.5), (1.0, 1.0, 1.0))
    message = f"tree node {bad} has kind .*, neither an area index nor a Cut"
    with pytest.raises(ValueError, match=message):
        rp.Layout.of_columns(2, nodes)
    with pytest.raises(ValueError, match=message):
        geometry.child_ids(kind)


def test_tree_layout_value_is_its_node_columns():
    inst = rp.generate(rp.GenSpec(n=30, family="uniform", seed=4, container=rp.Rect(0, 0, 2, 1)))
    layout = rp.partition_mdc(inst)
    build, args = layout.__reduce__()
    assert build == rp.Layout.of_columns and args == (30, layout.nodes, None)
    # The form pickled before, which carried the panes beside the nodes.
    old = build(30, layout.nodes, layout.panes)
    assert old == layout and hash(old) == hash(layout)
    again = pickle.loads(pickle.dumps(layout, pickle.HIGHEST_PROTOCOL))
    assert again == layout and hash(again) == hash(layout)
    flat = rp.Layout.of_columns(30, None, layout.panes)
    assert flat.__reduce__()[1] == (30, None, layout.panes)
    assert flat != layout and layout != flat
    assert pickle.loads(pickle.dumps(flat)) == flat


def test_layout_refuses_columns_that_form_no_single_tree():
    # Two leaves and no cut: the coverage check alone accepted these columns,
    # and only later readers (tree, report, a file written with the tree)
    # failed on them.
    two_roots = ((0, 1), (0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError, match="form 2 trees instead of one"):
        rp.Layout.of_columns(2, two_roots)
    for empty in ((), ((),) * 5):
        with pytest.raises(ValueError, match="form 0 trees instead of one"):
            rp.Layout.of_columns(0, empty)
    # A well-formed tree keeps its child ids, read-only.
    kind = (rp.Cut.HORIZONTAL, 0, 1)
    layout = rp.Layout.of_columns(2, (kind, (0.0, 0.0, 0.0), (0.0, 0.5, 0.0), (1.0,) * 3, (1.0, 0.5, 0.5)))
    assert layout.children == ((1, -1, -1), (2, -1, -1))
    assert pickle.loads(pickle.dumps(layout)).children == layout.children
    assert rp.Layout(layout.rects, None).children is None


def test_cli_derives_each_tree_shape_once(tmp_path, monkeypatch):
    calls = []
    child_ids = geometry.child_ids

    def counting(nodes):
        calls.append(len(nodes))
        return child_ids(nodes)

    for module in (geometry, rp.bounds, rp.fileio):
        if hasattr(module, "child_ids"):
            monkeypatch.setattr(module, "child_ids", counting)
    inst = rp.generate(rp.GenSpec(n=40, family="uniform", seed=3, container=rp.Rect(0, 0, 2, 1)))
    small = rp.generate(rp.GenSpec(n=5, family="uniform", seed=3, container=rp.Rect(0, 0, 2, 1)))
    (tmp_path / "inst.json").write_bytes(rp.serialize_instance(inst))
    (tmp_path / "small.json").write_bytes(rp.serialize_instance(small))
    commands = {
        "partition": ["partition", "--algo", "dc", "--input", "inst.json", "--output", "flat.json"],
        "partition --report --svg": [
            "partition", "--algo", "mdc", "--input", "inst.json", "--output", "lay.json",
            "--report", "rep.json", "--svg", "lay.svg",
        ],
        "eval": ["eval", "--instance", "inst.json", "--layout", "lay.json", "--output", "ev.json"],
        "oracle": ["oracle", "--input", "small.json", "--output", "opt.json"],
    }
    counts = {}
    monkeypatch.chdir(tmp_path)
    for name, argv in commands.items():
        calls.clear()
        assert cli_main(argv) == 0
        counts[name] = len(calls)
    assert counts == {"partition": 1, "partition --report --svg": 1, "eval": 1, "oracle": 1}
    # A layout's first tree read reuses the child ids it holds.
    layout = rp.partition_mdc(inst)
    calls.clear()
    assert isinstance(layout.tree, rp.Internal)
    assert calls == []


def test_layout_checks_flat_pane_columns():
    with pytest.raises(ValueError, match="needs a cut tree or pane columns"):
        rp.Layout.of_columns(2, None)
    for panes in (
        ((0.0, 0.5), (0.0,), (0.5, 0.5), (1.0, 1.0)),  # a short column
        ((0.0,), (0.0,), (1.0,), (1.0,)),  # one pane for two
        ((0.0, 0.0), (0.0, 0.5), (1.0, 1.0)),  # three columns
    ):
        with pytest.raises(ValueError, match="four columns of 2 numbers"):
            rp.Layout.of_columns(2, None, panes)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            rp.Layout.of_columns(1, None, ((0.0,), (bad,), (1.0,), (1.0,)))
        with pytest.raises(ValueError, match="finite"):
            rp.Layout.of_columns(1, ((0,), (0.0,), (0.0,), (bad,), (1.0,)))
    with pytest.raises(ValueError, match="beyond the largest double"):
        rp.Layout.of_columns(1, None, ((0,), (0,), (10**400,), (1,)))
    # Coordinates are kept as floats, so the writers print them as floats.
    layout = rp.Layout.of_columns(1, None, ((0,), (0,), (1,), (1,)))
    assert all(type(v) is float for col in layout.panes for v in col)
    assert rp.serialize_layout(layout) == (
        b'{"version":2,"rects":[{"index":0,"x":0.0,"y":0.0,"width":1.0,"height":1.0}],'
        b'"totalHalfPerimeter":2.0}\n'
    )


def test_layout_refuses_panes_without_extent():
    # Such a layout was accepted, and its rects and repr then raised.
    for bad in (0.0, -0.0, -1.0):
        for col in (2, 3):
            panes = [(0.0,), (0.0,), (1.0,), (1.0,)]
            panes[col] = (bad,)
            with pytest.raises(ValueError, match="pane columns must hold positive extents"):
                rp.Layout.of_columns(1, None, tuple(panes))
            leaf = [(0,), (0.0,), (0.0,), (1.0,), (1.0,)]
            leaf[col + 1] = (bad,)
            with pytest.raises(ValueError, match="tree node columns must hold positive extents"):
                rp.Layout.of_columns(1, tuple(leaf))
            # Only the cut's own pane lacks extent; its leaves are sound.
            cut = [(rp.Cut.HORIZONTAL, 0, 1), (0.0,) * 3, (0.0, 0.5, 0.0), (1.0,) * 3, (1.0, 0.5, 0.5)]
            cut[col + 1] = (bad, *cut[col + 1][1:])
            with pytest.raises(ValueError, match="tree node columns must hold positive extents"):
                rp.Layout.of_columns(2, tuple(cut))


def test_layout_refuses_zero_panes():
    # Such a layout was written as a document that the reader refuses.
    with pytest.raises(ValueError, match="at least one pane"):
        rp.Layout((), None)
    with pytest.raises(ValueError, match="at least one pane"):
        rp.Layout.of_columns(0, None, ((),) * 4)
    with pytest.raises(rp.FileFormatError, match="at least one rect"):
        rp.parse_layout(b'{"version":2,"rects":[],"totalHalfPerimeter":0.0}')
