import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rectpart as rp
from rectpart.bounds import PaneQuality, QualityReport
from rectpart.cli import cli_main
from rectpart.fileio import FileFormatError

from conftest import (
    CONTAINERS,
    SPECIAL_FLOATS,
    column_layouts,
    geometric_chain,
    reference_report_to_json,
    reference_serialize_instance,
    reference_serialize_layout,
    strip_chain,
)

DATA = Path(__file__).parent / "data"


def test_instance_round_trip_is_bit_exact():
    spec = rp.GenSpec(n=17, family="uniform", seed=123, container=rp.Rect(0, 0, 1.5, 1))
    inst = rp.generate(spec)
    again = rp.parse_instance(rp.serialize_instance(inst))
    assert again == inst
    assert rp.serialize_instance(again) == rp.serialize_instance(inst)


def test_parse_instance_accepts_plain_document():
    doc = b'{"container":{"width":1,"height":1},"areas":[0.5,0.5]}'
    inst = rp.parse_instance(doc)
    assert inst.container == rp.Rect(0, 0, 1, 1)
    assert inst.areas == (0.5, 0.5)


def test_parse_instance_sum_mismatch_needs_normalize():
    doc = b'{"container":{"width":1,"height":1},"areas":[0.5,0.6]}'
    with pytest.raises(FileFormatError):
        rp.parse_instance(doc)
    inst = rp.parse_instance(doc, normalize=True)
    assert sum(inst.areas) == pytest.approx(1.0, rel=1e-12)


def test_parse_instance_rejects_empty_and_nonpositive():
    with pytest.raises(FileFormatError, match="n >= 1"):
        rp.parse_instance(b'{"container":{"width":1,"height":1},"areas":[]}')
    with pytest.raises(FileFormatError):
        rp.parse_instance(b'{"container":{"width":1,"height":1},"areas":[1.0,-0.5]}')
    with pytest.raises(FileFormatError):
        rp.parse_instance(b'{"container":{"width":0,"height":1},"areas":[1.0]}')


def test_parse_error_reports_line():
    bad = b'{"container": {"width": 1,\n "height": }}'
    with pytest.raises(FileFormatError, match="line 2"):
        rp.parse_instance(bad)


def test_layout_round_trip_with_tree():
    inst = rp.make_instance(rp.Rect(0, 0, 5, 3), [5, 4, 3, 2, 1])
    layout = rp.partition_dc(inst)
    data = rp.serialize_layout(layout, include_tree=True)
    again = rp.parse_layout(data)
    assert again == layout
    assert rp.serialize_layout(again, include_tree=True) == data
    doc = json.loads(data)
    assert doc["version"] == 2
    assert [node.get("cut", node.get("index")) for node in doc["tree"]] == [
        "vertical", "horizontal", 0, 1, "horizontal", 2, "vertical", 3, 4
    ]


@pytest.mark.parametrize("make", [
    lambda: rp.partition_dc(geometric_chain()),
    lambda: strip_chain(3000),
], ids=["dc-geometric-q0.5-n600", "strip-chain-3000"])
def test_deep_layout_round_trip_is_bit_exact(make):
    layout = make()
    data = rp.serialize_layout(layout, include_tree=True)
    again = rp.parse_layout(data)
    assert again == layout
    assert rp.serialize_layout(again, include_tree=True) == data


def test_v1_layout_still_parses_and_reserializes_as_v2():
    data = (DATA / "layout_v1_n5.json").read_bytes()
    assert "version" not in json.loads(data)
    layout = rp.parse_layout(data)
    assert layout == rp.partition_dc(rp.make_instance(rp.Rect(0, 0, 5, 3), [5, 4, 3, 2, 1]))
    v2 = rp.serialize_layout(layout, include_tree=True)
    assert json.loads(v2)["version"] == 2
    assert rp.parse_layout(v2) == layout


_LEAF0 = {"index": 0, "rect": {"x": 0, "y": 0.5, "width": 1, "height": 0.5}}
_LEAF1 = {"index": 1, "rect": {"x": 0, "y": 0, "width": 1, "height": 0.5}}
_ROOT = {"cut": "horizontal", "rect": {"x": 0, "y": 0, "width": 1, "height": 1}}


#: Malformed trees in a two-halves document: id -> (version, tree, the error parse_layout names).
MALFORMED_TREES = {
    "empty": (2, [], "tree nodes form 0 trees instead of one"),
    "missing-child": (2, [_ROOT, _LEAF0], "internal tree node 0 lacks a child"),
    "leftover-node": (2, [_ROOT, _LEAF0, _LEAF1, _LEAF1], "tree nodes form 2 trees instead of one"),
    "leaf-first": (2, [_LEAF0, _ROOT, _LEAF1], "internal tree node 1 lacks a child"),
    "bottom-first": (2, [_ROOT, _LEAF1, _LEAF0],
                     "the children of tree node 0 do not tile it along its horizontal cut"),
    "non-object": (2, [_ROOT, "leaf", _LEAF1], "tree node 1 must be an object"),
    "v2-nested": (2, {**_ROOT, "left": _LEAF0, "right": _LEAF1},
                  '"tree" must be a list of nodes in preorder'),
    "v1-list": (1, [_ROOT, _LEAF0, _LEAF1], "tree node 0 must be an object"),
    "v1-missing-child": (1, {**_ROOT, "left": _LEAF0}, "internal tree nodes need left and right children"),
    "unknown-version": (3, [_ROOT, _LEAF0, _LEAF1], "unknown layout format version 3"),
    "string-version": ("2", [_ROOT, _LEAF0, _LEAF1], "unknown layout format version '2'"),
    "rect-not-object": (2, [_ROOT, {"index": 0, "rect": 5}, _LEAF1], "tree node 1 rect must be an object"),
    "negative-leaf": (2, [_ROOT, {**_LEAF0, "index": -1}, _LEAF1],
                      "leaf index -1 out of range for n=2"),
    "bool-leaf": (2, [_ROOT, {**_LEAF0, "index": True}, _LEAF1],
                  "tree node 1 has kind True, neither an area index nor a Cut"),
    "diagonal-cut": (2, [{**_ROOT, "cut": "diagonal"}, _LEAF0, _LEAF1],
                     'internal tree nodes need "cut" of "vertical" or "horizontal", got \'diagonal\''),
}


@pytest.mark.parametrize("version, tree", [case[:2] for case in MALFORMED_TREES.values()],
                         ids=list(MALFORMED_TREES))
def test_parse_layout_rejects_malformed_trees(version, tree):
    doc = json.loads(rp.serialize_layout(rp.partition_dc(rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5]))))
    doc["version"] = version
    doc["tree"] = tree
    # the same document with a well-formed tree parses
    rp.parse_layout(json.dumps({**doc, "version": 2, "tree": [_ROOT, _LEAF0, _LEAF1]}))
    with pytest.raises(FileFormatError):
        rp.parse_layout(json.dumps(doc))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: only the reader judges a tree's cuts")
def test_a_layout_that_validates_reads_back_from_its_file():
    # The root is 2x1 while its leaves are the 1x0.5 halves of the unit
    # square: every library call takes the layout, and only the reader
    # refuses it ("the children of tree node 0 do not tile it along its
    # horizontal cut").
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    top, bottom = rp.Rect(0, 0.5, 1, 0.5), rp.Rect(0, 0, 1, 0.5)
    tree = rp.Internal(rp.Rect(0, 0, 2, 1), rp.Cut.HORIZONTAL, rp.Leaf(top, 0), rp.Leaf(bottom, 1))
    layout = rp.Layout([top, bottom], tree)
    assert rp.Layout.of_columns(2, layout.nodes) == layout
    assert rp.validate_layout(inst, layout).ok
    rp.report(inst, layout)
    assert rp.parse_layout(rp.serialize_layout(layout, include_tree=True)) == layout


@pytest.mark.parametrize("case", list(MALFORMED_TREES))
def test_parse_layout_names_the_first_tree_error(tmp_path, capsys, case):
    version, tree, error = MALFORMED_TREES[case]
    doc = json.loads(rp.serialize_layout(rp.partition_dc(rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5]))))
    data = json.dumps({**doc, "version": version, "tree": tree})
    with pytest.raises(FileFormatError) as info:
        rp.parse_layout(data)
    assert str(info.value) == error
    inst = tmp_path / "inst.json"
    inst.write_bytes(rp.serialize_instance(rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])))
    (tmp_path / "layout.json").write_text(data)
    out = tmp_path / "eval.json"
    argv = ["eval", "--instance", str(inst), "--layout", str(tmp_path / "layout.json"), "--output", str(out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("doc, error", [
    ('{"container": {"width": "1", "height": 1}, "areas": [1]}', "container width must be a number, got '1'"),
    ('{"areas": [1]}', 'instance document needs "container" and "areas" keys'),
    ('{"container": [1, 1], "areas": [1]}', '"container" must be an object with width and height'),
    ('{"container": {"width": Infinity, "height": 1}, "areas": [1]}',
     "container: rectangle field w must be finite, got inf"),
], ids=["string-width", "no-container", "list-container", "infinite-width"])
def test_parse_instance_rejects_malformed_documents(doc, error):
    with pytest.raises(FileFormatError) as info:
        rp.parse_instance(doc)
    assert str(info.value) == error


def _label(text):
    return "400-digits" if len(text) == 400 else text


#: Instance documents that no reading may accept, each with its one refusal,
#: which names the offending entry. Bad areas sit at index 1, after a good one.
BAD_INSTANCES = {
    f"area={_label(text)}": ('{"container": {"width": 1, "height": 1}, "areas": [0.5, %s]}' % text, error)
    for text, error in [
        ('"1"', "area #1 must be a number, got '1'"),
        ("true", "area #1 must be a number, got True"),
        ("null", "area #1 must be a number, got None"),
        ("NaN", "area #1 must be positive and finite, got nan"),
        ("Infinity", "area #1 must be positive and finite, got inf"),
        ("-Infinity", "area #1 must be positive and finite, got -inf"),
        ("0", "area #1 must be positive and finite, got 0.0"),
        ("-0.0", "area #1 must be positive and finite, got -0.0"),
        ("-0.5", "area #1 must be positive and finite, got -0.5"),
        ("9" * 400, "area #1 lies beyond the largest double"),
    ]
} | {
    f"width={_label(text)}": ('{"container": {"width": %s, "height": 1}, "areas": [1]}' % text, error)
    for text, error in [
        ("9" * 400, "container: rectangle field w lies beyond the largest double"),
        ("0", "container: rectangle field w must be positive, got 0.0"),
        ("-1", "container: rectangle field w must be positive, got -1.0"),
        ("Infinity", "container: rectangle field w must be finite, got inf"),
    ]
} | {
    "areas=[]": ('{"container": {"width": 1, "height": 1}, "areas": []}',
                 "at least one target area is required (n >= 1)"),
    "areas={}": ('{"container": {"width": 1, "height": 1}, "areas": {"a": 1}}',
                 '"areas" must be a list'),
}


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("case", list(BAD_INSTANCES))
def test_instance_reader_refuses_bad_numbers(tmp_path, capsys, case, normalize):
    doc, error = BAD_INSTANCES[case]
    with pytest.raises(FileFormatError) as info:
        rp.parse_instance(doc, normalize=normalize)
    assert str(info.value) == error
    (tmp_path / "inst.json").write_text(doc)
    out = tmp_path / "layout.json"
    argv = ["partition", "--algo", "dc", "--input", str(tmp_path / "inst.json"), "--output", str(out)]
    assert cli_main(argv + ["--normalize"] * normalize) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


_json_numbers = st.integers() | st.floats() | st.integers(min_value=-10**400, max_value=10**400)
#: Mostly accepted, though their extremes can still overflow or underflow.
_positive_numbers = st.integers(min_value=1, max_value=10**6) | st.floats(min_value=1e-300, max_value=1e300)
_json_values = st.recursive(
    st.none() | st.booleans() | _json_numbers | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _json_values,
        *(st.fixed_dictionaries({
            "container": st.fixed_dictionaries({"width": numbers, "height": numbers}),
            "areas": st.lists(numbers, max_size=6),
        }) for numbers in (_json_numbers, _positive_numbers)),
        st.fixed_dictionaries({"container": _json_values, "areas": _json_values}),
    ),
    st.booleans(),
)
# 2**53 + 1 reads as its nearest double, 2**53.
@example({"container": {"width": 1, "height": 9007199254740993}, "areas": [1]}, True)
def test_parse_instance_returns_an_instance_or_refuses(doc, normalize):
    try:
        inst = rp.parse_instance(json.dumps(doc), normalize=normalize)
    except FileFormatError:
        return
    # The reader promises each number's nearest double.
    want = (float(doc["container"]["width"]), float(doc["container"]["height"]))
    assert (inst.container.w, inst.container.h) == want
    assert inst.n == len(doc["areas"])


_RECT = {"x": 0, "y": 0, "width": 1, "height": 1}


@pytest.mark.parametrize("doc, error", [
    ({"version": 2}, 'layout document needs a "rects" key'),
    ({"version": 2, "rects": []}, "at least one rect is required"),
    ({"version": 2, "rects": [_RECT]}, 'each rect entry needs an "index"'),
], ids=["no-rects", "empty-rects", "no-index"])
def test_parse_layout_rejects_malformed_rects(doc, error):
    with pytest.raises(FileFormatError) as info:
        rp.parse_layout(json.dumps(doc))
    assert str(info.value) == error


#: JSON texts that no pane field or leaf index may hold, for n=2.
BAD_WIDTHS = ["NaN", "Infinity", "-1", "0", "-0.0"]
BAD_INDICES = ["-1", "true", "1.5", '"0"', "null", "2"]
#: Where each text goes: a pane field, then a leaf index. In the tree, the
#: pane is the root's, which has no leaf entry to disagree with.
PLACES = {"rects": (("rects", 0), ("rects", 0)), "tree": (("tree", 0, "rect"), ("tree", 1))}


@pytest.mark.parametrize("place", list(PLACES))
@pytest.mark.parametrize(
    "field, text",
    [("width", t) for t in BAD_WIDTHS] + [("x", "9" * 400)] + [("index", t) for t in BAD_INDICES],
    ids=[f"width={t}" for t in BAD_WIDTHS] + ["x=400-digits"] + [f"index={t}" for t in BAD_INDICES],
)
def test_reader_refuses_bad_numbers_and_leaf_indices(tmp_path, capsys, place, field, text):
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    doc = json.loads(rp.serialize_layout(rp.partition_dc(inst), include_tree=True))
    target = doc
    for key in PLACES[place][field == "index"]:
        target = target[key]
    target[field] = "@BAD@"
    data = json.dumps(doc).replace('"@BAD@"', text)
    with pytest.raises(FileFormatError):
        rp.parse_layout(data)
    (tmp_path / "inst.json").write_bytes(rp.serialize_instance(inst))
    (tmp_path / "layout.json").write_text(data)
    out = tmp_path / "eval.json"
    argv = ["eval", "--instance", str(tmp_path / "inst.json"),
            "--layout", str(tmp_path / "layout.json"), "--output", str(out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


def test_parse_rejects_deeply_nested_json():
    with pytest.raises(FileFormatError, match="nests too deeply"):
        rp.parse_layout("[" * 100_000)


@pytest.mark.parametrize("parse", [rp.parse_instance, rp.parse_layout])
def test_parse_rejects_bytes_that_are_not_utf8(parse):
    with pytest.raises(FileFormatError) as info:
        parse(b"\xff{}")
    assert str(info.value) == "not UTF-8 text at byte 0: invalid start byte"


@pytest.mark.parametrize("parse", [rp.parse_instance, rp.parse_layout])
def test_parse_rejects_integer_literals_too_long_to_convert(parse):
    # Python refuses to convert an integer literal of more than 4,300 digits.
    with pytest.raises(FileFormatError, match="^invalid JSON: Exceeds the limit"):
        parse('{"container": {"width": 1, "height": 1}, "areas": [%s], "rects": []}' % ("9" * 5000))


def test_layout_round_trip_flat():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    layout = rp.partition_dc(inst)
    again = rp.parse_layout(rp.serialize_layout(layout))
    assert again.tree is None
    assert again.rects == layout.rects


def test_layout_total_field_matches():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    doc = json.loads(rp.serialize_layout(rp.partition_dc(inst)))
    assert doc["totalHalfPerimeter"] == pytest.approx(3.0, rel=1e-12)
    assert sorted(e["index"] for e in doc["rects"]) == [0, 1]


def test_parse_layout_rejects_duplicate_and_gap_indices():
    rect = {"x": 0, "y": 0, "width": 1, "height": 0.5}
    doc = {"rects": [{"index": 0, **rect}, {"index": 0, **rect}], "totalHalfPerimeter": 3.0}
    with pytest.raises(FileFormatError, match="twice"):
        rp.parse_layout(json.dumps(doc))
    doc = {"rects": [{"index": 0, **rect}, {"index": 2, **rect}], "totalHalfPerimeter": 3.0}
    with pytest.raises(FileFormatError):
        rp.parse_layout(json.dumps(doc))


def test_parse_layout_rejects_tree_leaf_mismatch():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    doc = json.loads(rp.serialize_layout(rp.partition_dc(inst), include_tree=True))
    doc["rects"][0]["x"] = 0.25
    with pytest.raises(FileFormatError):
        rp.parse_layout(json.dumps(doc))


def test_report_json_fields():
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5])
    rep = rp.report(inst, rp.partition_dc(inst))
    doc = json.loads(rp.report_to_json(rep))
    assert set(doc) == {
        "totalHalfPerimeter",
        "naiveLowerBound",
        "forcedAwareLowerBound",
        "approxRatio",
        "maxAspectRatio",
        "perRect",
    }
    assert doc["perRect"][0]["isForced"] is True
    assert doc["approxRatio"] == pytest.approx(1.0, rel=1e-12)


def test_serialize_instance_requires_origin_container():
    inst = rp.make_instance(rp.Rect(1, 0, 1, 1), [1.0])
    with pytest.raises(FileFormatError):
        rp.serialize_instance(inst)


def _outcome(write, *args, **kwargs):
    """The bytes a writer returns, or the type of the error it raises."""
    try:
        return write(*args, **kwargs)
    except (ValueError, OverflowError) as e:
        return type(e)


@settings(max_examples=300, deadline=None)
@given(column_layouts(), st.booleans())
def test_layout_writer_matches_json_dumps_on_column_layouts(layout, include_tree):
    assert _outcome(rp.serialize_layout, layout, include_tree=include_tree) == _outcome(
        reference_serialize_layout, layout, include_tree=include_tree
    )


#: Instance containers, all at the origin: square and not, tiny and huge.
ORIGIN_CONTAINERS = (
    rp.Rect(0, 0, 1, 1),
    rp.Rect(-0.0, -0.0, 3, 1.5),
    rp.Rect(0, 0, 1e-150, 1e-150),
    rp.Rect(0, 0, 1e-300, 4),
    rp.Rect(0, 0, 1e150, 1e150),
    rp.Rect(0, 0, 0.5, 1e300),
)

positive_floats = st.one_of(
    st.sampled_from([v for v in SPECIAL_FLOATS if v > 0]), st.floats(min_value=5e-324)
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ORIGIN_CONTAINERS),
    st.lists(positive_floats, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=30)
    ),
)
def test_instance_writer_matches_json_dumps(container, areas):
    try:
        inst = rp.make_instance(container, areas, normalize=True)
    except ValueError:
        assume(False)  # the areas overflow their sum, or one rescales to zero
    assert rp.serialize_instance(inst) == reference_serialize_instance(inst)


# The tiny containers are left out: the generator refuses long geometric
# lists there, whose smallest areas underflow.
@pytest.mark.parametrize("container", [c for c in ORIGIN_CONTAINERS if c.area >= 1])
@pytest.mark.parametrize("family, q", [("uniform", 0.5), ("geometric", 0.5), ("geometric", 0.9)])
@pytest.mark.parametrize("n", [1, 2, 17, 1000])
def test_instance_writer_matches_json_dumps_on_generated_instances(container, family, q, n):
    inst = rp.generate(rp.GenSpec(n=n, family=family, q=q, seed=n, container=container))
    assert rp.serialize_instance(inst) == reference_serialize_instance(inst)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(CONTAINERS),
    st.one_of(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30),
        st.lists(st.sampled_from((1.0, 2.0, 4.0)), min_size=1, max_size=30),
    ),
    st.sampled_from([rp.partition_dc, rp.partition_mdc]),
)
def test_writers_match_json_dumps_on_partitions(container, areas, partition):
    inst = rp.make_instance(container, areas, normalize=True)
    try:
        layout = partition(inst)
    except ValueError:
        assume(False)  # no representable cut (ROADMAP item 4)
    for include_tree in (False, True):
        data = rp.serialize_layout(layout, include_tree=include_tree)
        assert data == reference_serialize_layout(layout, include_tree=include_tree)
    if rp.validate_layout(inst, layout).ok:
        rep = rp.report(inst, layout)
        assert rp.report_to_json(rep) == reference_report_to_json(rep)


def test_report_writes_null_for_an_infinite_aspect_ratio():
    inst = rp.make_instance(rp.Rect(0, 0, 1e-300, 1e10), [5e-291, 5e-291])
    rep = rp.report(inst, rp.partition_dc(inst))
    assert rep.max_aspect_ratio == math.inf
    data = rp.report_to_json(rep)
    assert data == reference_report_to_json(rep)
    doc = json.loads(data)
    assert doc["maxAspectRatio"] is None and doc["perRect"][0]["aspectRatio"] is None


report_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, 5e-324, 1e300, math.inf)),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(*[report_numbers] * 5),
    st.lists(st.tuples(report_numbers, report_numbers, st.booleans()), max_size=6),
)
def test_report_writer_matches_json_dumps(scalars, rows):
    rep = QualityReport(*scalars, tuple(PaneQuality(i, *row) for i, row in enumerate(rows)))
    assert _outcome(rp.report_to_json, rep) == _outcome(reference_report_to_json, rep)


def test_writers_refuse_numbers_json_lacks():
    # One pane whose half-perimeter overflows: the total is infinite.
    layout = rp.Layout.of_columns(1, None, ((0.0,), (0.0,), (1.7e308,), (1.7e308,)))
    assert layout.total_half_perimeter() == math.inf
    for include_tree in (False, True):
        with pytest.raises(ValueError):
            rp.serialize_layout(layout, include_tree=include_tree)
    pane = PaneQuality(0, 2.0, 1.0, True)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            rp.report_to_json(QualityReport(bad, 2.0, 2.0, 1.0, 1.0, (pane,)))
        bad_pane = PaneQuality(0, bad, 1.0, True)
        with pytest.raises(ValueError):
            rp.report_to_json(QualityReport(2.0, 2.0, 2.0, 1.0, 1.0, (bad_pane,)))
