import json
from pathlib import Path

import pytest

import rectpart as rp
from rectpart.fileio import FileFormatError

from conftest import geometric_chain, strip_chain

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


@pytest.mark.parametrize("version, tree", [
    (2, []),
    (2, [_ROOT, _LEAF0]),
    (2, [_ROOT, _LEAF0, _LEAF1, _LEAF1]),
    (2, [_LEAF0, _ROOT, _LEAF1]),
    (2, [_ROOT, "leaf", _LEAF1]),
    (2, {**_ROOT, "left": _LEAF0, "right": _LEAF1}),
    (1, [_ROOT, _LEAF0, _LEAF1]),
    (1, {**_ROOT, "left": _LEAF0}),
    (3, [_ROOT, _LEAF0, _LEAF1]),
    ("2", [_ROOT, _LEAF0, _LEAF1]),
], ids=["empty", "missing-child", "leftover-node", "leaf-first", "non-object",
        "v2-nested", "v1-list", "v1-missing-child", "unknown-version", "string-version"])
def test_parse_layout_rejects_malformed_trees(version, tree):
    doc = json.loads(rp.serialize_layout(rp.partition_dc(rp.make_instance(rp.Rect(0, 0, 1, 1), [0.5, 0.5]))))
    doc["version"] = version
    doc["tree"] = tree
    # the same document with a well-formed tree parses
    rp.parse_layout(json.dumps({**doc, "version": 2, "tree": [_ROOT, _LEAF0, _LEAF1]}))
    with pytest.raises(FileFormatError):
        rp.parse_layout(json.dumps(doc))


def test_parse_rejects_deeply_nested_json():
    with pytest.raises(FileFormatError, match="nests too deeply"):
        rp.parse_layout("[" * 100_000)


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
