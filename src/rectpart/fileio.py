"""JSON file formats for instances, layouts, and quality reports.

Instance documents::

    {"container": {"width": 1.0, "height": 1.0}, "areas": [0.5, 0.5]}

Layout documents (format version 2)::

    {"version": 2,
     "rects": [{"index": 0, "x": ..., "y": ..., "width": ..., "height": ...}, ...],
     "totalHalfPerimeter": ...,
     "tree": [node, ...]}

The optional "tree" key holds the cut tree as a flat list of nodes in
preorder: each parent, then its left subtree, then its right subtree. A leaf
is ``{"index": i, "rect": {...}}`` and an internal node is
``{"cut": "vertical" | "horizontal", "rect": {...}}``; the list fixes the
tree's shape, so a file grows linearly with the number of panes and its
nesting depth does not depend on the tree's depth. Version 1 documents (no
"version" key) nest the tree as ``{"cut", "rect", "left", "right"}`` objects;
they are still read, and re-serialize as version 2.

Layout and report documents are written compactly (no indentation or spaces),
which lets ``json`` use its C encoder; instance documents keep two-space
indentation. Numbers are IEEE-754 doubles written with Python's shortest
round-trip repr (at most 17 significant digits), so parse(serialize(x))
reproduces x bit for bit. The instance format stores extents only and places
the container at the origin.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .bounds import QualityReport
from .geometry import (
    Cut,
    Instance,
    Internal,
    Layout,
    LayoutTree,
    Leaf,
    Rect,
    make_instance,
    preorder,
)

#: Format version written by :func:`serialize_layout`.
LAYOUT_VERSION = 2


class FileFormatError(ValueError):
    """Malformed or infeasible input document."""


def _loads(data: bytes | str) -> Any:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return json.loads(data)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise FileFormatError("JSON document nests too deeply") from e


def _dumps(doc: Any) -> bytes:
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def _number(obj: Any, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise FileFormatError(f"{what} must be a number, got {obj!r}")
    v = float(obj)
    if not math.isfinite(v):
        raise FileFormatError(f"{what} must be finite, got {obj!r}")
    return v


def _positive(obj: Any, what: str) -> float:
    v = _number(obj, what)
    if v <= 0:
        raise FileFormatError(f"{what} must be positive, got {obj!r}")
    return v


def parse_instance(data: bytes | str, *, normalize: bool = False) -> Instance:
    """Decode an instance document; ``normalize`` rescales sloppy area sums."""
    doc = _loads(data)
    if not isinstance(doc, dict) or "container" not in doc or "areas" not in doc:
        raise FileFormatError('instance document needs "container" and "areas" keys')
    cont = doc["container"]
    if not isinstance(cont, dict):
        raise FileFormatError('"container" must be an object with width and height')
    w = _positive(cont.get("width"), "container width")
    h = _positive(cont.get("height"), "container height")
    areas = doc["areas"]
    if not isinstance(areas, list) or not areas:
        raise FileFormatError("at least one area is required (n >= 1)")
    vals = [_positive(a, f"areas[{i}]") for i, a in enumerate(areas)]
    try:
        return make_instance(Rect(0.0, 0.0, w, h), vals, normalize=normalize)
    except ValueError as e:
        raise FileFormatError(str(e)) from e


def serialize_instance(inst: Instance) -> bytes:
    if inst.container.x != 0.0 or inst.container.y != 0.0:
        raise FileFormatError("the instance format places the container at the origin")
    doc = {
        "container": {"width": inst.container.w, "height": inst.container.h},
        "areas": list(inst.areas),
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _rect_to_obj(r: Rect) -> dict:
    return {"x": r.x, "y": r.y, "width": r.w, "height": r.h}


def _rect_from_obj(obj: Any, what: str) -> Rect:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{what} must be an object")
    try:
        return Rect(
            _number(obj.get("x"), f"{what}.x"),
            _number(obj.get("y"), f"{what}.y"),
            _positive(obj.get("width"), f"{what}.width"),
            _positive(obj.get("height"), f"{what}.height"),
        )
    except ValueError as e:
        raise FileFormatError(str(e)) from e


def _node_to_obj(node: LayoutTree) -> dict:
    if isinstance(node, Leaf):
        return {"index": node.area_index, "rect": _rect_to_obj(node.rect)}
    return {"cut": node.cut.value, "rect": _rect_to_obj(node.rect)}


def serialize_layout(layout: Layout, *, include_tree: bool = False) -> bytes:
    doc: dict[str, Any] = {
        "version": LAYOUT_VERSION,
        "rects": [
            {"index": i, **_rect_to_obj(r)} for i, r in enumerate(layout.rects)
        ],
        "totalHalfPerimeter": layout.total_half_perimeter(),
    }
    if include_tree and layout.tree is not None:
        doc["tree"] = [_node_to_obj(node) for node in preorder(layout.tree)]
    return _dumps(doc)


def _preorder_v1(root: Any) -> list:
    """The nodes of a version 1 nested tree in preorder, as version 2 lists
    them (the builder ignores their "left" and "right" keys)."""
    out: list = []
    stack = [root]
    while stack:
        obj = stack.pop()
        out.append(obj)
        if isinstance(obj, dict) and "index" not in obj:
            if "left" not in obj or "right" not in obj:
                raise FileFormatError("internal tree nodes need left and right children")
            stack.append(obj["right"])
            stack.append(obj["left"])
    return out


def _tree_from_preorder(nodes: list) -> LayoutTree:
    """Rebuild a cut tree from its nodes in preorder.

    The list is scanned backwards, so both subtrees of a node are complete
    on the stack, left on top, when the node is reached. A valid list leaves
    exactly one tree on the stack.
    """
    if not nodes:
        raise FileFormatError("tree needs at least one node")
    stack: list[LayoutTree] = []
    for i in range(len(nodes) - 1, -1, -1):
        obj = nodes[i]
        if not isinstance(obj, dict):
            raise FileFormatError(f"tree node {i} must be an object")
        rect = _rect_from_obj(obj.get("rect"), f"tree node {i} rect")
        if "index" in obj:
            idx = obj["index"]
            if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
                raise FileFormatError(f"leaf index must be a non-negative integer, got {idx!r}")
            stack.append(Leaf(rect, idx))
            continue
        cut = obj.get("cut")
        if cut not in (Cut.VERTICAL.value, Cut.HORIZONTAL.value):
            raise FileFormatError(f'internal tree nodes need "cut" of "vertical" or "horizontal", got {cut!r}')
        if len(stack) < 2:
            raise FileFormatError(f"internal tree node {i} lacks a child")
        left = stack.pop()
        stack.append(Internal(rect, Cut(cut), left, stack.pop()))
    if len(stack) != 1:
        raise FileFormatError(f"tree nodes form {len(stack)} trees instead of one")
    return stack[0]


def parse_layout(data: bytes | str) -> Layout:
    """Decode a layout document of format version 1 or 2.

    Every index 0..n-1 must appear exactly once in the rects. When a tree is
    present its leaves must cover 0..n-1 exactly once and agree with the flat
    rect list exactly.
    """
    doc = _loads(data)
    if not isinstance(doc, dict) or "rects" not in doc:
        raise FileFormatError('layout document needs a "rects" key')
    version = doc.get("version", 1)
    if type(version) is not int or version not in (1, LAYOUT_VERSION):
        raise FileFormatError(f"unknown layout format version {version!r}")
    entries = doc["rects"]
    if not isinstance(entries, list) or not entries:
        raise FileFormatError("at least one rect is required")
    n = len(entries)
    slots: list[Rect | None] = [None] * n
    for e in entries:
        if not isinstance(e, dict) or "index" not in e:
            raise FileFormatError('each rect entry needs an "index"')
        idx = e["index"]
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < n:
            raise FileFormatError(f"rect index {idx!r} outside 0..{n - 1}")
        if slots[idx] is not None:
            raise FileFormatError(f"rect index {idx} appears twice")
        slots[idx] = _rect_from_obj(e, f"rects[{idx}]")
    rects = tuple(slots)  # type: ignore[arg-type]
    if "tree" not in doc:
        return Layout(rects, None)
    nodes = doc["tree"]
    if version == 1:
        nodes = _preorder_v1(nodes)
    elif not isinstance(nodes, list):
        raise FileFormatError('"tree" must be a list of nodes in preorder')
    tree = _tree_from_preorder(nodes)
    try:
        layout = Layout.from_tree(tree, n)
    except ValueError as e:
        raise FileFormatError(str(e)) from e
    for i, (leaf_rect, rect) in enumerate(zip(layout.rects, rects)):
        if leaf_rect != rect:
            raise FileFormatError(f"rects[{i}] disagrees with its leaf")
    return layout


def report_to_json(rep: QualityReport) -> bytes:
    doc = {
        "totalHalfPerimeter": rep.total_half_perimeter,
        "naiveLowerBound": rep.naive_lower_bound,
        "forcedAwareLowerBound": rep.forced_aware_lower_bound,
        "approxRatio": rep.approx_ratio,
        "maxAspectRatio": rep.max_aspect_ratio,
        "perRect": [
            {
                "index": p.index,
                "halfPerimeter": p.half_perimeter,
                "aspectRatio": p.aspect_ratio,
                "isForced": p.forced,
            }
            for p in rep.per_rect
        ],
    }
    return _dumps(doc)
