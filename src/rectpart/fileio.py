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

Every document is written by filling fixed ``%`` templates, in the bytes
the standard ``json`` encoder gives: layout and report documents compactly
(no indentation or spaces), instance documents with two-space indentation.
Each number becomes text one way, by its ``repr`` (``float.__repr__``):
Python's shortest round-trip repr, at most 17 significant digits, with
``-0.0`` keeping its sign. So parse(serialize(x)) reproduces x bit for bit.
The layout and report writers build their documents as one sequence of
encoded chunks of at most :data:`CHUNK` rows (panes, tree nodes or report
rows): each returns their join, or, given a destination (a path or a binary
file), writes them there one by one, so no copy of the whole document is
ever held. With the tree, the layout writer keeps the leaves' texts from the
rects section, which comes first, for the tree's leaf nodes. Every refusal
runs before the first chunk, so a refused document opens no file.
Layout and report documents never hold NaN or Infinity, which JSON lacks
(RFC 8259). The instance format stores extents only and places the
container at the origin.
"""

from __future__ import annotations

import json
import math
import os
from typing import IO, Any, Iterable, Iterator, Sequence, Union

from .bounds import PaneQuality, QualityReport
from .geometry import (
    Cut,
    Instance,
    Layout,
    Pane,
    PaneColumns,
    Rect,
    check_cuts,
    make_instance,
)

#: Format version written by :func:`serialize_layout`.
LAYOUT_VERSION = 2

#: Rows (panes, tree nodes or report rows) a writer formats and encodes at once.
CHUNK = 1024

#: Where a writer puts its document: a file path, or a binary file open for writing.
Destination = Union[str, os.PathLike, IO[bytes]]


class FileFormatError(ValueError):
    """Malformed or infeasible input document."""


def _loads(data: bytes | str) -> Any:
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as e:
        raise FileFormatError(f"not UTF-8 text at byte {e.start}: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise FileFormatError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise FileFormatError("JSON document nests too deeply") from e
    except ValueError as e:  # such as an integer literal longer than Python converts
        raise FileFormatError(f"invalid JSON: {e}") from e


def _numbers(values: Sequence, names: Iterable[str]) -> Any:
    """``values``, refusing the first that is not a JSON number (an int or a
    float, not a bool) by its entry in ``names``. Their holders judge them."""
    if not {*map(type, values)} <= {int, float}:
        name, v = next((name, v) for name, v in zip(names, values) if type(v) not in (int, float))
        raise FileFormatError(f"{name} must be a number, got {v!r}")
    return values


def parse_instance(data: bytes | str, *, normalize: bool = False) -> Instance:
    """Decode an instance document; ``normalize`` rescales sloppy area sums.
    :class:`Rect` judges the container's numbers and :class:`Instance` the areas."""
    doc = _loads(data)
    if not isinstance(doc, dict) or "container" not in doc or "areas" not in doc:
        raise FileFormatError('instance document needs "container" and "areas" keys')
    cont, areas = doc["container"], doc["areas"]
    if not isinstance(cont, dict):
        raise FileFormatError('"container" must be an object with width and height')
    if not isinstance(areas, list):
        raise FileFormatError('"areas" must be a list')
    w, h = _numbers((cont.get("width"), cont.get("height")), ("container width", "container height"))
    _numbers(areas, map("area #{}".format, range(len(areas))))
    where = "container: "
    try:
        container = Rect(0.0, 0.0, w, h)
        where = ""
        return make_instance(container, areas, normalize=normalize)
    except ValueError as e:
        raise FileFormatError(where + str(e)) from e


#: The instance document: two-space indentation, one area a line.
_INSTANCE = (
    '{\n  "container": {\n    "width": %r,\n    "height": %r\n  },\n'
    '  "areas": [\n    %s\n  ]\n}\n'
)


def serialize_instance(inst: Instance) -> bytes:
    c = inst.container
    if c.x != 0.0 or c.y != 0.0:
        raise FileFormatError("the instance format places the container at the origin")
    return (_INSTANCE % (c.w, c.h, ",\n    ".join(map(float.__repr__, inst.areas)))).encode()


def _pane_from_obj(obj: Any, what: str) -> Pane:
    # Only what JSON can get wrong; the Layout built from the pane judges the numbers.
    if not isinstance(obj, dict):
        raise FileFormatError(f"{what} must be an object")
    pane = obj.get("x"), obj.get("y"), obj.get("width"), obj.get("height")
    return _numbers(pane, map(f"{what}.{{}}".format, ("x", "y", "width", "height")))


#: A pane's JSON members and closing brace, filled in a rects entry and in a cut node.
_PANE_BODY = '"x":%r,"y":%r,"width":%r,"height":%r}'

_CUT_NODE = {cut: '{"cut":"%s","rect":{%s}' % (cut.value, _PANE_BODY) for cut in Cut}


def _finite_text(v: float, what: str) -> str:
    if not math.isfinite(v):
        raise ValueError(f"{what} is {v!r}, which JSON cannot hold")
    return repr(v)


def _emit(chunks: Iterator[bytes], dest: Destination | None) -> bytes | None:
    """The join of ``chunks``, or None once they are written to ``dest``. A
    path is opened only here, after the writer's refusals have run."""
    if dest is None:
        return b"".join(chunks)
    if hasattr(dest, "write"):
        dest.writelines(chunks)  # type: ignore[union-attr]
    else:
        with open(dest, "wb") as f:  # type: ignore[arg-type]
            f.writelines(chunks)
    return None


def _layout_chunks(layout: Layout, total: str, include_tree: bool) -> Iterator[bytes]:
    nodes = layout.nodes if include_tree else None
    leaf_bodies: list[str] = []  # a leaf node reuses its rects entry's pane text
    yield b'{"version":%d,"rects":[' % LAYOUT_VERSION
    n = len(layout.panes[0])
    for lo in range(0, n, CHUNK):
        bodies = list(map(_PANE_BODY.__mod__, zip(*(col[lo : lo + CHUNK] for col in layout.panes))))
        if nodes is not None:
            leaf_bodies += bodies
        rows = map('{"index":%d,%s'.__mod__, zip(range(lo, n), bodies))
        yield ("," * (lo > 0) + ",".join(rows)).encode()
    yield ('],"totalHalfPerimeter":%s' % total).encode()
    if nodes is not None:
        yield b',"tree":['
        for lo in range(0, len(nodes[0]), CHUNK):
            rows = (
                '{"index":%d,"rect":{%s}' % (k, leaf_bodies[k]) if isinstance(k, int)
                else _CUT_NODE[k] % (x, y, w, h)
                for k, x, y, w, h in zip(*(col[lo : lo + CHUNK] for col in nodes))
            )
            yield ("," * (lo > 0) + ",".join(rows)).encode()
        yield b"]"
    yield b"}\n"


def serialize_layout(
    layout: Layout, *, include_tree: bool = False, dest: Destination | None = None
) -> bytes | None:
    """The layout document (with the cut tree when ``include_tree`` and the
    layout has one) as bytes, or, given ``dest``, written there in chunks,
    returning None. ValueError if the total half-perimeter is not finite."""
    total = _finite_text(layout.total_half_perimeter(), "totalHalfPerimeter")
    return _emit(_layout_chunks(layout, total, include_tree), dest)


def _preorder_v1(root: Any) -> list:
    """The nodes of a version 1 nested tree in preorder, as version 2 lists
    them (the reader ignores their "left" and "right" keys)."""
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


def _node_from_obj(obj: Any, i: int) -> tuple:
    """One row of the tree's columns: kind (a leaf's index as written), x, y, w, h."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"tree node {i} must be an object")
    pane = _pane_from_obj(obj.get("rect"), f"tree node {i} rect")
    if "index" in obj:
        return (obj["index"], *pane)
    cut = obj.get("cut")
    if cut not in (Cut.VERTICAL.value, Cut.HORIZONTAL.value):
        raise FileFormatError(f'internal tree nodes need "cut" of "vertical" or "horizontal", got {cut!r}')
    return (Cut(cut), *pane)


def parse_layout(data: bytes | str) -> Layout:
    """Decode a layout document of format version 1 or 2. The reader checks
    what JSON can get wrong: keys, types, and rect indices naming 0..n-1 once
    each. :class:`Layout` judges the numbers, the tree's shape and its leaves,
    and :func:`geometry.check_cuts` the tiling, by the placer's own cut rule."""
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
    slots: list[Pane | None] = [None] * n
    for e in entries:
        if not isinstance(e, dict) or "index" not in e:
            raise FileFormatError('each rect entry needs an "index"')
        idx = e["index"]
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < n:
            raise FileFormatError(f"rect index {idx!r} outside 0..{n - 1}")
        if slots[idx] is not None:
            raise FileFormatError(f"rect index {idx} appears twice")
        slots[idx] = _pane_from_obj(e, f"rects[{idx}]")
    panes: PaneColumns = tuple(zip(*slots))  # type: ignore[assignment]
    nodes = None
    if "tree" in doc:
        objs = doc["tree"]
        if version == 1:
            objs = _preorder_v1(objs)
        elif not isinstance(objs, list):
            raise FileFormatError('"tree" must be a list of nodes in preorder')
        nodes = tuple(zip(*[_node_from_obj(obj, i) for i, obj in enumerate(objs)]))
    try:
        layout = Layout.of_columns(n, nodes, panes)  # type: ignore[arg-type]
        check_cuts(layout)
    except ValueError as e:
        raise FileFormatError(str(e)) from e
    return layout


_PANE_REPORT = '{"index":%d,"halfPerimeter":%r,"aspectRatio":%s,"isForced":%s}'


def _report_row(p: PaneQuality) -> str:
    ratio = "null" if p.aspect_ratio == math.inf else repr(p.aspect_ratio)
    return _PANE_REPORT % (p.index, p.half_perimeter, ratio, "true" if p.forced else "false")


def _report_chunks(head: str, rows: Sequence[PaneQuality]) -> Iterator[bytes]:
    yield head.encode()
    for lo in range(0, len(rows), CHUNK):
        yield ("," * (lo > 0) + ",".join(map(_report_row, rows[lo : lo + CHUNK]))).encode()
    yield b"]}\n"


def report_to_json(rep: QualityReport, *, dest: Destination | None = None) -> bytes | None:
    """The report as a JSON document, as bytes or, given ``dest``, written
    there in chunks, returning None. An aspect ratio beyond the largest
    double (a pane whose sides differ by more than that factor) is written
    as null, which keeps the document valid JSON; :class:`QualityReport`
    itself keeps ``inf``. Any other number that is not finite raises
    ValueError."""
    rows = rep.per_rect
    if not all(math.isfinite(p.half_perimeter) for p in rows) or any(
        p.aspect_ratio != math.inf and not math.isfinite(p.aspect_ratio) for p in rows
    ):
        raise ValueError("a per-pane number is not finite, which JSON cannot hold")
    head = (
        '{"totalHalfPerimeter":%s,"naiveLowerBound":%s,"forcedAwareLowerBound":%s,'
        '"approxRatio":%s,"maxAspectRatio":%s,"perRect":['
        % (
            _finite_text(rep.total_half_perimeter, "totalHalfPerimeter"),
            _finite_text(rep.naive_lower_bound, "naiveLowerBound"),
            _finite_text(rep.forced_aware_lower_bound, "forcedAwareLowerBound"),
            _finite_text(rep.approx_ratio, "approxRatio"),
            "null" if rep.max_aspect_ratio == math.inf
            else _finite_text(rep.max_aspect_ratio, "maxAspectRatio"),
        )
    )
    return _emit(_report_chunks(head, rows), dest)
