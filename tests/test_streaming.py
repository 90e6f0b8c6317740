"""The writers stream their documents in chunks: the files they write equal
the bytes they return, a refused document leaves no file behind, and a
streamed write holds less memory than the document it writes."""

import io
import math
import tracemalloc

import pytest

import rectpart as rp
from rectpart.bounds import PaneQuality, QualityReport
from rectpart.cli import cli_main
from rectpart.fileio import CHUNK

from conftest import geometric_chain

UNIT = rp.Rect(0, 0, 1, 1)


def _uniform(n, seed=1):
    return rp.generate(rp.GenSpec(n=n, family="uniform", seed=seed, container=UNIT))


#: (instance, partitioner) pairs: a shallow tree over several chunks, a
#: chain about 600 cuts deep, and a single pane.
CASES = {
    "uniform-5000": (lambda: _uniform(5000), "mdc"),
    "chain-600": (geometric_chain, "dc"),
    "one-pane": (lambda: _uniform(1), "dc"),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, tmp_path_factory):
    make, algo = CASES[request.param]
    inst = make()
    path = tmp_path_factory.mktemp(request.param) / "inst.json"
    path.write_bytes(rp.serialize_instance(inst))
    layout = (rp.partition_dc if algo == "dc" else rp.partition_mdc)(inst)
    return inst, path, algo, layout


def test_uniform_case_spans_several_chunks():
    # Several chunk boundaries in the rects, the tree, the SVG and the report.
    assert 5000 > 4 * CHUNK


@pytest.mark.parametrize("labels", ["none", "index", "full"])
def test_cli_files_equal_the_library_bytes(case, labels, tmp_path):
    inst, path, algo, layout = case
    out = {k: tmp_path / f"out.{k}" for k in ("layout", "svg", "report", "eval")}
    assert cli_main(["partition", "--algo", algo, "--input", str(path), "--output", str(out["layout"]),
                     "--svg", str(out["svg"]), "--report", str(out["report"]), "--labels", labels]) == 0
    report = rp.report_to_json(rp.report(inst, layout))
    assert out["layout"].read_bytes() == rp.serialize_layout(layout, include_tree=True)
    assert out["svg"].read_bytes() == rp.render_svg(layout, inst, labels=labels)
    assert out["report"].read_bytes() == report
    assert cli_main(["eval", "--instance", str(path), "--layout", str(out["layout"]),
                     "--output", str(out["eval"])]) == 0
    assert out["eval"].read_bytes() == report


def test_cli_streams_the_layout_to_stdout(case, capsysbinary):
    inst, path, algo, layout = case
    assert cli_main(["partition", "--algo", algo, "--input", str(path)]) == 0
    out, err = capsysbinary.readouterr()
    assert out == rp.serialize_layout(layout) and err == b""


def test_writers_stream_to_paths_and_binary_files(case, tmp_path):
    inst, _, _, layout = case
    rep = rp.report(inst, layout)
    writers = [
        (rp.serialize_layout, (layout,), {"include_tree": False}),
        (rp.serialize_layout, (layout,), {"include_tree": True}),
        (rp.render_svg, (layout, inst), {"labels": "full"}),
        (rp.report_to_json, (rep,), {}),
    ]
    for write, args, kwargs in writers:
        data = write(*args, **kwargs)
        buf = io.BytesIO()
        assert write(*args, dest=buf, **kwargs) is None
        assert buf.getvalue() == data
        path = tmp_path / "doc"
        assert write(*args, dest=path, **kwargs) is None
        assert path.read_bytes() == data
        assert write(*args, dest=str(path), **kwargs) is None
        assert path.read_bytes() == data


def _refusals():
    inst = rp.make_instance(UNIT, [0.5, 0.5])
    layout = rp.partition_dc(inst)
    # One pane whose half-perimeter overflows: the total is infinite.
    huge = rp.Layout.of_columns(1, None, ((0.0,), (0.0,), (1.7e308,), (1.7e308,)))

    def report(total, half, ratio):
        return (QualityReport(total, 2.0, 2.0, 1.0, 1.0, (PaneQuality(0, half, ratio, True),)),)

    return {
        "report-total": (rp.report_to_json, report(math.nan, 2.0, 1.0), {}),
        "report-pane": (rp.report_to_json, report(2.0, math.inf, 1.0), {}),
        "report-ratio": (rp.report_to_json, report(2.0, 2.0, -math.inf), {}),
        "layout-total": (rp.serialize_layout, (huge,), {"include_tree": True}),
        "svg-labels": (rp.render_svg, (layout, inst), {"labels": "bold"}),
        "svg-panes": (rp.render_svg, (layout, rp.make_instance(UNIT, [1.0])), {}),
    }


@pytest.mark.parametrize("name", sorted(_refusals()))
def test_a_refused_document_leaves_no_file(name, tmp_path):
    write, args, kwargs = _refusals()[name]
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    kept.write_bytes(b"earlier contents\n")
    for dest in (fresh, str(fresh), kept):
        with pytest.raises(ValueError):
            write(*args, dest=dest, **kwargs)
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier contents\n"
    buf = io.BytesIO()
    with pytest.raises(ValueError):
        write(*args, dest=buf, **kwargs)
    assert buf.getvalue() == b""


def _peak_while(write, *args, **kwargs):
    """Bytes allocated at the peak of one call, above what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_streamed_writes_peak_below_the_document_size(tmp_path):
    # Building the whole document first holds several copies of it; a
    # streamed write holds one chunk, plus the leaves' texts for the tree.
    inst = _uniform(20_000, seed=5)
    layout = rp.partition_mdc(inst)
    rep = rp.report(inst, layout)
    path = tmp_path / "doc"
    writers = {
        "layout": (rp.serialize_layout, (layout,), {"include_tree": True}),
        "svg": (rp.render_svg, (layout, inst), {}),
        "report": (rp.report_to_json, (rep,), {}),
    }
    for name, (write, args, kwargs) in writers.items():
        peak = _peak_while(write, *args, dest=path, **kwargs)
        size = path.stat().st_size
        assert peak < size, f"{name}: peak {peak} bytes for a {size}-byte document"
