import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import rectpart as rp
from rectpart import cli
from rectpart.cli import cli_main

from conftest import geometric_chain

HALVES = b'{"container": {"width": 1, "height": 1}, "areas": [0.5, 0.5]}'


@pytest.fixture
def halves_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_bytes(HALVES)
    return path


def test_partition_writes_layout(halves_file, tmp_path):
    out = tmp_path / "layout.json"
    code = cli_main(["partition", "--algo", "dc", "--input", str(halves_file), "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_bytes())
    assert doc["totalHalfPerimeter"] == pytest.approx(3.0, rel=1e-12)


def test_partition_stdout_when_no_output(halves_file, capsys):
    assert cli_main(["partition", "--algo", "mdc", "--input", str(halves_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["totalHalfPerimeter"] == pytest.approx(3.0, rel=1e-12)


def test_partition_svg_and_report(halves_file, tmp_path):
    out = tmp_path / "layout.json"
    svg = tmp_path / "layout.svg"
    rep = tmp_path / "report.json"
    code = cli_main(
        ["partition", "--algo", "dc", "--input", str(halves_file),
         "--output", str(out), "--svg", str(svg), "--report", str(rep)]
    )
    assert code == 0
    ET.fromstring(svg.read_bytes())
    report_doc = json.loads(rep.read_bytes())
    assert report_doc["approxRatio"] == pytest.approx(1.0, rel=1e-12)
    # requesting a report includes the cut tree in the layout file
    assert "tree" in json.loads(out.read_bytes())


def test_partition_normalize_flag(tmp_path):
    sloppy = tmp_path / "sloppy.json"
    sloppy.write_bytes(b'{"container": {"width": 1, "height": 1}, "areas": [0.5, 0.6]}')
    assert cli_main(["partition", "--algo", "dc", "--input", str(sloppy)]) == 1
    out = tmp_path / "ok.json"
    assert cli_main(
        ["partition", "--algo", "dc", "--input", str(sloppy), "--normalize", "--output", str(out)]
    ) == 0


def test_oracle_guard_exit_code(tmp_path):
    nine = tmp_path / "nine.json"
    nine.write_bytes(json.dumps(
        {"container": {"width": 3, "height": 3}, "areas": [1.0] * 9}
    ).encode())
    out = tmp_path / "oracle.json"
    assert cli_main(["oracle", "--input", str(nine), "--output", str(out)]) == 2
    assert cli_main(["oracle", "--input", str(nine), "--max-n", "9", "--output", str(out)]) == 0
    assert json.loads(out.read_bytes())["totalHalfPerimeter"] == pytest.approx(18.0, rel=1e-9)


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_oracle_max_n_below_one_is_a_usage_error(halves_file, tmp_path, capsys, max_n):
    # Not a guard refusal: no instance could pass such a guard.
    out = tmp_path / "oracle.json"
    argv = ["oracle", "--input", str(halves_file), "--max-n", max_n, "--output", str(out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["--max-n must be >= 1"]
    assert not out.exists()


def _instance_file(tmp_path, container, areas):
    path = tmp_path / "inst.json"
    path.write_bytes(rp.serialize_instance(rp.make_instance(container, areas, normalize=True)))
    return path


def test_oracle_checks_its_witness_before_writing(tmp_path, capsys):
    # The witness's small pane is the remainder of a cut at 1 - 1e-12, which
    # rounding leaves 9e-5 off its area (relative); it used to be written.
    inst = _instance_file(tmp_path, rp.Rect(0, 0, 1, 1), [1.0, 1e-12])
    out = tmp_path / "oracle.json"
    assert cli_main(["oracle", "--input", str(inst), "--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal error:")
    assert not out.exists()


def test_oracle_skips_cuts_without_extent(tmp_path, capsys):
    # Every first group sums to the whole pane after rounding (1 + 1e-17 is
    # 1), so no cut can be made; the search used to price the zero-width
    # second piece and divide by it, and then blamed its memo.
    for areas in ([1.0, 1e-17, 1e-17], [1.0, 1e-17]):
        inst = _instance_file(tmp_path, rp.Rect(0, 0, 1, 1), areas)
        out = tmp_path / "oracle.json"
        assert cli_main(["oracle", "--input", str(inst), "--output", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("internal error:")
        assert "no guillotine cut of the pane is representable in floating point" in err[0]
        assert not out.exists()


@pytest.mark.parametrize(
    "areas, reason",
    [
        pytest.param(areas, reason, id=areas)
        for areas, reason in [
            ("[1.0,1e-12]", "no guillotine cut of the pane is representable"),
            ("[0.9999999999989999,9.99999999999e-13]", "oracle witness failed validation"),
            (
                "[0.999999999999997,9.999999999999971e-16,9.999999999999971e-16,9.999999999999971e-16]",
                "oracle witness failed validation",
            ),
        ]
    ],
)
def test_oracle_exits_3_where_dc_fails(tmp_path, capsys, areas, reason):
    # dc cannot cut the first instance, so the search runs without its cap,
    # and it lays out the second with a pane off its area; the third is
    # [1e6, 1e-9 x3] normalized, whose optimum's witness has a pane off its
    # area too (ROADMAP item 4). The oracle finds no valid witness for any.
    inst = tmp_path / "tiny.json"
    inst.write_bytes(b'{"container": {"width": 1, "height": 1}, "areas": %s}' % areas.encode())
    out = tmp_path / "oracle.json"
    assert cli_main(["oracle", "--input", str(inst), "--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal error:") and reason in err[0]
    assert not out.exists()


@pytest.mark.parametrize("algo", ["dc", "mdc"])
def test_partition_failure_on_valid_instance_is_internal(tmp_path, capsys, algo):
    # A valid instance whose small pane rounding cannot cut off: the
    # partitioner's ValueError is its own failure, not the input's.
    inst = tmp_path / "tiny.json"
    inst.write_bytes(b'{"container": {"width": 1, "height": 1}, "areas": [1.0, 1e-17]}')
    out = tmp_path / "layout.json"
    code = cli_main(["partition", "--algo", algo, "--input", str(inst), "--output", str(out)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: InternalInvariantError:")
    assert not out.exists()


BIG_INT = "9" * 400  # an integer literal far beyond the largest double
UNIT_SQUARE_ONE = b'{"container": {"width": 1, "height": 1}, "areas": [1]}'


@pytest.mark.parametrize(
    "instance, layout, flags",
    [
        (f'{{"container": {{"width": 1, "height": 1}}, "areas": [{BIG_INT}]}}', None, []),
        (f'{{"container": {{"width": {BIG_INT}, "height": 1}}, "areas": [1]}}', None, []),
        ('{"container": {"width": 1, "height": 1}, "areas": [1e308, 1e308]}', None, []),
        ('{"container": {"width": 1, "height": 1}, "areas": [1e308, 1e308]}', None, ["--normalize"]),
        ('{"container": {"width": 1e200, "height": 1e200}, "areas": [1]}', None, []),
        (UNIT_SQUARE_ONE.decode(),
         f'{{"version": 2, "rects": [{{"index": 0, "x": {BIG_INT}, "y": 0, "width": 1, "height": 1}}]}}',
         []),
    ],
    ids=["area-int", "width-int", "area-sum", "area-sum-normalize", "container-area", "layout-x-int"],
)
def test_numbers_beyond_a_double_are_bad_input(tmp_path, capsys, instance, layout, flags):
    # Overflow is the input's fault: exit 1 with one error line, never an
    # internal OverflowError or a layout that fails its own validation.
    inst = tmp_path / "inst.json"
    inst.write_text(instance)
    out = tmp_path / "out.json"
    if layout is None:
        argv = ["partition", "--algo", "dc", "--input", str(inst), "--output", str(out), *flags]
    else:
        lay = tmp_path / "layout.json"
        lay.write_text(layout)
        argv = ["eval", "--instance", str(inst), "--layout", str(lay), "--output", str(out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["partition", "eval"])
def test_bytes_that_are_not_utf8_are_bad_input(halves_file, tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}\n")
    out = tmp_path / "out.json"
    if command == "partition":
        argv = ["partition", "--algo", "dc", "--input", str(bad), "--output", str(out)]
    else:
        argv = ["eval", "--instance", str(halves_file), "--layout", str(bad), "--output", str(out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "error: not UTF-8 text at byte 0: invalid start byte\n"
    assert not out.exists()


def test_eval_mismatched_pair_exits_one(halves_file, tmp_path):
    layout_path = tmp_path / "layout.json"
    assert cli_main(
        ["partition", "--algo", "dc", "--input", str(halves_file), "--output", str(layout_path)]
    ) == 0
    other = tmp_path / "other.json"
    other.write_bytes(b'{"container": {"width": 1, "height": 1}, "areas": [0.7, 0.3]}')
    out = tmp_path / "report.json"
    assert cli_main(
        ["eval", "--instance", str(other), "--layout", str(layout_path), "--output", str(out)]
    ) == 1


def test_eval_refusal_is_one_short_line(tmp_path, capsys):
    # The refusal names each failed check's count, not every offender (17,059
    # characters here when it embedded the diagnostics' repr).
    paths = [tmp_path / "u1.json", tmp_path / "u2.json"]
    for seed, path in enumerate(paths, 1):
        assert cli_main(
            ["gen", "--n", "3000", "--family", "uniform", "--seed", str(seed),
             "--width", "1", "--height", "1", "--output", str(path)]
        ) == 0
    layout = tmp_path / "layout.json"
    assert cli_main(
        ["partition", "--algo", "mdc", "--input", str(paths[0]), "--output", str(layout)]
    ) == 0
    out = tmp_path / "report.json"
    assert cli_main(
        ["eval", "--instance", str(paths[1]), "--layout", str(layout), "--output", str(out)]
    ) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 500, err
    assert err[0].startswith("error: layout does not satisfy the instance: panes off their area: ")
    assert not out.exists()
    # Overlaps are listed the same way; the repr keeps every offender.
    pairs = tuple((i, i + 1) for i in range(10_000))
    diag = rp.LayoutDiagnostics(True, (), True, False, pairs, True, ())
    assert str(diag) == "overlapping pairs: 10000 ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), ...)"
    assert str(pairs) in repr(diag)


def _generated_families():
    for n in (50, 200, 800, 2000):
        for seed in (1, 2, 3):
            yield ["--family", "uniform"], n, seed
            for q in ("0.3", "0.5", "0.7", "0.9"):
                yield ["--family", "geo", "--q", q], n, seed


def test_exit_codes_hold_on_generated_families(tmp_path, capsys):
    # The generator's own families reach instances that no partitioner lays
    # out (ROADMAP item 4). Whatever the outcome, it keeps the documented
    # contract: a valid layout and exit 0, or one line, exit 3 and no file.
    inst_path = tmp_path / "inst.json"
    for family, n, seed in _generated_families():
        case = f"{' '.join(family)} --n {n} --seed {seed}"
        inst_path.unlink(missing_ok=True)
        code = cli_main(
            ["gen", "--n", str(n), *family, "--seed", str(seed),
             "--width", "1", "--height", "1", "--output", str(inst_path)]
        )
        err = capsys.readouterr().err.splitlines()
        if code != 0:
            assert code == 1 and len(err) == 1 and not inst_path.exists(), case
            continue
        inst = rp.parse_instance(inst_path.read_bytes())
        # dc is about cubic on chains (ROADMAP item 2), so it runs the small n only.
        for algo in ("dc", "mdc") if n <= 200 else ("mdc",):
            out = tmp_path / f"{algo}.json"
            out.unlink(missing_ok=True)
            code = cli_main(
                ["partition", "--algo", algo, "--input", str(inst_path), "--output", str(out)]
            )
            err = capsys.readouterr().err.splitlines()
            if code == 0:
                assert err == [], case
                assert rp.validate_layout(inst, rp.parse_layout(out.read_bytes())).ok, case
            else:
                assert code == 3 and not out.exists(), (algo, case, code)
                assert len(err) == 1 and err[0].startswith("internal error: "), (algo, case)


def test_gen_partition_eval_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    assert cli_main(
        ["gen", "--n", "20", "--family", "geo", "--q", "0.8", "--seed", "99",
         "--width", "2", "--height", "1", "--output", str(inst)]
    ) == 0
    layout = tmp_path / "layout.json"
    assert cli_main(
        ["partition", "--algo", "dc", "--input", str(inst), "--output", str(layout)]
    ) == 0
    rep = tmp_path / "rep.json"
    assert cli_main(
        ["eval", "--instance", str(inst), "--layout", str(layout), "--output", str(rep)]
    ) == 0
    doc = json.loads(rep.read_bytes())
    assert doc["approxRatio"] >= 1.0 - 1e-9


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["partition", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_file_exits_one(tmp_path):
    assert cli_main(["partition", "--algo", "dc", "--input", str(tmp_path / "nope.json")]) == 1


def test_bench_emits_csv(capsys):
    assert cli_main(["bench", "--n-list", "50,100", "--repeats", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,median_ms,mean_ms"
    assert len(lines) == 3
    assert lines[1].startswith("50,") and lines[2].startswith("100,")


@pytest.mark.parametrize("flags, error", [
    (["--n-list", "a,b"], "--n-list must be comma-separated integers"),
    (["--n-list", "1"], "--n-list needs sizes >= 2"),
    (["--n-list", "50", "--repeats", "0"], "--repeats >= 1"),
], ids=["not-integers", "too-small", "no-repeats"])
def test_bench_rejects_bad_arguments(capsys, flags, error):
    assert cli_main(["bench", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == "" and error in err


def test_partition_checks_its_layout_before_writing(halves_file, tmp_path, monkeypatch, capsys):
    failed = rp.LayoutDiagnostics(False, (0,), True, True, (), True, ())
    monkeypatch.setattr(cli, "validate_layout", lambda inst, layout: failed)
    out = tmp_path / "layout.json"
    argv = ["partition", "--algo", "dc", "--input", str(halves_file), "--output", str(out)]
    assert cli_main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "internal error: InternalInvariantError: produced layout failed validation: "
        "panes off their area: 1 (0)"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command", ["partition", "oracle"])
def test_failed_validation_names_its_checks(halves_file, tmp_path, monkeypatch, capsys, command):
    # A valid layout of another instance: both of the halves' panes are off their area.
    other = rp.partition_dc(rp.make_instance(rp.Rect(0, 0, 1, 1), [0.75, 0.25]))
    monkeypatch.setattr(cli, "partition_dc", lambda inst: other)
    monkeypatch.setattr(cli, "optimal_guillotine", lambda inst, max_n: (3.0, other))
    out = tmp_path / "layout.json"
    if command == "oracle":
        argv = ["oracle", "--input", str(halves_file), "--output", str(out)]
    else:
        argv = ["partition", "--algo", "dc", "--input", str(halves_file), "--output", str(out)]
    assert cli_main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: InternalInvariantError: ")
    assert "failed validation: panes off their area: 2 (0, 1)" in err[0]
    assert not out.exists()


def test_outputs_are_deterministic(tmp_path):
    inst = tmp_path / "inst.json"
    for _ in range(2):
        assert cli_main(
            ["gen", "--n", "12", "--family", "uniform", "--seed", "5",
             "--width", "1", "--height", "1", "--output", str(inst)]
        ) == 0
    first_gen = inst.read_bytes()
    assert cli_main(
        ["gen", "--n", "12", "--family", "uniform", "--seed", "5",
         "--width", "1", "--height", "1", "--output", str(inst)]
    ) == 0
    assert inst.read_bytes() == first_gen

    outputs = []
    for run in range(2):
        lay = tmp_path / f"lay{run}.json"
        svg = tmp_path / f"lay{run}.svg"
        rep = tmp_path / f"rep{run}.json"
        assert cli_main(
            ["partition", "--algo", "mdc", "--input", str(inst),
             "--output", str(lay), "--svg", str(svg), "--report", str(rep)]
        ) == 0
        outputs.append((lay.read_bytes(), svg.read_bytes(), rep.read_bytes()))
    assert outputs[0] == outputs[1]


def test_recursion_error_exits_three(halves_file, monkeypatch, capsys):
    def too_deep(inst):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "partition_mdc", too_deep)
    assert cli_main(["partition", "--algo", "mdc", "--input", str(halves_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unexpected_exception_exits_three(halves_file, monkeypatch, capsys):
    def broken(inst):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "partition_mdc", broken)
    assert cli_main(["partition", "--algo", "mdc", "--input", str(halves_file)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: IndexError: list index out of range\n"


def test_unwritable_output_exits_one(halves_file, tmp_path, capsys):
    assert cli_main(["partition", "--algo", "dc", "--input", str(halves_file),
                     "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_mdc_lays_out_equal_areas(tmp_path):
    inst = rp.make_instance(rp.Rect(0, 0, 1, 1), [0.2] * 5)
    path = tmp_path / "fifths.json"
    path.write_bytes(rp.serialize_instance(inst))
    layout = tmp_path / "layout.json"
    assert cli_main(["partition", "--algo", "mdc", "--input", str(path),
                     "--output", str(layout)]) == 0
    assert rp.validate_layout(inst, rp.parse_layout(layout.read_bytes())).ok


def test_deep_chain_gets_an_exit_code(tmp_path):
    """A valid chain deeper than the default recursion limit lays out."""
    inst = rp.generate(
        rp.GenSpec(n=1000, family="geometric", seed=1, container=rp.Rect(0, 0, 1, 1), q=0.5)
    )
    path = tmp_path / "chain.json"
    path.write_bytes(rp.serialize_instance(inst))
    layout = tmp_path / "layout.json"
    assert cli_main(["partition", "--algo", "mdc", "--input", str(path),
                     "--output", str(layout)]) == 0
    assert rp.validate_layout(inst, rp.parse_layout(layout.read_bytes())).ok


def test_partition_and_eval_validate_once(halves_file, tmp_path, monkeypatch):
    calls = []
    validate = rp.validate_layout

    def counting_validate(inst, layout):
        calls.append(layout)
        return validate(inst, layout)

    monkeypatch.setattr(cli, "validate_layout", counting_validate)
    monkeypatch.setattr(rp.bounds, "validate_layout", counting_validate)
    layout = tmp_path / "layout.json"
    assert cli_main(["partition", "--algo", "dc", "--input", str(halves_file),
                     "--output", str(layout), "--report", str(tmp_path / "rep.json")]) == 0
    assert len(calls) == 1
    assert cli_main(["eval", "--instance", str(halves_file), "--layout", str(layout),
                     "--output", str(tmp_path / "eval.json")]) == 0
    assert len(calls) == 2
    assert cli_main(["oracle", "--input", str(halves_file),
                     "--output", str(tmp_path / "oracle.json")]) == 0
    assert len(calls) == 3


# Leaf 0 twice and no leaf 1: a tree that does not tile the two halves, which
# would give a forced-aware bound of 2.914 instead of 3.0.
DOUBLE_LEAF_V1 = b"""{"rects": [
  {"index": 0, "x": 0.0, "y": 0.5, "width": 1.0, "height": 0.5},
  {"index": 1, "x": 0.0, "y": 0.0, "width": 1.0, "height": 0.5}],
 "totalHalfPerimeter": 3.0,
 "tree": {"cut": "horizontal", "rect": {"x": 0.0, "y": 0.0, "width": 1.0, "height": 1.0},
  "left": {"index": 0, "rect": {"x": 0.0, "y": 0.5, "width": 1.0, "height": 0.5}},
  "right": {"index": 0, "rect": {"x": 0.0, "y": 0.5, "width": 1.0, "height": 0.5}}}}"""


def _as_v2(v1: bytes) -> bytes:
    doc = json.loads(v1)
    root = doc["tree"]
    doc["tree"] = [root, root.pop("left"), root.pop("right")]
    return json.dumps({"version": 2, **doc}).encode()


@pytest.mark.parametrize("data", [DOUBLE_LEAF_V1, _as_v2(DOUBLE_LEAF_V1)], ids=["v1", "v2"])
def test_eval_rejects_tree_that_does_not_tile(halves_file, tmp_path, capsys, data):
    with pytest.raises(rp.FileFormatError, match="two leaves"):
        rp.parse_layout(data)
    layout = tmp_path / "layout.json"
    layout.write_bytes(data)
    assert cli_main(["eval", "--instance", str(halves_file), "--layout", str(layout),
                     "--output", str(tmp_path / "eval.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_rejects_forged_cuts(tmp_path, capsys):
    # Every internal node carries its right child's rect. The leaves still
    # tile the container, so only the cut check catches it; accepted, the
    # forced-aware bound read 4.34568, above the guillotine optimum 4.25767.
    inst = rp.generate(
        rp.GenSpec(n=5, family="geometric", seed=2, container=rp.Rect(0, 0, 1, 1), q=0.6)
    )
    layout = rp.partition_dc(inst)
    doc = json.loads(rp.serialize_layout(layout, include_tree=True))
    _, right_id = layout.children
    for i, node in enumerate(doc["tree"]):
        if "cut" in node:
            node["rect"] = doc["tree"][right_id[i]]["rect"]
    data = json.dumps(doc).encode()
    with pytest.raises(rp.FileFormatError, match="do not tile"):
        rp.parse_layout(data)
    inst_path, layout_path = tmp_path / "inst.json", tmp_path / "layout.json"
    inst_path.write_bytes(rp.serialize_instance(inst))
    layout_path.write_bytes(data)
    assert cli_main(["eval", "--instance", str(inst_path), "--layout", str(layout_path),
                     "--output", str(tmp_path / "eval.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_deep_chain_partition_then_eval_reproduces_report(tmp_path):
    inst = tmp_path / "chain.json"
    inst.write_bytes(rp.serialize_instance(geometric_chain()))
    layout, rep, again = (tmp_path / name for name in ("layout.json", "rep.json", "eval.json"))
    assert cli_main(["partition", "--algo", "dc", "--input", str(inst),
                     "--output", str(layout), "--report", str(rep)]) == 0
    assert cli_main(["eval", "--instance", str(inst), "--layout", str(layout),
                     "--output", str(again)]) == 0
    assert again.read_bytes() == rep.read_bytes()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(rp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "inst.json"
    cmd = [sys.executable, "-m", "rectpart", "gen", "--n", "3", "--family", "uniform",
           "--seed", "1", "--width", "1", "--height", "1", "--output", str(out)]
    assert subprocess.run(cmd, env=env, timeout=60).returncode == 0
    assert rp.parse_instance(out.read_bytes()).n == 3
    bad = subprocess.run([sys.executable, "-m", "rectpart", "partition", "--bogus"],
                         env=env, capture_output=True, timeout=60)
    assert bad.returncode == 1


#: A valid instance whose panes' aspect ratios lie beyond the largest double.
NEEDLES = b'{"container":{"width":1e-300,"height":1e10},"areas":[5e-291,5e-291]}'


def _no_constants(name):
    raise AssertionError(f"{name} is not JSON")


def test_reports_stay_json_when_aspect_ratios_overflow(tmp_path):
    inst_path = tmp_path / "needles.json"
    inst_path.write_bytes(NEEDLES)
    lay, rep, ev = tmp_path / "lay.json", tmp_path / "rep.json", tmp_path / "eval.json"
    assert cli_main(["partition", "--algo", "dc", "--input", str(inst_path), "--output", str(lay),
                     "--report", str(rep)]) == 0
    assert cli_main(["eval", "--instance", str(inst_path), "--layout", str(lay),
                     "--output", str(ev)]) == 0
    assert rep.read_bytes() == ev.read_bytes()
    doc = json.loads(rep.read_bytes(), parse_constant=_no_constants)
    assert doc["maxAspectRatio"] is None
    assert [p["aspectRatio"] for p in doc["perRect"]] == [None, None]
    # The library keeps the float.
    inst = rp.parse_instance(NEEDLES)
    assert rp.report(inst, rp.partition_dc(inst)).max_aspect_ratio == float("inf")
