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


def test_deep_chain_gets_an_exit_code(tmp_path, capsys):
    """A valid deep chain either lays out or fails as an internal error,
    never with an exception escaping the CLI."""
    inst = rp.generate(
        rp.GenSpec(n=1000, family="geometric", seed=1, container=rp.Rect(0, 0, 1, 1), q=0.5)
    )
    path = tmp_path / "chain.json"
    path.write_bytes(rp.serialize_instance(inst))
    code = cli_main(["partition", "--algo", "mdc", "--input", str(path),
                     "--output", str(tmp_path / "layout.json")])
    assert code in (0, 3)
    if code == 3:
        assert capsys.readouterr().err.startswith("internal error: ")


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
