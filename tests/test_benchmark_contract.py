"""What the benchmark under perfbench/ reads from the library.

perfbench/ is frozen against the library's API: its tracer wraps named
module attributes, and its runner builds flat layouts and walks cut trees
through objects. A change that drops one of those names fails here first,
not inside a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import rectpart as rp
import rectpart.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod_name, attrs in tracing.TARGETS.items():
        module = importlib.import_module(mod_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_runner_builds_flat_layouts_from_rects():
    rects = (rp.Rect(0, 0.5, 1, 0.5), rp.Rect(0, 0, 1, 0.5))
    layout = rp.Layout(rects, None)
    assert layout.rects == rects
    assert layout.tree is None and layout.nodes is None
    assert layout.panes == ((0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (0.5, 0.5))


@pytest.mark.parametrize("partition", [rp.partition_dc, rp.partition_mdc])
def test_runner_walks_trees_through_objects(partition):
    inst = rp.generate(rp.GenSpec(n=30, family="uniform", seed=2, container=rp.Rect(0, 0, 2, 1)))
    tree = partition(inst).tree
    assert isinstance(tree, rp.Internal)
    leaves, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, rp.Internal):
            stack += (node.left, node.right)
        else:
            assert isinstance(node, rp.Leaf)
            leaves += 1
    assert leaves == inst.n


#: Traced names that no op calls today, so their metrics read 0 (ROADMAP
#: item 0): the CLI reports through bounds._report_valid, the placer cuts
#: through geometry.cut_pane, and mdc reduces through dc._reduce.
UNCALLED = {"rectpart.cli.report", "rectpart.dc.split_rect", "rectpart.mdc.mdc_reduce_step"}


def _counting(fn, calls, name):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_benchmark_ops_call_every_traced_name(monkeypatch, tmp_path):
    # A refactor that routes a call around a traced name zeroes its metric
    # without failing the benchmark; here it fails a test.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    calls = {}
    for mod_name, attrs in tracing.TARGETS.items():
        module = importlib.import_module(mod_name)
        for attr in attrs:
            name = f"{mod_name}.{attr}"
            calls[name] = 0
            monkeypatch.setattr(module, attr, _counting(getattr(module, attr), calls, name))

    # The ops of perfbench/run.py: partition and oracle CLI calls on
    # generated instance files, and the sweep's library pipeline.
    unit = rp.Rect(0, 0, 1, 1)
    inst = rp.generate(rp.GenSpec(n=40, family="uniform", seed=3, container=unit))
    small = rp.generate(rp.GenSpec(n=5, family="geometric", seed=4, container=unit))
    (tmp_path / "inst.json").write_bytes(rp.serialize_instance(inst))
    (tmp_path / "small.json").write_bytes(rp.serialize_instance(small))
    for algo in ("dc", "mdc"):
        out = tmp_path / algo
        argv = ["partition", "--algo", algo, "--input", str(tmp_path / "inst.json"),
                "--output", f"{out}.json", "--report", f"{out}.report.json", "--svg", f"{out}.svg"]
        assert rp.cli.cli_main(argv) == 0
    argv = ["oracle", "--input", str(tmp_path / "small.json"), "--output", str(tmp_path / "w.json")]
    assert rp.cli.cli_main(argv) == 0
    dc = rp.partition_dc(inst)
    rp.partition_mdc(inst)
    rp.report(inst, dc)
    assert rp.validate_layout(inst, dc).ok

    assert {name for name, count in calls.items() if count == 0} == UNCALLED
