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
