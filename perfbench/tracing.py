"""Span recorder for the traced run.

The tracer replaces public functions at the module attribute their caller
looks up (``rectpart.cli.validate_layout``, ``rectpart.dc.split_rect``, ...)
with wrappers that record one span per call: id, parent id, name, op index,
start and end. Nothing under ``src/`` changes; ``uninstall`` puts the
originals back. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: Module -> attributes to wrap. The package-level names are what the sweep's
#: library pipeline (and in-process generation) call.
TARGETS = {
    "rectpart.cli": (
        "cli_main", "partition_dc", "partition_mdc", "validate_layout", "report",
        "serialize_layout", "render_svg", "report_to_json", "parse_instance",
        "optimal_guillotine",
    ),
    "rectpart.bounds": ("validate_layout", "detect_forced"),
    "rectpart.dc": ("sort_descending", "bipartition_two_smallest", "split_rect"),
    "rectpart.mdc": ("mdc_reduce_step",),
    "rectpart": ("partition_dc", "partition_mdc", "report", "validate_layout", "generate"),
}


def span_name(fn) -> str:
    """``<defining module>.<function>``, e.g. ``geometry.validate_layout``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.next_id = 0
        #: Index of the op whose spans are being recorded; set by the runner.
        self.current_op = -1
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn):
        name = span_name(fn)
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.sid.append(sid)
                self.parent.append(parent)
                self.name.append(nid)
                self.op.append(self.current_op)
                self.t0.append(t0)
                self.t1.append(t1)

        return traced

    def install(self) -> None:
        for mod_name, attrs in TARGETS.items():
            mod = importlib.import_module(mod_name)
            for attr in attrs:
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def reset_stack(self) -> None:
        # An op that died mid-call (say, RecursionError inside a wrapper's
        # own bookkeeping) can leave stale entries behind.
        self.stack.clear()

    def per_op(self, ops: set[int]) -> dict[int, dict[str, list[float]]]:
        """For each op in ``ops``: span name -> [inclusive s, self s, calls]."""
        dur = [0.0] * self.next_id
        child = [0.0] * self.next_id
        for k in range(len(self.sid)):
            d = self.t1[k] - self.t0[k]
            dur[self.sid[k]] = d
            if self.parent[k] >= 0:
                child[self.parent[k]] += d
        out: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for k in range(len(self.sid)):
            op = self.op[k]
            if op not in ops:
                continue
            s = self.sid[k]
            acc = out[op][self.names[self.name[k]]]
            acc[0] += dur[s]
            acc[1] += dur[s] - child[s]
            acc[2] += 1
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV, times in microseconds from the first span."""
        base = min(self.t0) if self.t0 else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op,span,parent,name,start_us,dur_us\n")
            for k in range(len(self.sid)):
                f.write(
                    f"{self.op[k]},{self.sid[k]},{self.parent[k]},{self.names[self.name[k]]},"
                    f"{(self.t0[k] - base) * 1e6:.1f},{(self.t1[k] - self.t0[k]) * 1e6:.1f}\n"
                )
