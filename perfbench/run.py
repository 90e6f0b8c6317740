#!/usr/bin/env python3
"""Benchmark runner for rectpart.

Run from the repository root:

    python3 perfbench/run.py --workload uniform-large --seed 1 --seconds 30 --trace 0

The runner imports ``rectpart`` from ``src/`` of the checkout it sits in and
drives it from outside, through in-process ``rectpart.cli.cli_main`` calls
and the public library functions. It

1. sets up: a fresh interpreter imports rectpart, generates the workload's
   instances from ``--seed`` and writes them as instance files; this is
   repeated seven times and ``setup_s`` is the median;
2. repeats the workload's pass of ops round(seconds / pass time) times,
   timing each op (``--trace 1``: each op runs untraced and traced, back
   to back);
3. checks every output outside the timed region;
4. prints one line per metric, then the result as one JSON object on the
   last line of standard output, and writes the full record (environment,
   digest of output totals, failures, every op's time in each pass) to
   ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

Any exception escaping an op, any non-zero exit code and any failed check
counts as a failed op; the run carries on. ``correct`` is true when no op
failed. ``--size tiny`` serves the smoke test (``perfbench/smoke.py``);
``--with-defects`` adds the ops that fail at the seed commit. The workloads
in BENCHMARK.json run without either.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up runs per benchmark run; setup_s is their median.
SETUP_REPEATS = 7

#: Relative slack for the oracle-versus-dc comparison (rectpart's REL_TOL).
REL_TOL = 1e-9

#: (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("panes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("dc_ratio_max", "ratio"),
    ("mdc_ratio_max", "ratio"),
)

#: (name, unit, source) of the per-layer metrics. Times, calls and byte
#: counts are totals over one pass; source is (span name, field) for span
#: data or ("counter", key) for untimed recomputation.
PER_LAYER = (
    ("dc.partition_dc.self_ms", "ms", ("dc.partition_dc", "self")),
    ("dc.bipartition_two_smallest.self_ms", "ms", ("dc.bipartition_two_smallest", "self")),
    ("dc.sort_descending.ms", "ms", ("dc.sort_descending", "ms")),
    ("dc.merges", "count", ("counter", "dc.merges")),
    ("mdc.partition_mdc.self_ms", "ms", ("mdc.partition_mdc", "self")),
    ("mdc.mdc_reduce_step.ms", "ms", ("mdc.mdc_reduce_step", "ms")),
    ("mdc.iterations", "count", ("counter", "mdc.iterations")),
    ("geometry.split_rect.ms", "ms", ("geometry.split_rect", "ms")),
    ("geometry.split_rect.calls", "count", ("geometry.split_rect", "calls")),
    ("geometry.validate_layout.ms", "ms", ("geometry.validate_layout", "ms")),
    ("geometry.validate_layout.calls", "count", ("geometry.validate_layout", "calls")),
    ("geometry.validate_layout.peak_mb", "MB", ("counter", "geometry.validate_layout.peak_mb")),
    ("geometry.tree_depth", "count", ("counter", "geometry.tree_depth")),
    ("geometry.tree_nodes", "count", ("counter", "geometry.tree_nodes")),
    ("bounds.report.self_ms", "ms", ("bounds.report", "self")),
    ("bounds.detect_forced.ms", "ms", ("bounds.detect_forced", "ms")),
    ("bounds.forced_panes", "count", ("counter", "bounds.forced_panes")),
    ("fileio.parse_instance.ms", "ms", ("fileio.parse_instance", "ms")),
    ("fileio.serialize_layout.ms", "ms", ("fileio.serialize_layout", "ms")),
    ("fileio.serialize_layout.bytes", "bytes", ("counter", "fileio.serialize_layout.bytes")),
    ("fileio.report_to_json.ms", "ms", ("fileio.report_to_json", "ms")),
    ("svg.render_svg.ms", "ms", ("svg.render_svg", "ms")),
    ("svg.render_svg.bytes", "bytes", ("counter", "svg.render_svg.bytes")),
    ("oracle.optimal_guillotine.ms", "ms", ("oracle.optimal_guillotine", "ms")),
    ("cli.self_ms", "ms", ("cli.cli_main", "self")),
    ("instances.generate.ms", "ms", ("counter", "instances.generate.ms")),
    ("trace.overhead_share", "share", ("counter", "trace.overhead_share")),
    ("trace.unaccounted_share", "share", ("counter", "trace.unaccounted_share")),
)

#: Counters that take the maximum over a pass instead of the sum.
MAX_COUNTERS = ("geometry.tree_depth", "geometry.validate_layout.peak_mb")


def import_rectpart():
    if not (SRC / "rectpart" / "__init__.py").is_file():
        raise SystemExit("run.py: src/rectpart is missing from this checkout")
    sys.path.insert(0, str(SRC))
    import rectpart
    import rectpart.cli

    if Path(rectpart.__file__).resolve().parent != SRC / "rectpart":
        raise SystemExit(f"run.py: imported rectpart from {rectpart.__file__}, not from src/")
    return rectpart


def generate(rp, wl: workloads.Workload, seed: int, spec: workloads.InstanceSpec):
    return rp.generate(
        rp.GenSpec(
            n=spec.n,
            family=spec.family,
            seed=wl.instance_seed(seed, spec.key),
            container=rp.Rect(0.0, 0.0, 1.0, 1.0),
            q=spec.q,
        )
    )


def emit_inputs(wl: workloads.Workload, seed: int, dest: Path) -> None:
    """The set-up step, run in a fresh interpreter: generate and write inputs."""
    rp = import_rectpart()
    dest.mkdir(parents=True, exist_ok=True)
    for spec in wl.specs:
        (dest / f"{spec.key}.json").write_bytes(rp.serialize_instance(generate(rp, wl, seed, spec)))


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_shape(root, children) -> tuple[int, int]:
    """(depth, node count) of a tree; ``children(node)`` lists a node's children."""
    depth = nodes = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in children(node))
    return depth, nodes


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten ops
    beyond it; the median when too few ops leave such a percentile above
    the median."""
    n = len(times)
    if n <= 20:
        return statistics.median(times), 50.0
    return sorted(times)[n - 11], math.floor(100.0 * (n - 10) / n * 10) / 10


class Bench:
    def __init__(self, rp, wl: workloads.Workload, work: Path, traced: bool):
        self.rp = rp
        self.wl = wl
        self.work = work
        self.traced = traced
        self.tracer = Tracer()
        self.insts: dict = {}
        self.verified: dict[str, tuple[object, dict]] = {}
        self.failures: list[dict] = []
        self.problems: list[str] = []
        self._argv: dict[str, list[str]] = {}
        # Untimed references: plain functions that no tracer wraps.
        self.validate = rp.geometry.validate_layout
        self.bounds_report = rp.bounds.report

    # -- set-up -----------------------------------------------------------

    def load_inputs(self, seed: int) -> float:
        """Generate the instances in-process and check that the set-up
        child wrote the same bytes. Returns generation seconds (traced)."""
        rp = self.rp
        if self.traced:
            self.tracer.current_op = -2
            self.tracer.install()
        try:
            for spec in self.wl.specs:
                self.insts[spec.key] = generate(rp, self.wl, seed, spec)
        finally:
            self.tracer.uninstall()
        for spec in self.wl.specs:
            written = (self.work / f"{spec.key}.json").read_bytes()
            if written != rp.serialize_instance(self.insts[spec.key]):
                self.problems.append(f"set-up wrote different bytes for {spec.key}")
        spans = self.tracer.per_op({-2}).get(-2, {})
        return spans.get("instances.generate", [0.0])[0]

    # -- ops --------------------------------------------------------------

    def paths(self, op: workloads.Op) -> dict[str, str]:
        stem = str(self.work / f"{op.instance}.{op.algo or op.kind}")
        return {
            "input": str(self.work / f"{op.instance}.json"),
            "output": stem + ".layout.json",
            "report": stem + ".report.json",
            "svg": stem + ".svg",
        }

    def call(self, op: workloads.Op):
        """Run one op; returns (error or None, result). Timed by the caller."""
        rp = self.rp
        if op.kind == "pipeline":
            inst = self.insts[op.instance]
            dc = rp.partition_dc(inst)
            mdc = rp.partition_mdc(inst)
            rep = rp.report(inst, dc)
            diag = rp.validate_layout(inst, dc)
            return None, (dc, mdc, rep, diag)
        rc = rp.cli.cli_main(self.argv(op))
        return (None if rc == 0 else f"exit code {rc}"), None

    def argv(self, op: workloads.Op) -> list[str]:
        argv = self._argv.get(op.label)
        if argv is None:
            p = self.paths(op)
            if op.kind == "partition":
                argv = ["partition", "--algo", op.algo, "--input", p["input"], "--output",
                        p["output"], "--report", p["report"], "--svg", p["svg"]]
            else:
                argv = ["oracle", "--input", p["input"], "--output", p["output"]]
            self._argv[op.label] = argv
        return argv

    def run_op(self, op: workloads.Op, op_index: int) -> tuple[float, str | None]:
        """Time one op and check its output. Returns (seconds, failure)."""
        if op.kind != "pipeline":
            self.argv(op)
        if self.traced and op_index >= 0:
            self.tracer.current_op = op_index
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            err, result = self.call(op)
        except Exception as e:  # the op's failure is the measurement
            err, result = f"{type(e).__name__}: {str(e)[:200]}", None
        seconds = time.perf_counter() - t0
        if self.traced and op_index >= 0:
            self.tracer.uninstall()
            self.tracer.reset_stack()
        if err is None:
            err = self.check(op, result)
        return seconds, err

    # -- checks (untimed) ---------------------------------------------------

    def check(self, op: workloads.Op, result) -> str | None:
        """None when the op's output is correct, else what is wrong.

        The first output of each op is checked in full; later passes must
        reproduce it exactly.
        """
        try:
            fingerprint = self.fingerprint(op, result)
            if op.label in self.verified:
                if self.verified[op.label][0] != fingerprint:
                    return "output differs from the first pass"
                return None
            info = self.verify(op, result)
        except Exception as e:  # unreadable output is a failed check
            return f"check raised {type(e).__name__}: {str(e)[:200]}"
        if isinstance(info, str):
            return info
        self.verified[op.label] = (fingerprint, info)
        return None

    def fingerprint(self, op: workloads.Op, result):
        if op.kind == "pipeline":
            dc, mdc, rep, diag = result
            return hash((dc.rects, mdc.rects, rep.approx_ratio, diag.ok))
        p = self.paths(op)
        keys = ("output", "report", "svg") if op.kind == "partition" else ("output",)
        return tuple(hashlib.sha256(Path(p[k]).read_bytes()).hexdigest() for k in keys)

    def children(self, node) -> tuple:
        return (node.left, node.right) if isinstance(node, self.rp.Internal) else ()

    def read_layout(self, path: str):
        """(flat layout, file total, tree document, file size) from a layout file."""
        rp = self.rp
        data = Path(path).read_bytes()
        doc = json.loads(data)
        rects: list = [None] * len(doc["rects"])
        for e in doc["rects"]:
            rects[e["index"]] = rp.Rect(e["x"], e["y"], e["width"], e["height"])
        return rp.Layout(tuple(rects), None), doc["totalHalfPerimeter"], doc.get("tree"), len(data)

    def verify(self, op: workloads.Op, result) -> dict | str:
        rp = self.rp
        inst = self.insts[op.instance]
        info: dict = {"panes": inst.n, "totals": []}
        if op.kind == "pipeline":
            dc, mdc, rep, diag = result
            info["panes"] = 2 * inst.n
            if not diag.ok:
                return f"dc layout fails validation: {diag}"
            if not self.validate(inst, mdc).ok:
                return "mdc layout fails validation"
            if rep.total_half_perimeter != dc.total_half_perimeter():
                return "report total differs from the layout total"
            info["dc_ratio"] = rep.approx_ratio
            info["mdc_ratio"] = self.bounds_report(inst, mdc).approx_ratio
            info["totals"] = [dc.total_half_perimeter(), mdc.total_half_perimeter()]
            info["forced"] = sum(p.forced for p in rep.per_rect)
            info["shapes"] = [tree_shape(t.tree, self.children) for t in (dc, mdc)]
            return info

        p = self.paths(op)
        layout, file_total, tree, size = self.read_layout(p["output"])
        if not self.validate(inst, layout).ok:
            return "layout file fails validation"
        total = layout.total_half_perimeter()
        if file_total != total:
            return f"file totalHalfPerimeter {file_total!r} != layout total {total!r}"
        info["totals"] = [total]
        info["shapes"] = [tree_shape(tree, lambda d: (d["left"], d["right"]) if "cut" in d else ())]
        info["bytes"] = size
        if op.kind == "partition":
            rep = json.loads(Path(p["report"]).read_bytes())
            if rep["totalHalfPerimeter"] != total:
                return "report total differs from the layout total"
            svg = Path(p["svg"]).read_bytes()
            if not svg.startswith(b"<?xml") or svg.count(b"<rect ") != inst.n:
                return "svg does not hold one rect per pane"
            info[f"{op.algo}_ratio"] = rep["approxRatio"]
            info["forced"] = sum(1 for r in rep["perRect"] if r["isForced"])
            info["svg_bytes"] = len(svg)
            return info

        # oracle: the optimum can be no worse than dc, and its witness is valid
        dc = rp.dc.partition_dc(inst)
        mdc = rp.mdc.partition_mdc(inst)
        dc_total = dc.total_half_perimeter()
        if total > dc_total * (1.0 + REL_TOL):
            return f"oracle value {total!r} exceeds the dc total {dc_total!r}"
        info["dc_gap"] = dc_total / total
        info["dc_ratio"] = self.bounds_report(inst, dc).approx_ratio
        info["mdc_ratio"] = self.bounds_report(inst, mdc).approx_ratio
        return info

    # -- counters (traced run, untimed) ---------------------------------------

    def counters(self, op: workloads.Op) -> dict[str, float]:
        """Per-op counters from untimed recomputation on the op's inputs."""
        rp = self.rp
        info = self.verified[op.label][1]
        inst = self.insts[op.instance]
        c: dict[str, float] = defaultdict(float)
        algos = ("dc", "mdc") if op.kind == "pipeline" else (op.algo,) if op.algo else ()
        for algo in algos:
            stats = rp.dc.ReductionStats()
            (rp.dc.partition_dc if algo == "dc" else rp.mdc.partition_mdc)(inst, stats)
            c["dc.merges" if algo == "dc" else "mdc.iterations"] += stats.iterations
        shapes = info["shapes"]
        c["geometry.tree_depth"] = max((d for d, _ in shapes), default=0)
        c["geometry.tree_nodes"] = sum(k for _, k in shapes)
        c["bounds.forced_panes"] = info.get("forced", 0)
        if op.kind != "pipeline":
            c["fileio.serialize_layout.bytes"] = info["bytes"]
        c["svg.render_svg.bytes"] = info.get("svg_bytes", 0)
        # The layout the op validates: dc's in the pipeline, else the file's.
        if op.kind == "pipeline":
            layout = rp.dc.partition_dc(inst)
        else:
            layout = self.read_layout(self.paths(op)["output"])[0]
        tracemalloc.start()
        try:
            self.validate(inst, layout)
            c["geometry.validate_layout.peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        return c


def run(args) -> dict:
    rp = import_rectpart()
    wl = workloads.build(args.workload, tiny=args.size == "tiny", with_defects=args.with_defects)
    traced = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return measure(rp, wl, args, work, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(rp, wl: workloads.Workload, args, work: Path, traced: bool) -> dict:
    child = [sys.executable, str(HERE / "run.py"), "--emit-inputs", str(work),
             "--workload", wl.name, "--seed", str(args.seed), "--size", args.size]
    if args.with_defects:
        child.append("--with-defects")
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(child, check=True, stdin=subprocess.DEVNULL)
        setup_times.append(time.perf_counter() - t0)

    bench = Bench(rp, wl, work, traced)
    generate_s = bench.load_inputs(args.seed)

    # Warm-up: one untimed, unchecked run of each op kind on a six-pane instance.
    bench.insts["warmup"] = rp.generate(rp.GenSpec(6, "uniform", 0, rp.Rect(0.0, 0.0, 1.0, 1.0)))
    (work / "warmup.json").write_bytes(rp.serialize_instance(bench.insts["warmup"]))
    for kind, algo in sorted({(op.kind, op.algo) for op in wl.ops}):
        try:
            bench.call(workloads.Op(kind, "warmup", algo))
        except Exception:  # the timed ops record any failure
            pass

    if args.size == "tiny":
        passes = 2
    else:
        # A traced pass runs every op twice, so it makes half as many.
        passes = max(1, round(args.seconds / wl.pass_seconds / (2 if traced else 1)))
    deadline = time.perf_counter() + 4 * args.seconds + 30

    records = []  # (pass, position, seconds, failure, traced)
    for p in range(passes):
        if p and time.perf_counter() > deadline:
            break
        # Traced runs time each op untraced and traced back to back, in
        # alternating order, so that both see the same machine state.
        modes = ((False, True) if p % 2 == 0 else (True, False)) if traced else (False,)
        for pos, op in enumerate(wl.ops):
            for with_spans in modes:
                seconds, err = bench.run_op(op, len(records) if with_spans else -1)
                records.append((p, pos, seconds, err, with_spans))
                if err is not None:
                    bench.failures.append({"pass": p, "op": op.label, "error": err})
    passes_run = records[-1][0] + 1

    attempted = len(records)
    failed = sum(1 for r in records if r[3] is not None)
    done = [r for r in records if r[3] is None]
    result: dict = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "size": args.size,
        "with_defects": args.with_defects,
        "environment": environment(args.seed),
        "passes": passes_run,
        "ops_per_pass": len(wl.ops),
        "attempted": attempted,
        "failed": failed,
        "failures": bench.failures[:50],
        "problems": bench.problems,
        "digest": digest(wl, bench),
    }

    infos = [bench.verified[op.label][1] for op in wl.ops if op.label in bench.verified]
    if not traced:
        ms = [r[2] * 1e3 for r in done]
        tail_ms, tail_pct = tail(ms) if ms else (0.0, 0.0)
        # Panes per second in each pass, then the median over passes, so
        # that a burst of load on the machine during one pass is outvoted.
        pass_panes: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for r in done:
            pass_panes[r[0]][0] += bench.verified[wl.ops[r[1]].label][1]["panes"]
            pass_panes[r[0]][1] += r[2]
        gaps = [i["dc_gap"] for i in infos if "dc_gap" in i]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_ms_p50": statistics.median(ms) if ms else 0.0,
            "op_ms_tail": tail_ms,
            "panes_per_s": statistics.median(p / t for p, t in pass_panes.values()) if done else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "dc_ratio_max": max((i["dc_ratio"] for i in infos if "dc_ratio" in i), default=0.0),
            "mdc_ratio_max": max((i["mdc_ratio"] for i in infos if "mdc_ratio" in i), default=0.0),
        }
        result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        # Printed and recorded, but not bounded in BENCHMARK.json: both are
        # zero or undefined on some workloads.
        result["unbounded_metrics"] = {
            "fail_share": {"value": failed / attempted, "unit": "share"},
            "dc_gap_max": {"value": max(gaps) if gaps else None, "unit": "ratio"},
        }
        result["op_ms_tail_percentile"] = tail_pct
        result["ops_timed"] = len(ms)
        result["setup_s_all"] = setup_times
        by_op = defaultdict(list)
        for r in done:
            by_op[wl.ops[r[1]].label].append(r[2] * 1e3)
        result["op_ms_by_op"] = by_op
    else:
        result["metrics"], result["unaccounted_share_worst_op"] = layer_metrics(
            bench, wl, records, generate_s
        )
        spans_path = OUT / f"{wl.name}-seed{args.seed}.spans.csv.gz"
        bench.tracer.write(spans_path)
        result["spans"] = spans_path.name
    return result


def digest(wl: workloads.Workload, bench: Bench) -> str:
    """sha256 over every op's output totals, bit for bit, in pass order."""
    h = hashlib.sha256()
    for op in wl.ops:
        entry = bench.verified.get(op.label)
        totals = entry[1]["totals"] if entry else ["failed"]
        h.update(f"{op.label} {' '.join(repr(t) for t in totals)}\n".encode())
    return h.hexdigest()


def layer_metrics(bench: Bench, wl: workloads.Workload, records, generate_s: float) -> tuple[dict, float]:
    """Per-layer metrics, as totals over one traced pass, and the largest
    unaccounted share of any single traced op."""
    traced_done = {i: r for i, r in enumerate(records) if r[4] and r[3] is None}
    n_traced = len({r[0] for r in records if r[4]})
    spans = bench.tracer.per_op(set(traced_done))

    # Self times partition each op's spans, so wall minus their sum is the
    # part of the op no layer accounts for (runner glue between calls).
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    unaccounted = wall = worst = 0.0
    for i, r in traced_done.items():
        accounted = 0.0
        for name, (incl, self_s, calls) in spans.get(i, {}).items():
            acc = totals[name]
            acc[0] += incl
            acc[1] += self_s
            acc[2] += calls
            accounted += self_s
        unaccounted += abs(r[2] - accounted)
        wall += r[2]
        worst = max(worst, abs(r[2] - accounted) / r[2])

    # Tracing overhead: each traced op against its untraced twin.
    plain = {(r[0], r[1]): r for r in records if not r[4] and r[3] is None}
    t_sum = u_sum = 0.0
    for r in traced_done.values():
        u = plain.get((r[0], r[1]))
        if u is not None:
            t_sum += r[2]
            u_sum += u[2]

    counters: dict[str, float] = defaultdict(float)
    for op in wl.ops:
        if op.label not in bench.verified:
            continue
        for key, v in bench.counters(op).items():
            counters[key] = max(counters[key], v) if key in MAX_COUNTERS else counters[key] + v
    counters["instances.generate.ms"] = generate_s * 1e3
    counters["trace.overhead_share"] = (t_sum - u_sum) / u_sum if u_sum else 0.0
    counters["trace.unaccounted_share"] = unaccounted / wall if wall else 0.0

    out = {}
    for name, unit, (source, field) in PER_LAYER:
        if source == "counter":
            value = counters.get(field, 0.0)
        else:
            incl, self_s, calls = totals.get(source, (0.0, 0.0, 0))
            value = {"ms": incl * 1e3, "self": self_s * 1e3, "calls": calls}[field] / max(n_traced, 1)
        out[name] = {"value": value, "unit": unit}
    return out, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--with-defects", action="store_true",
                        help="add the ops that fail at the seed commit")
    parser.add_argument("--emit-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.emit_inputs:
        wl = workloads.build(args.workload, tiny=args.size == "tiny", with_defects=args.with_defects)
        emit_inputs(wl, args.seed, Path(args.emit_inputs))
        return 0

    result = run(args)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")

    print(f"# {result['workload']} seed={args.seed} trace={args.trace} passes={result['passes']} "
          f"ops={result['attempted']} failed={result['failed']} digest={result['digest'][:16]}")
    for name, m in {**result["metrics"], **result.get("unbounded_metrics", {})}.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:40s} {value:>14s} {m['unit']}")
    if not args.trace:
        print(f"{'(op_ms_tail percentile)':40s} {result['op_ms_tail_percentile']:>14g} "
              f"of {result['ops_timed']} timed ops")
    for f in result["failures"][:5]:
        print(f"failed: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
