"""Command-line interface.

Exit codes: 0 success, 1 invalid input, usage or an unreadable or unwritable
file, 2 guard refusal (instance too large for the exact solver), 3 internal
invariant violation or any other internal failure. Each command that reads or
writes a layout validates it exactly once.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from typing import IO, Sequence

from .bounds import _report_valid, report
from .dc import partition_dc
from .fileio import (
    parse_instance,
    parse_layout,
    report_to_json,
    serialize_instance,
    serialize_layout,
)
from .geometry import Rect, validate_layout
from .instances import GenSpec, generate
from .mdc import partition_mdc
from .oracle import OracleSizeError, optimal_guillotine
from .svg import render_svg


class _UsageError(Exception):
    pass


class InternalInvariantError(RuntimeError):
    """A produced layout failed its own self-check, or no layout was produced."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="rectpart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("partition", help="lay out an instance file")
    p.add_argument("--algo", choices=("dc", "mdc"), required=True)
    p.add_argument("--input", required=True, help="instance JSON file")
    p.add_argument("--output", help="layout JSON file (stdout when omitted)")
    p.add_argument("--svg", help="also render the layout to this SVG file")
    p.add_argument("--labels", choices=("none", "index", "full"), default="index")
    p.add_argument("--normalize", action="store_true", help="rescale areas to fit the container")
    p.add_argument("--report", help="also write a quality report to this JSON file")

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("uniform", "geo"), required=True)
    p.add_argument("--q", type=float, default=0.5, help="decay ratio for --family geo")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("eval", help="quality report for an externally produced layout")
    p.add_argument("--instance", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("oracle", help="exact guillotine optimum for a small instance")
    p.add_argument("--input", required=True)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--output", required=True)

    p = sub.add_parser("bench", help="wall-clock medians of the dc partitioner, as CSV")
    p.add_argument("--n-list", required=True, help="comma-separated instance sizes")
    p.add_argument("--repeats", type=int, default=11)
    return parser


def _stdout_or(path: str | None) -> str | IO[bytes]:
    """The writers' destination: ``path``, or the binary stdout without one."""
    if path is not None:
        return path
    sys.stdout.flush()
    return sys.stdout.buffer


def _cmd_partition(args: argparse.Namespace) -> int:
    inst = parse_instance(Path(args.input).read_bytes(), normalize=args.normalize)
    algo = partition_dc if args.algo == "dc" else partition_mdc
    try:
        layout = algo(inst)
    except ValueError as e:
        # The instance is already parsed and checked: this failure is ours.
        raise InternalInvariantError(f"{args.algo} failed on a valid instance: {e}") from e
    diag = validate_layout(inst, layout)
    if not diag.ok:
        raise InternalInvariantError(f"produced layout failed validation: {diag}")
    serialize_layout(layout, include_tree=bool(args.report), dest=_stdout_or(args.output))
    if args.svg:
        render_svg(layout, inst, labels=args.labels, dest=args.svg)
    if args.report:
        report_to_json(_report_valid(inst, layout), dest=args.report)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    family = "geometric" if args.family == "geo" else "uniform"
    spec = GenSpec(
        n=args.n,
        family=family,
        seed=args.seed,
        container=Rect(0.0, 0.0, args.width, args.height),
        q=args.q,
    )
    Path(args.output).write_bytes(serialize_instance(generate(spec)))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    inst = parse_instance(Path(args.instance).read_bytes())
    layout = parse_layout(Path(args.layout).read_bytes())
    report_to_json(report(inst, layout), dest=args.output)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise _UsageError("--max-n must be >= 1")
    inst = parse_instance(Path(args.input).read_bytes())
    _, layout = optimal_guillotine(inst, max_n=args.max_n)
    diag = validate_layout(inst, layout)
    if not diag.ok:
        raise InternalInvariantError(f"oracle witness failed validation: {diag}")
    serialize_layout(layout, include_tree=True, dest=args.output)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.n_list.split(",") if s]
    except ValueError as e:
        raise _UsageError(f"--n-list must be comma-separated integers: {e}") from e
    if not sizes or any(n < 2 for n in sizes) or args.repeats < 1:
        raise _UsageError("--n-list needs sizes >= 2 and --repeats >= 1")
    sys.stdout.write("n,median_ms,mean_ms\n")
    for n in sizes:
        inst = generate(GenSpec(n=n, family="uniform", seed=n, container=Rect(0, 0, 1.0, 1.0)))
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            partition_dc(inst)
            times.append((time.perf_counter() - t0) * 1000.0)
        sys.stdout.write(f"{n},{statistics.median(times):.3f},{statistics.fmean(times):.3f}\n")
    return 0


_COMMANDS = {
    "partition": _cmd_partition,
    "gen": _cmd_gen,
    "eval": _cmd_eval,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OracleSizeError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # InternalInvariantError, RecursionError and anything else escaping
        # a command: one line, never a traceback.
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(cli_main())
