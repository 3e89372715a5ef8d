"""Command-line front end.

Exit codes are a stable contract: 0 for success or a YES answer, 2 for a
completed run with a negative answer, 3 for a solver timeout, 1 for input
or usage errors, and 4 when two routes that must agree disagree (a bug in
the program, not in the input). Reports go to stdout as key=value lines;
--format json switches to a single JSON document.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import formats
from .coloring import (
    ConsistencyError,
    SolveTimeout,
    decide_proper_interval,
    exact_solve,
    round_robin_color,
    verify_equitable_tree_coloring,
    verify_interval_coloring,
)
from .gadgets import (
    build_interval_gadget,
    build_split_gadget,
    gen_random_interval,
    validate_layout,
)
from .graph import (
    IntervalRep,
    ProperContainmentError,
    RepresentationError,
    interval_edge_stats,
    is_proper_representation,
    max_clique_sweep,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_TIMEOUT = 3
EXIT_INCONSISTENT = 4

GADGET_KINDS = ("split-gadget", "interval-gadget")
RANDOM_KINDS = ("random", "random-proper")


@dataclass
class RunReport:
    """What a command did: the answer (for decision commands), named
    statistics, and the files written."""

    command: str
    answer: str | None = None
    statistics: dict = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)

    def emit(self, fmt: str) -> None:
        if fmt == "json":
            print(json.dumps(self.__dict__))
            return
        print(f"command={self.command}")
        if self.answer is not None:
            print(f"answer={self.answer}")
        for key, value in self.statistics.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, (list, tuple)):
                value = ",".join(str(x) for x in value)
            print(f"{key}={value}")
        for path in self.artifacts:
            print(f"wrote={path}")


def _threshold(max_degree: int) -> int:
    """Smallest k for which the round-robin coloring is guaranteed to
    verify: ceil((max_degree + 1) / 2)."""
    return (max_degree + 2) // 2


def cmd_color(args) -> int:
    rep = formats.parse_intervals(args.intervals)
    coloring = round_robin_color(rep, args.k)
    verdict = verify_interval_coloring(rep, coloring)
    formats.write_coloring(args.out, coloring)
    m, delta = interval_edge_stats(rep)
    report = RunReport(
        "color",
        statistics={
            "n": rep.n,
            "m": m,
            "max_degree": delta,
            "threshold": _threshold(delta),
            "k": args.k,
            "class_sizes": coloring.class_sizes(),
            "verified": verdict.ok,
        },
        artifacts=[str(args.out)],
    )
    if not verdict.ok:
        report.statistics["failure"] = verdict.failure_kind
        if verdict.witness is not None:
            report.statistics["witness"] = verdict.witness
    report.emit(args.format)
    return EXIT_OK if verdict.ok else EXIT_NEGATIVE


def cmd_decide(args) -> int:
    rep = formats.parse_intervals(args.intervals)
    answer, certificate = decide_proper_interval(rep, args.k)
    report = RunReport(
        "decide",
        answer="YES" if answer else "NO",
        statistics={
            "n": rep.n,
            "m": interval_edge_stats(rep)[0],
            "omega": max_clique_sweep(rep),
            "k": args.k,
        },
    )
    if answer and args.out is not None:
        formats.write_coloring(args.out, certificate)
        report.statistics["class_sizes"] = certificate.class_sizes()
        report.artifacts.append(str(args.out))
    report.emit(args.format)
    return EXIT_OK if answer else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    source = formats.parse_graph_or_intervals(args.graph)
    coloring = formats.parse_coloring(args.coloring)
    if args.k is not None and args.k != coloring.k:
        raise ValueError(f"--k {args.k} does not match the coloring file's k={coloring.k}")
    if len(coloring) != source.n:
        raise ValueError(
            f"coloring file covers {len(coloring)} vertices, graph has {source.n}"
        )
    if isinstance(source, IntervalRep):
        m = interval_edge_stats(source)[0]
        verdict = verify_interval_coloring(source, coloring)
    else:
        m = source.m
        verdict = verify_equitable_tree_coloring(source, coloring)
    report = RunReport(
        "verify",
        answer="YES" if verdict.ok else "NO",
        statistics={
            "n": source.n,
            "m": m,
            "k": coloring.k,
            "class_sizes": coloring.class_sizes(),
            "valid": verdict.ok,
        },
    )
    if not verdict.ok:
        report.statistics["failure"] = verdict.failure_kind
        if verdict.witness is not None:
            report.statistics["witness"] = verdict.witness
    report.emit(args.format)
    return EXIT_OK if verdict.ok else EXIT_NEGATIVE


def cmd_solve(args) -> int:
    g = formats.load_graph(args.graph)
    report = RunReport("solve", statistics={"n": g.n, "m": g.m, "k": args.k})
    try:
        coloring = exact_solve(g, args.k, time_limit=args.timeout)
    except SolveTimeout:
        report.answer = "TIMEOUT"
        report.statistics["timeout"] = args.timeout
        report.emit(args.format)
        return EXIT_TIMEOUT
    if coloring is None:
        report.answer = "NO"
        report.emit(args.format)
        return EXIT_NEGATIVE
    report.answer = "YES"
    report.statistics["class_sizes"] = coloring.class_sizes()
    if args.out is not None:
        formats.write_coloring(args.out, coloring)
        report.artifacts.append(str(args.out))
    report.emit(args.format)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind in GADGET_KINDS:
        # Every flag is checked before anything is built or written.
        if args.input is None:
            raise ValueError(f"gen {args.kind} needs a bin-packing instance file")
        if args.kind == "interval-gadget" and args.intervals_out is None:
            raise ValueError("gen interval-gadget needs --intervals-out")
        if args.labels_out is None:
            raise ValueError(f"gen {args.kind} needs --labels-out")
        inst = formats.parse_binpacking(args.input)
        build = build_split_gadget if args.kind == "split-gadget" else build_interval_gadget
        try:
            layout = build(inst)
            validate_layout(layout)
        except ConsistencyError as exc:
            print(f"error: gadget validation failed: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        report = RunReport(
            "gen",
            statistics={
                "kind": args.kind,
                "items": inst.n,
                "k": inst.bins,
                "capacity": inst.capacity,
                "n": layout.graph.n,
                "m": layout.graph.m,
            },
        )
        formats.write_graph(args.out, layout.graph)
        report.artifacts.append(str(args.out))
        if args.kind == "interval-gadget":
            formats.write_intervals(args.intervals_out, layout.rep)
            report.artifacts.append(str(args.intervals_out))
        formats.write_labels(args.labels_out, layout)
        report.artifacts.append(str(args.labels_out))
        report.emit(args.format)
        return EXIT_OK

    if args.input is not None:
        raise ValueError(f"gen {args.kind} takes flags, not an input file")
    if args.n is None:
        raise ValueError(f"gen {args.kind} needs --n")
    if args.max_coord is None:
        raise ValueError(f"gen {args.kind} needs --max-coord")
    rep = gen_random_interval(
        args.n, args.max_coord, args.seed, proper=args.kind == "random-proper"
    )
    formats.write_intervals(args.out, rep)
    report = RunReport(
        "gen",
        statistics={
            "kind": args.kind,
            "n": rep.n,
            "max_coord": args.max_coord,
            "seed": args.seed,
        },
        artifacts=[str(args.out)],
    )
    report.emit(args.format)
    return EXIT_OK


def cmd_analyze(args) -> int:
    rep = formats.parse_intervals(args.intervals)
    omega = max_clique_sweep(rep)
    proper = is_proper_representation(rep)
    m, delta = interval_edge_stats(rep)
    report = RunReport(
        "analyze",
        statistics={
            "n": rep.n,
            "m": m,
            "max_degree": delta,
            "omega": omega,
            "proper": proper,
            "threshold": _threshold(delta),
        },
    )
    if proper:
        # For proper representations, feasibility is exactly omega <= 2k.
        report.statistics["min_k"] = max(1, (omega + 1) // 2)
    report.emit(args.format)
    return EXIT_OK


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _timeout_seconds(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError("must be a finite number >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treecolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("color", help="round-robin color an intervals file and verify")
    p.add_argument("intervals")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("decide", help="YES/NO for a proper intervals file")
    p.add_argument("intervals")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--out", help="write the certificate coloring on YES")
    add_common(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph", help="graph or intervals file")
    p.add_argument("coloring")
    p.add_argument("--k", type=_positive_int, help="cross-check the coloring's k")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="exhaustive search on a small instance")
    p.add_argument("graph", help="graph or intervals file")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--timeout", type=_timeout_seconds, help="seconds before giving up (exit 3)")
    p.add_argument("--out", help="write the coloring on YES")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate gadgets or random interval files")
    p.add_argument("kind", choices=GADGET_KINDS + RANDOM_KINDS)
    p.add_argument("input", nargs="?", help="bin-packing file (gadget kinds only)")
    p.add_argument("--out", required=True, help="graph file (gadgets) or intervals file (random)")
    p.add_argument("--labels-out", help="part-labels file (gadget kinds)")
    p.add_argument("--intervals-out", help="intervals file (interval-gadget)")
    p.add_argument("--n", type=int, help="vertex count (random kinds)")
    p.add_argument("--max-coord", type=int, help="largest coordinate (random kinds)")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="report statistics for an intervals file")
    p.add_argument("intervals")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except (
        formats.ParseError,
        RepresentationError,
        ProperContainmentError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConsistencyError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
