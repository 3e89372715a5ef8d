"""Command-line front end.

Exit codes are a stable contract: 0 for success or a YES answer, 2 for a
completed run with a negative answer, 3 for a solver timeout, 1 for input
or usage errors, and 4 when two routes that must agree disagree (a bug in
the program, not in the input). Reports go to stdout as key=value lines;
--format json switches to a single JSON document.

A command returns its exit code, its report and the files it writes, as
(target, writer, value) triples; `main` writes them all or none with
`formats.write_all`, and only then emits the report.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

from . import formats
from .coloring import (
    ConsistencyError,
    SolveTimeout,
    Verdict,
    decide_proper_interval,
    exact_solve,
    guaranteed_k,
    proper_min_k,
    round_robin_color,
    solve_intervals,
    verify_equitable_tree_coloring,
    verify_interval_coloring,
)
from .gadgets import (
    build_interval_gadget,
    build_split_gadget,
    gen_random_interval,
    validate_layout,
)
from .graph import IntervalRep, is_proper_representation

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_TIMEOUT = 3
EXIT_INCONSISTENT = 4


@dataclass
class RunReport:
    """What a command did: the answer (for decision commands), named
    statistics, and the files written, which `main` lists once written."""

    command: str
    answer: str | None = None
    statistics: dict = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)

    def add_failure(self, verdict: Verdict) -> None:
        """Name the failed clause and its witness when the verdict is not ok."""
        if not verdict.ok:
            self.statistics["failure"] = verdict.failure_kind
            if verdict.witness is not None:
                self.statistics["witness"] = verdict.witness

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


def cmd_color(args) -> tuple[int, RunReport, list]:
    rep = formats.parse_intervals(args.intervals)
    coloring = round_robin_color(rep, args.k)
    verdict = verify_interval_coloring(rep, coloring)
    _, m, delta = rep.stats
    report = RunReport(
        "color",
        statistics={
            "n": rep.n,
            "m": m,
            "max_degree": delta,
            "threshold": guaranteed_k(delta),
            "k": args.k,
            "class_sizes": coloring.class_sizes(),
            "verified": verdict.ok,
        },
    )
    report.add_failure(verdict)
    files = [(args.out, formats.write_coloring, coloring)]
    return (EXIT_OK if verdict.ok else EXIT_NEGATIVE), report, files


def cmd_decide(args) -> tuple[int, RunReport, list]:
    rep = formats.parse_intervals(args.intervals)
    answer, certificate = decide_proper_interval(rep, args.k)
    report = RunReport(
        "decide",
        answer="YES" if answer else "NO",
        statistics={
            "n": rep.n,
            "m": rep.stats[1],
            "omega": rep.stats[0],
            "k": args.k,
        },
    )
    files = []
    if answer and args.out is not None:
        report.statistics["class_sizes"] = certificate.class_sizes()
        files.append((args.out, formats.write_coloring, certificate))
    return (EXIT_OK if answer else EXIT_NEGATIVE), report, files


def cmd_verify(args) -> tuple[int, RunReport, list]:
    source = formats.parse_graph_or_intervals(args.graph)
    coloring = formats.parse_coloring(args.coloring)
    if args.k is not None and args.k != coloring.k:
        raise ValueError(f"--k {args.k} does not match the coloring file's k={coloring.k}")
    if len(coloring) != source.n:
        raise ValueError(
            f"coloring file covers {len(coloring)} vertices, graph has {source.n}"
        )
    if isinstance(source, IntervalRep):
        m, verdict = source.stats[1], verify_interval_coloring(source, coloring)
    else:
        m, verdict = source.m, verify_equitable_tree_coloring(source, coloring)
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
    report.add_failure(verdict)
    return (EXIT_OK if verdict.ok else EXIT_NEGATIVE), report, []


def cmd_solve(args) -> tuple[int, RunReport, list]:
    source = formats.parse_graph_or_intervals(args.graph)
    if isinstance(source, IntervalRep):
        m, solve = source.stats[1], solve_intervals
    else:
        m, solve = source.m, exact_solve
    report = RunReport("solve", statistics={"n": source.n, "m": m, "k": args.k})
    try:
        coloring = solve(source, args.k, time_limit=args.timeout)
    except SolveTimeout:
        report.answer = "TIMEOUT"
        report.statistics["timeout"] = args.timeout
        return EXIT_TIMEOUT, report, []
    if coloring is None:
        report.answer = "NO"
        return EXIT_NEGATIVE, report, []
    report.answer = "YES"
    report.statistics["class_sizes"] = coloring.class_sizes()
    files = [] if args.out is None else [(args.out, formats.write_coloring, coloring)]
    return EXIT_OK, report, files


def cmd_gen_gadget(args) -> tuple[int, RunReport, list]:
    inst = formats.parse_binpacking(args.input)
    interval = args.kind == "interval-gadget"
    layout = (build_interval_gadget if interval else build_split_gadget)(inst)
    validate_layout(layout)
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
    files = [(args.out, formats.write_graph, layout.graph)]
    if interval:
        files.append((args.intervals_out, formats.write_intervals, layout.rep))
    files.append((args.labels_out, formats.write_labels, layout))
    return EXIT_OK, report, files


def cmd_gen_random(args) -> tuple[int, RunReport, list]:
    rep = gen_random_interval(
        args.n, args.max_coord, args.seed, proper=args.kind == "random-proper"
    )
    report = RunReport(
        "gen",
        statistics={
            "kind": args.kind,
            "n": rep.n,
            "max_coord": args.max_coord,
            "seed": args.seed,
        },
    )
    return EXIT_OK, report, [(args.out, formats.write_intervals, rep)]


def cmd_analyze(args) -> tuple[int, RunReport, list]:
    rep = formats.parse_intervals(args.intervals)
    omega, m, delta = rep.stats
    proper = is_proper_representation(rep)
    report = RunReport(
        "analyze",
        statistics={
            "n": rep.n,
            "m": m,
            "max_degree": delta,
            "omega": omega,
            "proper": proper,
            "threshold": guaranteed_k(delta),
        },
    )
    if proper:
        # Only for proper representations is omega <= 2k the exact criterion.
        report.statistics["min_k"] = proper_min_k(omega)
    return EXIT_OK, report, []


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError instead of exiting."""

    def error(self, message):
        raise _UsageError(message)


def _subcommand_slot(argv: list[str]) -> tuple[int, str]:
    """The index in argv where a subcommand belongs, and its name: gen's
    kind after `gen`, else the command."""
    return (1, "kind") if argv[:1] == ["gen"] else (0, "command")


def _misplaced_option(argv: list[str]) -> str | None:
    """The usage error for an option typed where a subcommand belongs (the
    command, or gen's kind after it), or None. Asked only once parsing has
    failed, in place of whatever argparse made of the misplaced option."""
    index, name = _subcommand_slot(argv)
    slot = argv[index:index + 1]
    if slot and slot[0].startswith("-") and slot[0] != "--":
        option = slot[0].partition("=")[0]
        return f"{option} given before the {name}; the {name} comes first"
    return None


def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _timeout_seconds(text: str) -> float:
    try:
        if math.isfinite(value := float(text)) and value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: it keeps no state between parses."""
    parser = _Parser(prog="treecolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

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

    p = sub.add_parser(
        "solve",
        help="YES/NO for any graph or intervals file",
        description="Solve a graph file by exhaustive search. An intervals file is "
        "answered NO when more than 2k intervals share a point, YES when the "
        "round-robin coloring verifies, YES when the greedy coloring verifies, "
        "and only otherwise searched.",
    )
    p.add_argument("graph", help="graph or intervals file")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument(
        "--timeout", type=_timeout_seconds,
        help="seconds from the start, the graph derivation included, after which "
        "the exhaustive search gives up (exit 3); the bounds and the greedy run "
        "whatever it says, a spent timeout answers before the derivation, and a "
        "running derivation is not interrupted",
    )
    p.add_argument("--out", help="write the coloring on YES")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    gen = sub.add_parser("gen", help="generate gadgets or random interval files")
    kinds = gen.add_subparsers(dest="kind", required=True)
    for kind in ("split-gadget", "interval-gadget"):
        p = kinds.add_parser(kind, help=f"{kind} of a bin-packing instance")
        p.add_argument("input", help="bin-packing file")
        p.add_argument("--out", required=True, help="graph file")
        if kind == "interval-gadget":
            p.add_argument("--intervals-out", required=True, help="intervals file")
        p.add_argument("--labels-out", required=True, help="part-labels file")
        add_common(p)
        p.set_defaults(func=cmd_gen_gadget)
    for kind in ("random", "random-proper"):
        p = kinds.add_parser(kind, help=f"seeded {kind} intervals file")
        p.add_argument("--out", required=True, help="intervals file")
        p.add_argument("--n", type=int, required=True, help="vertex count")
        p.add_argument("--max-coord", type=int, required=True, help="largest coordinate")
        p.add_argument("--seed", type=int, default=0)
        add_common(p)
        p.set_defaults(func=cmd_gen_random)

    p = sub.add_parser("analyze", help="report statistics for an intervals file")
    p.add_argument("intervals")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Drop a lone `--` where the command, or then gen's kind, belongs: no
    # option may stand before either, and argparse would take it for a name.
    for index in (0, 1):
        if argv[index:index + 1] == ["--"] and _subcommand_slot(argv)[0] == index:
            del argv[index]
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {_misplaced_option(argv) or exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        code, report, files = args.func(args)
        formats.write_all(files)
        report.artifacts = [str(target) for target, _, _ in files]
        report.emit(args.format)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: ran out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OverflowError as exc:
        print(f"error: a number is too large to use: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConsistencyError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
