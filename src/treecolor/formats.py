"""Line-oriented file formats.

All five formats share the same framing: whitespace-separated tokens,
anything after '#' is a comment, blank lines are ignored, the first data
line is a header naming the format, and all ids and colors are 0-based.

    intervals <n>        then n lines  <id> <left> <right>
    graph <n> <m>        then m lines  <u> <v>          with u < v
    coloring <n> <k>     then n lines  <vertex> <color> with colors 0..k-1
    binpacking <n> <k> <B>  then n lines  <item-size>
    labels <kind>        then lines    <part-name> <vertex ids...>

The four counted formats share one reader for the framing. Beyond it, a
parser checks only the rules that exist in files alone (a graph row has
u < v and appears once; a coloring file lists each vertex once); the types
check every other value, and their errors are reported on the row's line.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .coloring import Coloring, ColoringError
from .gadgets import INTERVAL, SPLIT, BinPackingInstance, GadgetLayout
from .graph import Graph, IntervalRep, RepresentationError, derive_graph


class ParseError(ValueError):
    """Input file rejected; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _read_lines(path) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of every line that holds data."""
    lines = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            lines.append((line_no, tokens))
    return lines


def _int(line_no: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected an integer, found {token!r}") from None


def _ints(line_no: int, tokens: list[str]) -> tuple[int, ...]:
    try:
        return tuple(map(int, tokens))
    except ValueError:
        # Again token by token, to name the one that is not an integer.
        return tuple(_int(line_no, token) for token in tokens)


# The counted formats: header fields, the index of the field that counts the
# rows, and the fields of a row. The first field, n, and the row count must
# be >= 0; the types check every other value.
_LAYOUTS = {
    "intervals": (("n",), 0, ("id", "left", "right")),
    "graph": (("n", "m"), 1, ("u", "v")),
    "coloring": (("n", "k"), 0, ("vertex", "color")),
    "binpacking": (("n", "k", "B"), 0, ("size",)),
}


class _Table(NamedTuple):
    kind: str
    header_no: int
    header: tuple[int, ...]
    line_nos: list[int]
    rows: list[tuple[int, ...]]


def _read(path, *kinds: str) -> _Table:
    """The header and the rows of a counted file whose header names one of
    kinds, with every token an integer and exactly as many rows, each of
    its format's width, as the header counts."""
    expected = " or ".join(f"'{kind}'" for kind in kinds)
    lines = _read_lines(path)
    if not lines:
        raise ParseError(1, f"empty file, expected a {expected} header")
    header_no, tokens = lines[0]
    kind = tokens[0]
    if kind not in kinds:
        raise ParseError(header_no, f"expected a {expected} header, found {kind!r}")
    fields, counted, row_fields = _LAYOUTS[kind]
    if len(tokens) != 1 + len(fields):
        usage = " ".join(f"<{name}>" for name in fields)
        raise ParseError(header_no, f"the header is '{kind} {usage}'")
    header = _ints(header_no, tokens[1:])
    for i in sorted({0, counted}):
        if header[i] < 0:
            raise ParseError(header_no, f"header count {fields[i]} must be >= 0")
    body = lines[1:]
    count = header[counted]
    if len(body) > count:
        raise ParseError(body[count][0], f"extra line, the header counts {count} rows")
    if len(body) < count:
        last = body[-1][0] if body else header_no
        raise ParseError(last, f"file ends after {len(body)} of {count} rows")
    width = len(row_fields)
    line_nos = []
    rows = []
    for line_no, tokens in body:
        if len(tokens) != width:
            usage = " ".join(f"<{name}>" for name in row_fields)
            raise ParseError(line_no, f"{kind} rows are '{usage}'")
        line_nos.append(line_no)
        rows.append(_ints(line_no, tokens))
    return _Table(kind, header_no, header, line_nos, rows)


def parse_intervals(path) -> IntervalRep:
    return _intervals(_read(path, "intervals"))


def _intervals(table: _Table) -> IntervalRep:
    try:
        return IntervalRep(tuple(table.rows))
    except RepresentationError as exc:
        raise ParseError(table.line_nos[exc.position], str(exc)) from None


def write_intervals(path, rep: IntervalRep) -> None:
    out = [f"intervals {rep.n}"]
    out.extend(f"{v} {lo} {hi}" for v, (lo, hi) in enumerate(zip(rep.lefts, rep.rights)))
    Path(path).write_text("\n".join(out) + "\n")


def parse_graph(path) -> Graph:
    return _graph(_read(path, "graph"))


def _graph(table: _Table) -> Graph:
    n = table.header[0]
    seen = set()
    for line_no, (u, v) in zip(table.line_nos, table.rows):
        if not 0 <= u < v < n:
            raise ParseError(line_no, f"edge ({u}, {v}) must satisfy 0 <= u < v < {n}")
        if (u, v) in seen:
            raise ParseError(line_no, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    return Graph.from_edges(n, table.rows)


def write_graph(path, g: Graph) -> None:
    out = [f"graph {g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(out) + "\n")


def parse_coloring(path) -> Coloring:
    table = _read(path, "coloring")
    n, k = table.header
    colors: list[int | None] = [None] * n
    line_of = [0] * n
    for line_no, (v, c) in zip(table.line_nos, table.rows):
        if not 0 <= v < n:
            raise ParseError(line_no, f"vertex id {v} outside 0..{n - 1}")
        if colors[v] is not None:
            raise ParseError(line_no, f"duplicate vertex id {v}")
        colors[v] = c
        line_of[v] = line_no
    try:
        return Coloring(tuple(colors), k)
    except ColoringError as exc:
        line_no = table.header_no if exc.vertex is None else line_of[exc.vertex]
        raise ParseError(line_no, str(exc)) from None


def write_coloring(path, c: Coloring) -> None:
    out = [f"coloring {len(c)} {c.k}"]
    out.extend(f"{v} {c[v]}" for v in range(len(c)))
    Path(path).write_text("\n".join(out) + "\n")


def parse_binpacking(path) -> BinPackingInstance:
    table = _read(path, "binpacking")
    _n, k, capacity = table.header
    try:
        return BinPackingInstance(tuple(size for (size,) in table.rows), k, capacity)
    except ValueError as exc:
        raise ParseError(table.header_no, str(exc)) from None


def write_binpacking(path, inst: BinPackingInstance) -> None:
    out = [f"binpacking {inst.n} {inst.bins} {inst.capacity}"]
    out.extend(str(a) for a in inst.items)
    Path(path).write_text("\n".join(out) + "\n")


def parse_labels(path) -> tuple[str, dict[str, tuple[int, ...]]]:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(1, "empty file, expected a 'labels' header")
    line_no, tokens = lines[0]
    if tokens[0] != "labels" or len(tokens) != 2:
        raise ParseError(line_no, "expected a 'labels <kind>' header")
    kind = tokens[1]
    parts: dict[str, tuple[int, ...]] = {}
    for line_no, tokens in lines[1:]:
        name = tokens[0]
        if name in parts:
            raise ParseError(line_no, f"duplicate part name {name!r}")
        parts[name] = _ints(line_no, tokens[1:])
    return kind, parts


def write_labels(path, layout: GadgetLayout) -> None:
    out = [f"labels {layout.kind}"]
    for j, part in enumerate(layout.parts):
        if layout.kind == SPLIT:
            out.append(f"clique{j} " + " ".join(map(str, part.clique)))
            out.append(f"center{j} {part.center}")
            out.append(f"indep{j} " + " ".join(map(str, part.independent)))
        elif layout.kind == INTERVAL:
            for t, clique in enumerate(part.cliques):
                out.append(f"clique{j}.{t} " + " ".join(map(str, clique)))
            out.append(f"hubs{j} " + " ".join(map(str, part.hubs)))
        else:
            raise ValueError(f"unknown layout kind {layout.kind!r}")
    Path(path).write_text("\n".join(out) + "\n")


def parse_graph_or_intervals(path) -> Graph | IntervalRep:
    """A graph file as a Graph or an intervals file as an IntervalRep,
    reading the file once."""
    table = _read(path, "graph", "intervals")
    return _graph(table) if table.kind == "graph" else _intervals(table)


def load_graph(path) -> Graph:
    """Load a graph file directly, or derive the graph from an intervals file."""
    source = parse_graph_or_intervals(path)
    return source if isinstance(source, Graph) else derive_graph(source)
