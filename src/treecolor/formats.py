"""Line-oriented file formats.

All five formats share the same framing: whitespace-separated tokens,
anything after '#' is a comment, blank lines are ignored, the first data
line is a header naming the format, and all ids and colors are 0-based.

    intervals <n>        then n lines  <id> <left> <right>
    graph <n> <m>        then m lines  <u> <v>          with u < v
    coloring <n> <k>     then n lines  <vertex> <color> with colors 0..k-1
    binpacking <n> <k> <B>  then n lines  <item-size>
    labels <kind>        then lines    <part-name> <vertex ids...>
"""

from __future__ import annotations

from pathlib import Path

from .coloring import Coloring
from .gadgets import INTERVAL, SPLIT, BinPackingInstance, GadgetLayout
from .graph import Graph, IntervalRep, derive_graph


class ParseError(ValueError):
    """Input file rejected; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _read_lines(path) -> list[tuple[int, list[str]]]:
    lines = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((line_no, body.split()))
    return lines


def _int(line_no: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected an integer, found {token!r}") from None


def _header(lines, kind: str, field_count: int):
    """Return (line_no, field tokens, body lines) for the expected header."""
    if not lines:
        raise ParseError(1, f"empty file, expected a '{kind}' header")
    line_no, tokens = lines[0]
    if tokens[0] != kind:
        raise ParseError(line_no, f"expected a '{kind}' header, found {tokens[0]!r}")
    if len(tokens) != 1 + field_count:
        raise ParseError(line_no, f"'{kind}' header takes {field_count} fields")
    return line_no, tokens[1:], lines[1:]


def _exact_rows(header_no: int, body, count: int, what: str):
    if len(body) > count:
        raise ParseError(body[count][0], f"unexpected extra line, expected {count} {what}")
    if len(body) < count:
        last = body[-1][0] if body else header_no
        raise ParseError(last, f"file ends after {len(body)} of {count} {what}")
    return body


def parse_intervals(path) -> IntervalRep:
    return _intervals_from_lines(_read_lines(path))


def _intervals_from_lines(lines) -> IntervalRep:
    header_no, fields, body = _header(lines, "intervals", 1)
    n = _int(header_no, fields[0])
    if n < 0:
        raise ParseError(header_no, "vertex count must be >= 0")
    body = _exact_rows(header_no, body, n, "interval rows")
    entries = []
    seen = set()
    for line_no, tokens in body:
        if len(tokens) != 3:
            raise ParseError(line_no, "interval rows are '<id> <left> <right>'")
        v, lo, hi = (_int(line_no, t) for t in tokens)
        if not 0 <= v < n:
            raise ParseError(line_no, f"vertex id {v} outside 0..{n - 1}")
        if v in seen:
            raise ParseError(line_no, f"duplicate vertex id {v}")
        if lo > hi:
            raise ParseError(line_no, f"left {lo} > right {hi}")
        seen.add(v)
        entries.append((v, lo, hi))
    return IntervalRep(tuple(entries))


def write_intervals(path, rep: IntervalRep) -> None:
    out = [f"intervals {rep.n}"]
    for v in range(rep.n):
        lo, hi = rep.spans[v]
        out.append(f"{v} {lo} {hi}")
    Path(path).write_text("\n".join(out) + "\n")


def parse_graph(path) -> Graph:
    return _graph_from_lines(_read_lines(path))


def _graph_from_lines(lines) -> Graph:
    header_no, fields, body = _header(lines, "graph", 2)
    n = _int(header_no, fields[0])
    m = _int(header_no, fields[1])
    if n < 0 or m < 0:
        raise ParseError(header_no, "vertex and edge counts must be >= 0")
    body = _exact_rows(header_no, body, m, "edge rows")
    edges = []
    seen = set()
    for line_no, tokens in body:
        if len(tokens) != 2:
            raise ParseError(line_no, "edge rows are '<u> <v>'")
        u, v = (_int(line_no, t) for t in tokens)
        if not 0 <= u < v < n:
            raise ParseError(line_no, f"edge ({u}, {v}) must satisfy 0 <= u < v < {n}")
        if (u, v) in seen:
            raise ParseError(line_no, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def write_graph(path, g: Graph) -> None:
    out = [f"graph {g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(out) + "\n")


def parse_coloring(path) -> Coloring:
    lines = _read_lines(path)
    header_no, fields, body = _header(lines, "coloring", 2)
    n = _int(header_no, fields[0])
    k = _int(header_no, fields[1])
    if n < 0:
        raise ParseError(header_no, "vertex count must be >= 0")
    if k < 1:
        raise ParseError(header_no, "color count must be >= 1")
    body = _exact_rows(header_no, body, n, "coloring rows")
    colors = [-1] * n
    for line_no, tokens in body:
        if len(tokens) != 2:
            raise ParseError(line_no, "coloring rows are '<vertex> <color>'")
        v, c = (_int(line_no, t) for t in tokens)
        if not 0 <= v < n:
            raise ParseError(line_no, f"vertex id {v} outside 0..{n - 1}")
        if colors[v] != -1:
            raise ParseError(line_no, f"duplicate vertex id {v}")
        if not 0 <= c < k:
            raise ParseError(line_no, f"color {c} outside 0..{k - 1}")
        colors[v] = c
    return Coloring(tuple(colors), k)


def write_coloring(path, c: Coloring) -> None:
    out = [f"coloring {len(c)} {c.k}"]
    out.extend(f"{v} {c[v]}" for v in range(len(c)))
    Path(path).write_text("\n".join(out) + "\n")


def parse_binpacking(path) -> BinPackingInstance:
    lines = _read_lines(path)
    header_no, fields, body = _header(lines, "binpacking", 3)
    n = _int(header_no, fields[0])
    k = _int(header_no, fields[1])
    capacity = _int(header_no, fields[2])
    if n < 0:
        raise ParseError(header_no, "item count must be >= 0")
    body = _exact_rows(header_no, body, n, "item rows")
    items = []
    for line_no, tokens in body:
        if len(tokens) != 1:
            raise ParseError(line_no, "item rows are a single '<size>'")
        items.append(_int(line_no, tokens[0]))
    try:
        return BinPackingInstance(tuple(items), k, capacity)
    except ValueError as exc:
        raise ParseError(header_no, str(exc)) from None


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
        parts[name] = tuple(_int(line_no, t) for t in tokens[1:])
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


def detect_kind(path) -> str:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(1, "empty file")
    return lines[0][1][0]


def parse_graph_or_intervals(path) -> Graph | IntervalRep:
    """A graph file as a Graph or an intervals file as an IntervalRep,
    reading the file once."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(1, "empty file")
    line_no, tokens = lines[0]
    kind = tokens[0]
    if kind == "graph":
        return _graph_from_lines(lines)
    if kind == "intervals":
        return _intervals_from_lines(lines)
    raise ParseError(line_no, f"expected a graph or intervals file, found {kind!r}")


def load_graph(path) -> tuple[Graph, IntervalRep | None]:
    """Load a graph file directly, or derive the graph from an intervals
    file; returns the representation as well when there is one."""
    source = parse_graph_or_intervals(path)
    if isinstance(source, Graph):
        return source, None
    return derive_graph(source), source
