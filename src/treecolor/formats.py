"""Line-oriented file formats.

All five formats share the same framing: whitespace-separated tokens,
anything after '#' is a comment, blank lines are ignored, the first data
line is a header naming the format, and all ids and colors are 0-based.

    intervals <n>        then n lines  <id> <left> <right>
    graph <n> <m>        then m lines  <u> <v>          with u < v
    coloring <n> <k>     then n lines  <vertex> <color> with colors 0..k-1
    binpacking <n> <k> <B>  then n lines  <item-size>
    labels <kind>        then lines    <part-name> <vertex ids...>

The package writes labels files but reads none. A counted file is read in
one pass: each row goes, as it is read, to the parser or the type that owns
its rules. A parser checks only the rules that exist in files alone (a graph
row has u < v and appears once; a coloring file lists each vertex once); the
types check every other value.

An intervals or coloring file in the plain shape the writers give it is read
column by column (`_plain`), a chunk of rows at a time; any other file, and
every graph and bin-packing file, is read row by row (`_Rows`). The column
route only declines: on a file it cannot read, or one with a defect, the row
route reads the file again, so values, messages and the line of the first
defect are the same on both routes.
"""

from __future__ import annotations

import os
import stat
from contextlib import suppress
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

from .coloring import Coloring, ColoringError
from .gadgets import BinPackingInstance, GadgetLayout
from .graph import Graph, IntervalRep, RepresentationError, derive_graph


class ParseError(ValueError):
    """Input file rejected; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _data_lines(lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each of lines that holds data, one at a time."""
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            yield line_no, tokens


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


class _Rows:
    """The header and, read once, the rows (tuples of ints) of a counted file
    whose header names one of kinds. `line` is the line last read, where a
    consumer reports a row it rejects; `len` is the count, at most the lines left."""

    def __init__(self, path, *kinds: str):
        expected = " or ".join(f"'{kind}'" for kind in kinds)
        lines = Path(path).read_text().splitlines()
        self._data = _data_lines(lines)
        self.line, tokens = next(self._data, (1, None))
        if tokens is None:
            raise ParseError(1, f"empty file, expected a {expected} header")
        self.header_line = self.line
        self.kind = tokens[0]
        if self.kind not in kinds:
            raise ParseError(self.line, f"expected a {expected} header, found {self.kind!r}")
        fields, counted, self._row_fields = _LAYOUTS[self.kind]
        if len(tokens) != 1 + len(fields):
            usage = " ".join(f"<{name}>" for name in fields)
            raise ParseError(self.line, f"the header is '{self.kind} {usage}'")
        self.header = _ints(self.line, tokens[1:])
        for i in sorted({0, counted}):
            if self.header[i] < 0:
                raise ParseError(self.line, f"header count {fields[i]} must be >= 0")
        self.count = self.header[counted]
        if self.count > len(lines) - self.line:
            self._short(0)  # before any consumer sizes itself by the count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        rows = 0
        for rows, (self.line, tokens) in enumerate(self._data, start=1):
            if rows > self.count:
                raise ParseError(self.line, f"extra line, the header counts {self.count} rows")
            if len(tokens) != len(self._row_fields):
                usage = " ".join(f"<{name}>" for name in self._row_fields)
                raise ParseError(self.line, f"{self.kind} rows are '{usage}'")
            yield _ints(self.line, tokens)
        if rows < self.count:
            self._short(rows)

    def _short(self, rows: int) -> NoReturn:
        for self.line, _tokens in self._data:
            rows += 1
        raise ParseError(self.line, f"file ends after {rows} of {self.count} rows")


# A chunk of plain rows holds only these bytes. Each newline becomes the
# token ";". With as many tokens as rows of the format's width hold, every
# row has that width unless a ";" falls in a column of fields, where int()
# refuses it.
_PLAIN_BYTES = b"0123456789- \n"
_CHUNK = 1 << 16


def _plain(path, kind: str) -> tuple[tuple[int, ...], list[list[int]]] | None:
    """The header and the columns after the id, as lists of ints, of a file
    of kind ('intervals' or 'coloring') in the shape `_write` gives it: the
    header's words joined by single spaces (at most 256 bytes), then exactly
    n rows, row i being the id i and the other fields, each line ended by a
    newline. None for any other file, or for a token int() refuses: the row
    route reads such a file and reports what it finds. The file is read
    64 KB at a time, and nothing is sized by n: the rows are counted against
    it as they are read."""
    fields, _, row_fields = _LAYOUTS[kind]
    stride = len(row_fields) + 1
    try:
        # The row route reads a declined file again, which a pipe forbids.
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        file = open(path, "rb")
    except OSError:
        return None
    with file:
        head = file.readline(256)
        words = head[:-1].split(b" ")
        if not (
            head.endswith(b"\n")
            and len(words) == 1 + len(fields)
            and words[0] == kind.encode()
            and all(map(bytes.isdigit, words[1:]))
        ):
            return None
        header = tuple(map(int, words[1:]))
        n = header[0]
        columns: list[list[int]] = [[] for _ in row_fields[1:]]
        rows, rest = 0, b""
        while chunk := file.read(_CHUNK):
            chunk = rest + chunk
            cut = chunk.rfind(b"\n") + 1
            chunk, rest = chunk[:cut], chunk[cut:]
            lines = chunk.count(b"\n")
            rows += lines
            if rows > n or chunk.translate(None, _PLAIN_BYTES):
                return None
            tokens = chunk.replace(b"\n", b" ; ").split()
            if len(tokens) != lines * stride:
                return None
            try:
                if list(map(int, tokens[::stride])) != list(range(rows - lines, rows)):
                    return None
                for i, column in enumerate(columns, start=1):
                    column.extend(map(int, tokens[i::stride]))
            except ValueError:
                return None
    if rest or rows != n:
        return None
    return header, columns


def _write(path, header: str, lines: Iterable[str]) -> None:
    """Write the header and then lines, joined 4,096 at a time, so memory is
    bounded by the chunk and not by the line count."""
    lines = iter(lines)
    with open(path, "w") as out:
        out.write(header + "\n")
        while chunk := list(islice(lines, 4096)):
            out.write("\n".join(chunk) + "\n")


def _resolved(target) -> str | None:
    """The absolute path of the file target names, with the symlinks of its
    last component followed; None for a link through /proc, such as
    /dev/stdout, which names a file already open rather than a path, and for
    a chain of more links than Linux follows (40)."""
    path = os.path.abspath(target)
    for _ in range(40):
        if not os.path.islink(path):
            return path
        directory = os.path.realpath(os.path.dirname(path))
        if directory.startswith("/proc/"):
            return None
        path = os.path.join(directory, os.readlink(path))
    return None


def _staged_path(target) -> tuple[str, str] | None:
    """(a new empty file, the path to move it onto) for target: the path is
    `_resolved(target)`, and the file is made beside it as open(target, "w")
    would make it, with its mode when it is a regular file. None when that
    path is anything else (a directory, a device such as /dev/tty), when
    `_resolved` gives none, or when no file can be made beside it."""
    if os.path.basename(os.fspath(target)) in ("", ".", ".."):
        return None
    path = _resolved(target)
    if path is None:
        return None
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    except OSError:
        return None
    if mode is not None and not stat.S_ISREG(mode):
        return None
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return None
    if mode is not None:
        os.fchmod(fd, stat.S_IMODE(mode))
    os.close(fd)
    return temp, path


def write_all(files: Sequence[tuple]) -> None:
    """Write each (target, writer, value) of files as writer(path, value),
    all or nothing: a target that `_staged_path` can stage is written to its
    staged file, and the staged files are moved onto their paths, in order,
    only once all are written; on an error they are removed. So a symlink
    stays a symlink, and the file behind it is replaced. Any other target is
    written directly, so an error in opening it names it."""
    staged = [_staged_path(target) for target, _, _ in files]
    try:
        for stage, (target, write, value) in zip(staged, files):
            try:
                write(target if stage is None else stage[0], value)
            except OSError as exc:
                exc.filename = os.fspath(target)
                raise
        for stage in filter(None, staged):
            os.replace(*stage)
    except BaseException:
        for stage in filter(None, staged):
            with suppress(FileNotFoundError):
                os.unlink(stage[0])
        raise


def parse_intervals(path) -> IntervalRep:
    rep = _plain_intervals(path)
    return _intervals(_Rows(path, "intervals")) if rep is None else rep


def _plain_intervals(path) -> IntervalRep | None:
    plain = _plain(path, "intervals")
    if plain is not None:
        with suppress(RepresentationError):
            return IntervalRep.from_columns(*plain[1])
    return None


def _intervals(rows: _Rows) -> IntervalRep:
    """Rows read from outside: the one caller of IntervalRep's entries form."""
    try:
        return IntervalRep(rows)
    except RepresentationError as exc:
        raise ParseError(rows.line, str(exc)) from None


def write_intervals(path, rep: IntervalRep) -> None:
    lines = (f"{v} {lo} {hi}" for v, (lo, hi) in enumerate(zip(rep.lefts, rep.rights)))
    _write(path, f"intervals {rep.n}", lines)


def parse_graph(path) -> Graph:
    return _graph(_Rows(path, "graph"))


def _graph(rows: _Rows) -> Graph:
    n = rows.header[0]
    seen = set()
    for u, v in rows:
        if not 0 <= u < v < n:
            raise ParseError(rows.line, f"edge ({u}, {v}) must satisfy 0 <= u < v < {n}")
        if (u, v) in seen:
            raise ParseError(rows.line, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    return Graph.from_edges(n, seen)


def write_graph(path, g: Graph) -> None:
    _write(path, f"graph {g.n} {g.m}", (f"{u} {v}" for u, v in g.edges()))


def parse_coloring(path) -> Coloring:
    coloring = _plain_coloring(path)
    return _coloring(_Rows(path, "coloring")) if coloring is None else coloring


def _plain_coloring(path) -> Coloring | None:
    plain = _plain(path, "coloring")
    if plain is not None:
        (_, k), (colors,) = plain
        with suppress(ColoringError):
            return Coloring(colors, k)
    return None


def _coloring(rows: _Rows) -> Coloring:
    n, k = rows.header
    colors = [0] * n
    line_of = [0] * n  # 0 until the vertex's row is read
    for v, c in rows:
        if not 0 <= v < n:
            raise ParseError(rows.line, f"vertex id {v} outside 0..{n - 1}")
        if line_of[v]:
            raise ParseError(rows.line, f"duplicate vertex id {v}")
        colors[v] = c
        line_of[v] = rows.line
    try:
        return Coloring(colors, k)
    except ColoringError as exc:
        line_no = rows.header_line if exc.vertex is None else line_of[exc.vertex]
        raise ParseError(line_no, str(exc)) from None


def write_coloring(path, c: Coloring) -> None:
    _write(path, f"coloring {len(c)} {c.k}", (f"{v} {color}" for v, color in enumerate(c)))


def parse_binpacking(path) -> BinPackingInstance:
    rows = _Rows(path, "binpacking")
    items = tuple(size for (size,) in rows)
    try:
        return BinPackingInstance(items, *rows.header[1:])
    except ValueError as exc:
        raise ParseError(rows.header_line, str(exc)) from None


def write_binpacking(path, inst: BinPackingInstance) -> None:
    _write(path, f"binpacking {inst.n} {inst.bins} {inst.capacity}", map(str, inst.items))


def write_labels(path, layout: GadgetLayout) -> None:
    lines = (
        f"{name} " + " ".join(map(str, ids))
        for j, part in enumerate(layout.parts)
        for name, ids in part.labels(j)
    )
    _write(path, f"labels {layout.kind}", lines)


def parse_graph_or_intervals(path) -> Graph | IntervalRep:
    """A graph file as a Graph or an intervals file as an IntervalRep. Only
    a file the column route declines is read again, row by row."""
    rep = _plain_intervals(path)
    if rep is not None:
        return rep
    rows = _Rows(path, "graph", "intervals")
    return _graph(rows) if rows.kind == "graph" else _intervals(rows)


def load_graph(path) -> Graph:
    """Load a graph file directly, or derive the graph from an intervals file."""
    source = parse_graph_or_intervals(path)
    return source if isinstance(source, Graph) else derive_graph(source)
