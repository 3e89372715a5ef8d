"""Property tests for the file reader.

Any text gives a value or a ParseError; a file with one defective row is
reported on that row's line, whichever of the reader or the type owns the
broken rule, and a file with two on the first of them; line numbers count
every line boundary of str.splitlines; a file in the writers' plain shape,
or one perturbation of it, reads the same on the column route as on the row
route; and arbitrary bytes given to the CLI as the input file of `analyze`,
`color`, `decide`, `solve` or either gadget `gen`, or as either file of
`verify`, end in exit 1 with an `error:` line.
"""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treecolor import formats
from treecolor.cli import main
from treecolor.formats import (
    ParseError,
    parse_binpacking,
    parse_coloring,
    parse_graph,
    parse_graph_or_intervals,
    parse_intervals,
)

from oracles import parse_labels

# Each parser with the header words it accepts.
PARSERS = [
    (parse_intervals, ["intervals"]),
    (parse_graph, ["graph"]),
    (parse_coloring, ["coloring"]),
    (parse_binpacking, ["binpacking"]),
    (parse_labels, ["labels"]),
    (parse_graph_or_intervals, ["graph", "intervals"]),
]
HEADERS = ["intervals", "graph", "coloring", "binpacking", "labels"]
NOT_INTEGERS = ["x", "1.5", "2e3", "0x1", "-", "#"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@st.composite
def headed_texts(draw, headers):
    """A header word, mostly one of headers, then a few lines of small
    integers and other tokens, with blank lines and comments between them."""
    token = st.one_of(
        st.integers(-2, 8).map(str),
        st.integers(-2, 8).map(str),
        st.sampled_from(NOT_INTEGERS),
    )
    word = draw(st.one_of(st.sampled_from(headers), st.sampled_from(HEADERS)))
    lines = [[word] + draw(st.lists(token, min_size=1, max_size=3))]
    lines += draw(st.lists(st.lists(token, min_size=1, max_size=4), max_size=8))
    ending = st.sampled_from(["\n", "\n", "\n\n", "  # note\n"])
    return "".join(" ".join(line) + draw(ending) for line in lines)


@pytest.mark.parametrize("parse,headers", PARSERS, ids=[p.__name__ for p, _ in PARSERS])
@settings(max_examples=100)
@given(data=st.data())
def test_any_text_gives_a_value_or_a_parse_error(parse, headers, data, workdir):
    text = data.draw(st.one_of(st.text(), headed_texts(headers)))
    path = workdir / "any"
    path.write_text(text, encoding="utf-8")
    try:
        parse(path)
    except ParseError:
        pass


def render(header, rows, gaps):
    """File text with blank and comment lines before some rows, and the
    line number of every row."""
    lines = [header]
    row_lines = []
    for row, gap in zip(rows, gaps):
        lines.extend(["", "# comment"][:gap])
        lines.append(" ".join(map(str, row)))
        row_lines.append(len(lines))
    return "\n".join(lines) + "\n", row_lines


DEFECTS = ["duplicate", "out_of_range", "non_integer", "width"]


def corrupt(draw, rows, r, defect, n, k):
    """Give row r of a valid file of n rows (and k colors) the defect: an
    id used by an earlier row, an id outside 0..n-1, a token that is not an
    integer, one field too few or too many, left > right, or a color
    outside 0..k-1."""
    row = rows[r]
    if defect == "duplicate":
        # The later of the two rows is the duplicate.
        row[0] = rows[draw(st.integers(0, r - 1))][0]
    elif defect == "out_of_range":
        row[0] = draw(st.sampled_from([-1, n, n + 7]))
    elif defect == "non_integer":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NOT_INTEGERS[:4]))
    elif defect == "width":
        rows[r] = row[:-1] if draw(st.booleans()) else row + [0]
    elif defect == "reversed":
        row[1], row[2] = row[2] + 1, row[1]
    else:
        row[1] = draw(st.sampled_from([-1, k, k + 3]))


@st.composite
def bad_rows(draw, count, kinds=("intervals", "coloring")):
    """(parser, text, line) for a valid file of one of kinds in which count
    rows were corrupted, each with a defect of its own, and the line of the
    first corrupted row."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(max(2, count), 8))
    ids = draw(st.permutations(range(n)))
    k = None
    if kind == "intervals":
        header, parse = f"intervals {n}", parse_intervals
        rows = []
        for v in ids:
            lo = draw(st.integers(-5, 20))
            rows.append([v, lo, lo + draw(st.integers(0, 10))])
    else:
        k = draw(st.integers(1, 4))
        header, parse = f"coloring {n} {k}", parse_coloring
        rows = [[v, draw(st.integers(0, k - 1))] for v in ids]
    defects = DEFECTS + ["reversed" if kind == "intervals" else "bad_color"]
    bad = sorted(draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True)))
    for r in bad:
        # Row 0 has no earlier row to duplicate.
        defect = draw(st.sampled_from(defects[1:] if r == 0 else defects))
        corrupt(draw, rows, r, defect, n, k)
    gaps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    text, row_lines = render(header, rows, gaps)
    return parse, text, row_lines[bad[0]]


def one_bad_row():
    """(parser, text, line) for a valid intervals or coloring file in which
    exactly one row was corrupted, and that row's line."""
    return bad_rows(1)


@settings(max_examples=200)
@given(case=one_bad_row())
def test_single_bad_row_is_reported_on_its_line(case, workdir):
    parse, text, line = case
    path = workdir / "one-bad-row"
    path.write_text(text)
    with pytest.raises(ParseError) as excinfo:
        parse(path)
    assert excinfo.value.line == line, text


@settings(max_examples=200)
@given(case=bad_rows(2, kinds=("intervals",)))
def test_first_of_two_bad_rows_is_reported(case, workdir):
    # Rows are checked as they are read, whichever of the reader or
    # IntervalRep owns the rule the row breaks.
    parse, text, line = case
    path = workdir / "two-bad-rows"
    path.write_text(text)
    with pytest.raises(ParseError) as excinfo:
        parse(path)
    assert excinfo.value.line == line, text


# Line boundaries of str.splitlines besides a bare "\n".
SEPARATORS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@settings(max_examples=200)
@given(case=one_bad_row(), data=st.data())
def test_bad_row_line_counts_every_line_boundary(case, data, workdir):
    parse, text, line = case
    lines = text.split("\n")[:-1]
    text = "".join(raw + data.draw(st.sampled_from(SEPARATORS)) for raw in lines)
    assert text.splitlines() == lines
    path = workdir / "separators"
    path.write_text(text)
    with pytest.raises(ParseError) as excinfo:
        parse(path)
    assert excinfo.value.line == line, repr(text)


# Perturbations of a plain file: of its numbers, then of its framing. A
# "bad_value" is left > right or a color >= k; an "inner_minus" field such
# as 3-1 holds only plain bytes, but int() refuses it; a "cr" splits a row
# in two.
NUMBERS = ["none", "permuted", "minus_zero", "leading_zeros", "underscore",
           "inner_minus", "bad_value", "k_zero", "short", "long"]
FRAMINGS = ["none", "comment", "blank", "crlf", "cr", "tab", "double_space",
            "no_final_newline"]


@st.composite
def plain_files(draw):
    """(kind, text, perturbations): an intervals or coloring file of up to 6
    rows as `_write` writes it, with at most one perturbation of its numbers
    and one of its framing."""
    kind = draw(st.sampled_from(["intervals", "coloring"]))
    n = draw(st.integers(0, 6))
    if kind == "intervals":
        header = ["intervals", n]
        rows = []
        for v in range(n):
            lo = draw(st.integers(-30, 30))
            rows.append([v, lo, lo + draw(st.integers(0, 12))])
    else:
        k = draw(st.integers(1, 4))
        header = ["coloring", n, k]
        rows = [[v, draw(st.integers(0, k - 1))] for v in range(n)]
    numbers, framing = draw(st.sampled_from(NUMBERS)), draw(st.sampled_from(FRAMINGS))
    if numbers == "permuted":
        rows = draw(st.permutations(rows))
    elif numbers in ("minus_zero", "leading_zeros", "underscore", "inner_minus") and rows:
        row = draw(st.sampled_from(rows))
        c = draw(st.integers(0, len(row) - 1))
        value = row[c]
        if numbers == "minus_zero":
            row[c] = "-0"
        elif numbers == "leading_zeros":
            row[c] = f"-00{-value}" if value < 0 else f"00{value}"
        elif numbers == "inner_minus":
            row[c] = f"{value}-1"
        else:
            digits = str(abs(value) + 10)
            row[c] = "-" * (value < 0) + digits[0] + "_" + digits[1:]
    elif numbers == "bad_value" and rows:
        row = draw(st.sampled_from(rows))
        if kind == "intervals":
            row[2] = row[1] - draw(st.integers(1, 3))
        else:
            row[1] = header[2] + draw(st.integers(0, 2))
    elif numbers == "k_zero" and kind == "coloring":
        header[2] = 0
    elif numbers == "short" and rows:
        rows.pop(draw(st.integers(0, n - 1)))
    elif numbers == "long":
        rows.insert(draw(st.integers(0, n)), [n, 0, 1] if kind == "intervals" else [n, 0])
    lines = [" ".join(map(str, line)) for line in [header, *rows]]
    if framing in ("comment", "blank"):
        extra = "# note" if framing == "comment" else ""
        lines.insert(draw(st.integers(0, len(lines))), extra)
    text = "".join(line + "\n" for line in lines)
    spaces = [i for i, char in enumerate(text) if char == " "]
    if framing == "crlf":
        text = text.replace("\n", "\r\n")
    elif framing in ("cr", "tab", "double_space") and spaces:
        i = draw(st.sampled_from(spaces))
        text = text[:i] + {"cr": "\r", "tab": "\t", "double_space": "  "}[framing] + text[i + 1 :]
    elif framing == "no_final_newline":
        text = text[:-1]
    return kind, text, (numbers, framing)


def read(parse, path):
    """parse(path)'s value, or the text of the ParseError it raises."""
    try:
        return parse(path)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400)
@given(case=plain_files())
# An extra row with no newline after n plain rows.
@example(case=("intervals", "intervals 1\n0 0 1\n1 2 3", ("long", "no_final_newline")))
# A field of plain bytes that int() refuses.
@example(case=("intervals", "intervals 1\n0 3-1 4\n", ("inner_minus", "none")))
def test_column_route_agrees_with_the_row_route(case, workdir):
    # Each public reader gives what the row route alone gives, value or
    # message, and the column route declines every file the row route
    # rejects. It reads the unperturbed file, so the property is not empty.
    kind, text, perturbations = case
    path = workdir / "plain"
    path.write_bytes(text.encode())
    if kind == "intervals":
        readers, column_route = [parse_intervals, parse_graph_or_intervals], formats._plain_intervals
    else:
        readers, column_route = [parse_coloring], formats._plain_coloring
    for parse in readers:
        with mock.patch.object(formats, "_plain", lambda path, kind: None):
            expected = read(parse, path)
        assert read(parse, path) == expected, text
    if isinstance(expected, str):
        assert column_route(path) is None, text
    if perturbations == ("none", "none"):
        assert column_route(path) == expected, text


@pytest.mark.parametrize(
    "command",
    [
        ["analyze"],
        ["color", "--k", "2"],
        ["verify"],
        ["decide", "--k", "2"],
        ["solve", "--k", "2", "--timeout", "1"],
    ],
)
@settings(max_examples=100)
@given(data=st.binary(max_size=300))
def test_cli_rejects_arbitrary_bytes(command, data, workdir):
    path = workdir / "fuzz.intervals"
    path.write_bytes(data)
    out = workdir / "fuzz.coloring"
    argv = [command[0], str(path), *command[1:]]
    if command[0] in ("color", "decide", "solve"):
        argv += ["--out", str(out)]
    if command[0] == "verify":
        # The fuzzed file is read as a graph or an intervals file and checked
        # against a valid 2-vertex coloring.
        coloring = workdir / "two.coloring"
        coloring.write_text("coloring 2 2\n0 0\n1 1\n")
        argv.append(str(coloring))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 1
    assert stderr.getvalue().startswith("error: ")
    assert stdout.getvalue() == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "@two.intervals", "@fuzz"],
        ["gen", "split-gadget", "@fuzz", "--out", "@g.graph", "--labels-out", "@g.labels"],
        ["gen", "interval-gadget", "@fuzz", "--out", "@g.graph",
         "--intervals-out", "@g.intervals", "--labels-out", "@g.labels"],
    ],
)
@settings(max_examples=100)
@given(data=st.binary(max_size=300))
def test_coloring_and_binpacking_readers_reject_arbitrary_bytes(argv, data, workdir):
    # verify reads the fuzzed bytes as its coloring file, against a valid
    # 2-vertex intervals file; gen reads them as its bin-packing file. An
    # "@" word names a file in the example's directory.
    here = workdir / "bytes"
    here.mkdir(exist_ok=True)
    (here / "two.intervals").write_text("intervals 2\n0 0 1\n1 2 3\n")
    (here / "fuzz").write_bytes(data)
    before = sorted(path.name for path in here.iterdir())
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(here / word[1:]) if word[0] == "@" else word for word in argv])
    assert code == 1
    assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
    assert stdout.getvalue() == ""
    assert sorted(path.name for path in here.iterdir()) == before
