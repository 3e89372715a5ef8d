"""Property tests for the file reader.

Any text gives a value or a ParseError; a file with one defective row is
reported on that row's line, whichever of the reader or the type owns the
broken rule, and a file with two on the first of them; line numbers count
every line boundary of str.splitlines; and arbitrary bytes given to the CLI
as the input file of `analyze`, `color`, `decide`, `solve` or either gadget
`gen`, or as either file of `verify`, end in exit 1 with an `error:` line.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
