import tracemalloc

import pytest

from treecolor import (
    BinPackingInstance,
    Coloring,
    Graph,
    build_interval_gadget,
    build_split_gadget,
    derive_graph,
    gen_random_interval,
    round_robin_color,
)
from treecolor.formats import (
    ParseError,
    load_graph,
    parse_binpacking,
    parse_coloring,
    parse_graph,
    parse_intervals,
    write_binpacking,
    write_coloring,
    write_graph,
    write_intervals,
    write_labels,
)

from oracles import detect_kind, parse_labels


class TestRoundTrips:
    def test_intervals(self, tmp_path):
        rep = gen_random_interval(15, 50, seed=4)
        path = tmp_path / "a.intervals"
        write_intervals(path, rep)
        again = parse_intervals(path)
        assert (again.lefts, again.rights) == (rep.lefts, rep.rights)
        twice = tmp_path / "b.intervals"
        write_intervals(twice, again)
        assert path.read_bytes() == twice.read_bytes()

    def test_graph(self, tmp_path):
        g = derive_graph(gen_random_interval(12, 30, seed=5))
        path = tmp_path / "a.graph"
        write_graph(path, g)
        assert parse_graph(path).adj == g.adj

    def test_coloring(self, tmp_path):
        c = Coloring((0, 2, 1, 0), 3)
        path = tmp_path / "a.coloring"
        write_coloring(path, c)
        assert parse_coloring(path) == c

    def test_binpacking(self, tmp_path):
        inst = BinPackingInstance((3, 2, 1), 2, 3)
        path = tmp_path / "a.binpacking"
        write_binpacking(path, inst)
        assert parse_binpacking(path) == inst

    def test_labels_split(self, tmp_path):
        layout = build_split_gadget(BinPackingInstance((2, 1, 1), 2, 2))
        path = tmp_path / "a.labels"
        write_labels(path, layout)
        kind, parts = parse_labels(path)
        assert kind == "split"
        assert parts["clique0"] == layout.parts[0].clique
        assert parts["center1"] == (layout.parts[1].center,)
        assert parts["indep2"] == layout.parts[2].independent

    def test_labels_interval(self, tmp_path):
        layout = build_interval_gadget(BinPackingInstance((2, 1), 3, 1))
        path = tmp_path / "a.labels"
        write_labels(path, layout)
        kind, parts = parse_labels(path)
        assert kind == "interval"
        assert parts["clique0.3"] == layout.parts[0].cliques[3]
        assert parts["hubs0"] == layout.parts[0].hubs
        assert parts["hubs1"] == layout.parts[1].hubs

    def test_reserialize_derives_identical_edges(self, tmp_path):
        rep = gen_random_interval(20, 60, seed=11)
        path = tmp_path / "a.intervals"
        write_intervals(path, rep)
        assert derive_graph(parse_intervals(path)).adj == derive_graph(rep).adj


class TestFraming:
    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "a.intervals"
        path.write_text(
            "# a comment\n\nintervals 2   # trailing comment\n0 0 1\n\n1 1 2\n"
        )
        rep = parse_intervals(path)
        assert (rep.lefts, rep.rights) == ((0, 1), (1, 2))

    def test_detect_kind(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("graph 1 0\n")
        assert detect_kind(path) == "graph"

    def test_load_graph_from_intervals(self, tmp_path):
        path = tmp_path / "a.intervals"
        write_intervals(path, gen_random_interval(6, 20, seed=2))
        assert load_graph(path) == derive_graph(parse_intervals(path))

    def test_load_graph_from_graph(self, tmp_path):
        path = tmp_path / "a.graph"
        write_graph(path, Graph.from_edges(3, [(0, 1)]))
        assert load_graph(path).m == 1

    def test_load_graph_rejects_other_kinds(self, tmp_path):
        path = tmp_path / "a.labels"
        path.write_text("labels split\n")
        with pytest.raises(ParseError):
            load_graph(path)


class TestParseErrors:
    def expect_error(self, tmp_path, text, line, parser=parse_intervals):
        path = tmp_path / "bad"
        path.write_text(text)
        with pytest.raises(ParseError) as excinfo:
            parser(path)
        assert excinfo.value.line == line

    def test_empty_file(self, tmp_path):
        self.expect_error(tmp_path, "", 1)

    def test_wrong_header(self, tmp_path):
        self.expect_error(tmp_path, "graph 1 0\n", 1)

    def test_bad_integer(self, tmp_path):
        self.expect_error(tmp_path, "intervals 1\n0 x 2\n", 2)

    def test_reversed_interval_names_line(self, tmp_path):
        self.expect_error(tmp_path, "intervals 2\n0 0 1\n1 5 2\n", 3)

    def test_duplicate_id(self, tmp_path):
        self.expect_error(tmp_path, "intervals 2\n0 0 1\n0 1 2\n", 3)

    def test_missing_rows(self, tmp_path):
        self.expect_error(tmp_path, "intervals 3\n0 0 1\n", 2)

    def test_extra_rows(self, tmp_path):
        self.expect_error(tmp_path, "intervals 1\n0 0 1\n1 1 2\n", 3)

    def test_edge_not_increasing(self, tmp_path):
        self.expect_error(tmp_path, "graph 3 1\n2 1\n", 2, parse_graph)

    def test_duplicate_edge(self, tmp_path):
        self.expect_error(tmp_path, "graph 3 2\n0 1\n0 1\n", 3, parse_graph)

    def test_color_out_of_range(self, tmp_path):
        self.expect_error(tmp_path, "coloring 1 2\n0 2\n", 2, parse_coloring)

    def test_binpacking_sum_mismatch(self, tmp_path):
        self.expect_error(tmp_path, "binpacking 2 2 2\n3\n2\n", 1, parse_binpacking)


def traced_peak(call):
    """The result of call() and the tracemalloc peak in bytes while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    def test_lines_are_written_in_chunks(self, tmp_path):
        # A whole-file join holds at least the whole text, the file's size in
        # bytes, besides every line; the writer holds one chunk of lines.
        rep = gen_random_interval(100_000, 10**9, 1)
        path = tmp_path / "a.intervals"
        _, peak = traced_peak(lambda: write_intervals(path, rep))
        size = path.stat().st_size
        assert size > 2 * 2**20 and peak < size // 2
        assert parse_intervals(path) == rep


class TestReaderMemory:
    """Rows go to their consumer as they are read, and no type is sized by a
    header count the file cannot hold."""

    def test_rows_are_streamed(self, tmp_path):
        rep = gen_random_interval(100_000, 2_000_000, 1, proper=True)
        intervals, coloring = tmp_path / "a.intervals", tmp_path / "a.coloring"
        write_intervals(intervals, rep)
        write_coloring(coloring, round_robin_color(rep, 2000))
        rep, peak = traced_peak(lambda: parse_intervals(intervals))
        assert rep.n == 100_000 and peak <= 20 * 2**20
        colors, peak = traced_peak(lambda: parse_coloring(coloring))
        assert len(colors) == 100_000 and peak <= 20 * 2**20

    @pytest.mark.parametrize(
        "parse,text",
        [
            (parse_intervals, "intervals 1000000000"),
            (parse_coloring, "coloring 1000000000 2"),
            (parse_binpacking, "binpacking 1000000000 1 1"),
            # Headers over rows in the writers' shape, which the column route
            # reads first; it must count the rows before anything uses n.
            (parse_intervals, "intervals 100000000000000000000\n0 0 1\n1 2 3"),
            (parse_intervals, "intervals 3000000000\n0 0 1"),
            (parse_coloring, "coloring 100000000000000000000 3\n0 0\n1 2"),
        ],
    )
    def test_count_beyond_the_file_is_a_short_file(self, tmp_path, parse, text):
        path = tmp_path / "huge"
        path.write_text(text + "\n")
        header, *rows = text.split("\n")

        def rejected():
            with pytest.raises(ParseError) as excinfo:
                parse(path)
            return excinfo.value

        error, peak = traced_peak(rejected)
        n = header.split()[1]
        assert str(error) == f"line {1 + len(rows)}: file ends after {len(rows)} of {n} rows"
        assert peak <= 2**20
