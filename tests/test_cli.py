import json
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import treecolor.cli
import treecolor.coloring
from treecolor import (
    Coloring,
    ConsistencyError,
    derive_graph,
    exact_solve,
    gen_random_interval,
    greedy_color,
    guaranteed_k,
    interval_search,
    max_clique_sweep,
    proper_min_k,
    round_robin_color,
    verify_interval_coloring,
)
from treecolor.cli import main
from treecolor.formats import (
    load_graph,
    parse_coloring,
    parse_graph,
    parse_intervals,
    write_graph,
    write_intervals,
)

from differential import differential
from oracles import WINDOW_NOS, equal_intervals_rep, parse_labels


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.intervals"
    write_intervals(path, equal_intervals_rep(4))
    return str(path)


@pytest.fixture
def k6_file(tmp_path):
    path = tmp_path / "k6.intervals"
    write_intervals(path, equal_intervals_rep(6))
    return str(path)


@pytest.fixture
def k6_graph_file(tmp_path):
    path = tmp_path / "k6.graph"
    write_graph(path, derive_graph(equal_intervals_rep(6)))
    return str(path)


BIG = str(10**20)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The CLI's own words, from which fuzzed argvs are drawn: each command (and
# gen kind) with its input files and its flags (help aside), small values for
# each flag, and small valid input files of each format.
SHAPES = {
    ("color",): (["p.intervals"], ["--k", "--out", "--format"]),
    ("decide",): (["p.intervals"], ["--k", "--out", "--format"]),
    ("verify",): (["p.intervals", "c.coloring"], ["--k", "--format"]),
    ("solve",): (["g.graph"], ["--k", "--timeout", "--out", "--format"]),
    ("analyze",): (["p.intervals"], ["--format"]),
    ("gen", "split-gadget"): (["b.binpacking"], ["--out", "--labels-out", "--format"]),
    ("gen", "interval-gadget"):
        (["b.binpacking"], ["--out", "--intervals-out", "--labels-out", "--format"]),
    ("gen", "random"): ([], ["--out", "--n", "--max-coord", "--seed", "--format"]),
    ("gen", "random-proper"): ([], ["--out", "--n", "--max-coord", "--seed", "--format"]),
}
VALUES = {
    "--k": ["0", "1", "2", "3", "x"],
    "--timeout": ["0", "0.5", "1", "-1", "nan"],
    "--format": ["text", "json"],
    "--n": ["-1", "0", "1", "3"],
    "--max-coord": ["0", "3", "9"],
    "--seed": ["-1", "0", "1"],
}
INPUTS = {
    "p.intervals": "intervals 3\n0 0 2\n1 1 3\n2 2 4\n",
    "g.graph": "graph 3 2\n0 1\n1 2\n",
    "c.coloring": "coloring 3 2\n0 0\n1 1\n2 0\n",
    "b.binpacking": "binpacking 2 1 3\n1\n2\n",
}
OUTPUTS = ["o1", "o2"]


@st.composite
def cli_argvs(draw):
    """A command's words, most of its inputs and flags, each flag with a
    value in the `--flag v` or `--flag=v` form, and up to two stray words or
    flags of any command. An eighth of the inputs and values are any word,
    and a quarter of the argvs are in any order."""
    words = sorted({*sum(SHAPES, ()), *sum(VALUES.values(), [])})
    files = [*INPUTS, *OUTPUTS]
    flags = sorted({name for _, names in SHAPES.values() for name in names})

    def word(usual):
        return draw(st.sampled_from(usual if draw(st.integers(0, 7)) else words + files))

    def flag(name):
        value = word(VALUES.get(name, OUTPUTS))
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    head, (inputs, names) = draw(st.sampled_from(list(SHAPES.items())))
    pieces = [[word([name])] for name in inputs]
    pieces += [flag(name) for name in names if draw(st.integers(0, 7))]
    for _ in range(draw(st.integers(0, 2))):
        stray = flag(draw(st.sampled_from(flags))) if draw(st.booleans()) else [word(words)]
        pieces.append(stray)
    if draw(st.integers(0, 3)):
        return list(head) + sum(draw(st.permutations(pieces)), [])
    return sum(draw(st.permutations([[w] for w in head] + pieces)), [])


def stats(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines())


# Runs main on the argv that follows a resource limit's name and soft value,
# under that limit, which applies to this child process only.
LIMITED_MAIN = """
import resource, sys
from treecolor.cli import main
limit = getattr(resource, sys.argv[1])
resource.setrlimit(limit, (int(sys.argv[2]), resource.getrlimit(limit)[1]))
sys.exit(main(sys.argv[3:]))
"""


def run_limited(cwd, limit, soft, argv):
    src = str(Path(treecolor.cli.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, limit, str(soft), *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestColor:
    def test_verified_coloring(self, capsys, tmp_path, k4_file):
        out_path = tmp_path / "out.coloring"
        code, out, _ = run(capsys, ["color", k4_file, "--k", "2", "--out", str(out_path)])
        assert code == 0
        report = stats(out)
        assert report["verified"] == "true"
        assert report["threshold"] == "2"
        assert report["class_sizes"] == "2,2"
        assert parse_coloring(out_path).class_sizes() == [2, 2]

    def test_below_threshold_fails_verification(self, capsys, tmp_path, k4_file):
        out_path = tmp_path / "out.coloring"
        code, out, _ = run(capsys, ["color", k4_file, "--k", "1", "--out", str(out_path)])
        assert code == 2
        assert stats(out)["failure"] == "monochromatic_cycle"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["color", str(tmp_path / "nope"), "--k", "1", "--out", str(tmp_path / "o")],
        )
        assert code == 1 and "error" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.intervals"
        bad.write_text("intervals 1\n0 7 2\n")
        code, _, err = run(capsys, ["color", str(bad), "--k", "1", "--out", str(tmp_path / "o")])
        assert code == 1 and "line 2" in err

    def test_k_zero_is_usage_error(self, capsys, tmp_path, k4_file):
        code, _, err = run(capsys, ["color", k4_file, "--k", "0", "--out", str(tmp_path / "o")])
        assert code == 1


class TestDecide:
    def test_no(self, capsys, k4_file):
        code, out, _ = run(capsys, ["decide", k4_file, "--k", "1"])
        assert code == 2 and stats(out)["answer"] == "NO"

    def test_yes_with_certificate(self, capsys, tmp_path, k4_file):
        cert = tmp_path / "cert.coloring"
        code, out, _ = run(capsys, ["decide", k4_file, "--k", "2", "--out", str(cert)])
        assert code == 0 and stats(out)["answer"] == "YES"
        graph_file = k4_file
        assert main(["verify", graph_file, str(cert)]) == 0

    def test_non_proper_input(self, capsys, tmp_path):
        path = tmp_path / "nested.intervals"
        path.write_text("intervals 2\n0 0 9\n1 3 4\n")
        code, _, err = run(capsys, ["decide", str(path), "--k", "2"])
        assert code == 1
        assert "0" in err and "1" in err and "contains" in err

    def test_missing_k_is_usage_error(self, capsys, k4_file):
        code, _, err = run(capsys, ["decide", k4_file])
        assert code == 1


class TestVerify:
    def test_valid_pair(self, capsys, tmp_path, k4_file):
        cert = tmp_path / "c.coloring"
        assert main(["color", k4_file, "--k", "2", "--out", str(cert)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["verify", k4_file, str(cert)])
        assert code == 0 and stats(out)["valid"] == "true"

    def test_monochromatic_triangle(self, capsys, tmp_path):
        iv = tmp_path / "k3.intervals"
        write_intervals(iv, equal_intervals_rep(3))
        col = tmp_path / "c.coloring"
        col.write_text("coloring 3 1\n0 0\n1 0\n2 0\n")
        code, out, _ = run(capsys, ["verify", str(iv), str(col)])
        assert code == 2
        report = stats(out)
        assert report["failure"] == "monochromatic_cycle"
        # An intervals file is swept: the witness is an edge of the first
        # monochromatic triangle, joining its two smallest ids.
        assert report["witness"] == "0,1"

    def test_triangle_witness_follows_interval_order_on_shared_left(
        self, capsys, tmp_path
    ):
        # All four start at 0; in (left, right, id) order 2 and 3 come
        # before 0, so the first triangle is {2, 3, 0}.
        iv = tmp_path / "tie.intervals"
        iv.write_text("intervals 4\n0 0 9\n1 0 9\n2 0 1\n3 0 1\n")
        col = tmp_path / "c.coloring"
        col.write_text("coloring 4 1\n0 0\n1 0\n2 0\n3 0\n")
        code, out, _ = run(capsys, ["verify", str(iv), str(col)])
        assert code == 2
        assert stats(out)["witness"] == "0,2"

    def test_graph_file_witness_closes_first_cycle(self, capsys, tmp_path):
        from treecolor.formats import write_graph

        graph_path = tmp_path / "k3.graph"
        write_graph(graph_path, derive_graph(equal_intervals_rep(3)))
        col = tmp_path / "c.coloring"
        col.write_text("coloring 3 1\n0 0\n1 0\n2 0\n")
        code, out, _ = run(capsys, ["verify", str(graph_path), str(col)])
        assert code == 2
        # A graph file keeps the graph route: the first edge in (u, v) order
        # that closes a cycle.
        assert stats(out)["witness"] == "1,2"

    def test_imbalance(self, capsys, tmp_path):
        iv = tmp_path / "k4.intervals"
        write_intervals(iv, equal_intervals_rep(4))
        col = tmp_path / "c.coloring"
        col.write_text("coloring 4 2\n0 0\n1 0\n2 0\n3 1\n")
        code, out, _ = run(capsys, ["verify", str(iv), str(col)])
        assert code == 2
        report = stats(out)
        assert report["failure"] == "imbalance"
        assert report["witness"] == "0,1"

    def test_vertex_mismatch(self, capsys, tmp_path, k4_file):
        col = tmp_path / "c.coloring"
        col.write_text("coloring 3 2\n0 0\n1 1\n2 0\n")
        code, _, err = run(capsys, ["verify", k4_file, str(col)])
        assert code == 1 and "error" in err

    def test_large_header_n_parses_in_little_memory(self, capsys, tmp_path):
        # A 16-byte file whose header counts a million isolated vertices.
        graph = tmp_path / "big.graph"
        graph.write_text("graph 1000000 0\n")
        col = tmp_path / "c.coloring"
        col.write_text("coloring 2 1\n0 0\n1 0\n")
        tracemalloc.start()
        try:
            assert parse_graph(graph).n == 1_000_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
        code, out, err = run(capsys, ["verify", str(graph), str(col)])
        assert code == 1 and out == ""
        assert err.startswith("error: coloring file covers 2 vertices")

    def test_k_cross_check(self, capsys, tmp_path, k4_file):
        col = tmp_path / "c.coloring"
        col.write_text("coloring 4 2\n0 0\n1 1\n2 0\n3 1\n")
        code, _, _ = run(capsys, ["verify", k4_file, str(col), "--k", "3"])
        assert code == 1


class TestSolve:
    def test_no(self, capsys, k6_file):
        code, out, _ = run(capsys, ["solve", k6_file, "--k", "2"])
        assert code == 2 and stats(out)["answer"] == "NO"

    def test_yes_and_reverify(self, capsys, tmp_path, k6_file):
        out_path = tmp_path / "c.coloring"
        code, out, _ = run(capsys, ["solve", k6_file, "--k", "3", "--out", str(out_path)])
        assert code == 0 and stats(out)["answer"] == "YES"
        assert main(["verify", k6_file, str(out_path)]) == 0

    def test_timeout(self, capsys, k6_graph_file):
        code, out, _ = run(capsys, ["solve", k6_graph_file, "--k", "3", "--timeout", "0"])
        assert code == 3 and stats(out)["answer"] == "TIMEOUT"

    @pytest.mark.parametrize("k, code, answer", [(3, 0, "YES"), (2, 2, "NO")])
    def test_bounds_answer_intervals_before_the_timeout(self, capsys, k6_file, k, code, answer):
        # K6 at k = 3 is round robin's guaranteed_k(5); at k = 2, omega = 6 > 2k.
        got, out, err = run(capsys, ["solve", k6_file, "--k", str(k), "--timeout", "0"])
        assert (got, stats(out)["answer"], err) == (code, answer, "")

    def test_intervals_between_the_bounds_still_search(self, capsys, monkeypatch, tmp_path):
        # omega = 8 <= 2k, k < guaranteed_k(15) = 8, and round robin and the
        # greedy both fail: only the interval search can answer, so
        # --timeout 0 ends it before its first node. Neither run derives the
        # graph.
        def refuse(rep):
            raise AssertionError("derive_graph called on an intervals solve")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "treecolor" and module is not None:
                if module.__dict__.get("derive_graph") is derive_graph:
                    monkeypatch.setattr(module, "derive_graph", refuse)
        searches = []

        def recorded(rep, k, **kwargs):
            searches.append(kwargs["stats"])
            return interval_search(rep, k, **kwargs)

        monkeypatch.setattr(treecolor.coloring, "interval_search", recorded)
        rep = gen_random_interval(16, 64, 11)
        assert rep.stats[0] <= 2 * 4 and 4 < guaranteed_k(rep.stats[2])
        assert not verify_interval_coloring(rep, round_robin_color(rep, 4)).ok
        assert greedy_color(rep, 4) is None
        path = tmp_path / "window.intervals"
        write_intervals(path, rep)
        code, out, _ = run(capsys, ["solve", str(path), "--k", "4", "--timeout", "0"])
        assert code == 3 and stats(out)["answer"] == "TIMEOUT"
        assert [s.nodes for s in searches] == [0]
        out_path = tmp_path / "window.coloring"
        code, out, _ = run(capsys, ["solve", str(path), "--k", "4", "--out", str(out_path)])
        assert code == 0 and stats(out)["answer"] == "YES"
        assert len(searches) == 2 and searches[1].nodes > 0
        assert verify_interval_coloring(rep, parse_coloring(out_path)).ok

    def test_round_robin_failing_above_its_threshold_exits_4(
        self, capsys, monkeypatch, k4_file
    ):
        # k = 2 is guaranteed_k(3) on K4, and omega = 4 passes the clique bound.
        monkeypatch.setattr(
            treecolor.coloring, "round_robin_color", lambda rep, k: Coloring((0,) * rep.n, k)
        )
        code, out, err = run(capsys, ["solve", k4_file, "--k", "2"])
        assert code == 4 and out == ""
        assert err.startswith("error: internal consistency check failed: ")

    def test_greedy_coloring_that_fails_the_verifier_exits_4(
        self, capsys, monkeypatch, tmp_path
    ):
        # Between the bounds at k = 4, where round robin fails; a greedy that
        # puts every vertex in class 0 must be caught by the sweep verifier.
        path = tmp_path / "window.intervals"
        write_intervals(path, gen_random_interval(16, 64, 0))
        monkeypatch.setattr(
            treecolor.coloring, "greedy_color", lambda rep, k: Coloring((0,) * rep.n, k)
        )
        code, out, err = run(capsys, ["solve", str(path), "--k", "4"])
        assert code == 4 and out == ""
        assert err.startswith("error: internal consistency check failed: ")

    @pytest.mark.parametrize("rep, k", WINDOW_NOS)
    def test_window_no_instances_are_searched_to_no(self, capsys, tmp_path, rep, k):
        # Both lie between the bounds, where the greedy gives up and the
        # search answers NO.
        assert proper_min_k(rep.stats[0]) <= k < guaranteed_k(rep.stats[2])
        assert greedy_color(rep, k) is None
        path = tmp_path / "no.intervals"
        write_intervals(path, rep)
        code, out, err = run(capsys, ["solve", str(path), "--k", str(k)])
        assert (code, stats(out)["answer"], err) == (2, "NO", "")

    @pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf", "-inf", "ten"])
    def test_timeout_must_be_finite_and_non_negative(self, capsys, k6_file, value):
        code, out, err = run(capsys, ["solve", k6_file, "--k", "3", f"--timeout={value}"])
        assert code == 1 and out == "" and "error: " in err and "--timeout" in err

    def test_graph_file_input(self, capsys, tmp_path, k6_file):
        from treecolor.formats import write_graph

        graph_path = tmp_path / "k6.graph"
        g = load_graph(k6_file)
        write_graph(graph_path, g)
        code, out, _ = run(capsys, ["solve", str(graph_path), "--k", "3"])
        assert code == 0

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad"
        bad.write_text("graph 2 1\n0 2\n")
        code, _, err = run(capsys, ["solve", str(bad), "--k", "1"])
        assert code == 1 and "line 2" in err

    @pytest.mark.parametrize(
        "text, k",
        [
            ("graph 1500 1499\n" + "".join(f"{v} {v + 1}\n" for v in range(1499)), 1),
            ("graph 1000 0\n", 495),
        ],
        ids=["path-1500", "edgeless-1000"],
    )
    def test_search_deeper_than_the_recursion_limit(self, capsys, tmp_path, text, k):
        path = tmp_path / "deep.graph"
        path.write_text(text)
        code, out, err = run(capsys, ["solve", str(path), "--k", str(k)])
        assert (code, stats(out)["answer"], err) == (0, "YES", "")


class TestGen:
    def packing_file(self, tmp_path, items, k, capacity):
        path = tmp_path / "inst.binpacking"
        rows = "\n".join(str(a) for a in items)
        path.write_text(f"binpacking {len(items)} {k} {capacity}\n{rows}\n")
        return str(path)

    def test_split_gadget(self, capsys, tmp_path):
        inst = self.packing_file(tmp_path, (2, 1, 1), 2, 2)
        graph_out = tmp_path / "g.graph"
        labels_out = tmp_path / "g.labels"
        code, out, _ = run(
            capsys,
            ["gen", "split-gadget", inst, "--out", str(graph_out), "--labels-out", str(labels_out)],
        )
        assert code == 0
        assert stats(out)["n"] == "16"
        kind, parts = parse_labels(labels_out)
        assert kind == "split" and "clique0" in parts
        g = load_graph(graph_out)
        assert g.n == 16

    def test_interval_gadget(self, capsys, tmp_path):
        inst = self.packing_file(tmp_path, (1, 1), 2, 1)
        graph_out = tmp_path / "g.graph"
        iv_out = tmp_path / "g.intervals"
        labels_out = tmp_path / "g.labels"
        code, out, _ = run(
            capsys,
            [
                "gen", "interval-gadget", inst,
                "--out", str(graph_out),
                "--intervals-out", str(iv_out),
                "--labels-out", str(labels_out),
            ],
        )
        assert code == 0 and stats(out)["n"] == "14"
        g = load_graph(graph_out)
        rep = parse_intervals(iv_out)
        from treecolor import derive_graph

        assert derive_graph(rep).adj == g.adj

    # Two items of size 1 in k = 2 bins of capacity 1: every file each gadget
    # kind writes, line for line. A split part is a triangle joined to two
    # independent vertices; a chain part is two triangles and one hub.
    GOLDEN = {
        "split-gadget": {
            "g.labels": (
                "labels split",
                "clique0 0 1 2", "center0 0", "indep0 3 4",
                "clique1 5 6 7", "center1 5", "indep1 8 9",
            ),
            "g.graph": (
                "graph 10 18",
                "0 1", "0 2", "0 3", "0 4", "1 2", "1 3", "1 4", "2 3", "2 4",
                "5 6", "5 7", "5 8", "5 9", "6 7", "6 8", "6 9", "7 8", "7 9",
            ),
        },
        "interval-gadget": {
            "g.labels": (
                "labels interval",
                "clique0.0 0 1 2", "clique0.1 3 4 5", "hubs0 6",
                "clique1.0 7 8 9", "clique1.1 10 11 12", "hubs1 13",
            ),
            "g.graph": (
                "graph 14 24",
                "0 1", "0 2", "0 6", "1 2", "1 6", "2 6",
                "3 4", "3 5", "3 6", "4 5", "4 6", "5 6",
                "7 8", "7 9", "7 13", "8 9", "8 13", "9 13",
                "10 11", "10 12", "10 13", "11 12", "11 13", "12 13",
            ),
            "g.intervals": (
                "intervals 14",
                "0 10 20", "1 10 20", "2 10 20", "3 30 40", "4 30 40", "5 30 40",
                "6 15 35",
                "7 130 140", "8 130 140", "9 130 140",
                "10 150 160", "11 150 160", "12 150 160",
                "13 135 155",
            ),
        },
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_gadget_files_golden(self, capsys, tmp_path, kind):
        inst = self.packing_file(tmp_path, (1, 1), 2, 1)
        argv = ["gen", kind, inst, "--out", str(tmp_path / "g.graph"),
                "--labels-out", str(tmp_path / "g.labels")]
        if kind == "interval-gadget":
            argv += ["--intervals-out", str(tmp_path / "g.intervals")]
        code, _, _ = run(capsys, argv)
        assert code == 0
        for name, lines in self.GOLDEN[kind].items():
            assert (tmp_path / name).read_text() == "".join(f"{line}\n" for line in lines)

    @pytest.mark.parametrize(
        "kind, missing",
        [
            ("interval-gadget", "--intervals-out"),
            ("interval-gadget", "--labels-out"),
            ("split-gadget", "--labels-out"),
        ],
    )
    def test_missing_flag_writes_nothing(self, capsys, tmp_path, kind, missing):
        inst = self.packing_file(tmp_path, (1, 1), 2, 1)
        graph_out = tmp_path / "g.graph"
        argv = ["gen", kind, inst, "--out", str(graph_out)]
        for flag, name in (("--intervals-out", "g.intervals"), ("--labels-out", "g.labels")):
            if flag != missing and (flag != "--intervals-out" or kind == "interval-gadget"):
                argv += [flag, str(tmp_path / name)]
        code, out, err = run(capsys, argv)
        assert code == 1 and missing in err and out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.binpacking"]

    def test_failed_gadget_run_leaves_every_target_as_it_was(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        inst = self.packing_file(tmp_path, (1, 2), 1, 3)
        argv = ["gen", "split-gadget", inst, "--out", "half.graph", "--labels-out", "nodir/l"]
        missing = "error: [Errno 2] No such file or directory: 'nodir/l'\n"
        assert run(capsys, argv) == (1, "", missing)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.binpacking"]
        (tmp_path / "half.graph").write_bytes(b"old bytes\n")
        os.chmod("half.graph", 0o640)
        assert run(capsys, argv) == (1, "", missing)
        assert (tmp_path / "half.graph").read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["half.graph", "inst.binpacking"]
        # A run that writes them all keeps an existing target's mode, gives a
        # new one the mode open(path, "w") gives, and writes through a symlink.
        os.symlink("real.labels", "link.labels")
        argv[-1] = "link.labels"
        assert run(capsys, argv)[0] == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(os.stat("half.graph").st_mode) == 0o640
        assert stat.S_IMODE(os.stat("real.labels").st_mode) == 0o666 & ~umask
        assert parse_graph("half.graph").n == 7 and os.path.islink("link.labels")
        assert parse_labels(tmp_path / "real.labels")[0] == "split"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "half.graph", "inst.binpacking", "link.labels", "real.labels"]
        # A target given twice is written twice, in order, and listed twice.
        code, out, _ = run(capsys, argv[:3] + ["--out", "x", "--labels-out", "x"])
        assert code == 0 and out.splitlines()[-2:] == ["wrote=x", "wrote=x"]
        assert parse_labels(tmp_path / "x")[0] == "split"

    @pytest.mark.parametrize("kind", ["split-gadget", "interval-gadget"])
    def test_failed_validation_exits_4_and_writes_nothing(
        self, capsys, tmp_path, monkeypatch, kind
    ):
        def disagree(layout):
            raise ConsistencyError("label-implied edges differ from the graph")

        monkeypatch.setattr(treecolor.cli, "validate_layout", disagree)
        monkeypatch.chdir(tmp_path)
        inst = self.packing_file(tmp_path, (2, 1, 1), 2, 2)
        argv = ["gen", kind, inst, "--out", "g", "--labels-out", "l"]
        if kind == "interval-gadget":
            argv += ["--intervals-out", "i"]
        assert run(capsys, argv) == (
            4,
            "",
            "error: internal consistency check failed: "
            "label-implied edges differ from the graph\n",
        )
        assert os.listdir() == ["inst.binpacking"]

    def test_invalid_instance_sum(self, capsys, tmp_path):
        inst = self.packing_file(tmp_path, (3, 2), 2, 2)
        code, _, err = run(
            capsys,
            ["gen", "split-gadget", inst, "--out", str(tmp_path / "g"), "--labels-out", str(tmp_path / "l")],
        )
        assert code == 1 and "sum to" in err

    def test_random_proper_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.intervals", tmp_path / "b.intervals"
        argv = ["gen", "random-proper", "--n", "20", "--max-coord", "100", "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        from treecolor import is_proper_representation

        assert is_proper_representation(parse_intervals(a))

    def test_random_round_trips(self, capsys, tmp_path):
        out = tmp_path / "r.intervals"
        code, _, _ = run(
            capsys, ["gen", "random", "--n", "25", "--max-coord", "60", "--out", str(out)]
        )
        assert code == 0
        assert parse_intervals(out).n == 25

    def test_random_needs_n(self, capsys, tmp_path):
        code, _, err = run(capsys, ["gen", "random", "--out", str(tmp_path / "r")])
        assert code == 1 and "--n" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # A flag of another kind.
            (["split-gadget", "in", "--out", "g", "--labels-out", "l", "--seed", "3"],
             "unrecognized arguments: --seed 3"),
            (["interval-gadget", "in", "--out", "g", "--intervals-out", "i",
              "--labels-out", "l", "--n", "3"], "unrecognized arguments: --n 3"),
            (["random", "--n", "3", "--max-coord", "9", "--out", "r", "--labels-out", "x"],
             "unrecognized arguments: --labels-out x"),
            (["random-proper", "--n", "3", "--max-coord", "9", "--out", "r",
              "--intervals-out", "i"], "unrecognized arguments: --intervals-out i"),
            # An input file given to a random kind.
            (["random", "in", "--n", "3", "--max-coord", "9", "--out", "r"],
             "unrecognized arguments: in"),
            # Each missing required flag or input.
            (["split-gadget", "--out", "g", "--labels-out", "l"], "required: input"),
            (["split-gadget", "in", "--labels-out", "l"], "required: --out"),
            (["split-gadget", "in", "--out", "g"], "required: --labels-out"),
            (["interval-gadget", "--out", "g", "--intervals-out", "i", "--labels-out", "l"],
             "required: input"),
            (["interval-gadget", "in", "--intervals-out", "i", "--labels-out", "l"],
             "required: --out"),
            (["interval-gadget", "in", "--out", "g", "--labels-out", "l"],
             "required: --intervals-out"),
            (["interval-gadget", "in", "--out", "g", "--intervals-out", "i"],
             "required: --labels-out"),
            (["random", "--n", "3", "--max-coord", "9"], "required: --out"),
            (["random-proper", "--max-coord", "9", "--out", "r"], "required: --n"),
            (["random-proper", "--n", "3", "--out", "r"], "required: --max-coord"),
            # A flag before the kind is named, not its value taken for a kind.
            (["--out", "r", "random", "--n", "3", "--max-coord", "9"],
             "--out given before the kind; the kind comes first"),
            (["foo", "--out", "r"], "argument kind: invalid choice: 'foo'"),
            # The same in the --flag=value form, where argparse takes nothing
            # for the kind.
            (["--out=r", "random-proper", "--n", "3", "--max-coord", "9"],
             "--out given before the kind; the kind comes first"),
            (["--seed=3", "random", "--n", "3", "--max-coord", "9", "--out", "r"],
             "--seed given before the kind; the kind comes first"),
        ],
    )
    def test_usage_error_writes_nothing(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in").write_text("binpacking 2 2 1\n1\n1\n")
        code, out, err = run(capsys, ["gen"] + argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["in"]


class TestAnalyze:
    def test_option_before_the_command_is_named(self, capsys, k4_file):
        for options, named in [
            (["--format", "json"], "--format"),
            (["--format=json"], "--format"),
            (["-x"], "-x"),
        ]:
            code, out, err = run(capsys, options + ["analyze", k4_file])
            assert (code, out) == (1, ""), options
            assert err == f"error: {named} given before the command; the command comes first\n"

    def test_complete_graph(self, capsys, k4_file):
        code, out, _ = run(capsys, ["analyze", k4_file])
        assert code == 0
        report = stats(out)
        assert report["omega"] == "4"
        assert report["proper"] == "true"
        assert report["min_k"] == "2"
        assert report["threshold"] == "2"

    def test_disjoint_intervals(self, capsys, tmp_path):
        path = tmp_path / "d.intervals"
        path.write_text("intervals 3\n0 0 1\n1 3 4\n2 6 7\n")
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        report = stats(out)
        assert report["omega"] == "1" and report["min_k"] == "1"

    def test_non_proper_omits_min_k(self, capsys, tmp_path):
        path = tmp_path / "n.intervals"
        path.write_text("intervals 2\n0 0 9\n1 2 3\n")
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        assert "min_k" not in stats(out)

    @pytest.mark.parametrize("seed", range(6))
    def test_min_k_matches_solver_sweep(self, capsys, tmp_path, seed):
        rep = gen_random_interval(3 + seed, 40, seed=seed, proper=True)
        path = tmp_path / "p.intervals"
        write_intervals(path, rep)
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        reported = int(stats(out)["min_k"])
        from treecolor import derive_graph

        g = derive_graph(rep)
        smallest = next(k for k in range(1, g.n + 2) if exact_solve(g, k) is not None)
        assert reported == smallest


class TestSweepRoute:
    @pytest.fixture
    def no_derive_graph(self, monkeypatch):
        def refuse(rep):
            raise AssertionError("derive_graph called on an intervals command")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "treecolor" and module is not None:
                if module.__dict__.get("derive_graph") is derive_graph:
                    monkeypatch.setattr(module, "derive_graph", refuse)

    def test_interval_commands_never_derive_graph(
        self, capsys, tmp_path, k4_file, no_derive_graph
    ):
        good = tmp_path / "good.coloring"
        lopsided = tmp_path / "lopsided.coloring"
        lopsided.write_text("coloring 4 2\n0 0\n1 0\n2 0\n3 1\n")
        cases = [
            (["analyze", k4_file], 0),
            (["color", k4_file, "--k", "2", "--out", str(good)], 0),
            (["color", k4_file, "--k", "1", "--out", str(tmp_path / "mono")], 2),
            (["decide", k4_file, "--k", "2", "--out", str(tmp_path / "cert")], 0),
            (["decide", k4_file, "--k", "1"], 2),
            (["verify", k4_file, str(good)], 0),
            (["verify", k4_file, str(tmp_path / "mono")], 2),
            (["verify", k4_file, str(lopsided)], 2),
        ]
        for argv, expected in cases:
            code, _, err = run(capsys, argv)
            assert (argv, code, err) == (argv, expected, "")

    def test_solve_bounds_never_search(self, capsys, monkeypatch, tmp_path, k6_file):
        def refuse(*args, **kwargs):
            raise AssertionError("solve searched although a bound or the greedy answers")

        monkeypatch.setattr(treecolor.coloring, "interval_search", refuse)
        monkeypatch.setattr(treecolor.coloring, "exact_solve", refuse)
        monkeypatch.setattr(treecolor.cli, "exact_solve", refuse)
        out_path = tmp_path / "c.coloring"
        # Between the bounds at k = 4, where round robin fails and the greedy
        # answers, whatever --timeout says.
        window = tmp_path / "window.intervals"
        greedy_path = tmp_path / "greedy.coloring"
        rep = gen_random_interval(16, 64, 0)
        assert not verify_interval_coloring(rep, round_robin_color(rep, 4)).ok
        write_intervals(window, rep)
        cases = [
            (["solve", k6_file, "--k", "2"], 2, "NO"),
            (["solve", k6_file, "--k", "3", "--out", str(out_path)], 0, "YES"),
            (["solve", str(window), "--k", "4", "--timeout", "0",
              "--out", str(greedy_path)], 0, "YES"),
        ]
        for argv, expected, answer in cases:
            code, out, err = run(capsys, argv)
            assert (argv, code, stats(out)["answer"], err) == (argv, expected, answer, "")
        assert parse_coloring(out_path).class_sizes() == [2, 2, 2]
        assert parse_coloring(greedy_path) == greedy_color(rep, 4)

    def test_each_interval_command_sweeps_once(self, capsys, monkeypatch, tmp_path, k4_file):
        # Every binding of max_clique_sweep in the package counts its calls.
        calls = []

        def counted(rep):
            calls.append(rep)
            return max_clique_sweep(rep)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "treecolor" and module is not None:
                if module.__dict__.get("max_clique_sweep") is max_clique_sweep:
                    monkeypatch.setattr(module, "max_clique_sweep", counted)
        good = tmp_path / "good.coloring"
        greedy = tmp_path / "greedy.intervals"
        write_intervals(greedy, gen_random_interval(16, 64, 0))
        window = tmp_path / "window.intervals"
        write_intervals(window, gen_random_interval(16, 64, 11))
        once = [
            ["analyze", k4_file],
            ["color", k4_file, "--k", "2", "--out", str(good)],
            ["color", k4_file, "--k", "1", "--out", str(tmp_path / "mono")],
            ["decide", k4_file, "--k", "2"],
            ["decide", k4_file, "--k", "1"],
            ["verify", k4_file, str(good)],
            ["verify", k4_file, str(tmp_path / "mono")],
        ]
        # solve reads m and its bounds from the one triple the rep keeps; the
        # four reach the clique bound, the round robin, the greedy and the
        # search.
        searched = []
        monkeypatch.setattr(
            treecolor.coloring, "interval_search",
            lambda *a, **kw: searched.append(a) or interval_search(*a, **kw),
        )
        once += [["solve", k4_file, "--k", "1"], ["solve", k4_file, "--k", "2"],
                 ["solve", str(greedy), "--k", "4"], ["solve", str(window), "--k", "4"]]
        for argv in once:
            calls.clear()
            code, _, err = run(capsys, argv)
            assert (argv, code in (0, 2), err, len(calls)) == (argv, True, "", 1)
        assert len(searched) == 1

    def test_consistency_error_has_its_own_exit_code(self, capsys, monkeypatch, k4_file):
        def disagree(rep, k):
            raise ConsistencyError("cycle scan says True but clique bound says False")

        monkeypatch.setattr(treecolor.cli, "decide_proper_interval", disagree)
        code, out, err = run(capsys, ["decide", k4_file, "--k", "2"])
        assert code == 4 and out == ""
        assert err.startswith("error: ") and "clique bound" in err
        assert "Traceback" not in err


class TestHarness:
    def test_differential_of_the_tree_against_itself_finds_no_difference(self, tmp_path):
        # 20 ops pass through the whole 13-op cycle: every command and gen kind.
        tree = Path(__file__).resolve().parents[1]
        counts, differing = differential(tree, tree, 20, seed=0, work=tmp_path)
        assert sum(counts.values()) == 20 and differing == []
        assert {"analyze", "color", "decide", "verify", "solve"} <= set(counts)
        assert {f"gen {kind}" for kind in ("random", "random-proper", "split-gadget",
                                           "interval-gadget")} <= set(counts)

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_argv_of_cli_words_keeps_the_exit_contract(
        self, capsys, tmp_path, monkeypatch, data
    ):
        # Each example runs in its own copy of the inputs, which a fuzzed
        # output flag may overwrite, and any word may name an output.
        monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
        for name, text in INPUTS.items():
            Path(name).write_text(text)
        argv = data.draw(cli_argvs(), label="argv")
        code, out, err = run(capsys, argv)
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["color", "x.intervals", "--k", "3.0", "--out", "o"],
            ["decide", "x.intervals", "--k", "two"],
            ["solve", "x.graph", "--k", "1", "--timeout", "abc"],
        ],
    )
    def test_bad_flag_value_names_no_converter(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --") and err.count("\n") == 1
        assert "expected" in err
        assert "_positive_int" not in err and "_timeout_seconds" not in err

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds allocations on Linux")
    @pytest.mark.parametrize(
        "argv", [["verify", "huge.graph", "two.coloring"], ["solve", "huge.graph", "--k", "1"]]
    )
    def test_out_of_memory_is_an_error_line(self, tmp_path, argv):
        # A 19-byte graph file whose header names a billion vertices.
        (tmp_path / "huge.graph").write_text("graph 1000000000 0\n")
        (tmp_path / "two.coloring").write_text("coloring 2 2\n0 0\n1 1\n")
        child = run_limited(tmp_path, "RLIMIT_AS", 1536 * 2**20, argv)
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr == "error: ran out of memory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["color", "two.intervals", "--k", BIG, "--out", "o"],
            ["decide", "two.intervals", "--k", BIG, "--out", "o"],
            ["solve", "two.intervals", "--k", BIG],
            ["solve", "huge.graph", "--k", "1"],
            ["verify", "huge.graph", "none.coloring"],
            ["verify", "none.intervals", "huge.coloring"],
            ["gen", "random-proper", "--n", "3", "--max-coord", BIG, "--out", "o"],
        ],
    )
    def test_number_too_large_to_use_is_an_error_line(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        # 10**20 does not fit an index, so each run fails before it allocates.
        monkeypatch.chdir(tmp_path)
        inputs = {
            "two.intervals": "intervals 2\n0 0 2\n1 1 3\n",
            "huge.graph": f"graph {BIG} 0\n",
            "none.intervals": "intervals 0\n",
            "none.coloring": "coloring 0 1\n",
            "huge.coloring": f"coloring 0 {BIG}\n",
        }
        for name, text in inputs.items():
            Path(name).write_text(text)
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: a number is too large to use: ")
        assert err.count("\n") == 1
        assert sorted(os.listdir()) == sorted(inputs)

    # Each command that writes one file, its --out last. On the 2,000 proper
    # intervals of big.intervals (threshold 90, omega 103) each answers YES,
    # and each file it writes is larger than 8 KB.
    SINGLE_WRITERS = {
        "color": ["color", "big.intervals", "--k", "100", "--out"],
        "decide": ["decide", "big.intervals", "--k", "100", "--out"],
        "solve": ["solve", "big.intervals", "--k", "100", "--out"],
        "gen-random": ["gen", "random", "--n", "2000", "--max-coord", "100000", "--out"],
    }

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_FSIZE fails writes with EFBIG")
    @pytest.mark.parametrize("target", ["new", "existing", "symlink", "linked"])
    @pytest.mark.parametrize("command", sorted(SINGLE_WRITERS))
    def test_failed_write_leaves_the_target_as_it_was(
        self, capsys, tmp_path, monkeypatch, command, target
    ):
        monkeypatch.chdir(tmp_path)
        write_intervals("big.intervals", gen_random_interval(2000, 100000, 1, proper=True))
        argv = self.SINGLE_WRITERS[command] + ["out"]
        # A "symlink" names a missing file, a "linked" one an existing one.
        existing = target in ("existing", "linked")
        if target in ("symlink", "linked"):
            os.symlink("real", "out")
        if existing:
            Path("out").write_bytes(b"old bytes\n")
            os.chmod("out", 0o640)
        before = sorted(os.listdir())
        # Past an 8 KB file size limit every write fails (CPython ignores
        # SIGXFSZ, so with EFBIG). A symlink's file is staged beside the
        # file the link names, so no target is changed and nothing is left.
        child = run_limited(tmp_path, "RLIMIT_FSIZE", 8192, argv)
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
        assert "'out'" in child.stderr
        assert sorted(os.listdir()) == before
        if existing:
            assert Path("out").read_bytes() == b"old bytes\n"
            assert stat.S_IMODE(os.stat("out").st_mode) == 0o640
        # Without the limit the same run writes its file: an existing target
        # keeps its mode, a new one gets the mode open(path, "w") gives, and
        # a symlink's file is replaced and the link stays a symlink.
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "") and out.endswith("\nwrote=out\n")
        assert Path("out").read_text().split("\n", 1)[0] in ("coloring 2000 100", "intervals 2000")
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o640 if existing else 0o666 & ~umask
        assert stat.S_IMODE(os.stat("out").st_mode) == mode
        assert os.path.islink("out") == (target in ("symlink", "linked"))
        assert not [name for name in os.listdir() if name.endswith(".tmp")]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--", "analyze", "p.intervals"],
            ["gen", "--", "random", "--n", "3", "--max-coord", "9", "--out", "r"],
            ["--", "gen", "--", "random", "--n", "3", "--max-coord", "9", "--out", "r"],
        ],
    )
    def test_separator_where_a_subcommand_belongs_is_dropped(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        Path("p.intervals").write_text(INPUTS["p.intervals"])
        without = run(capsys, [word for word in argv if word != "--"])
        assert without[0] == 0 and run(capsys, argv) == without

    def test_json_format(self, capsys, tmp_path, k4_file):
        code, out, _ = run(
            capsys,
            ["color", k4_file, "--k", "2", "--out", str(tmp_path / "o"), "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "color"
        assert doc["statistics"]["verified"] is True
        assert doc["statistics"]["class_sizes"] == [2, 2]

    def test_json_decide_answer(self, capsys, k4_file):
        code, out, _ = run(capsys, ["decide", k4_file, "--k", "1", "--format", "json"])
        assert code == 2
        assert json.loads(out)["answer"] == "NO"
