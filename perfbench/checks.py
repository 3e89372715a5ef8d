"""Independent checks of the program's outputs.

Nothing here imports the package under test: files are read with a parser of
our own, and colorings are checked without building the program's graph.

The interval check rests on two standard facts. Interval graphs are chordal,
so a class of intervals induces a forest iff it induces no triangle; and
pairwise intersecting intervals share a point (Helly). Hence a class is a
forest iff no point is covered by three intervals of that class, which one
endpoint sweep with a depth counter per color decides.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


class CheckFailed(Exception):
    """An output disagrees with what the benchmark computed on its own."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_report(stdout: str) -> dict[str, str]:
    """The CLI's key=value report; repeated keys (wrote=) keep the last."""
    report = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        expect(bool(sep), f"report line without '=': {line!r}")
        report[key] = value
    return report


def expect_report(report: dict[str, str], **expected) -> None:
    for key, value in expected.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        expect(report.get(key) == str(value),
               f"report {key}={report.get(key)!r}, expected {value!r}")


def read_rows(text: str, name: str) -> tuple[list[str], list[list[str]]]:
    rows = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].split()
        if body:
            rows.append(body)
    expect(bool(rows), f"{name}: empty file")
    return rows[0], rows[1:]


def read_intervals(text: str, path: str) -> list[tuple[int, int]]:
    header, rows = read_rows(text, path)
    expect(header[0] == "intervals" and len(header) == 2, f"{path}: bad header {header}")
    n = int(header[1])
    expect(len(rows) == n, f"{path}: {len(rows)} rows for n={n}")
    spans: list[tuple[int, int] | None] = [None] * n
    for row in rows:
        v, lo, hi = (int(t) for t in row)
        expect(0 <= v < n and spans[v] is None, f"{path}: bad or repeated id {v}")
        expect(lo <= hi, f"{path}: vertex {v} has left {lo} > right {hi}")
        spans[v] = (lo, hi)
    return spans


def read_coloring(text: str, path: str) -> tuple[int, list[int]]:
    header, rows = read_rows(text, path)
    expect(header[0] == "coloring" and len(header) == 3, f"{path}: bad header {header}")
    n, k = int(header[1]), int(header[2])
    expect(len(rows) == n, f"{path}: {len(rows)} rows for n={n}")
    colors = [-1] * n
    for row in rows:
        v, c = int(row[0]), int(row[1])
        expect(0 <= v < n and colors[v] == -1, f"{path}: bad or repeated vertex {v}")
        expect(0 <= c < k, f"{path}: color {c} outside 0..{k - 1}")
        colors[v] = c
    return k, colors


def read_graph(text: str, path: str) -> tuple[int, list[tuple[int, int]]]:
    header, rows = read_rows(text, path)
    expect(header[0] == "graph" and len(header) == 3, f"{path}: bad header {header}")
    n, m = int(header[1]), int(header[2])
    expect(len(rows) == m, f"{path}: {len(rows)} edge rows for m={m}")
    edges = [(int(u), int(v)) for u, v in rows]
    for u, v in edges:
        expect(0 <= u < v < n, f"{path}: edge ({u}, {v}) out of order or range")
    expect(len(set(edges)) == m, f"{path}: repeated edge")
    return n, edges


def read_labels(text: str, path: str) -> tuple[str, dict[str, list[int]]]:
    header, rows = read_rows(text, path)
    expect(header[0] == "labels" and len(header) == 2, f"{path}: bad header {header}")
    return header[1], {row[0]: [int(t) for t in row[1:]] for row in rows}


def interval_stats(spans) -> dict[str, int]:
    """n, m, max degree and clique number of the intersection graph, by
    counting over sorted endpoints; no edge is listed."""
    n = len(spans)
    lefts = sorted(lo for lo, _ in spans)
    rights = sorted(hi for _, hi in spans)
    # Closed intervals: u meets v unless u ends before v starts or starts after.
    degrees = [
        n - 1 - bisect_left(rights, lo) - (n - bisect_right(lefts, hi))
        for lo, hi in spans
    ]
    return {
        "n": n,
        "m": sum(degrees) // 2,
        "max_degree": max(degrees, default=0),
        "omega": max_depth(spans),
    }


def max_depth(spans) -> int:
    """Most intervals covering one point; lefts sort before rights at a tie."""
    events = sorted([(lo, 0) for lo, _ in spans] + [(hi, 1) for _, hi in spans])
    best = depth = 0
    for _, kind in events:
        depth += 1 if kind == 0 else -1
        best = max(best, depth)
    return best


def proper_containment(spans) -> tuple[int, int] | None:
    """Some (outer, inner) pair with inner's interval properly inside outer's."""
    order = sorted(range(len(spans)), key=lambda v: (spans[v][0], -spans[v][1]))
    reach, holder = None, -1
    for v in order:
        lo, hi = spans[v]
        if reach is not None and hi <= reach and spans[holder] != (lo, hi):
            return holder, v
        if reach is None or hi > reach:
            reach, holder = hi, v
    return None


def contains_properly(spans, outer: int, inner: int) -> bool:
    (a, b), (c, d) = spans[outer], spans[inner]
    return a <= c and d <= b and (a, b) != (c, d)


def balanced(colors, k: int) -> bool:
    sizes = [0] * k
    for c in colors:
        sizes[c] += 1
    return max(sizes) - min(sizes) <= 1


def classes_are_forests_by_sweep(spans, colors) -> bool:
    """True iff no point is covered by three intervals of one color."""
    events = sorted(
        [(lo, 0, v) for v, (lo, _) in enumerate(spans)]
        + [(hi, 1, v) for v, (_, hi) in enumerate(spans)]
    )
    depth: dict[int, int] = {}
    for _, kind, v in events:
        c = colors[v]
        if kind == 0:
            depth[c] = depth.get(c, 0) + 1
            if depth[c] >= 3:
                return False
        else:
            depth[c] -= 1
    return True


def classes_are_forests_by_union_find(n: int, edges, colors) -> bool:
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if colors[u] == colors[v]:
            ru, rv = root(u), root(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def interval_edges(spans) -> set[tuple[int, int]]:
    """Every intersecting pair (u, v), u < v; only for small inputs."""
    order = sorted(range(len(spans)), key=lambda v: spans[v][0])
    edges = set()
    for p, u in enumerate(order):
        hi = spans[u][1]
        q = p + 1
        while q < len(order) and spans[order[q]][0] <= hi:
            v = order[q]
            edges.add((min(u, v), max(u, v)))
            q += 1
    return edges


def packable(items, bins: int, capacity: int) -> bool:
    """Exact bin packing by plain backtracking; for tiny instances only."""
    loads = [0] * bins

    def place(j: int) -> bool:
        if j == len(items):
            return all(load == capacity for load in loads)
        for i in range(bins):
            if loads[i] + items[j] <= capacity:
                loads[i] += items[j]
                if place(j + 1):
                    return True
                loads[i] -= items[j]
        return False

    return place(0)


def expect_exact_packing(partition, items, bins: int, capacity: int) -> None:
    expect(len(partition) == bins, f"packing has {len(partition)} bins, expected {bins}")
    expect(sorted(j for b in partition for j in b) == list(range(len(items))),
           "packing does not place every item exactly once")
    for i, b in enumerate(partition):
        load = sum(items[j] for j in b)
        expect(load == capacity, f"bin {i} load {load}, expected {capacity}")
