"""Spans around the package's public functions, recorded from outside.

`Tracer.install()` replaces every traced function at every loaded module of
the package that binds it (``derive_graph`` is bound in ``graph``, ``cli``,
``coloring``, ``gadgets``, ``formats`` and the package root, and each binding
is wrapped), plus the two validators ``IntervalRep.__post_init__`` and
``Coloring.__post_init__`` and two ``Graph`` methods on their class.
`uninstall()` puts the originals back. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
import time

TRACED = {
    "formats": (
        "parse_intervals", "parse_coloring", "parse_graph", "parse_binpacking",
        "load_graph", "write_coloring", "write_graph", "write_intervals",
        "write_labels",
    ),
    "graph": (
        "derive_graph", "IntervalRep.__post_init__", "Graph.from_edges",
        "Graph.max_degree", "interval_order", "max_clique_sweep",
        "find_proper_containment", "is_proper_representation",
        "first_monochromatic_cycle_edge",
    ),
    "coloring": (
        "round_robin_color", "verify_equitable_tree_coloring",
        "decide_proper_interval", "Coloring.__post_init__", "exact_solve",
    ),
    "gadgets": (
        "build_split_gadget", "build_interval_gadget", "validate_layout",
        "verify_maximal_clique_order", "solve_bin_packing",
        "coloring_from_packing", "packing_from_coloring", "gen_random_interval",
    ),
    "cli": ("main",),
}

PACKAGE = "treecolor"


def traced_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


class Tracer:
    """Records spans (name, start, end, parent, op id) and per-name counts."""

    def __init__(self):
        # (span id, name, start, end, parent span id or -1, op id)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.op_id = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, start, time covered by children]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [tracer._next_id, 0.0, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            outcome = None
            frame[1] = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                tracer.spans.append(
                    (frame[0], name, frame[1], end,
                     parent[0] if parent else -1, tracer.op_id)
                )
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + duration - frame[2]
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if after is not None:
                    after(args, outcome)
                if parent is not None:
                    # The bookkeeping above is tracer cost, not the parent's.
                    parent[2] += time.perf_counter() - frame[1]

        return wrapper

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _after_hooks(self) -> dict:
        def file_size(path) -> int:
            try:
                return os.stat(path).st_size
            except OSError:
                return 0

        def read(args, _outcome):
            self.count("formats.bytes_read", file_size(args[0]))

        def written(args, _outcome):
            self.count("formats.bytes_written", file_size(args[0]))

        def derived(_args, outcome):
            if not isinstance(outcome, BaseException):
                self.count("graph.derive_graph.edges", sum(map(len, outcome.adj)) // 2)

        def solved(_args, outcome):
            if outcome is None:
                self.count("coloring.exact_solve.no")
            elif isinstance(outcome, TimeoutError):
                self.count("coloring.exact_solve.timeouts")
            elif not isinstance(outcome, BaseException):
                self.count("coloring.exact_solve.yes")

        hooks = {f"formats.{name}": read for name in TRACED["formats"]
                 if name.startswith("parse_") or name == "load_graph"}
        hooks.update({f"formats.{name}": written for name in TRACED["formats"]
                      if name.startswith("write_")})
        hooks["graph.derive_graph"] = derived
        hooks["coloring.exact_solve"] = solved
        return hooks

    def install(self) -> None:
        # Every loaded module of the package, so that a binding in a module
        # added later is wrapped too.
        modules = [module for name, module in list(sys.modules.items())
                   if module is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        hooks = self._after_hooks()
        for layer, names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    self._wrap_method(home, name, key, hooks.get(key))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(key, original, hooks.get(key))
                for module in modules:
                    if module.__dict__.get(name) is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def _wrap_method(self, home, dotted: str, key: str, after) -> None:
        cls_name, attr = dotted.split(".")
        cls = getattr(home, cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(self._wrap(key, original.__func__, after))
        else:
            wrapper = self._wrap(key, original, after)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def span_records(self) -> list[dict]:
        return [
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "op": op}
            for span_id, name, start, end, parent, op in self.spans
        ]
