"""Spans around the library's public functions, for the traced run.

`Tracer.install()` replaces every public function of the graph, cotree,
solver, strength and obstructions modules at every name that binds it
(module globals, names imported by other modules, and `Graph` methods) by
a wrapper that records a span (name, start, end, parent). Spans live in
arrays in memory and are written out once, after the run.

A recursive call of a traced function records no span of its own: while
a function runs, its global name points back at the raw function, so the
recursion costs no extra frame either. Generator functions get one span
per resumption, so their spans hold only their own work.

Not wrapped: `iter_bits` and the per-vertex accessors `Graph.row`,
`has_edge`, `degree` and `neighbors`. They are O(1) or O(degree), run in
the innermost loops, and their cost counts as self time of the caller.

Forked pool workers are not traced (an at-fork hook turns tracing off in
the child), so a search with jobs > 1 is one span in the parent.
"""
from __future__ import annotations

import gzip
import inspect
import os
import statistics
import sys
import time
import weakref
from array import array

import referees

MODULES = ("graph", "cotree", "solver", "strength", "obstructions")
NOT_WRAPPED = {"graph.iter_bits", "Graph.row", "Graph.has_edge", "Graph.degree",
               "Graph.neighbors"}
DERIVED = ("solver.vertex_arboricity", "solver.chromatic_number",
           "solver.min_deletions", "solver.min_q_feedback")
DECODERS = ("Graph.from_graph6", "Graph.from_sparse6", "Graph.from_edge_list_text")
OBSTRUCTION_CALLERS = ("obstructions.search_minimal_obstructions",
                       "obstructions.is_minimal_obstruction")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.enabled = False
        self._restore: list = []
        # per-call facts gathered by the note hooks
        self.sizes: dict[str, float] = {}
        self.folds: list[tuple[int, int, int, bool]] = []   # sid, leaves, frontier, repeat
        self.yields: list[int] = []                          # sid of each enumerate item
        self.parallel_searches: set[int] = set()             # sid of searches with jobs > 1
        self._seen = weakref.WeakKeyDictionary()
        self._leaves = weakref.WeakKeyDictionary()

    # -- span bookkeeping -------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start[sid] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def parent_name(self, sid: int) -> str | None:
        p = self.parent[sid]
        return None if p < 0 else self.names[self.name[p]]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, qualname: str, raw, home=None, attr=None):
        """Wrapper for raw; while it runs, home.attr is raw itself."""
        tracer = self
        nid = self.name_id(qualname)
        active = [False]
        note = _NOTES.get(qualname)
        is_gen = inspect.isgeneratorfunction(raw)

        def enter():
            active[0] = True
            if home is not None:
                setattr(home, attr, raw)

        def leave():
            active[0] = False
            if home is not None:
                setattr(home, attr, wrapper)

        def drive(it):
            while tracer.enabled:
                sid = tracer.open(nid)
                enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                    leave()
                if note is not None:
                    note(tracer, sid, None, item)
                yield item
            yield from it

        def wrapper(*args, **kwargs):
            if active[0] or not tracer.enabled:
                return raw(*args, **kwargs)
            if is_gen:
                return drive(raw(*args, **kwargs))
            sid = tracer.open(nid)
            enter()
            try:
                result = raw(*args, **kwargs)
            finally:
                tracer.close(sid)
                leave()
            if note is not None:
                note(tracer, sid, args, result)
            return result

        return wrapper

    def install(self) -> None:
        from cographpart.graph import Graph

        loaded = [m for name, m in sys.modules.items()
                  if m is not None and (name == "cographpart" or name.startswith("cographpart."))]
        for short in MODULES:
            home = sys.modules[f"cographpart.{short}"]
            for attr in home.__all__:
                raw = getattr(home, attr)
                qualname = f"{short}.{attr}"
                if not inspect.isfunction(raw) or qualname in NOT_WRAPPED:
                    continue
                wrapper = self._wrap(qualname, raw, home, attr)
                for mod in loaded:
                    for name, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, name, wrapper)
                            self._restore.append((mod, name, raw))
        for attr, value in list(vars(Graph).items()):
            qualname = f"Graph.{attr}"
            if attr.startswith("_") or qualname in NOT_WRAPPED:
                continue
            if isinstance(value, classmethod):
                new = classmethod(self._wrap(qualname, value.__func__))
            elif inspect.isfunction(value):
                new = self._wrap(qualname, value)
            else:
                continue
            setattr(Graph, attr, new)
            self._restore.append((Graph, attr, value))
        os.register_at_fork(after_in_child=self._disable)
        self.enabled = True

    def _disable(self) -> None:
        self.enabled = False

    def uninstall(self) -> None:
        self.enabled = False
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- harness spans ----------------------------------------------------

    def op_open(self, kind: str) -> int:
        return self.open(self.name_id(f"op:{kind}"))

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        k = len(self.names)
        self_s = [0.0] * k
        incl_s = [0.0] * k
        calls = [0] * k
        for sid in range(n):
            nid = self.name[sid]
            dur = self.end[sid] - self.start[sid]
            self_s[nid] += dur - child[sid]
            incl_s[nid] += dur
            calls[nid] += 1

        def get(table, *names):
            return sum(table[self._ids[x]] for x in names if x in self._ids)

        def under(sid_list, parents):
            return [s for s in sid_list if self.parent_name(s) in parents]

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        sids_of = {}
        for sid in range(n):
            sids_of.setdefault(self.names[self.name[sid]], []).append(sid)

        def incl_under(names, parents):
            return sum(self.end[s] - self.start[s]
                       for x in names for s in under(sids_of.get(x, []), parents))

        m: dict[str, float] = {}
        m["graph.decode_s"] = get(self_s, *DECODERS, "Graph.from_edge_list")
        m["graph.decode_mb_per_s"] = rate(self.sizes.get("decode_bytes", 0) / 1e6,
                                          get(incl_s, *DECODERS))
        m["graph.component_masks_s"] = get(self_s, "Graph.component_masks")
        m["graph.induced_subgraph_s"] = get(self_s, "Graph.induced_subgraph")
        m["graph.is_forest_s"] = get(self_s, "Graph.is_forest")
        m["cotree.recognize_s"] = get(self_s, "cotree.recognize")
        m["cotree.recognize_calls"] = get(calls, "cotree.recognize")
        m["cotree.recognize_kverts_per_s"] = rate(self.sizes.get("recognize_vertices", 0) / 1e3,
                                                  get(incl_s, "cotree.recognize"))
        m["cotree.find_p4_s"] = get(self_s, "cotree.find_p4")
        m["cotree.realize_s"] = get(self_s, "cotree.realize")
        m["cotree.realize_bytes"] = self.sizes.get("realize_bytes", 0)
        m["cotree.parse_expr_s"] = get(self_s, "cotree.parse_expr")
        m["cotree.parse_mchars_per_s"] = rate(self.sizes.get("parse_chars", 0) / 1e6,
                                              get(incl_s, "cotree.parse_expr"))
        m["cotree.to_expr_s"] = get(self_s, "cotree.to_expr")
        items = len(self.yields)
        m["cotree.enumerate_s"] = get(incl_s, "cotree.enumerate_cographs")
        m["cotree.enumerate_trees_per_s"] = rate(items, m["cotree.enumerate_s"])

        m["solver.feasible_set_calls"] = get(calls, "solver.feasible_set")
        m["solver.feasible_set_s"] = get(self_s, "solver.feasible_set")
        fold_leaves = sum(f[1] for f in self.folds)
        m["solver.fold_kleaves_per_s"] = rate(fold_leaves / 1e3, get(incl_s, "solver.feasible_set"))
        m["solver.frontier_max"] = max((f[2] for f in self.folds), default=0)
        first = [self.end[f[0]] - self.start[f[0]] for f in self.folds if not f[3]]
        repeat = [self.end[f[0]] - self.start[f[0]] for f in self.folds if f[3]]
        m["solver.fold_first_ms"] = 1e3 * statistics.median(first) if first else 0.0
        m["solver.fold_repeat_ms"] = 1e3 * statistics.median(repeat) if repeat else 0.0
        m["solver.fold_repeat_ratio"] = rate(m["solver.fold_repeat_ms"], m["solver.fold_first_ms"])
        for name in DERIVED:
            m[f"{name}_s"] = get(incl_s, name)
        derived = [f for f in self.folds if self.parent_name(f[0]) in DERIVED]
        m["solver.derived_fold_calls"] = len(derived)
        m["solver.derived_useful_ratio"] = rate(sum(1 for f in derived if f[2]), len(derived))
        m["solver.extract_certificate_s"] = get(self_s, "solver.extract_certificate")
        m["solver.check_partition_s"] = get(self_s, "solver.check_partition")
        m["strength.strength_profile_s"] = get(self_s, "strength.strength_profile")

        m["obstructions.dsl_roundtrip_s"] = incl_under(
            ("cotree.to_expr", "cotree.parse_expr"), OBSTRUCTION_CALLERS)
        m["obstructions.search_s"] = get(incl_s, "obstructions.search_minimal_obstructions")
        # a search with jobs > 1 checks its cographs in untraced workers
        examined = sum(1 for s in under(self.yields, ("obstructions.search_minimal_obstructions",))
                       if self.parent[s] not in self.parallel_searches)
        m["obstructions.cographs_examined"] = examined
        checks = get(calls, "obstructions.is_minimal_obstruction")
        m["obstructions.minimality_checks"] = checks
        m["obstructions.minimality_check_ratio"] = rate(checks, examined)
        m["obstructions.is_minimal_obstruction_s"] = get(self_s, "obstructions.is_minimal_obstruction")
        m["obstructions.deletion_recognize_calls"] = len(
            under(sids_of.get("cotree.recognize", []), ("obstructions.is_minimal_obstruction",)))
        m["obstructions.contains_induced_s"] = get(self_s, "obstructions.contains_induced")
        m["obstructions.contains_induced_calls"] = get(calls, "obstructions.contains_induced")

        # CLI processes are not traced, so their ops are left out of this share
        op_ids = [i for i, x in enumerate(self.names) if x.startswith("op:") and x != "op:cli"]
        op_total = sum(incl_s[i] for i in op_ids)
        m["trace.uncovered_share"] = rate(sum(self_s[i] for i in op_ids), op_total)
        m["trace.spans"] = n
        return m

    def write(self, path: str) -> None:
        """Spans as gzip'd tab-separated lines: name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# " + "\t".join(self.names) + "\n")
            for sid in range(len(self.start)):
                fh.write(f"{self.name[sid]}\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\t"
                         f"{self.parent[sid]}\n")


# -- note hooks: sizes gathered outside the span's own timing ------------


def _add(tracer: Tracer, key: str, amount: float) -> None:
    tracer.sizes[key] = tracer.sizes.get(key, 0) + amount


def _note_decode(tracer, sid, args, result):
    _add(tracer, "decode_bytes", len(args[1]))


def _note_recognize(tracer, sid, args, result):
    _add(tracer, "recognize_vertices", args[0].n)


def _note_realize(tracer, sid, args, result):
    n = result.n
    _add(tracer, "realize_bytes", n * -(-n // 64) * 8)


def _note_parse(tracer, sid, args, result):
    _add(tracer, "parse_chars", len(args[0]))


def _note_feasible(tracer, sid, args, result):
    subject, box = args[0], tuple(args[1])
    try:
        seen = tracer._seen.setdefault(subject, set())
    except TypeError:           # a Graph: no weak references, never a repeat
        seen, leaves = set(), subject.n
    else:
        leaves = tracer._leaves.get(subject)
        if leaves is None:
            leaves = tracer._leaves[subject] = referees.leaf_count(subject)
    repeat = box in seen
    seen.add(box)
    tracer.folds.append((sid, leaves, len(result.frontier), repeat))


def _note_enumerate(tracer, sid, args, item):
    tracer.yields.append(sid)


def _note_search(tracer, sid, args, result):
    if len(args) > 2 and args[2] > 1:
        tracer.parallel_searches.add(sid)


_NOTES = {
    "Graph.from_graph6": _note_decode,
    "Graph.from_sparse6": _note_decode,
    "Graph.from_edge_list_text": _note_decode,
    "cotree.recognize": _note_recognize,
    "cotree.realize": _note_realize,
    "cotree.parse_expr": _note_parse,
    "solver.feasible_set": _note_feasible,
    "cotree.enumerate_cographs": _note_enumerate,
    "obstructions.search_minimal_obstructions": _note_search,
}
