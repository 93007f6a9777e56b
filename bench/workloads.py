"""The three workloads: seeded inputs, the ops of one pass, and their referees.

Every workload has the same shape:

* `make_inputs(k)` builds the inputs of pass k from the workload seed with
  the package's generators and encoders (pass 0 is the set-up);
* `run_pass(inputs, rec)` runs the ops through a `harness.Recorder` and
  judges each answer right after its chain, with the phase clock paused;
* `probes(rec)` runs the known-defect probes, outside the timed phase;
* `census(inputs)` describes the inputs.

Input sizes are fixed per slot; the seed only changes structure, so runs
with different seeds do the same amount of work. The notes in README.md
give the reasons for each workload and its sizing limits.
"""
from __future__ import annotations

import json
import random

import cographpart as cp
import referees as ref
from harness import FAILED, ROOT

OUT = ROOT / "bench" / "out"


def _rng(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _connected_cotree(n: int, rng: random.Random):
    """Random cotree on n leaves whose root is a Join (a connected cograph)."""
    tree = cp.random_cotree(n, rng)
    return cp.complement_tree(tree) if isinstance(tree, cp.Union) else tree


def _dominates(t, m) -> bool:
    return all(a >= b for a, b in zip(t, m))


def _frontier_errors(fs, box, n: int, best: list[int]):
    """The frontier lies in the box, is an antichain, and its p = 0 slice
    matches the closed form: (0, q, r) is feasible iff r >= n - best[q]."""
    front = [tuple(t) for t in fs.frontier]
    if any(not _dominates(box, t) for t in front):
        return "frontier triple outside the box"
    if any(a != b and _dominates(a, b) for a in front for b in front):
        return "frontier is not an antichain"
    for q in range(box[1] + 1):
        for r in range(box[2] + 1):
            got = any(_dominates((0, q, r), m) for m in front)
            if got != (r >= n - best[q]):
                return f"(0, {q}, {r}) feasible={got}, closed form says {not got}"
    return None


def _certify_frontier(rec, label, tree, fs, rows):
    """Every frontier triple with p >= 1 has a certificate the referee accepts."""
    for t in fs.frontier:
        if t[0] >= 1:
            cert = cp.extract_certificate(tree, t)
            rec.judge(f"frontier certificate {tuple(t)} [{label}]",
                      ref.certificate_error(rows, cert.labels, t))


def _cli_steps(rec, commands, outputs: dict):
    """Each (label, argv, status, needs, judge) as a callable that runs one
    CLI op and then its referee. A `needs` entry may be a zero-argument
    callable, read when the step runs; `outputs` keeps each step's payload
    by subcommand name."""
    def step(label, argv, status, needs, judge):
        def run():
            out = rec.cli(label, argv, status,
                          needs=tuple(n() if callable(n) else n for n in needs))
            outputs[argv[0]] = out
            with rec.paused():
                if out is not FAILED:
                    command = " ".join(a for a in argv[:2] if not a.startswith("-"))
                    rec.judge(f"cli {command} [{label}]", judge(out))
        return run
    return [step(*command) for command in commands]


def _interleave(items, run_item, steps) -> None:
    """Run every item, with the steps spread evenly between them, so that CLI
    samples span the whole pass instead of one stretch of it."""
    done = 0
    for i, item in enumerate(items, 1):
        run_item(item)
        due = len(steps) * i // len(items)
        for step in steps[done:due]:
            step()
        done = due


class _Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.work = OUT / f"work-{self.name}-{seed}"

    def probes(self, rec) -> None:
        pass


# -- graph-pipeline ----------------------------------------------------------


class GraphPipeline(_Workload):
    """Text in, verdict and certificate out."""

    name = "graph-pipeline"
    # unions of connected random cographs: (components, smallest, largest, encoding)
    SPARSE = tuple((comps, 10, 30, "edges" if i % 2 else "sparse6")
                   for i, comps in enumerate(range(100, 340, 20)))
    DENSE = tuple(range(300, 975, 75))        # random_cotree leaves, graph6
    # one extra edge between two components makes an induced P4
    NON_COGRAPHS = ((100, 10, 30, "edges"), (140, 10, 30, "sparse6"), (180, 10, 30, "edges"),
                    (220, 10, 30, "sparse6"), (2, 150, 150, "graph6"), (2, 200, 200, "graph6"),
                    (2, 250, 250, "graph6"))
    BOX = (2, 2, 2)
    DECODE = {"edges": "from_edge_list_text", "sparse6": "from_sparse6", "graph6": "from_graph6"}
    CLI_ROUNDS = 2

    def make_inputs(self, k: int) -> list[dict]:
        rng = _rng(self.seed, self.name, k)
        sparse, dense, bad = [], [], []
        for comps, lo, hi, fmt in self.SPARSE:
            tree = cp.relabel(cp.union_of(
                [_connected_cotree(rng.randint(lo, hi), rng) for _ in range(comps)]))
            sparse.append(self._encode(tree, fmt, None))
        for n in self.DENSE:
            dense.append(self._encode(cp.random_cotree(n, rng), "graph6", None))
        for comps, lo, hi, fmt in self.NON_COGRAPHS:
            parts = [_connected_cotree(rng.randint(lo, hi), rng) for _ in range(comps)]
            a, b = sorted(rng.sample(range(comps), 2))
            start_a = sum(cp.leaf_count(t) for t in parts[:a])
            start_b = sum(cp.leaf_count(t) for t in parts[:b])
            bad.append(self._encode(cp.relabel(cp.union_of(parts)), fmt, (start_a, start_b)))
        # interleave the kinds so every stretch of the pass holds a mix
        items = []
        for i in range(len(sparse)):
            items.extend(kind[i] for kind in (sparse, dense, bad) if i < len(kind))
        for slot, item in enumerate(items):
            item["label"] = f"{slot}:{item['label']}"
        return items

    def _encode(self, tree, fmt: str, link) -> dict:
        graph = cp.realize(tree)
        if link is not None:
            # a, b are the first vertices of two connected components: a-b is
            # a new edge, and with a neighbour on each side a P4 appears
            a, b = link
            rows = [graph.row(v) for v in range(graph.n)]
            rows[a] |= 1 << b
            rows[b] |= 1 << a
            graph = cp.Graph(graph.n, rows)
        text = {"edges": graph.to_edge_list_text, "sparse6": graph.to_sparse6,
                "graph6": graph.to_graph6}[fmt]()
        label = f"{fmt}:{graph.n}{':p4' if link else ''}"
        return {"label": label, "fmt": fmt, "text": text, "tree": tree, "link": link,
                "n": graph.n}

    def _want_rows(self, item) -> list[int]:
        rows = ref.rows_of(item["tree"])
        if item["link"] is not None:
            a, b = item["link"]
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return rows

    def run_pass(self, inputs, rec) -> None:
        def smallest(fmt, link):
            return min((i for i in inputs if i["fmt"] == fmt and bool(i["link"]) == link),
                       key=lambda i: i["n"])

        cli_inputs = [smallest("graph6", False), smallest("edges", False),
                      smallest("graph6", True), smallest("edges", True)]
        results = {item["label"]: self._chain(item, rec) for item in cli_inputs}
        steps = self._cli(cli_inputs, results, rec) * self.CLI_ROUNDS
        _interleave([i for i in inputs if i not in cli_inputs],
                    lambda item: self._chain(item, rec), steps)

    def _chain(self, item, rec):
        label = item["label"]
        box = self.BOX
        decode = getattr(cp.Graph, self.DECODE[item["fmt"]])
        graph = rec.op("decode", label, decode, item["text"])
        if item["link"] is not None:
            exc = rec.expect("recognize_p4", label, cp.recognize, graph)
            with rec.paused():
                want = self._want_rows(item)
                if graph is not FAILED:
                    rec.judge(f"decode [{label}]", ref.rows_error(
                        [graph.row(v) for v in range(graph.n)], want))
                if exc is not FAILED:
                    rec.judge(f"P4 witness [{label}]", ref.p4_error(want, exc.witness)
                              if isinstance(exc, cp.NotACographError) else repr(exc))
            return {"rows": want}
        tree = rec.op("recognize", label, cp.recognize, graph)
        fs = rec.op("feasible_set", label, cp.feasible_set, tree, box)
        r = rec.op("min_deletions", label, cp.min_deletions, tree, 0, 2)
        cert = rec.op("extract_certificate", label,
                      lambda t, r: cp.extract_certificate(t, (0, 2, r)), tree, r)
        valid = rec.op("check_partition", label,
                       lambda g, c, r: cp.check_partition(g, c, (0, 2, r)), graph, cert, r)
        with rec.paused():
            want = self._want_rows(item)
            n = item["n"]
            best = ref.alpha(item["tree"], 2)
            if graph is not FAILED:
                rec.judge(f"decode [{label}]", ref.rows_error(
                    [graph.row(v) for v in range(graph.n)], want))
            if tree is not FAILED:
                rec.judge(f"recognize [{label}]",
                          ref.is_normalized(tree) or ref.rows_error(ref.rows_of(tree), want))
            if fs is not FAILED:
                rec.judge(f"feasible_set [{label}]", _frontier_errors(fs, box, n, best))
                if n <= 600:
                    _certify_frontier(rec, label, tree, fs, want)
            if r is not FAILED:
                rec.judge(f"min_deletions(0,2) [{label}]",
                          ref.equal_error("r", r, n - best[2]))
            if cert is not FAILED:
                rec.judge(f"certificate [{label}]",
                          ref.certificate_error(want, cert.labels, (0, 2, r)))
            if valid is not FAILED:
                rec.judge(f"check_partition [{label}]", ref.equal_error("valid", valid, True))
        return {"fs": fs, "r": r, "rows": want}

    def _cli(self, cli_inputs, results, rec) -> list:
        """Eleven CLI processes on the smallest input of each kind."""
        dense, sparse, bad6, bad_edges = cli_inputs
        cert_file = self.work / "certificate.json"
        with rec.paused():
            self.work.mkdir(parents=True, exist_ok=True)
            for item in (sparse, bad_edges):
                (self.work / f"{item['label'].replace(':', '-')}.txt").write_text(item["text"])
            omega, _ = ref.omega_tau(dense["tree"])
            sparse_omega, _ = ref.omega_tau(sparse["tree"])

        def source(item):
            if item["fmt"] == "graph6":
                return ["--graph6", item["text"]]
            return ["--edges", str(self.work / f"{item['label'].replace(':', '-')}.txt")]

        def same_class(item):
            def judge(lines):
                intern: dict = {}
                return ref.equal_error("class", ref.canon(cp.parse_expr(lines[0]["dsl"]), intern),
                                       ref.canon(item["tree"], intern))
            return judge

        def has_p4(item):
            def judge(lines):
                return ref.p4_error(results[item["label"]]["rows"], lines[0]["p4"]) \
                    if "p4" in lines[0] else "no P4 in the payload"
            return judge

        def certificate(lines):
            cert_file.write_text(json.dumps(lines[0]))
            labels = [x["class"] for x in sorted(lines[0]["labels"], key=lambda x: x["v"])]
            return ref.certificate_error(res["rows"], labels, (0, 2, r))

        res = results[dense["label"]]
        r = res["r"]
        d, s = source(dense), source(sparse)
        dl, sl = f"cli:{dense['label']}", f"cli:{sparse['label']}"
        outputs: dict = {}
        return _cli_steps(rec, [
            (dl, ["recognize", *d], 0, (), same_class(dense)),
            (dl, ["frontier", *d, "--box", "2,2,2"], 0, (res["fs"],),
             lambda o: ref.equal_error("frontier", o[0]["frontier"],
                                       [list(t) for t in res["fs"].frontier])),
            (dl, ["solve", *d, "--triple", "0,1,0"], 1, (),
             lambda o: ref.equal_error("feasible", o[0]["feasible"], False)),
            (dl, ["certificate", *d, "--triple", f"0,2,{r}"], 0, (r,), certificate),
            (dl, ["check", *d, "--triple", f"0,2,{r}", "--certificate", str(cert_file)], 0,
             (r, lambda: outputs.get("certificate")),
             lambda o: ref.equal_error("valid", o[0]["valid"], True)),
            (dl, ["chromatic", *d], 0, (), lambda o: ref.equal_error("chi", o[0]["chi"], omega)),
            (sl, ["recognize", *s], 0, (), same_class(sparse)),
            (sl, ["arboricity", *s], 0, (),
             lambda o: ref.between_error("rho", o[0]["rho"], -(-sparse_omega // 2), sparse_omega)),
            (f"cli:{bad6['label']}", ["recognize", *source(bad6)], 1, (), has_p4(bad6)),
            (f"cli:{bad6['label']}", ["solve", *source(bad6), "--triple", "1,1,1"], 2, (),
             has_p4(bad6)),
            (f"cli:{bad_edges['label']}", ["recognize", *source(bad_edges)], 1, (),
             has_p4(bad_edges)),
        ], outputs)

    def probes(self, rec) -> None:
        out = rec.cli("I(1200)", ["certificate", "--dsl", "I(1200)", "--triple", "0,1,0"], 0)
        if out is not FAILED:
            labels = [x["class"] for x in sorted(out[0]["labels"], key=lambda x: x["v"])]
            rec.judge("cli certificate I(1200)",
                      ref.certificate_error([0] * 1200, labels, (0, 1, 0)))

    def census(self, inputs) -> list[dict]:
        return [{"input": i["label"], "bytes": len(i["text"]), **ref.census(i["tree"])}
                for i in inputs]


# -- cotree-dp -----------------------------------------------------------------


def _caterpillar(depth: int):
    """Alternating threshold cotree: each level adds one leaf by join or union."""
    node = cp.Leaf(0)
    for level in range(depth):
        node = (cp.Join if level % 2 == 0 else cp.Union)((node, cp.Leaf(0)))
    return node


class CotreeDP(_Workload):
    """DSL text in, many queries per tree, no graph decoding."""

    name = "cotree-dp"
    RANDOM = (1000, 1000, 1250, 1250, 1500, 1500, 2000, 2500, 3000)
    BALANCED = (5000, 8000)
    UNIONS = ((300, 3, 12), (400, 3, 12))     # pieces, smallest, largest
    CATERPILLARS = (100, 200, 300)             # depth
    # vertex_arboricity runs only on these fixed trees: its cost swings
    # twentyfold between seeds at 1k leaves
    ARBORICITY = ((1000, 1002), (1000, 1003), (500, 1005), (500, 1007))
    BOX = (3, 3, 3)

    def make_inputs(self, k: int) -> list[dict]:
        rng = _rng(self.seed, self.name, k)
        random_trees = [(f"random{j}:{n}", cp.random_cotree(n, rng), False)
                        for j, n in enumerate(self.RANDOM)]
        balanced = [(f"balanced:{n}", cp.random_balanced_cotree(n, rng), False)
                    for n in self.BALANCED]
        unions = [(f"union:{pieces}", cp.relabel(cp.union_of(
                      [_connected_cotree(rng.randint(lo, hi), rng) for _ in range(pieces)])),
                   False) for pieces, lo, hi in self.UNIONS]
        caterpillars = [(f"caterpillar:{depth}", cp.relabel(_caterpillar(depth)), False)
                        for depth in self.CATERPILLARS]
        fixed = [(f"fixed:{n}:{seed}", cp.random_cotree(n, seed), True)
                 for n, seed in self.ARBORICITY]
        # interleave the kinds so every stretch of the pass holds a mix
        kinds = (random_trees, fixed, caterpillars, unions, balanced)
        trees = [kind[i] for i in range(len(random_trees)) for kind in kinds if i < len(kind)]
        return [{"label": label, "text": cp.to_expr(tree), "tree": tree, "arboricity": arb}
                for label, tree, arb in trees]

    CLI_TREES = ("fixed:500:1005", "fixed:500:1007", "caterpillar:100")

    def run_pass(self, inputs, rec) -> None:
        cli_inputs = [next(i for i in inputs if i["label"] == x) for x in self.CLI_TREES]
        steps = []
        for item in cli_inputs:
            steps += self._cli(item, self._chain(item, rec), rec)
        _interleave([i for i in inputs if i not in cli_inputs],
                    lambda item: self._chain(item, rec), steps)

    def _chain(self, item, rec):
        label = item["label"]
        box = self.BOX
        tree = rec.op("parse_expr", label, cp.parse_expr, item["text"])
        fs = rec.op("feasible_set", label, cp.feasible_set, tree, box)
        again = rec.op("feasible_set_repeat", label, cp.feasible_set, tree, box)
        prof = rec.op("strength_profile", label, cp.strength_profile, tree)
        chi = rec.op("chromatic_number", label, cp.chromatic_number, tree)
        r = rec.op("min_deletions", label, cp.min_deletions, tree, 1, 1)
        cert = rec.op("extract_certificate", label,
                      lambda t, r: cp.extract_certificate(t, (1, 1, r)), tree, r)
        valid = rec.op("check_partition", label,
                       lambda t, c, r: cp.check_partition(t, c, (1, 1, r)), tree, cert, r)
        q = rec.op("min_q_feedback", label, cp.min_q_feedback, tree)
        rho = rec.op("vertex_arboricity", label, cp.vertex_arboricity, tree) \
            if item["arboricity"] else None
        with rec.paused():
            src = item["tree"]
            n = ref.leaf_count(src)
            best = ref.alpha(src, 3)
            omega, tau = ref.omega_tau(src)
            rows = None
            if tree is not FAILED:
                intern: dict = {}
                rec.judge(f"parse_expr [{label}]", ref.is_normalized(tree) or ref.equal_error(
                    "class", ref.canon(tree, intern), ref.canon(src, intern)))
                rows = ref.rows_of(tree)
            if fs is not FAILED:
                rec.judge(f"feasible_set [{label}]", _frontier_errors(fs, box, n, best))
                if n <= 600:
                    _certify_frontier(rec, label, tree, fs, rows)
            if again is not FAILED and fs is not FAILED:
                rec.judge(f"feasible_set repeat [{label}]",
                          ref.equal_error("frontier", again.frontier, fs.frontier))
            if prof is not FAILED:
                rec.judge(f"strength_profile [{label}]", ref.equal_error(
                    "profile", tuple(prof), (omega, tau, max(omega, tau + 1))))
            if chi is not FAILED:
                rec.judge(f"chromatic_number [{label}]", ref.equal_error("chi", chi, omega))
            if r is not FAILED:
                # (0,2,0) graphs are (1,1,0) graphs, and (1,1,0) graphs are 3-colourable
                rec.judge(f"min_deletions(1,1) [{label}]",
                          ref.between_error("r", r, n - best[3], n - best[2]))
            if cert is not FAILED:
                rec.judge(f"certificate [{label}]",
                          ref.certificate_error(rows, cert.labels, (1, 1, r)))
            if valid is not FAILED:
                rec.judge(f"check_partition [{label}]", ref.equal_error("valid", valid, True))
            if q is not FAILED:
                rec.judge(f"min_q_feedback [{label}]", ref.equal_error(
                    "q", q, max(0, max(omega, tau + 1) - 2)))
            if rho not in (None, FAILED):
                rec.judge(f"vertex_arboricity [{label}]",
                          ref.between_error("rho", rho, -(-omega // 2), omega))
                arb_cert = cp.extract_certificate(tree, (rho, 0, 0))
                rec.judge(f"arboricity certificate [{label}]",
                          ref.certificate_error(rows, arb_cert.labels, (rho, 0, 0)))
        return {"fs": fs, "prof": prof, "r": r, "q": q, "rho": rho, "rows": rows}

    @staticmethod
    def _cli(item, res, rec) -> list:
        """Seven CLI processes on a tree that ran vertex_arboricity, six on another."""
        label = f"cli:{item['label']}"
        dsl = ["--dsl", item["text"]]
        r = res["r"]
        with rec.paused():
            omega, _ = ref.omega_tau(item["tree"])
        commands = [
            (label, ["frontier", *dsl, "--box", "3,3,3"], 0, (res["fs"],),
             lambda o: ref.equal_error("frontier", o[0]["frontier"],
                                       [list(t) for t in res["fs"].frontier])),
            (label, ["strength", *dsl], 0, (res["prof"],),
             lambda o: ref.equal_error("strength", o[0]["strength"], res["prof"].strength)),
            (label, ["chromatic", *dsl], 0, (),
             lambda o: ref.equal_error("chi", o[0]["chi"], omega)),
            (label, ["mindel", *dsl, "--p", "1", "--q", "1"], 0, (r,),
             lambda o: ref.equal_error("r", o[0]["r"], r)),
            (label, ["ifvs-q", *dsl], 0, (res["q"],),
             lambda o: ref.equal_error("q", o[0]["q"], res["q"])),
            (label, ["certificate", *dsl, "--triple", f"1,1,{r}"], 0, (r,),
             lambda o: ref.certificate_error(
                 res["rows"], [x["class"] for x in sorted(o[0]["labels"], key=lambda x: x["v"])],
                 (1, 1, r))),
        ]
        if res["rho"] is not None:
            commands.append((label, ["arboricity", *dsl], 0, (res["rho"],),
                             lambda o: ref.equal_error("rho", o[0]["rho"], res["rho"])))
        return _cli_steps(rec, commands, {})

    def probes(self, rec) -> None:
        """Trees beyond the recursion limit, built without the library's
        recursive helpers: a deep caterpillar and a very wide union."""
        deep = cp.Leaf(0)
        for level in range(1200):
            deep = (cp.Join if level % 2 == 0 else cp.Union)((deep, cp.Leaf(level + 1)))
        pieces = []
        for i in range(1500):
            pieces.append(cp.Join((cp.Leaf(2 * i), cp.Leaf(2 * i + 1))))
        wide = cp.Union(tuple(pieces))
        for label, tree in (("caterpillar:1200", deep), ("union:1500", wide)):
            omega, _ = ref.omega_tau(tree)
            triple = (0, omega, 0)
            cert = rec.op("extract_certificate", label, cp.extract_certificate, tree, triple)
            valid = rec.op("check_partition", label, cp.check_partition, tree, cert, triple)
            rows = ref.rows_of(tree)
            if cert is not FAILED:
                rec.judge(f"probe certificate [{label}]",
                          ref.certificate_error(rows, cert.labels, triple))
            if valid is not FAILED:
                rec.judge(f"probe check_partition [{label}]",
                          ref.equal_error("valid", valid, True))

    def census(self, inputs) -> list[dict]:
        return [{"input": i["label"], "bytes": len(i["text"]), **ref.census(i["tree"])}
                for i in inputs]


# -- obstruction-search --------------------------------------------------------


class ObstructionSearch(_Workload):
    """Every cograph on 10 vertices, and exhaustive minimal-obstruction searches."""

    name = "obstruction-search"
    SEARCHES = ((11, (2, 0, 0), 1), (10, (1, 1, 0), 1), (10, (1, 2, 0), 2))

    def make_inputs(self, k: int) -> dict:
        rng = _rng(self.seed, self.name, k)
        trees = list(cp.enumerate_cographs(10))
        graphs = [cp.realize(t) for t in trees]
        family = [cp.realize(t) for t in cp.family_A2()]
        order = list(range(len(trees)))
        rng.shuffle(order)
        return {"trees": trees, "graphs": graphs, "family": family, "order": order}

    def run_pass(self, inputs, rec) -> None:
        trees, graphs, family = inputs["trees"], inputs["graphs"], inputs["family"]
        order = inputs["order"]
        # each search follows a third of the 10-vertex checks
        items = []
        for k, search in enumerate(self.SEARCHES):
            items += order[k::3]
            items.append(search)
        rho = {}
        free = {}

        def run_item(item):
            if isinstance(item, int):
                label = f"cograph10:{item}"
                rho[item] = rec.op("vertex_arboricity", label, cp.vertex_arboricity, trees[item])
                free[item] = rec.op("is_family_free", label, cp.is_family_free,
                                    graphs[item], family)
                return
            n_max, goal, jobs = item
            label = f"search:{n_max}:{goal}:jobs{jobs}"
            found = rec.op("search_minimal_obstructions", label,
                           cp.search_minimal_obstructions, n_max, goal, jobs)
            with rec.paused():
                if found is not FAILED:
                    rec.judge(f"search [{label}]", self._catalog_error(
                        [(rep.is_minimal, rep.dsl) for rep in found], goal))

        _interleave(items, run_item, self._cli(rec))
        with rec.paused():
            for i in order:
                if rho[i] is FAILED or free[i] is FAILED:
                    continue
                g = graphs[i]
                exact = cp.brute_force_partitionable(g, (rho[i], 0, 0)) and (
                    rho[i] == 0 or not cp.brute_force_partitionable(g, (rho[i] - 1, 0, 0)))
                rec.judge(f"vertex_arboricity [cograph10:{i}]",
                          None if exact else f"brute force disagrees with rho = {rho[i]}")
                rec.judge(f"is_family_free [cograph10:{i}]",
                          ref.equal_error("free", free[i], rho[i] <= 2))

    @staticmethod
    def _catalog_error(found, goal) -> str | None:
        """found: (minimal, dsl) per reported obstruction."""
        intern: dict = {}
        if not all(minimal for minimal, _ in found):
            return "a report is not minimal"
        expected = cp.family_A2() if goal == (2, 0, 0) else ref.one_forest_catalog(goal[1])
        return ref.catalog_error([ref.canon(cp.parse_expr(dsl), intern) for _, dsl in found],
                                 [ref.canon(t, intern) for t in expected])

    def _cli(self, rec) -> list:
        """Twenty CLI processes: searches, minimality checks, counts, catalogs."""
        label = "cli:obstructions"
        intern: dict = {}

        def catalog(goal):
            return lambda lines: self._catalog_error([(x["minimal"], x["dsl"]) for x in lines], goal)

        def minimal(o):
            return ref.equal_error("minimal", o[0]["minimal"], True)

        checks = [
            (["obstructions", "search", "--n", "7", "--goal", "(1,1,0)"], 0, catalog((1, 1, 0))),
            (["obstructions", "search", "--n", "8", "--goal", "(1,2,0)"], 0, catalog((1, 2, 0))),
            *((["obstructions", "check", "--dsl", dsl, "--goal", "(2,0,0)"], 0, minimal)
              for dsl in cp.FAMILY_A2_DSL),
            (["obstructions", "check", "--dsl", "K(4)", "--goal", "(2,0,0)"], 1,
             lambda o: ref.equal_error("obstruction", o[0]["obstruction"], False)),
            (["obstructions", "check", "--dsl", "K(4)", "--goal", "(1,1,0)"], 0, minimal),
            (["obstructions", "check", "--dsl", "K(5)", "--goal", "(1,2,0)"], 0, minimal),
            (["obstructions", "check", "--dsl", "C(U(4*K(2)))", "--goal", "(1,2,0)"], 0, minimal),
            *((["enumerate", "--n", str(n), "--count-only"], 0,
               lambda o, count=count: ref.equal_error("count", o[0]["count"], count))
              for n, count in ((6, 66), (7, 180), (8, 522))),
            *((["arboricity", "--dsl", dsl], 0, lambda o: ref.equal_error("rho", o[0]["rho"], 3))
              for dsl in ("K(5)", "C(U(3*K(3)))", "J(U(2*K(3)),I(2))")),
            (["obstructions", "families", "--p", "2"], 0,
             lambda o: ref.catalog_error(
                 [ref.canon(cp.parse_expr(x["dsl"]), intern) for x in o],
                 [ref.canon(t, intern) for t in cp.family_A2()])),
        ]
        return _cli_steps(rec, [(label, argv, status, (), judge)
                                for argv, status, judge in checks], {})

    def census(self, inputs) -> list[dict]:
        rows = [ref.census(t) for t in inputs["trees"]]
        internal = sum(r["internal"] for r in rows)
        intern: dict = {}
        for t in inputs["trees"]:
            ref.canon(t, intern)
        distinct = len(intern) - 1
        return [{
            "input": f"cographs10 x{len(rows)}", "bytes": sum(len(cp.to_expr(t)) for t in inputs["trees"]),
            "leaves": sum(r["leaves"] for r in rows), "internal": internal,
            "height": max(r["height"] for r in rows), "max_arity": max(r["max_arity"] for r in rows),
            "edges": sum(r["edges"] for r in rows), "distinct_internal": distinct,
            "repeated_share": 1 - distinct / internal,
        }]


WORKLOADS = {w.name: w for w in (GraphPipeline, CotreeDP, ObstructionSearch)}
