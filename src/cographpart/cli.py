"""Command-line interface.

Every subcommand prints one JSON payload to stdout (or JSON lines for
streaming commands), switchable to aligned text with --human. Exit codes:
0 for success or a positive verdict, 1 for a negative verdict, 2 for input
errors, including non-cograph inputs where a cotree is required (the
payload then carries a path witness on four vertices) and inputs too large
to process.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from .cotree import (
    NotACographError, count_cographs, enumerate_cographs,
    parse_expr, realize, recognize, to_expr,
)
from .graph import Graph
from .obstructions import (
    count_Oi_report, family_Ap, is_minimal_obstruction, iter_family_Oi,
    search_minimal_obstructions,
)
from .oracle import OracleBudget, OracleBudgetExceeded, brute_force_partitionable
from .solver import (
    PartitionCertificate, Triple, check_partition, chromatic_number,
    extract_certificate, feasible_set, is_partitionable, min_deletions,
    min_q_feedback, vertex_arboricity,
)
from .strength import strength_profile


class InputError(Exception):
    def __init__(self, payload: dict):
        super().__init__(payload.get("error", "input error"))
        self.payload = payload


def _fail(message: str, **extra) -> InputError:
    return InputError({"error": message, **extra})


_TRIPLE_RE = re.compile(r"\(?\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)?")


def _parse_triple(text: str) -> Triple:
    m = _TRIPLE_RE.fullmatch(text.strip())
    if not m:
        raise _fail(f"expected p,q,r with nonnegative integers, got {text!r}")
    return Triple(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def _parse_goal(text: str) -> tuple[Triple, ...]:
    found = [Triple(int(a), int(b), int(c)) for a, b, c in _TRIPLE_RE.findall(text)]
    if not found:
        raise _fail(f"no triples found in goal {text!r}")
    return tuple(sorted(set(found)))


def _load_graph(args) -> Graph:
    if getattr(args, "dsl", None) is not None:
        try:
            return realize(parse_expr(args.dsl))
        except ValueError as exc:
            raise _fail(str(exc))
    if args.graph6 is not None:
        try:
            return Graph.from_graph6(args.graph6)
        except ValueError as exc:
            raise _fail(str(exc))
    try:
        with open(args.edges, "r", encoding="ascii") as fh:
            return Graph.from_edge_list_text(fh.read())
    except OSError as exc:
        raise _fail(f"cannot read {args.edges}: {exc.strerror}")
    except ValueError as exc:
        raise _fail(str(exc))


def _load_tree(args):
    """Cotree from --dsl directly, else by recognizing the input graph."""
    if args.dsl is not None:
        try:
            return parse_expr(args.dsl)
        except ValueError as exc:
            raise _fail(str(exc))
    graph = _load_graph(args)
    try:
        return recognize(graph)
    except NotACographError as exc:
        raise _fail("input graph is not a cograph", p4=list(exc.witness))


def _emit(args, payload: dict) -> None:
    if getattr(args, "human", False):
        for line in _human_lines(payload):
            print(line)
    else:
        print(json.dumps(payload))


def _human_lines(payload: dict) -> list[str]:
    lines = []
    for key, value in payload.items():
        if isinstance(value, list) and value and all(isinstance(x, list) for x in value):
            lines.append(f"{key}:")
            lines.extend("  " + " ".join(str(c) for c in row) for row in value)
        elif isinstance(value, list) and value and all(isinstance(x, dict) for x in value):
            lines.append(f"{key}:")
            lines.extend("  " + json.dumps(row) for row in value)
        else:
            lines.append(f"{key}: {value if isinstance(value, str) else json.dumps(value)}")
    return lines


# -- subcommand handlers -----------------------------------------------


def _cmd_recognize(args) -> int:
    graph = _load_graph(args)
    try:
        tree = recognize(graph)
    except NotACographError as exc:
        _emit(args, {"cograph": False, "p4": list(exc.witness)})
        return 1
    _emit(args, {"cograph": True, "n": graph.n,
                 "dsl": "" if tree is None else to_expr(tree)})
    return 0


def _cmd_realize(args) -> int:
    try:
        tree = parse_expr(args.dsl)
    except ValueError as exc:
        raise _fail(str(exc))
    graph = realize(tree)
    _emit(args, {"n": graph.n, "graph6": graph.to_graph6(),
                 "edges": [list(e) for e in graph.edges()]})
    return 0


def _cmd_solve(args) -> int:
    tree = _load_tree(args)
    triple = _parse_triple(args.triple)
    feasible = is_partitionable(tree, triple)
    _emit(args, {"feasible": feasible, "triple": list(triple)})
    return 0 if feasible else 1


def _cmd_frontier(args) -> int:
    tree = _load_tree(args)
    box = _parse_triple(args.box)
    fs = feasible_set(tree, box)
    _emit(args, fs.to_json())
    return 0


def _cmd_arboricity(args) -> int:
    tree = _load_tree(args)
    _emit(args, {"rho": vertex_arboricity(tree)})
    return 0


def _cmd_chromatic(args) -> int:
    tree = _load_tree(args)
    _emit(args, {"chi": chromatic_number(tree)})
    return 0


def _cmd_mindel(args) -> int:
    tree = _load_tree(args)
    r = min_deletions(tree, args.p, args.q)
    _emit(args, {"p": args.p, "q": args.q, "r": r})
    return 0


def _cmd_ifvs_q(args) -> int:
    tree = _load_tree(args)
    _emit(args, {"q": min_q_feedback(tree)})
    return 0


def _cmd_strength(args) -> int:
    tree = _load_tree(args)
    profile = strength_profile(tree)
    _emit(args, {"omega": profile.omega, "tau": profile.tau,
                 "strength": profile.strength})
    return 0


def _cmd_certificate(args) -> int:
    tree = _load_tree(args)
    triple = _parse_triple(args.triple)
    try:
        cert = extract_certificate(tree, triple)
    except ValueError:
        _emit(args, {"feasible": False, "triple": list(triple)})
        return 1
    _emit(args, {"triple": list(triple), **cert.to_json()})
    return 0


def _cmd_check(args) -> int:
    graph = _load_graph(args)
    triple = _parse_triple(args.triple)
    try:
        with open(args.certificate, "r", encoding="ascii") as fh:
            data = json.load(fh)
        cert = PartitionCertificate.from_json(data, triple)
        valid = check_partition(graph, cert, triple)
    except OSError as exc:
        raise _fail(f"cannot read {args.certificate}: {exc.strerror}")
    except (ValueError, KeyError, TypeError) as exc:
        raise _fail(f"malformed certificate: {exc}")
    _emit(args, {"valid": valid})
    return 0 if valid else 1


def _cmd_enumerate(args) -> int:
    if args.n < 1:
        raise _fail("--n must be at least 1")
    if args.count_only:
        _emit(args, {"n": args.n, "count": count_cographs(args.n)})
        return 0
    for tree in enumerate_cographs(args.n):
        if args.format == "graph6":
            _emit(args, {"graph6": realize(tree).to_graph6()})
        else:
            _emit(args, {"dsl": to_expr(tree)})
    return 0


def _cmd_oracle(args) -> int:
    graph = _load_graph(args)
    triple = _parse_triple(args.triple)
    budget = OracleBudget(max_vertices=args.max_vertices,
                          max_assignments=args.max_assignments)
    try:
        feasible = brute_force_partitionable(graph, triple, budget)
    except OracleBudgetExceeded as exc:
        raise _fail(str(exc))
    _emit(args, {"feasible": feasible, "triple": list(triple)})
    return 0 if feasible else 1


def _cmd_obstructions_families(args) -> int:
    if args.oi is not None:
        trees = list(iter_family_Oi(args.p, args.oi))
    else:
        trees = family_Ap(args.p)
    for tree in trees:
        if args.format == "graph6":
            _emit(args, {"graph6": realize(tree).to_graph6()})
        else:
            _emit(args, {"dsl": to_expr(tree)})
    return 0


def _cmd_obstructions_check(args) -> int:
    tree = _load_tree(args)
    goal = _parse_goal(args.goal)
    if tree is None:
        raise _fail("cannot check the empty graph")
    report = is_minimal_obstruction(tree, goal)
    _emit(args, report.to_json())
    return 0 if report.is_minimal else 1


def _cmd_obstructions_search(args) -> int:
    if args.n < 1:
        raise _fail("--n must be at least 1")
    goal = _parse_goal(args.goal)
    reports = search_minimal_obstructions(args.n, goal, jobs=args.jobs)
    for report in reports:
        _emit(args, report.to_json())
    return 0


def _cmd_obstructions_count(args) -> int:
    if args.p < 2 or not 0 <= args.i <= args.p:
        raise _fail("requires p >= 2 and 0 <= i <= p")
    rep = count_Oi_report(args.p, args.i)
    _emit(args, {"p": rep.p, "i": rep.i, "distinct": rep.distinct,
                 "multiset_count": rep.multiset_count,
                 "formula": str(rep.formula_value),
                 "formula_matches": rep.formula_matches})
    return 0


# -- parser wiring -----------------------------------------------------


def _add_graph_input(sub, *, dsl=True, graph=True) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    if dsl:
        group.add_argument("--dsl", help="cotree expression, e.g. J(U(2*K(3)),I(2))")
    if graph:
        group.add_argument("--graph6", help="graph6 string")
        group.add_argument("--edges", help="edge list file: first line n, then one 'u v' per line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cographpart",
        description="Decide, certify, and search (p,q,r)-partitions of cographs.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--human", action="store_true",
                        help="aligned text instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("recognize", parents=[common], help="build a cotree or report a P4")
    _add_graph_input(s, dsl=False)
    s.set_defaults(func=_cmd_recognize)

    s = sub.add_parser("realize", parents=[common], help="expand a cotree expression to a graph")
    s.add_argument("--dsl", required=True)
    s.set_defaults(func=_cmd_realize)

    s = sub.add_parser("solve", parents=[common], help="decide a single (p,q,r) triple")
    _add_graph_input(s)
    s.add_argument("--triple", required=True, metavar="p,q,r")
    s.set_defaults(func=_cmd_solve)

    s = sub.add_parser("frontier", parents=[common], help="minimal feasible triples within a box")
    _add_graph_input(s)
    s.add_argument("--box", required=True, metavar="P,Q,R")
    s.set_defaults(func=_cmd_frontier)

    for name, handler, description in (
            ("arboricity", _cmd_arboricity, "fewest forest classes covering the graph"),
            ("chromatic", _cmd_chromatic, "fewest independent classes covering the graph"),
            ("ifvs-q", _cmd_ifvs_q, "fewest independent classes next to one forest class"),
            ("strength", _cmd_strength, "clique number, cocktail pairs, and strength")):
        s = sub.add_parser(name, parents=[common], help=description)
        _add_graph_input(s)
        s.set_defaults(func=handler)

    s = sub.add_parser("mindel", parents=[common], help="fewest deletions for fixed class budgets")
    _add_graph_input(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.set_defaults(func=_cmd_mindel)

    s = sub.add_parser("certificate", parents=[common], help="concrete partition for a triple")
    _add_graph_input(s)
    s.add_argument("--triple", required=True, metavar="p,q,r")
    s.set_defaults(func=_cmd_certificate)

    s = sub.add_parser("check", parents=[common], help="validate a certificate file")
    _add_graph_input(s)
    s.add_argument("--triple", required=True, metavar="p,q,r")
    s.add_argument("--certificate", required=True, metavar="FILE")
    s.set_defaults(func=_cmd_check)

    s = sub.add_parser("enumerate", parents=[common], help="all cographs of one order, up to isomorphism")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--count-only", action="store_true")
    s.add_argument("--format", choices=("dsl", "graph6"), default="dsl")
    s.set_defaults(func=_cmd_enumerate)

    s = sub.add_parser("oracle", parents=[common], help="budgeted brute-force verdict on any graph")
    _add_graph_input(s)
    s.add_argument("--triple", required=True, metavar="p,q,r")
    s.add_argument("--max-vertices", type=int, default=OracleBudget.max_vertices)
    s.add_argument("--max-assignments", type=int, default=OracleBudget.max_assignments)
    s.set_defaults(func=_cmd_oracle)

    s = sub.add_parser("obstructions", help="catalogs, minimality reports, search")
    osub = s.add_subparsers(dest="obstructions_command", required=True)

    o = osub.add_parser("families", parents=[common], help="emit a known obstruction catalog")
    o.add_argument("--p", type=int, default=2)
    o.add_argument("--oi", type=int, default=None, metavar="I",
                   help="emit the star-forest join family for this i instead")
    o.add_argument("--format", choices=("dsl", "graph6"), default="dsl")
    o.set_defaults(func=_cmd_obstructions_families)

    o = osub.add_parser("check", parents=[common], help="minimality report for one graph")
    _add_graph_input(o)
    o.add_argument("--goal", required=True, metavar="(p,q,r),...")
    o.set_defaults(func=_cmd_obstructions_check)

    o = osub.add_parser("search", parents=[common], help="all minimal obstructions up to a size")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--goal", required=True, metavar="(p,q,r),...")
    o.add_argument("--jobs", type=int, default=1)
    o.set_defaults(func=_cmd_obstructions_search)

    o = osub.add_parser("count", parents=[common], help="star-forest join family census for p, i")
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--i", type=int, required=True)
    o.set_defaults(func=_cmd_obstructions_count)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(json.dumps(exc.payload))
        return 2
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except (RecursionError, MemoryError) as exc:
        # exit 1 means a negative verdict, so a crash must not end with it
        print(json.dumps({"error": f"input too large to process ({type(exc).__name__})"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
