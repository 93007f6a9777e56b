"""Command-line interface.

Every subcommand prints one JSON payload to stdout (or JSON lines for
streaming commands), switchable to aligned text with --human. Exit codes:
0 for success or a positive verdict, 1 for a negative verdict, 2 for every
failure: input errors, including non-cograph inputs where a cotree is
required (the payload then carries a path witness on four vertices), inputs
too large to process, and internal errors. A failure prints one JSON line
with an "error" key; `main` alone maps exceptions to it. Usage errors exit
2 from argparse, with the message on stderr.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial

from .cotree import (
    NotACographError, count_cographs, enumerate_cographs,
    parse_expr, realize, recognize, to_expr,
)
from .graph import Graph, _strip_header
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


# ASCII digits only: int() would also read other scripts' digits
_GOAL_ITEM = r"\(\s*[0-9]+\s*,\s*[0-9]+\s*,\s*[0-9]+\s*\)|[0-9]+\s*,\s*[0-9]+\s*,\s*[0-9]+"
_GOAL_RE = re.compile(rf"(?:{_GOAL_ITEM})(?:(?:\s*,\s*|\s+)(?:{_GOAL_ITEM}))*")


def _ascii_int(text: str) -> int:
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _parse_triple(text: str) -> Triple:
    if not re.fullmatch(_GOAL_ITEM, text.strip()):
        raise ValueError(f"expected p,q,r with nonnegative integers, got {text!r}")
    return Triple(*map(int, re.findall("[0-9]+", text)))


def _parse_goal(text: str) -> tuple[Triple, ...]:
    """Triples written p,q,r or (p,q,r), separated by commas or whitespace."""
    if not _GOAL_RE.fullmatch(text.strip()):
        raise ValueError(f"expected triples (p,q,r) separated by commas or spaces, got {text!r}")
    nums = [int(x) for x in re.findall("[0-9]+", text)]
    return tuple(sorted({Triple(*nums[i : i + 3]) for i in range(0, len(nums), 3)}))


def _load_graph(args) -> Graph:
    if getattr(args, "dsl", None) is not None:
        return realize(parse_expr(args.dsl))
    if args.graph6 is not None:
        if _strip_header(args.graph6, ">>graph6<<").startswith(":"):
            raise ValueError("--graph6 takes graph6, not sparse6: pass an edge list file as --edges")
        return Graph.from_graph6(args.graph6)
    try:
        with open(args.edges, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.edges}: {exc.strerror}") from exc
    return Graph.from_edge_list_text(text)


def _load_tree(args):
    """Cotree from --dsl directly, else by recognizing the input graph."""
    if args.dsl is not None:
        return parse_expr(args.dsl)
    return recognize(_load_graph(args))


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
    graph = realize(parse_expr(args.dsl))
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


def _cmd_query(query, args) -> int:
    _emit(args, query(_load_tree(args)))
    return 0


def _cmd_mindel(args) -> int:
    tree = _load_tree(args)
    r = min_deletions(tree, args.p, args.q)
    _emit(args, {"p": args.p, "q": args.q, "r": r})
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
        raise ValueError(f"cannot read {args.certificate}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError("malformed certificate: the file is not ASCII text") from exc
    except json.JSONDecodeError as exc:
        raise ValueError("malformed certificate: the file is not JSON") from exc
    except ValueError as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
    _emit(args, {"valid": valid})
    return 0 if valid else 1


def _cmd_enumerate(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    if args.count_only:
        _emit(args, {"n": args.n, "count": count_cographs(args.n)})
        return 0
    return _emit_trees(args, enumerate_cographs(args.n))


def _emit_trees(args, trees) -> int:
    """One line per tree, in graph6 or in the DSL as --format asks."""
    for tree in trees:
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
    feasible = brute_force_partitionable(graph, triple, budget)
    _emit(args, {"feasible": feasible, "triple": list(triple)})
    return 0 if feasible else 1


def _cmd_obstructions_families(args) -> int:
    if args.oi is not None:
        return _emit_trees(args, list(iter_family_Oi(args.p, args.oi)))
    return _emit_trees(args, family_Ap(args.p))


def _cmd_obstructions_check(args) -> int:
    tree = _load_tree(args)
    goal = _parse_goal(args.goal)
    if tree is None:
        raise ValueError("cannot check the empty graph")
    report = is_minimal_obstruction(tree, goal)
    _emit(args, report.to_json())
    return 0 if report.is_minimal else 1


def _cmd_obstructions_search(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    goal = _parse_goal(args.goal)
    for report in search_minimal_obstructions(args.n, goal):
        _emit(args, report.to_json())
    return 0


def _cmd_obstructions_count(args) -> int:
    rep = count_Oi_report(args.p, args.i)
    _emit(args, {"p": rep.p, "i": rep.i, "distinct": rep.distinct,
                 "multiset_count": rep.multiset_count,
                 "formula": str(rep.formula_value),
                 "formula_matches": rep.formula_matches})
    return 0


# -- parser wiring -----------------------------------------------------


def _add_graph_input(sub, *, dsl=True) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    if dsl:
        group.add_argument("--dsl", help="cotree expression, e.g. J(U(2*K(3)),I(2))")
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

    for name, query, description in (
            ("arboricity", lambda t: {"rho": vertex_arboricity(t)},
             "fewest forest classes covering the graph"),
            ("chromatic", lambda t: {"chi": chromatic_number(t)},
             "fewest independent classes covering the graph"),
            ("ifvs-q", lambda t: {"q": min_q_feedback(t)},
             "fewest independent classes next to one forest class"),
            ("strength", lambda t: strength_profile(t)._asdict(),
             "clique number, cocktail pairs, and strength")):
        s = sub.add_parser(name, parents=[common], help=description)
        _add_graph_input(s)
        s.set_defaults(func=partial(_cmd_query, query))

    s = sub.add_parser("mindel", parents=[common], help="fewest deletions for fixed class budgets")
    _add_graph_input(s)
    s.add_argument("--p", type=_ascii_int, required=True)
    s.add_argument("--q", type=_ascii_int, required=True)
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
    s.add_argument("--n", type=_ascii_int, required=True)
    s.add_argument("--count-only", action="store_true")
    s.add_argument("--format", choices=("dsl", "graph6"), default="dsl")
    s.set_defaults(func=_cmd_enumerate)

    s = sub.add_parser("oracle", parents=[common], help="budgeted brute-force verdict on any graph")
    _add_graph_input(s)
    s.add_argument("--triple", required=True, metavar="p,q,r")
    budget = OracleBudget()
    s.add_argument("--max-vertices", type=_ascii_int, default=budget.max_vertices)
    s.add_argument("--max-assignments", type=_ascii_int, default=budget.max_assignments)
    s.set_defaults(func=_cmd_oracle)

    s = sub.add_parser("obstructions", help="catalogs, minimality reports, search")
    osub = s.add_subparsers(dest="obstructions_command", required=True)

    o = osub.add_parser("families", parents=[common], help="emit a known obstruction catalog")
    o.add_argument("--p", type=_ascii_int, default=2)
    o.add_argument("--oi", type=_ascii_int, default=None, metavar="I",
                   help="emit the star-forest join family for this i instead")
    o.add_argument("--format", choices=("dsl", "graph6"), default="dsl")
    o.set_defaults(func=_cmd_obstructions_families)

    o = osub.add_parser("check", parents=[common], help="minimality report for one graph")
    _add_graph_input(o)
    o.add_argument("--goal", required=True, metavar="(p,q,r),...")
    o.set_defaults(func=_cmd_obstructions_check)

    o = osub.add_parser("search", parents=[common], help="all minimal obstructions up to a size")
    o.add_argument("--n", type=_ascii_int, required=True)
    o.add_argument("--goal", required=True, metavar="(p,q,r),...")
    o.set_defaults(func=_cmd_obstructions_search)

    o = osub.add_parser("count", parents=[common], help="star-forest join family census for p, i")
    o.add_argument("--p", type=_ascii_int, required=True)
    o.add_argument("--i", type=_ascii_int, required=True)
    o.set_defaults(func=_cmd_obstructions_count)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotACographError as exc:
        error = {"error": "input graph is not a cograph", "p4": list(exc.witness)}
    except (ValueError, OracleBudgetExceeded) as exc:
        error = {"error": str(exc)}
    except (RecursionError, MemoryError) as exc:
        error = {"error": f"input too large to process ({type(exc).__name__})"}
    except Exception as exc:
        import traceback  # only a failing run pays for the import
        traceback.print_exc()
        error = {"error": f"internal error ({type(exc).__name__}): {exc}"}
    # exit 1 means a negative verdict, so no failure may end with it
    print(json.dumps(error))
    return 2


if __name__ == "__main__":
    sys.exit(main())
