"""Command-line surface: generators, coloring algorithms, solvers, verifiers.

All subcommands read JSON on stdin (or --file) and write JSON on stdout, so
pipelines compose without temp files.  Exit codes: 0 ok, 1 verification
failure or infeasibility, 2 malformed input (an ``InputError``), 3 internal
error (a broken guarantee of the library itself).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import graphio
from .gadgets import (
    gen_gk,
    gen_iso_gadget,
    gen_random_maximal_outerplanar,
    gen_random_partial_ktree,
)
from .graphs import DiGraph, Graph, InputError, InvariantViolated, MultiplicityRule, ODD_RULE
from .graphs import join_with_clique, strong_product
from .ktree import bfs_layering, build_ktree, validate_bfs_properties
from .outerplanar import color_outerplanar
from .rowtw import color_rtw
from .solver import (
    BudgetExceeded,
    SolverBudget,
    chi_exact,
    chi_iso_exact,
    chi_odd_exact,
    chi_so_exact,
    SolveStats,
)
from .sumcolor import color_sum, color_summand
from .sums import build_sum, natural_layering, validate_natural_properties
from .treewidth import color_tw
from .verify import (
    is_facially_odd,
    is_hypergraph_strong_odd,
    is_odd_coloring,
    is_proper,
    is_strong_odd,
    is_strong_odd_directed,
)


def _read_payload(args) -> dict:
    path = getattr(args, "file", None) or getattr(args, "input", None)
    try:
        text = Path(path).read_text() if path else sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    text = text.strip()
    if not text:
        raise InputError("no input")
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON: {exc}") from exc
    # Edge-list text fallback.
    g = graphio.parse_edge_list(text)
    if isinstance(g, DiGraph):
        return {"graph": graphio.digraph_to_json(g)}
    return {"graph": graphio.graph_to_json(g)}


def _field(payload: dict, key: str):
    """A required payload field; its absence is the caller's error."""
    try:
        return payload[key]
    except KeyError:
        raise InputError(f"missing field {key!r}") from None


def _graph_from_payload(payload: dict) -> Graph:
    obj = payload.get("graph", payload)
    return graphio.graph_from_json(obj)


def _int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be an integer, not {value!r}") from None


def _params(args) -> dict[str, int]:
    out = {}
    for item in args.params or []:
        for piece in item.split(","):
            if not piece:
                continue
            key, _, value = piece.partition("=")
            key = key.strip()
            out[key] = _int(value, f"parameter {key!r}")
    return out


def _emit(obj: dict):
    sys.stdout.write(graphio.dumps(obj))


def cmd_gen(args) -> int:
    params = _params(args)
    if args.gadget == "gk":
        g = gen_gk(params.get("k", 2), include_tree_edges=bool(params.get("tree_edges", 0)))
        _emit({"graph": graphio.graph_to_json(g)})
    elif args.gadget == "iso":
        g = gen_iso_gadget(params.get("n", 3))
        _emit({"graph": graphio.graph_to_json(g)})
    elif args.gadget == "ktree":
        seq, mask = gen_random_partial_ktree(
            params.get("k", 2), params.get("steps", 10),
            params.get("keep", 100) / 100.0, args.seed,
        )
        _emit({"ktree": graphio.ktree_to_json(seq), "graph": graphio.graph_to_json(mask)})
    elif args.gadget == "outerplanar":
        seq = gen_random_maximal_outerplanar(params.get("n", 10), args.seed)
        host = build_ktree(seq)
        keep = params.get("keep", 100) / 100.0
        import random as _random

        rng = _random.Random(args.seed + 1)
        mask = Graph(host.n, [e for e in host.edge_list() if rng.random() < keep])
        _emit({"ktree": graphio.ktree_to_json(seq), "graph": graphio.graph_to_json(mask)})
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown gadget {args.gadget}")
    return 0


def cmd_solve(args) -> int:
    payload = _read_payload(args)
    g = _graph_from_payload(payload)
    budget = SolverBudget(
        max_colors=args.max_colors,
        node_limit=args.node_limit,
        time_limit=args.timeout,
    )
    solver = {"so": chi_so_exact, "iso": chi_iso_exact,
              "odd": chi_odd_exact, "chi": chi_exact}[args.notion]
    stats = SolveStats()
    start = time.monotonic()
    try:
        value, witness = solver(g, budget, stats=stats)
    except BudgetExceeded as exc:
        _emit({"status": "budget", "lower_bound": exc.lower_bound,
               "upper_bound": exc.upper_bound, "nodes": exc.nodes,
               "nodes_by_t": stats.nodes_by_t})
        return 1
    _emit({
        "value": value,
        "witness": graphio.coloring_to_json(witness),
        "nodes": stats.nodes,
        "nodes_by_t": stats.nodes_by_t,
        "time": round(time.monotonic() - start, 6),
    })
    return 0


def cmd_verify(args) -> int:
    payload = _read_payload(args)
    coloring = graphio.coloring_from_json(payload)
    rule = ODD_RULE
    if args.modulus != 2 or args.residues != "1":
        rule = MultiplicityRule(args.modulus,
                                frozenset(_int(r, "residue") for r in args.residues.split("+")))
    if args.notion in ("so", "proper", "odd", "iso"):
        g = _graph_from_payload(payload)
        if args.notion == "so":
            report = is_strong_odd(g, coloring, rule)
        elif args.notion == "proper":
            report = is_proper(g, coloring)
        elif args.notion == "odd":
            report = is_odd_coloring(g, coloring)
        else:
            report = is_strong_odd(g, coloring, rule)
            report.violations = [v for v in report.violations if v[0] != "edge"]
            report.ok = not report.violations
    elif args.notion == "directed":
        d = graphio.digraph_from_json(payload.get("graph", payload))
        report = is_strong_odd_directed(d, coloring, rule)
    elif args.notion == "hypergraph":
        h = graphio.hypergraph_from_json(payload.get("graph", payload))
        report = is_hypergraph_strong_odd(h, coloring, rule)
    elif args.notion == "facial":
        p = graphio.plane_from_json(payload.get("graph", payload))
        report = is_facially_odd(p, coloring, rule)
    else:  # pragma: no cover
        raise InputError(f"unknown notion {args.notion}")
    _emit({"ok": report.ok, "violations": [list(v) for v in report.violations]})
    return 0 if report.ok else 1


# The constraint fields each algorithm reads; its coloring need not hold on any other.
_CONSTRAINT_FIELDS = {"outerplanar": (), "tw": ("digraphs", "sets"), "rtw": ("arcs", "sets"),
                      "summand": ("arcs", "sets"), "sum": ("arcs", "sets")}


def cmd_color(args) -> int:
    payload = _read_payload(args)
    for name in ("arcs", "digraphs", "sets"):
        if name in payload and name not in _CONSTRAINT_FIELDS[args.algo]:
            raise InputError(f"--algo {args.algo} does not read the field {name!r}")
    arcs = None
    if "arcs" in payload:
        arcs = graphio.digraph_from_json(payload["arcs"])
    sets = graphio.sets_from_json(payload.get("sets", []))
    if args.algo == "outerplanar":
        seq = graphio.ktree_from_json(_field(payload, "ktree"))
        mask = _graph_from_payload(payload)
        coloring = color_outerplanar(seq, mask)
        out_graph = graphio.graph_to_json(mask)
    elif args.algo == "tw":
        seq = graphio.ktree_from_json(_field(payload, "ktree"))
        digraphs = [graphio.digraph_from_json(d) for d in payload.get("digraphs", [])]
        coloring = color_tw(seq, digraphs, sets)
        out_graph = graphio.graph_to_json(build_ktree(seq))
    elif args.algo == "rtw":
        seq = graphio.ktree_from_json(_field(payload, "ktree"))
        path_len = graphio.json_int(_field(payload, "path_len"), "path_len")
        coloring = color_rtw(seq, path_len, arcs, sets)
        out_graph = graphio.graph_to_json(strong_product(build_ktree(seq), path_len))
    elif args.algo == "summand":
        seq = graphio.ktree_from_json(_field(payload, "ktree"))
        path_len = graphio.json_int(_field(payload, "path_len"), "path_len")
        t = graphio.json_int(_field(payload, "t"), "t")
        coloring = color_summand(seq, path_len, t, arcs, sets)
        out_graph = graphio.graph_to_json(join_with_clique(
            strong_product(build_ktree(seq), path_len), t))
    elif args.algo == "sum":
        desc = graphio.sumdesc_from_json(_field(payload, "sum"))
        coloring = color_sum(desc, arcs, sets)
        out_graph = graphio.graph_to_json(build_sum(desc).graph)
    else:  # pragma: no cover
        raise InputError(f"unknown algo {args.algo}")
    out = {"graph": out_graph}
    out.update(graphio.coloring_to_json(coloring))
    _emit(out)
    return 0


def cmd_layering(args) -> int:
    payload = _read_payload(args)
    if "ktree" in payload:
        seq = graphio.ktree_from_json(payload["ktree"])
        layering = bfs_layering(seq)
        report = validate_bfs_properties(seq, layering)
    elif "sum" in payload:
        desc = graphio.sumdesc_from_json(payload["sum"])
        layering = natural_layering(desc)
        report = validate_natural_properties(desc, layering)
    else:
        raise InputError("need a 'ktree' or 'sum' witness")
    _emit({
        "kind": layering.kind,
        "layers": [sorted(l) for l in layering.layers],
        "properties": report.results,
        "witnesses": {k: repr(v) for k, v in report.witnesses.items()},
    })
    return 0 if report.ok else 1


def cmd_repro(args) -> int:
    from .experiments import run_all

    results = run_all(quick=args.quick, gk3_seconds=args.gk3_seconds)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    ok = all(r["status"] != "fail" for r in results["criteria"])
    for r in results["criteria"]:
        print(f"[{r['status'].upper():4}] {r['name']}", file=sys.stderr)
    print(f"summary written to {out_path}", file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="strongodd")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate gadgets and corpora")
    p.add_argument("--gadget", required=True,
                   choices=["gk", "iso", "ktree", "outerplanar"])
    p.add_argument("--params", action="append", default=[],
                   help="comma-separated key=value pairs, e.g. k=2")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="exact chromatic search")
    p.add_argument("--notion", default="so", choices=["so", "iso", "odd", "chi"])
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--node-limit", type=int, default=50_000_000)
    p.add_argument("--file")
    p.add_argument("input", nargs="?", help="input file (default: stdin)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a coloring")
    p.add_argument("--notion", default="so",
                   choices=["so", "proper", "odd", "iso", "directed",
                            "hypergraph", "facial"])
    p.add_argument("--modulus", type=int, default=2)
    p.add_argument("--residues", default="1", help="allowed residues, e.g. 1+3")
    p.add_argument("--file")
    p.add_argument("input", nargs="?", help="input file (default: stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("color", help="run a constructive coloring")
    p.add_argument("--algo", required=True,
                   choices=["outerplanar", "tw", "rtw", "summand", "sum"])
    p.add_argument("--file")
    p.add_argument("input", nargs="?", help="input file (default: stdin)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("layering", help="compute and validate a layering")
    p.add_argument("--file")
    p.add_argument("input", nargs="?", help="input file (default: stdin)")
    p.set_defaults(func=cmd_layering)

    p = sub.add_parser("repro", help="replay the acceptance experiments")
    p.add_argument("--out", default="results/summary.json")
    p.add_argument("--quick", action="store_true",
                   help="smaller corpora for a fast smoke run")
    p.add_argument("--gk3-seconds", type=float, default=1800.0)
    p.set_defaults(func=cmd_repro)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolated as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main():  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
