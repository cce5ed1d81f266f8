"""Command-line surface: generators, coloring algorithms, solvers, verifiers.

All subcommands read JSON on stdin (or --file) and write JSON on stdout, so
pipelines compose without temp files.  Exit codes: 0 ok, 1 verification
failure or infeasibility, 2 malformed input (an ``InputError``), 3 internal
error (a broken guarantee of the library itself).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import graphio
from .gadgets import (
    gen_gk,
    gen_iso_gadget,
    gen_random_maximal_outerplanar,
    gen_random_partial_ktree,
)
from .graphs import DiGraph, Graph, InputError, InvariantViolated, MultiplicityRule
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
    CheckReport,
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


def _params(args, defaults: dict[str, int]) -> dict[str, int]:
    """``defaults`` overridden by ``--params``; a key the gadget does not
    declare is the caller's error."""
    out = dict(defaults)
    for item in args.params or []:
        for piece in item.split(","):
            if not piece:
                continue
            key, _, value = piece.partition("=")
            key = key.strip()
            if key not in defaults:
                raise InputError(f"--gadget {args.gadget} does not read the parameter {key!r}")
            out[key] = _int(value, f"parameter {key!r}")
    return out


def _emit(obj: dict):
    sys.stdout.write(graphio.dumps(obj))


def _keep(params: dict[str, int]) -> float:
    """The ``keep`` percentage of host edges as a probability."""
    if not 0 <= params["keep"] <= 100:
        raise InputError(f"parameter 'keep' must lie in 0..100, not {params['keep']}")
    return params["keep"] / 100.0


def _ktree_payload(seq, mask: Graph) -> dict:
    return {"ktree": graphio.ktree_to_json(seq), "graph": graphio.graph_to_json(mask)}


def _gen_outerplanar(params: dict[str, int], seed: int) -> dict:
    seq = gen_random_maximal_outerplanar(params["n"], seed)
    host, keep, rng = build_ktree(seq), _keep(params), random.Random(seed + 1)
    return _ktree_payload(seq, Graph(host.n, [e for e in host.edge_list() if rng.random() < keep]))


# Each gadget's parameters with their defaults, and its generator of the payload.
_GADGETS = {
    "gk": ({"k": 2, "tree_edges": 0}, lambda p, seed: {"graph": graphio.graph_to_json(
        gen_gk(p["k"], include_tree_edges=bool(p["tree_edges"])))}),
    "iso": ({"n": 3}, lambda p, seed: {"graph": graphio.graph_to_json(gen_iso_gadget(p["n"]))}),
    "ktree": ({"k": 2, "steps": 10, "keep": 100}, lambda p, seed: _ktree_payload(
        *gen_random_partial_ktree(p["k"], p["steps"], _keep(p), seed))),
    "outerplanar": ({"n": 10, "keep": 100}, _gen_outerplanar),
}


def cmd_gen(args) -> int:
    defaults, generate = _GADGETS[args.gadget]
    _emit(generate(_params(args, defaults), args.seed))
    return 0


# Each notion's solver, looked up when called so that a patched name takes effect.
_SOLVERS = {"so": lambda: chi_so_exact, "iso": lambda: chi_iso_exact,
            "odd": lambda: chi_odd_exact, "chi": lambda: chi_exact}


def cmd_solve(args) -> int:
    payload = _read_payload(args)
    g = _graph_from_payload(payload)
    budget = SolverBudget(max_colors=args.max_colors, node_limit=args.node_limit,
                          time_limit=args.timeout)
    stats = SolveStats()
    try:
        value, witness = _SOLVERS[args.notion]()(g, budget, stats=stats)
    except BudgetExceeded as exc:
        # A lower bound above 1 means the search refuted the cap itself.
        if exc.lower_bound > 1:
            out = {"status": "infeasible", "lower_bound": exc.lower_bound}
        else:
            out = {"status": "budget", "lower_bound": exc.lower_bound,
                   "upper_bound": exc.upper_bound}
            if exc.witness is not None:
                out["witness"] = graphio.coloring_to_json(exc.witness)
        _emit({**out, "nodes": exc.nodes, "nodes_by_t": stats.nodes_by_t})
        return 1
    _emit({
        "value": value,
        "witness": graphio.coloring_to_json(witness),
        "nodes": stats.nodes,
        "nodes_by_t": stats.nodes_by_t,
        "time": round(stats.seconds, 6),
    })
    return 0


def _improper_strong_odd(g, c, rule) -> CheckReport:
    """Strong odd with its ``edge`` violations dropped: the improper variant."""
    bad = [v for v in is_strong_odd(g, c, rule).violations if v[0] != "edge"]
    return CheckReport(not bad, bad)


# Each notion's reader of the payload's graph object, and its verifier.
_VERIFIERS = {
    "so": (graphio.graph_from_json, lambda g, c, rule: is_strong_odd(g, c, rule)),
    "proper": (graphio.graph_from_json, lambda g, c, rule: is_proper(g, c)),
    "odd": (graphio.graph_from_json, lambda g, c, rule: is_odd_coloring(g, c)),
    "iso": (graphio.graph_from_json, _improper_strong_odd),
    "directed": (graphio.digraph_from_json, lambda d, c, rule: is_strong_odd_directed(d, c, rule)),
    "hypergraph": (graphio.hypergraph_from_json,
                   lambda h, c, rule: is_hypergraph_strong_odd(h, c, rule)),
    "facial": (graphio.plane_from_json, lambda p, c, rule: is_facially_odd(p, c, rule)),
}


def cmd_verify(args) -> int:
    payload = _read_payload(args)
    coloring = graphio.coloring_from_json(payload)
    rule = MultiplicityRule(args.modulus,
                            frozenset(_int(r, "residue") for r in args.residues.split("+")))
    read, check = _VERIFIERS[args.notion]
    report = check(read(payload.get("graph", payload)), coloring, rule)
    _emit({"ok": report.ok, "violations": [list(v) for v in report.violations]})
    return 0 if report.ok else 1


def _ktree(payload: dict):
    return graphio.ktree_from_json(_field(payload, "ktree"))


def _count(payload: dict, key: str) -> int:
    return graphio.json_int(_field(payload, key), key)


def _color_outerplanar(payload, arcs, sets):
    seq, mask = _ktree(payload), _graph_from_payload(payload)
    return color_outerplanar(seq, mask), mask


def _color_tw(payload, arcs, sets):
    seq = _ktree(payload)
    digraphs = graphio.digraphs_from_json(payload.get("digraphs", []))
    return color_tw(seq, digraphs, sets), build_ktree(seq)


def _color_rtw(payload, arcs, sets):
    seq, path_len = _ktree(payload), _count(payload, "path_len")
    return color_rtw(seq, path_len, arcs, sets), strong_product(build_ktree(seq), path_len)


def _color_summand(payload, arcs, sets):
    seq, path_len, t = _ktree(payload), _count(payload, "path_len"), _count(payload, "t")
    coloring = color_summand(seq, path_len, t, arcs, sets)
    return coloring, join_with_clique(strong_product(build_ktree(seq), path_len), t)


def _color_sum(payload, arcs, sets):
    desc = graphio.sumdesc_from_json(_field(payload, "sum"))
    return color_sum(desc, arcs, sets), build_sum(desc).graph


# The constraint fields each algorithm reads (its coloring need not hold on
# any other), and the reader of its witness fields that colors and returns
# the coloring with the host graph it is a coloring of.
_ALGOS = {
    "outerplanar": ((), _color_outerplanar),
    "tw": (("digraphs", "sets"), _color_tw),
    "rtw": (("arcs", "sets"), _color_rtw),
    "summand": (("arcs", "sets"), _color_summand),
    "sum": (("arcs", "sets"), _color_sum),
}


def cmd_color(args) -> int:
    payload = _read_payload(args)
    fields, color = _ALGOS[args.algo]
    for name in ("arcs", "digraphs", "sets"):
        if name in payload and name not in fields:
            raise InputError(f"--algo {args.algo} does not read the field {name!r}")
    arcs = graphio.digraph_from_json(payload["arcs"]) if "arcs" in payload else None
    sets = graphio.sets_from_json(payload.get("sets", []))
    coloring, host = color(payload, arcs, sets)
    out = {"graph": graphio.graph_to_json(host)}
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

    results = run_all(quick=args.quick)
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
    p.add_argument("--gadget", required=True, choices=list(_GADGETS))
    p.add_argument("--params", action="append", default=[],
                   help="comma-separated key=value pairs, e.g. k=2")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="exact chromatic search")
    p.add_argument("--notion", default="so", choices=list(_SOLVERS))
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--node-limit", type=int, default=50_000_000)
    p.add_argument("--file")
    p.add_argument("input", nargs="?", help="input file (default: stdin)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a coloring")
    p.add_argument("--notion", default="so", choices=list(_VERIFIERS))
    p.add_argument("--modulus", type=int, default=2)
    p.add_argument("--residues", default="1", help="allowed residues, e.g. 1+3")
    p.add_argument("--file")
    p.add_argument("input", nargs="?", help="input file (default: stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("color", help="run a constructive coloring")
    p.add_argument("--algo", required=True, choices=list(_ALGOS))
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
