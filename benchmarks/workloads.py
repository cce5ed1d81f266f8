"""Seeded op lists for the four benchmark workloads, and their output checks.

An op is one call of a public strongodd function on inputs generated here,
in set-up.  Each op carries a check, run outside the timed call, and a color
count taken from its output.  Nothing in this module is timed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import combinations
from typing import Callable, Optional

from strongodd import experiments, gadgets, graphs, outerplanar, solver, sumcolor, sums
from strongodd import treewidth, verify
from strongodd.bounds import sum_bound, tw_bound

@dataclass
class Op:
    """One library call on one generated input."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # reason the output is wrong, or None
    colors: Callable[[object], int]
    inputs: object  # what the fingerprint hashes


@dataclass
class Workload:
    name: str
    warmup: Op
    ops: list[Op]
    # (chi, chi_odd, chi_so) op indices that must satisfy chi <= chi_odd <= chi_so
    chains: list[tuple[int, int, int]] = field(default_factory=list)


def workload_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


# ---------------------------------------------------------------------------
# Fingerprints


def _canon(x):
    """JSON-ready canonical form of a generated input."""
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    if isinstance(x, (set, frozenset)):
        return sorted((_canon(e) for e in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [_canon(e) for e in x]
    if isinstance(x, dict):
        return sorted(([_canon(k), _canon(v)] for k, v in x.items()), key=json.dumps)
    if isinstance(x, graphs.Graph):
        return ["Graph", x.n, _canon(x.edges)]
    if isinstance(x, graphs.DiGraph):
        return ["DiGraph", x.n, _canon(x.arcs)]
    if is_dataclass(x):
        return [type(x).__name__] + [_canon(getattr(x, f.name)) for f in fields(x)]
    raise TypeError(f"no canonical form for {type(x)!r}")


def fingerprint(w: Workload) -> str:
    """Hash of every generated input, in op order, warm-up first."""
    payload = [[op.name, _canon(op.inputs)] for op in [w.warmup] + w.ops]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output checks


def _fail_unless(ok: bool, reason: str) -> Optional[str]:
    return None if ok else reason


def check_constrained(g, digraphs, sets, bound) -> Callable[[object], Optional[str]]:
    """Proper on the host, strong odd on every digraph and every set, and
    within the construction's color bound."""

    def check(c) -> Optional[str]:
        if not verify.is_proper(g, c).ok:
            return "not proper on the host"
        if not all(verify.is_strong_odd_directed(d, c).ok for d in digraphs):
            return "not strong odd on a digraph"
        if not all(verify.is_strong_odd_on_set(c, m) for m in sets):
            return "not strong odd on a set"
        return _fail_unless(bound.at_least(c.num_colors()), "color bound exceeded")

    return check


def outerplanar_host_edges(seq) -> list[tuple[int, int]]:
    """Edges of the 2-tree ``seq`` describes, read off its steps."""
    return [(0, 1)] + [(p, v) for v, parents in seq.steps for p in sorted(parents)]


def check_outerplanar(seq, mask) -> Callable[[object], Optional[str]]:
    def check(c) -> Optional[str]:
        if not all(1 <= col <= 8 for col in c.assignment.values()):
            return "palette outside 1..8"
        # The host is rebuilt here, not kept: the inputs of one pass would
        # otherwise hold a dozen hosts of up to 16k vertices.
        host = graphs.Graph(seq.n, outerplanar_host_edges(seq))
        if not verify.is_proper(host, c).ok:
            return "not proper on the host"
        return _fail_unless(verify.is_strong_odd(mask, c).ok, "not strong odd on the mask")

    return check


def check_witness(g, verifier) -> Callable[[object], Optional[str]]:
    def check(result) -> Optional[str]:
        value, witness = result
        # The search found nothing with fewer colors, so a minimum witness
        # uses every one of its value's colors.
        if witness.num_colors() != value:
            return f"witness uses {witness.num_colors()} colors, value is {value}"
        return _fail_unless(verifier(g, witness).ok, "witness does not verify")

    return check


def check_criterion(result) -> Optional[str]:
    return _fail_unless(result["status"] != "fail", f"criterion {result['name']} failed")


def num_colors(c) -> int:
    return c.num_colors()


def solver_value(result) -> int:
    return result[0]


def criterion_values(result) -> int:
    """Sum of the solver values a criterion reports under ``value`` keys."""
    total = 0
    stack = [result["details"]]
    while stack:
        d = stack.pop()
        if isinstance(d, dict):
            for k, v in d.items():
                if k == "value" and isinstance(v, int):
                    total += v
                else:
                    stack.append(v)
    return total


# ---------------------------------------------------------------------------
# layered


def tw_op(name: str, k: int, n: int, ell: int, m: int, rng: random.Random) -> Op:
    seq, host = gadgets.gen_random_partial_ktree(k, n - k, 1.0, rng.randrange(1 << 30))
    digraphs = [experiments.random_subdigraph(host, rng) for _ in range(ell)]
    sets = experiments.random_subsets(host.n, m, rng)
    bound = tw_bound(k, max(ell, 1), max(m, 1))  # color_tw pads to one of each
    return Op(
        name,
        lambda: treewidth.color_tw(seq, digraphs, sets),
        check_constrained(host, digraphs, sets, bound),
        num_colors,
        ("color_tw", seq, digraphs, sets),
    )


def gen_sum_desc(n_summands: int, rng: random.Random) -> sums.SumDesc:
    """(2,1,1)-sum of equal small summands, each glued to a random earlier
    summand along an edge, an edge, then a vertex of its private part.

    Gluing inside private parts keeps the natural layering valid and the cost
    per sum of one size within a narrow band.
    """
    sizes = (2, 2, 1)
    summands: list[sums.Summand] = []
    attachments: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    partial = None
    for s in range(n_summands):
        hseq, _ = gadgets.gen_random_partial_ktree(1, 2, 1.0, rng.randrange(1 << 30))
        summand = sums.Summand(hseq, 2)
        if s > 0:
            private = partial.private[rng.randrange(s)]
            fg = summand.graph(1)
            if sizes[(s - 1) % len(sizes)] == 2:
                host_edges = [e for e in partial.graph.edge_list() if set(e) <= private]
                host = host_edges[rng.randrange(len(host_edges))]
                new = fg.edge_list()[rng.randrange(fg.m)]
            else:
                host = (sorted(private)[rng.randrange(len(private))],)
                new = (rng.randrange(fg.n),)
            attachments.append((tuple(host), tuple(new)))
        summands.append(summand)
        partial = sums.build_sum(sums.SumDesc(2, 1, 1, tuple(summands), tuple(attachments)))
    return partial.desc


def sum_op(name: str, n_summands: int, rng: random.Random) -> Op:
    desc = gen_sum_desc(n_summands, rng)
    g = sums.build_sum(desc).graph
    arcs = experiments.random_subdigraph(g, rng)
    sets = experiments.random_subsets(g.n, 2, rng)
    bound = sum_bound(desc.k, desc.t, len(sets), desc.w)
    return Op(
        name,
        lambda: sumcolor.color_sum(desc, arcs, sets),
        check_constrained(g, [arcs], sets, bound),
        num_colors,
        ("color_sum", desc, arcs, sets),
    )


# (label, count, k, n, digraphs, sets): color_tw cases of one layered pass.
TW_CASES = (
    ("tw_k1_n400", 6, 1, 400, 2, 2),
    ("tw_k2_n150", 6, 2, 150, 2, 2),
    # Many small k=3 instances: one k=3 instance's cost varies about 0.7
    # times its mean whatever its size, so a few large ones swing the pass.
    ("tw_k3_n12", 12, 3, 12, 2, 2),
    ("tw_k2_n800_free", 2, 2, 800, 0, 0),
)
# (label, count, summands): color_sum cases of one layered pass.
SUM_CASES = (
    ("sum_s12", 4, 12),
    ("sum_s24", 2, 24),
)


def make_layered(seed: int) -> Workload:
    rng = workload_rng("layered", seed)
    warmup = tw_op("warmup_tw_k2_n40", 2, 40, 2, 2, rng)
    ops = []
    for label, count, k, n, ell, m in TW_CASES:
        ops += [tw_op(f"{label}-{i}", k, n, ell, m, rng) for i in range(count)]
    for label, count, n_summands in SUM_CASES:
        ops += [sum_op(f"{label}-{i}", n_summands, rng) for i in range(count)]
    return Workload("layered", warmup, ops)


# ---------------------------------------------------------------------------
# outerplanar

OUTERPLANAR_SIZES = (4000, 8000, 16000)
OUTERPLANAR_KEEP = (0.3, 0.6, 0.9, 1.0)


def outerplanar_op(name: str, n: int, keep: float, rng: random.Random) -> Op:
    seq = gadgets.gen_random_maximal_outerplanar(n, seed=rng.randrange(1 << 30))
    mask = graphs.Graph(n, [e for e in outerplanar_host_edges(seq) if rng.random() < keep])
    return Op(
        name,
        lambda: outerplanar.color_outerplanar(seq, mask),
        check_outerplanar(seq, mask),
        num_colors,
        ("color_outerplanar", seq, mask),
    )


def make_outerplanar(seed: int) -> Workload:
    rng = workload_rng("outerplanar", seed)
    warmup = outerplanar_op("warmup_n500_keep0.6", 500, 0.6, rng)
    ops = [
        outerplanar_op(f"n{n}_keep{keep}", n, keep, rng)
        for keep in OUTERPLANAR_KEEP
        for n in OUTERPLANAR_SIZES
    ]
    return Workload("outerplanar", warmup, ops)


# ---------------------------------------------------------------------------
# solver

SOLVER_GRAPHS = 60
# Sizes cycle so every pass has the same mix.  chi_so on 17 vertices at this
# density ranges from 0.03 s to over 2 s, enough to swing a whole pass.
SOLVER_SIZES = (12, 13, 14, 15, 16)
SOLVER_DENSITY = 0.3
SOLVER_BUDGET = solver.SolverBudget(node_limit=20_000_000, time_limit=120.0)
SOLVERS = (
    ("chi", solver.chi_exact, verify.is_proper),
    ("chi_odd", solver.chi_odd_exact, verify.is_odd_coloring),
    ("chi_so", solver.chi_so_exact, verify.is_strong_odd),
)


def solver_op(name: str, fn_name: str, g, verifier) -> Op:
    return Op(
        name,
        lambda: getattr(solver, fn_name)(g, SOLVER_BUDGET),
        check_witness(g, verifier),
        solver_value,
        (fn_name, g),
    )


def random_graph(n: int, rng: random.Random):
    pairs = list(combinations(range(n), 2))
    return graphs.Graph(n, rng.sample(pairs, round(SOLVER_DENSITY * len(pairs))))


def make_solver(seed: int) -> Workload:
    rng = workload_rng("solver", seed)
    warmup = solver_op("warmup_g2_chi_so", "chi_so_exact", gadgets.gen_gk(2), verify.is_strong_odd)
    gk3 = gadgets.gen_gk(3, include_tree_edges=True)
    ops = [solver_op("gk3_tree_chi_so", "chi_so_exact", gk3, verify.is_strong_odd)]
    chains = []
    for i in range(SOLVER_GRAPHS):
        g = random_graph(SOLVER_SIZES[i % len(SOLVER_SIZES)], rng)
        chains.append(tuple(range(len(ops), len(ops) + len(SOLVERS))))
        ops += [
            solver_op(f"g{i}_n{g.n}_{label}", fn.__name__, g, verifier)
            for label, fn, verifier in SOLVERS
        ]
    return Workload("solver", warmup, ops, chains)


# ---------------------------------------------------------------------------
# acceptance


def criterion_op(name: str, kwargs: dict) -> Op:
    return Op(
        name,
        lambda: getattr(experiments, name)(**kwargs),
        check_criterion,
        criterion_values,
        (name, kwargs),
    )


def make_acceptance(seed: int) -> Workload:
    """Every criterion once; the corpora are fixed, the seed sets the order."""
    rng = workload_rng("acceptance", seed)
    # The warm-up fills the library's connected-graph cache, so every timed
    # pass runs with it warm.
    warmup = criterion_op("crit_oracle_equivalence", {"quick": False})
    ops = []
    for fn in experiments.CRITERIA:
        quick = fn is experiments.crit_claim_exhaustive
        ops.append(criterion_op(fn.__name__, {"quick": quick}))
    ops.append(criterion_op("crit_gk3_attempt", {}))
    rng.shuffle(ops)
    return Workload("acceptance", warmup, ops)


MAKERS = {
    "layered": make_layered,
    "outerplanar": make_outerplanar,
    "solver": make_solver,
    "acceptance": make_acceptance,
}
WORKLOADS = tuple(MAKERS)


def make(name: str, seed: int) -> Workload:
    return MAKERS[name](seed)


# ---------------------------------------------------------------------------
# Checking a pass


def check_pass(w: Workload, outcomes: list, pins: Optional[dict]) -> list[Optional[str]]:
    """Reason each op failed, or None.  ``outcomes`` holds, per op, the
    returned value or the exception raised.  ``pins`` maps op names to pinned
    solver values for this seed."""
    reasons: list[Optional[str]] = []
    for op, out in zip(w.ops, outcomes):
        if isinstance(out, Exception):
            reasons.append(f"raised {type(out).__name__}: {out}")
            continue
        try:
            reason = op.check(out)
        except Exception as exc:  # a check that raises is a failed output
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None and pins is not None and op.name in pins:
            if op.colors(out) != pins[op.name]:
                reason = f"solver value {op.colors(out)} differs from pinned {pins[op.name]}"
        reasons.append(reason)
    for idx in w.chains:
        outs = [outcomes[i] for i in idx]
        if any(isinstance(o, Exception) for o in outs):
            continue
        chi, odd, so = (o[0] for o in outs)
        if not chi <= odd <= so:
            for i in idx:
                reasons[i] = reasons[i] or f"chain broken: {chi} <= {odd} <= {so}"
    return reasons
