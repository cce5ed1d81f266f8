"""Exact chromatic search for strong odd colorings and relatives.

One backtracking engine serves every notion.  Constraints are "scopes":
vertex sets whose color multiset must satisfy the multiplicity rule (or, for
ordinary odd colorings, contain some odd multiplicity).  Because parity
constraints are not monotone under extension, a scope is only checked once
its last vertex in the branching order has been assigned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Coloring, DiGraph, Graph, MultiplicityRule, ODD_RULE, check_constraints


@dataclass(frozen=True)
class SolverBudget:
    max_colors: Optional[int] = None  # default: one color per vertex
    node_limit: int = 50_000_000
    time_limit: float = 600.0

    def __post_init__(self):
        if self.max_colors is not None and self.max_colors <= 0:
            raise ValueError("max_colors must be positive")
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True)
class ConstraintSet:
    """Extra requirements for a constrained solve: directed subgraphs whose
    out-neighborhoods must be strong odd, and vertex sets that must be."""

    digraphs: tuple[DiGraph, ...] = ()
    sets: tuple[frozenset[int], ...] = ()


class BudgetExceeded(Exception):
    """Search ran out of nodes or time.

    Carries the largest color count proven infeasible (``lower_bound`` is one
    more than that), the best feasible value found if any, and its witness.
    """

    def __init__(self, lower_bound: int, upper_bound: Optional[int],
                 witness: Optional[Coloring], nodes: int):
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.witness = witness
        self.nodes = nodes
        super().__init__(
            f"budget exceeded: value in [{lower_bound}, {upper_bound}] after {nodes} nodes"
        )


class TooLarge(Exception):
    """The enumeration oracle refuses instances beyond its guard."""


@dataclass
class SolveStats:
    nodes: int = 0
    seconds: float = 0.0


class _Stop(Exception):
    pass


class _Engine:
    """Feasibility search for one fixed color count."""

    def __init__(
        self,
        g: Graph,
        t: int,
        rule: MultiplicityRule,
        proper: bool,
        rule_scopes: Sequence[frozenset[int]],
        odd_scopes: Sequence[frozenset[int]] = (),
        symmetry: bool = True,
        node_limit: int = 10**18,
        deadline: float = float("inf"),
    ):
        self.g = g
        self.t = t
        self.rule = rule
        self.proper = proper
        self.symmetry = symmetry
        self.node_limit = node_limit
        self.deadline = deadline
        self.nodes = 0
        self.order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        self.pos = {v: i for i, v in enumerate(self.order)}
        self.adj = [sorted(g.neighbors(v)) for v in range(g.n)]
        # scope -> checked when its last-ordered member is assigned
        self.by_last: list[list[tuple[frozenset[int], bool]]] = [[] for _ in range(g.n)]
        for scope in rule_scopes:
            if scope:
                self.by_last[max(self.pos[v] for v in scope)].append((scope, False))
        for scope in odd_scopes:
            if scope:
                self.by_last[max(self.pos[v] for v in scope)].append((scope, True))

    def _scope_ok(self, scope: frozenset[int], exists_odd: bool, color: list[int]) -> bool:
        counts: dict[int, int] = {}
        for v in scope:
            c = color[v]
            counts[c] = counts.get(c, 0) + 1
        if exists_odd:
            return any(cnt % 2 == 1 for cnt in counts.values())
        return all(self.rule.allows(cnt) for cnt in counts.values())

    def run(self) -> Optional[dict[int, int]]:
        n = self.g.n
        if n == 0:
            return {}
        color = [-1] * n
        result = self._extend(0, 0, color)
        if result is None:
            return None
        return {v: color[v] for v in range(n)}

    def _extend(self, idx: int, used: int, color: list[int]) -> Optional[bool]:
        if idx == self.g.n:
            return True
        v = self.order[idx]
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise _Stop
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _Stop
        if self.symmetry:
            limit = min(used + 1, self.t)
        else:
            limit = self.t
        forbidden = set()
        if self.proper:
            for u in self.adj[v]:
                if color[u] >= 0:
                    forbidden.add(color[u])
        for c in range(limit):
            if c in forbidden:
                continue
            color[v] = c
            ok = True
            for scope, exists_odd in self.by_last[idx]:
                if not self._scope_ok(scope, exists_odd, color):
                    ok = False
                    break
            if ok and self._extend(idx + 1, max(used, c + 1), color):
                return True
        color[v] = -1
        return None


def _strong_odd_scopes(g: Graph) -> list[frozenset[int]]:
    return [g.neighbors(v) for v in range(g.n)]


def _solve_min(
    g: Graph,
    budget: Optional[SolverBudget],
    rule: MultiplicityRule,
    proper: bool,
    rule_scopes_fn,
    odd_scopes_fn=None,
    extra_rule_scopes: Sequence[frozenset[int]] = (),
    symmetry: bool = True,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    budget = budget or SolverBudget()
    max_colors = budget.max_colors if budget.max_colors is not None else max(g.n, 1)
    start = time.monotonic()
    deadline = start + budget.time_limit
    total_nodes = 0
    if g.n == 0:
        return 0, Coloring({})
    for t in range(1, max_colors + 1):
        engine = _Engine(
            g, t, rule, proper,
            list(rule_scopes_fn(g)) + list(extra_rule_scopes),
            odd_scopes_fn(g) if odd_scopes_fn else (),
            symmetry=symmetry,
            node_limit=budget.node_limit - total_nodes,
            deadline=deadline,
        )
        try:
            assignment = engine.run()
        except _Stop:
            raise BudgetExceeded(t, None, None, total_nodes + engine.nodes)
        total_nodes += engine.nodes
        if stats is not None:
            stats.nodes = total_nodes
            stats.seconds = time.monotonic() - start
        if assignment is not None:
            return t, Coloring(assignment)
    raise BudgetExceeded(max_colors + 1, None, None, total_nodes)


def chi_so_exact(
    g: Graph,
    budget: Optional[SolverBudget] = None,
    rule: MultiplicityRule = ODD_RULE,
    symmetry: bool = True,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    """Minimum colors in a strong odd coloring (proper + neighborhood rule)."""
    return _solve_min(g, budget, rule, True, _strong_odd_scopes,
                      symmetry=symmetry, stats=stats)


def chi_iso_exact(
    g: Graph,
    budget: Optional[SolverBudget] = None,
    rule: MultiplicityRule = ODD_RULE,
    symmetry: bool = True,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    """Improper variant: the neighborhood rule without properness."""
    return _solve_min(g, budget, rule, False, _strong_odd_scopes,
                      symmetry=symmetry, stats=stats)


def chi_odd_exact(
    g: Graph,
    budget: Optional[SolverBudget] = None,
    symmetry: bool = True,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    """Minimum colors in an odd coloring: proper, and every non-isolated
    vertex sees some color an odd number of times."""
    def odd_scopes(graph: Graph):
        return [graph.neighbors(v) for v in range(graph.n) if graph.neighbors(v)]

    return _solve_min(g, budget, ODD_RULE, True, lambda graph: [],
                      odd_scopes_fn=odd_scopes, symmetry=symmetry, stats=stats)


def chi_exact(
    g: Graph,
    budget: Optional[SolverBudget] = None,
    symmetry: bool = True,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    """Ordinary chromatic number."""
    return _solve_min(g, budget, ODD_RULE, True, lambda graph: [],
                      symmetry=symmetry, stats=stats)


def chi_so_constrained(
    g: Graph,
    constraints: ConstraintSet,
    budget: Optional[SolverBudget] = None,
    rule: MultiplicityRule = ODD_RULE,
    symmetry: bool = True,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    """Minimum colors proper on g, strong odd on every digraph constraint's
    out-neighborhoods, and strong odd on every tracked set."""
    check_constraints(g, constraints.digraphs, constraints.sets)
    extra: list[frozenset[int]] = []
    for d in constraints.digraphs:
        extra.extend(d.out_neighbors(v) for v in range(d.n))
    extra.extend(frozenset(m) for m in constraints.sets)
    # Arc properness is implied by properness on g since arcs are g-edges.
    return _solve_min(g, budget, rule, True, lambda graph: [],
                      extra_rule_scopes=extra, symmetry=symmetry, stats=stats)


def feasible(
    g: Graph,
    t: int,
    rule: MultiplicityRule = ODD_RULE,
    proper: bool = True,
    notion: str = "strong_odd",
    budget: Optional[SolverBudget] = None,
) -> Optional[Coloring]:
    """Witness for a t-coloring of the requested notion, or None."""
    budget = budget or SolverBudget()
    if notion == "strong_odd":
        rule_scopes = _strong_odd_scopes(g)
        odd_scopes: list[frozenset[int]] = []
    elif notion == "odd":
        rule_scopes = []
        odd_scopes = [g.neighbors(v) for v in range(g.n) if g.neighbors(v)]
    else:
        raise ValueError(f"unknown notion {notion!r}")
    engine = _Engine(g, t, rule, proper, rule_scopes, odd_scopes,
                     node_limit=budget.node_limit,
                     deadline=time.monotonic() + budget.time_limit)
    try:
        assignment = engine.run()
    except _Stop:
        raise BudgetExceeded(1, None, None, engine.nodes)
    return Coloring(assignment) if assignment is not None else None


def _canonical_count(n: int, t: int) -> int:
    total = 1
    for i in range(n):
        total *= min(i + 1, t)
        if total > 10**8:
            return total
    return total


def enumerate_oracle(
    g: Graph,
    t: int,
    rule: MultiplicityRule = ODD_RULE,
    proper_required: bool = True,
) -> bool:
    """Ground truth by exhaustive enumeration of colorings up to color
    permutation.  Entirely independent of the backtracking solver's pruning:
    every canonical coloring is generated and checked against the definition.
    """
    if t <= 0:
        return g.n == 0
    if _canonical_count(g.n, t) > 10**8:
        raise TooLarge(f"{t}-colorings of {g.n} vertices exceed the enumeration guard")
    n = g.n
    if n == 0:
        return True
    adj = [sorted(g.neighbors(v)) for v in range(n)]
    color = [-1] * n

    def check_full() -> bool:
        for v in range(n):
            counts: dict[int, int] = {}
            for u in adj[v]:
                counts[color[u]] = counts.get(color[u], 0) + 1
            for cnt in counts.values():
                if not rule.allows(cnt):
                    return False
        return True

    def gen(v: int, used: int) -> bool:
        if v == n:
            return check_full()
        for c in range(min(used + 1, t)):
            if proper_required and any(color[u] == c for u in adj[v] if u < v):
                continue
            color[v] = c
            if gen(v + 1, max(used, c + 1)):
                return True
            color[v] = -1
        return False

    return gen(0, 0)
