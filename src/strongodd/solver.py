"""Exact chromatic search for strong odd colorings and relatives.

One backtracking engine serves every notion.  Constraints are "scopes":
vertex sets whose color multiset must satisfy the multiplicity rule (or, for
ordinary odd colorings, contain some odd multiplicity).  Each scope keeps its
color counts up to date as vertices are colored, and the search forward
checks it (Haralick & Elliott 1980): a branch is cut as soon as the members
a scope has left to color cannot repair it.  For a rule scope the repair
cost is its deficit, the sum over present colors of the fewest extra
members that bring the color's count to an allowed residue; one member
lowers the deficit by at most one.  An odd scope is dead once it is fully
colored with no odd count.  A color is checked against every scope of its
vertex before it is committed, and the search keeps its own stack, so it has
no recursion-depth limit.

The search branches on the vertices in a fixed order and tries colors in
increasing order, opening at most one new color per vertex.  It thus visits
colorings in lexicographic order, and its first witness is the least valid
coloring L.  Cutting a dead subtree keeps L, so it keeps the first witness.

One more cut breaks twin symmetry.  Call x and y twins if they have the same
neighbours (so they are not adjacent) and lie in exactly the same rule
scopes and odd scopes.  Swapping the colors of x and y then maps every valid
coloring to a valid one.  Let x come before y, and suppose L[x] > L[y].
Colors open in order, so the smaller L[y] first occurs before x.  Swap the
colors of x and y, then rename the colors in order of first use.  Every
vertex before x keeps its color, and x gets L[y] < L[x].  The result is a
valid coloring below L, which is impossible.  So L[x] <= L[y] for every
such pair, and the cut is: y may take c only if c >= color(x), where x is
the latest vertex before y with y's neighbours, if x is y's twin.  It keeps
L, so values, first witnesses and infeasibility proofs are unchanged; it
only removes nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .graphs import Coloring, DiGraph, Graph, InputError, MultiplicityRule, ODD_RULE
from .graphs import check_constraints, square
from .verify import is_odd_coloring, is_proper, is_strong_odd


@dataclass(frozen=True)
class SolverBudget:
    max_colors: Optional[int] = None  # default: one color per vertex
    node_limit: int = 50_000_000
    time_limit: float = 600.0

    def __post_init__(self):
        if self.max_colors is not None and self.max_colors <= 0:
            raise InputError("max_colors must be positive")
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise InputError("budget limits must be positive")


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
    nodes: int = 0  # over all color counts tried
    seconds: float = 0.0
    nodes_by_t: dict[int, int] = field(default_factory=dict)


class _Stop(Exception):
    pass


def _deficit_steps(rule: MultiplicityRule, size: int) -> list[int]:
    """``step[k]``: the change in a scope's deficit when one color's count
    there goes from k to k + 1, for k < size.  A count's need is the fewest
    extra members that make it allowed; an absent color needs none."""
    m = rule.modulus
    need_by_residue = [next(j for j in range(m) if (r + j) % m in rule.residues)
                       for r in range(m)]
    need = [0] + [need_by_residue[k % m] for k in range(1, size + 1)]
    return [need[k + 1] - need[k] for k in range(size)]


def _membership(scopes: list[frozenset[int]], pos: dict[int, int], n: int):
    """Per vertex, ``(scope id, members of the scope ordered after it)``."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, scope in enumerate(scopes):
        members = sorted(scope, key=pos.__getitem__)
        for i, v in enumerate(members):
            out[v].append((s, len(members) - 1 - i))
    return out


class _Engine:
    """Feasibility search over fixed scopes, one color count per ``run``.

    The branching order and the scope membership are set up once; ``nodes``
    counts depth entries over every run, against one ``node_limit``.  ``run``
    keeps its own stack, so it has no recursion-depth limit, and checks each
    color against every scope of its vertex before it commits the color.
    """

    def __init__(
        self,
        g: Graph,
        rule: MultiplicityRule,
        proper: bool,
        rule_scopes: Sequence[frozenset[int]],
        odd_scopes: Sequence[frozenset[int]] = (),
        node_limit: int = 10**18,
        deadline: float = float("inf"),
    ):
        self.n = g.n
        self.proper = proper
        self.node_limit = node_limit
        self.deadline = deadline
        self.nodes = 0
        nbrs = list(map(g.neighbors, range(g.n)))
        # By degree, highest first; the sort is stable, so ties stay in id order.
        self.order = sorted(range(g.n), key=lambda v: -len(nbrs[v]))
        pos = {v: i for i, v in enumerate(self.order)}
        # Only earlier neighbours: the later ones are uncolored when v is tried.
        self.adj: list[frozenset[int]] = [frozenset()] * g.n
        earlier: set[int] = set()
        for v in self.order:
            self.adj[v] = nbrs[v] & earlier
            earlier.add(v)
        rules = list(dict.fromkeys(s for s in rule_scopes if s))
        odds = list(dict.fromkeys(s for s in odd_scopes if s))
        self.n_rule, self.n_odd = len(rules), len(odds)
        self.step = _deficit_steps(rule, max(map(len, rules), default=0))
        self.rule_of = _membership(rules, pos, g.n)
        self.odd_of = _membership(odds, pos, g.n)
        # floor[v]: the latest vertex before v with v's neighbours, if it is
        # v's twin (module docstring), else the sentinel n, whose slot in
        # run's color list holds 0.  Most graphs have no equal neighbourhoods.
        self.floor = [g.n] * g.n
        if len(set(nbrs)) < g.n:
            def scopes(v):
                return [s for s, _ in self.rule_of[v]], [s for s, _ in self.odd_of[v]]

            last: dict = {}
            for v in self.order:
                x = last.get(nbrs[v])
                if x is not None and scopes(x) == scopes(v):
                    self.floor[v] = x
                last[nbrs[v]] = v

    def run(self, t: int) -> Optional[dict[int, int]]:
        n, order, adj, proper = self.n, self.order, self.adj, self.proper
        rule_of, odd_of, step, floor = self.rule_of, self.odd_of, self.step, self.floor
        node_limit, deadline, nodes = self.node_limit, self.deadline, self.nodes
        if not n:
            return {}
        color = [-1] * n + [0]
        color_of = color.__getitem__
        # counts[c][s]: members of rule scope s colored c; deficit[s]: its
        # repair cost (module docstring); odd[s]: colors with an odd count
        # in odd scope s
        counts = [[0] * self.n_rule for _ in range(t)]
        deficit = [0] * self.n_rule
        odd_counts = [[0] * self.n_odd for _ in range(t)]
        odd = [0] * self.n_odd
        # Per depth: the colors used above it and those its earlier neighbours
        # hold.  Its vertex keeps the last color tried there, -1 on entry.
        used = [0] * n
        forbidden: list = [()] * n
        idx = 0
        try:
            while True:
                v = order[idx]
                c = color[v]
                rules, odds = rule_of[v], odd_of[v]
                if c < 0:
                    nodes += 1
                    if nodes > node_limit or nodes % 4096 == 0 and time.monotonic() > deadline:
                        raise _Stop
                    if proper:
                        forbidden[idx] = {*map(color_of, adj[v])}
                    c = color[floor[v]]
                else:
                    color[v] = -1
                    cnt = counts[c]
                    for s, _ in rules:
                        k = cnt[s] - 1
                        cnt[s] = k
                        deficit[s] -= step[k]
                    cnt = odd_counts[c]
                    for s, _ in odds:
                        k = cnt[s] - 1
                        cnt[s] = k
                        odd[s] -= -1 if k & 1 else 1
                    c += 1
                bad = forbidden[idx]
                for c in range(c, min(used[idx] + 1, t)):
                    if c in bad:
                        continue
                    cnt = counts[c]
                    for s, left in rules:
                        if deficit[s] + step[cnt[s]] > left:
                            break
                    else:
                        # Dead: fully colored, and c takes its one odd count to even.
                        cnt = odd_counts[c]
                        for s, left in odds:
                            if not left and cnt[s] & 1 and odd[s] == 1:
                                break
                        else:
                            break
                else:
                    if not idx:
                        return None
                    idx -= 1
                    continue
                color[v] = c
                cnt = counts[c]
                for s, _ in rules:
                    k = cnt[s]
                    cnt[s] = k + 1
                    deficit[s] += step[k]
                cnt = odd_counts[c]
                for s, _ in odds:
                    k = cnt[s]
                    cnt[s] = k + 1
                    odd[s] += -1 if k & 1 else 1
                idx += 1
                if idx == n:
                    return {v: color[v] for v in range(n)}
                used[idx] = max(used[idx - 1], c + 1)
        finally:
            self.nodes = nodes


def _strong_odd_scopes(g: Graph) -> list[frozenset[int]]:
    return [g.neighbors(v) for v in range(g.n)]


def _odd_scopes(g: Graph) -> list[frozenset[int]]:
    return [g.neighbors(v) for v in range(g.n) if g.neighbors(v)]


def _greedy(g: Graph) -> Coloring:
    """Proper coloring: each vertex in turn takes the least color its
    earlier neighbors leave free."""
    color: dict[int, int] = {}
    for v in range(g.n):
        taken = {color[u] for u in g.neighbors(v) if u < v}
        color[v] = next(c for c in range(len(taken) + 1) if c not in taken)
    return Coloring(color)


def _if_valid(c: Coloring, verifier: Callable) -> Optional[Coloring]:
    return c if verifier(c).ok else None


def _square_coloring(g: Graph, rule: MultiplicityRule) -> Optional[Coloring]:
    """A greedy coloring of the square of g.  Every neighborhood sees each
    of its colors once, so it is strong odd whenever the rule allows one."""
    if not rule.allows(1):
        return None
    return _if_valid(_greedy(square(g)), lambda c: is_strong_odd(g, c, rule))


def _solve_min(
    g: Graph,
    budget: Optional[SolverBudget],
    rule: MultiplicityRule,
    proper: bool,
    rule_scopes: Sequence[frozenset[int]] = (),
    odd_scopes: Sequence[frozenset[int]] = (),
    stats: Optional[SolveStats] = None,
    fallback: Callable[[], Optional[Coloring]] = lambda: None,
) -> tuple[int, Coloring]:
    """Least t with a coloring.  ``fallback`` gives a verified coloring, or
    None, for ``BudgetExceeded`` to carry as its upper bound and witness."""
    budget = budget or SolverBudget()
    max_colors = budget.max_colors if budget.max_colors is not None else max(g.n, 1)
    start = time.monotonic()
    if g.n == 0:
        return 0, Coloring({})
    engine = _Engine(g, rule, proper, rule_scopes, odd_scopes,
                     node_limit=budget.node_limit, deadline=start + budget.time_limit)

    def exceeded(lower_bound: int) -> BudgetExceeded:
        witness = fallback()
        upper = witness.num_colors() if witness is not None else None
        return BudgetExceeded(lower_bound, upper, witness, engine.nodes)

    for t in range(1, max_colors + 1):
        before = engine.nodes
        try:
            assignment = engine.run(t)
        except _Stop:
            raise exceeded(t) from None
        finally:
            if stats is not None:
                stats.nodes_by_t[t] = engine.nodes - before
                stats.nodes = engine.nodes
                stats.seconds = time.monotonic() - start
        if assignment is not None:
            return t, Coloring(assignment)
    raise exceeded(max_colors + 1)


def chi_so_exact(
    g: Graph,
    budget: Optional[SolverBudget] = None,
    rule: MultiplicityRule = ODD_RULE,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    """Minimum colors in a strong odd coloring (proper + neighborhood rule)."""
    return _solve_min(g, budget, rule, True, _strong_odd_scopes(g), stats=stats,
                      fallback=lambda: _square_coloring(g, rule))


def chi_iso_exact(
    g: Graph,
    budget: Optional[SolverBudget] = None,
    rule: MultiplicityRule = ODD_RULE,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    """Improper variant: the neighborhood rule without properness."""
    return _solve_min(g, budget, rule, False, _strong_odd_scopes(g), stats=stats,
                      fallback=lambda: _square_coloring(g, rule))


def chi_odd_exact(
    g: Graph,
    budget: Optional[SolverBudget] = None,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    """Minimum colors in an odd coloring: proper, and every non-isolated
    vertex sees some color an odd number of times."""
    return _solve_min(g, budget, ODD_RULE, True, odd_scopes=_odd_scopes(g), stats=stats,
                      fallback=lambda: _if_valid(_greedy(square(g)),
                                                 lambda c: is_odd_coloring(g, c)))


def chi_exact(
    g: Graph,
    budget: Optional[SolverBudget] = None,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    """Ordinary chromatic number."""
    return _solve_min(g, budget, ODD_RULE, True, stats=stats,
                      fallback=lambda: _if_valid(_greedy(g), lambda c: is_proper(g, c)))


def chi_so_constrained(
    g: Graph,
    constraints: ConstraintSet,
    budget: Optional[SolverBudget] = None,
    rule: MultiplicityRule = ODD_RULE,
    stats: Optional[SolveStats] = None,
) -> tuple[int, Coloring]:
    """Minimum colors proper on g, strong odd on every digraph constraint's
    out-neighborhoods, and strong odd on every tracked set."""
    check_constraints(g, constraints.digraphs, constraints.sets)
    scopes: list[frozenset[int]] = []
    for d in constraints.digraphs:
        scopes.extend(d.out_neighbors(v) for v in range(d.n))
    scopes.extend(frozenset(m) for m in constraints.sets)
    # Arc properness is implied by properness on g since arcs are g-edges.
    return _solve_min(g, budget, rule, True, scopes, stats=stats)


def feasible(
    g: Graph,
    t: int,
    rule: MultiplicityRule = ODD_RULE,
    notion: str = "strong_odd",
    budget: Optional[SolverBudget] = None,
) -> Optional[Coloring]:
    """Witness for a t-coloring of the requested notion, or None."""
    budget = budget or SolverBudget()
    if notion == "strong_odd":
        scopes = (_strong_odd_scopes(g), ())
    elif notion == "odd":
        scopes = ((), _odd_scopes(g))
    else:
        raise InputError(f"unknown notion {notion!r}")
    engine = _Engine(g, rule, True, *scopes, node_limit=budget.node_limit,
                     deadline=time.monotonic() + budget.time_limit)
    try:
        assignment = engine.run(t)
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
