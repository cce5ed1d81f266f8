"""Exact solvers, enumeration oracle, and their agreement."""

import json
import random
import time
import tracemalloc
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest

from strongodd import solver
from strongodd.gadgets import gen_gk
from strongodd.graphs import Coloring, DiGraph, Graph, MultiplicityRule, ODD_RULE
from strongodd.solver import (
    BudgetExceeded,
    ConstraintSet,
    SolverBudget,
    SolveStats,
    TooLarge,
    chi_exact,
    chi_iso_exact,
    chi_odd_exact,
    chi_so_constrained,
    chi_so_exact,
    enumerate_oracle,
    feasible,
)
from strongodd.verify import (
    is_odd_coloring,
    is_proper,
    is_strong_odd,
    is_strong_odd_directed,
    is_strong_odd_on_set,
)


DATA = Path(__file__).parent / "data"


def solved(solve, g, *args, **kw):
    """Value, witness as a list, and nodes per bound of one solve, in
    increasing order of bound."""
    stats = SolveStats()
    value, witness = solve(g, *args, stats=stats, **kw)
    return {"value": value, "witness": [witness.assignment[v] for v in range(g.n)],
            "nodes_by_t": [stats.nodes_by_t[t] for t in sorted(stats.nodes_by_t)]}


def within(nodes_by_t, ceiling):
    """Node counts per bound at most a ceiling's, for the same bound."""
    return len(nodes_by_t) == len(ceiling) and all(map(int.__le__, nodes_by_t, ceiling))


def random_graph(n, p, rng):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


RULES = (
    MultiplicityRule(3, frozenset({1})),
    MultiplicityRule(3, frozenset({1, 2})),
    MultiplicityRule(4, frozenset({1, 3})),
)


def colorings_up_to_renaming(n, t):
    """Every coloring of range(n) with at most t colors, one per renaming
    class (restricted growth strings), as Colorings."""
    def grow(prefix, used):
        if len(prefix) == n:
            yield Coloring(dict(enumerate(prefix)))
            return
        for c in range(min(used + 1, t)):
            yield from grow(prefix + [c], max(used, c + 1))

    return grow([], 0)


class TestChiSo:
    def test_k4(self):
        value, witness = chi_so_exact(Graph.complete(4))
        assert value == 4 and is_strong_odd(Graph.complete(4), witness).ok

    def test_g1_gadget(self):
        g = gen_gk(1)  # the 2-leaf star
        value, witness = chi_so_exact(g)
        assert value == 3 and is_strong_odd(g, witness).ok

    def test_g2_gadget(self):
        g = gen_gk(2)
        value, witness = chi_so_exact(g)
        assert value == 5 and is_strong_odd(g, witness).ok
        assert feasible(g, 4) is None

    def test_p3(self):
        assert chi_so_exact(Graph.path(3))[0] == 3

    def test_empty(self):
        assert chi_so_exact(Graph(0))[0] == 0
        assert chi_so_exact(Graph(3))[0] == 1

    def test_budget_exceeded_carries_bounds(self):
        g = Graph.complete(6)
        with pytest.raises(BudgetExceeded) as info:
            chi_so_exact(g, SolverBudget(node_limit=3))
        assert info.value.lower_bound >= 1
        assert info.value.upper_bound == 6
        assert is_strong_odd(g, info.value.witness).ok
        assert info.value.witness.num_colors() == 6

    def test_budget_exceeded_bounds_per_notion(self):
        g = gen_gk(2)
        budget = SolverBudget(node_limit=3)
        for solve, verifier in ((chi_exact, is_proper), (chi_odd_exact, is_odd_coloring),
                                (chi_iso_exact, is_strong_odd)):
            with pytest.raises(BudgetExceeded) as info:
                solve(g, budget)
            witness = info.value.witness
            assert verifier(g, witness).ok
            assert info.value.upper_bound == witness.num_colors()
            assert info.value.lower_bound <= info.value.upper_bound
        # No bound when a count of one is not allowed, nor for constrained solves.
        even_rule = MultiplicityRule(2, frozenset({0}))
        for solve in (lambda: chi_so_exact(g, budget, rule=even_rule),
                      lambda: chi_so_constrained(g, ConstraintSet(), budget)):
            with pytest.raises(BudgetExceeded) as info:
                solve()
            assert info.value.upper_bound is None and info.value.witness is None

    def test_budget_exceeded_keeps_best_coloring(self):
        """A budget-out after a witness reports the one with fewer colors:
        the search's last witness or the greedy fallback.  A constrained
        solve has no fallback and reports the last witness."""
        g = gen_gk(3, True)  # value 11
        fallback = solver._square_coloring(g, ODD_RULE).num_colors()
        both = DiGraph(g.n, [a for u, v in g.edge_list() for a in ((u, v), (v, u))])
        for solve, has_fallback in ((partial(chi_so_exact, g), True),
                                    (partial(chi_so_constrained, g, ConstraintSet((both,))), False)):
            stats = SolveStats()
            solve(stats=stats)
            spent = [stats.nodes_by_t[t] for t in sorted(stats.nodes_by_t, reverse=True)]
            # Stop right after the first witness, then right after the second.
            for witnesses in (1, 2):
                with pytest.raises(BudgetExceeded) as info:
                    solve(SolverBudget(node_limit=sum(spent[:witnesses])))
                witness = info.value.witness
                assert is_strong_odd(g, witness).ok
                assert info.value.upper_bound == witness.num_colors()
                assert info.value.lower_bound == 1
                if has_fallback:
                    assert info.value.upper_bound <= fallback
            assert info.value.upper_bound == 11

    def test_capped_colors_keep_upper_bound_above(self):
        g = gen_gk(2)  # value 5
        with pytest.raises(BudgetExceeded) as info:
            chi_so_exact(g, SolverBudget(max_colors=4))
        assert info.value.lower_bound == 5
        assert info.value.upper_bound >= 5

    def test_nodes_by_t_sums_to_nodes(self):
        """One key per bound: the starting bound, one less than each
        witness's color count, and last value - 1, the refutation."""
        g, stats = gen_gk(2), SolveStats()
        value, _ = chi_so_exact(g, stats=stats)
        bounds = sorted(stats.nodes_by_t, reverse=True)
        assert bounds[0] == g.n and bounds[-1] == value - 1
        assert sum(stats.nodes_by_t.values()) == stats.nodes > 0
        stats = SolveStats()
        chi_so_exact(g, SolverBudget(max_colors=6), stats=stats)
        assert max(stats.nodes_by_t) == 6 and min(stats.nodes_by_t) == value - 1
        stats = SolveStats()
        with pytest.raises(BudgetExceeded) as info:  # after the first witness
            chi_so_exact(g, SolverBudget(node_limit=10), stats=stats)
        assert len(stats.nodes_by_t) == 2
        assert stats.nodes == info.value.nodes == sum(stats.nodes_by_t.values())


class TestEngine:
    """The search keeps its own stack: depth is bounded by memory only."""

    def test_long_path(self):
        g = Graph.path(5000)
        value, witness = chi_exact(g)
        assert value == 2 and is_proper(g, witness).ok
        witness = feasible(g, 3)
        assert witness is not None and is_strong_odd(g, witness).ok
        assert feasible(g, 2) is None

    def test_counters_sized_by_colors_opened(self):
        """Per-color counters sized by the starting bound n would hold
        5,000 x 5,000 slots, 200 MB, on this path."""
        g = Graph.path(5000)
        tracemalloc.start()
        try:
            value, witness = chi_so_exact(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 3 and is_strong_odd(g, witness).ok
        assert peak < 50_000_000

    def test_many_isolated_vertices(self):
        value, witness = chi_so_exact(Graph(1200))
        assert value == 1 and is_strong_odd(Graph(1200), witness).ok

    def test_time_limit(self):
        g = gen_gk(4)
        start = time.monotonic()
        with pytest.raises(BudgetExceeded) as info:
            chi_so_exact(g, SolverBudget(time_limit=0.3))
        assert time.monotonic() - start < 5
        assert info.value.lower_bound <= info.value.upper_bound
        assert is_strong_odd(g, info.value.witness).ok


class TestChiIso:
    def test_odd_complete(self):
        for n in (3, 5):
            value, witness = chi_iso_exact(Graph.complete(n))
            assert value == n
            report = is_strong_odd(Graph.complete(n), witness)
            parity_only = [v for v in report.violations if v[0] != "edge"]
            assert not parity_only

    def test_all_degrees_odd_means_one(self):
        g = Graph.complete(4)  # every degree 3
        value, witness = chi_iso_exact(g)
        assert value == 1

    def test_k4_matches_oracle(self):
        g = Graph.complete(4)
        value, _ = chi_iso_exact(g)
        assert enumerate_oracle(g, value, proper_required=False)
        if value > 1:
            assert not enumerate_oracle(g, value - 1, proper_required=False)


class TestConstrained:
    def test_empty_constraints_is_chromatic(self):
        rng = random.Random(0)
        for _ in range(30):
            g = random_graph(rng.randrange(1, 7), rng.random(), rng)
            constrained, _ = chi_so_constrained(g, ConstraintSet())
            plain, _ = chi_exact(g)
            assert constrained == plain

    def test_even_full_set_needs_two(self):
        g = Graph(4)
        value, witness = chi_so_constrained(
            g, ConstraintSet(sets=(frozenset(range(4)),)))
        assert value == 2
        assert is_strong_odd_on_set(witness, range(4))

    def test_k2_both_arcs(self):
        g = Graph.complete(2)
        d = DiGraph(2, [(0, 1), (1, 0)])
        value, witness = chi_so_constrained(g, ConstraintSet(digraphs=(d,)))
        assert value == 2
        assert is_strong_odd_directed(d, witness).ok

    def test_foreign_constraint_rejected(self):
        with pytest.raises(ValueError):
            chi_so_constrained(Graph(2), ConstraintSet(digraphs=(DiGraph(3),)))


class TestOracle:
    def test_p3_threshold(self):
        g = Graph.path(3)
        assert not enumerate_oracle(g, 2)
        assert enumerate_oracle(g, 3)

    def test_k3(self):
        assert enumerate_oracle(Graph.complete(3), 3)
        assert not enumerate_oracle(Graph.complete(3), 2)

    def test_guard(self):
        with pytest.raises(TooLarge):
            enumerate_oracle(Graph(40), 20)

    def test_agreement_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_graph(rng.randrange(1, 8), rng.random(), rng)
            value, witness = chi_so_exact(g)
            assert is_strong_odd(g, witness).ok
            assert enumerate_oracle(g, value)
            if value > 1:
                assert not enumerate_oracle(g, value - 1)

    def test_generalized_rule_paths(self):
        # Multiplicities must be 1 mod 3: a 4-leaf star works with two colors.
        rule = MultiplicityRule(3, frozenset({1}))
        star4 = Graph(5, [(0, i) for i in range(1, 5)])
        value, witness = chi_so_exact(star4, rule=rule)
        assert value == 2
        assert enumerate_oracle(star4, 2, rule=rule)

    def test_first_color_pruning_matches_oracle(self):
        # The search opens at most one new color per vertex; the oracle
        # tries every assignment, so the least t must agree.
        rng = random.Random(21)
        for _ in range(25):
            g = random_graph(rng.randrange(1, 7), rng.random(), rng)
            value, _ = chi_so_exact(g)
            assert enumerate_oracle(g, value)
            assert not enumerate_oracle(g, value - 1)


class TestOddSolver:
    def test_chain_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng.randrange(1, 8), rng.random(), rng)
            chromatic, _ = chi_exact(g)
            odd, witness = chi_odd_exact(g)
            strong, _ = chi_so_exact(g)
            assert chromatic <= odd <= strong
            assert is_odd_coloring(g, witness).ok

    def test_c4(self):
        # Every proper coloring of C4 with under four colors leaves some
        # vertex whose two neighbors share a color.
        value, _ = chi_odd_exact(Graph.cycle(4))
        assert value == 4

    def test_feasibility_witness(self):
        g = gen_gk(2)
        witness = feasible(g, 4, notion="odd")
        assert witness is not None and is_odd_coloring(g, witness).ok


class TestForwardCheck:
    """The forward check may cut only branches that hold no solution."""

    def test_rules_match_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng.randrange(1, 8), rng.random(), rng)
            for rule in (ODD_RULE,) + RULES:
                for solve, proper in ((chi_so_exact, True), (chi_iso_exact, False)):
                    value, witness = solve(g, rule=rule)
                    report = is_strong_odd(g, witness, rule)
                    assert not [v for v in report.violations if proper or v[0] != "edge"]
                    assert enumerate_oracle(g, value, rule=rule, proper_required=proper)
                    assert not enumerate_oracle(g, value - 1, rule=rule,
                                                proper_required=proper)

    def test_odd_feasibility_matches_brute_force(self):
        rng = random.Random(32)
        for _ in range(40):
            g = random_graph(rng.randrange(1, 8), rng.random(), rng)
            value, _ = chi_odd_exact(g)
            for t in range(1, value + 2):
                witness = feasible(g, t, notion="odd")
                exists = any(is_odd_coloring(g, c).ok
                             for c in colorings_up_to_renaming(g.n, t))
                assert (witness is not None) == exists == (t >= value)
                if witness is not None:
                    assert is_odd_coloring(g, witness).ok

    def test_constrained_witnesses_verify_and_are_minimal(self):
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randrange(1, 8)
            g = random_graph(n, rng.random(), rng)
            d = DiGraph(n, [(u, v) if rng.random() < 0.5 else (v, u)
                            for u, v in g.edge_list() if rng.random() < 0.7])
            sets = tuple(frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
                         for _ in range(rng.randrange(3)))
            rule = rng.choice((ODD_RULE,) + RULES)
            value, witness = chi_so_constrained(g, ConstraintSet((d,), sets), rule=rule)

            def ok(c):
                return (is_proper(g, c).ok and is_strong_odd_directed(d, c, rule).ok
                        and all(is_strong_odd_on_set(c, m, rule) for m in sets))

            assert ok(witness)
            assert not any(ok(c) for c in colorings_up_to_renaming(n, value - 1))

    def test_values_and_witnesses_pinned(self):
        """(value, witness) pairs recorded before scopes were forward
        checked.  Cuts remove only subtrees without the least valid
        coloring, so the first witness stays the same.  ``solver_nodes.json``
        adds chi_iso and the nodes per bound, in increasing order of bound;
        its ``ceiling`` holds the counts recorded when the search became one
        branch-and-bound pass, which no count may exceed."""
        cases = json.loads((DATA / "solver_witnesses.json").read_text())
        nodes = json.loads((DATA / "solver_nodes.json").read_text())["pinned"]
        assert len(cases) == len(nodes) == 41
        for case, pins in zip(cases, nodes):
            assert case["name"] == pins["name"]
            g = Graph(case["n"], [tuple(e) for e in case["edges"]])
            for label, solve in (("chi_so", chi_so_exact), ("chi_odd", chi_odd_exact),
                                 ("chi", chi_exact)):
                want = {**case[label], "nodes_by_t": pins[label]}
                assert solved(solve, g) == want, (case["name"], label)
            assert solved(chi_iso_exact, g) == pins["chi_iso"], (case["name"], "chi_iso")
            ceiling = pins["ceiling"]
            assert within(pins["chi_iso"]["nodes_by_t"], ceiling["chi_iso"])
            assert all(within(pins[label], ceiling[label])
                       for label in ("chi_so", "chi_odd", "chi"))

    def test_gadgets_constraints_and_rules_pinned(self):
        """G_1-G_3 with and without tree edges, a constrained solve and a
        non-odd rule: values, witnesses and nodes per bound, the counts at
        most their ``ceiling``."""
        cases = json.loads((DATA / "solver_nodes.json").read_text())["extra"]
        assert len(cases) == 11
        for case in cases:
            g = Graph(case["n"], [tuple(e) for e in case["edges"]])
            kw = {}
            if "rule" in case:
                modulus, residues = case["rule"]
                kw["rule"] = MultiplicityRule(modulus, frozenset(residues))
            if case["solver"] == "chi_so_constrained":
                constraints = ConstraintSet((DiGraph(g.n, [tuple(a) for a in case["arcs"]]),),
                                            tuple(map(frozenset, case["sets"])))
                got = solved(chi_so_constrained, g, constraints, **kw)
            else:
                solve = {"chi_so": chi_so_exact, "chi_iso": chi_iso_exact}[case["solver"]]
                got = solved(solve, g, **kw)
            want = {k: case[k] for k in ("value", "witness", "nodes_by_t")}
            assert got == want, case["name"]
            assert within(case["nodes_by_t"], case["ceiling"]), case["name"]


ANY_COUNT = MultiplicityRule(1, frozenset({0}))  # rules nothing out: chi's oracle


def false_twins(g):
    """Pairs of distinct vertices with the same neighbourhood."""
    return [(x, y) for x, y in combinations(range(g.n), 2)
            if g.neighbors(x) == g.neighbors(y)]


def with_twin_copies(n, p, copies, rng):
    """A random graph on n vertices, then ``copies`` more vertices, each a
    false twin of a random earlier one."""
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    for w in range(n, n + copies):
        v = rng.randrange(w)
        edges += [(u, w) for u in range(w) if (min(u, v), max(u, v)) in edges]
    return Graph(n + copies, edges)


def twin_rich_graphs():
    star = [Graph(a + 1, [(0, i) for i in range(1, a + 1)]) for a in (1, 2, 3, 5)]
    bipartite = [Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
                 for a, b in ((2, 2), (2, 3), (3, 3), (2, 5))]
    isolated = [Graph(5, []), Graph(6, [(0, 1)]), Graph(7, [(0, 1), (1, 2)]),
                Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3)])]
    gk = [gen_gk(k, tree) for k in (1, 2) for tree in (False, True)]
    rng = random.Random(41)
    copied = [with_twin_copies(rng.randrange(2, 6), rng.random(), rng.randrange(1, 4), rng)
              for _ in range(24)]
    return star + bipartite + isolated + gk + copied


def split_constraints(g, rng):
    """A digraph on some of g's edges and tracked sets that hold one vertex
    of a twin pair but not the other, plus a random set."""
    d = DiGraph(g.n, [(u, v) if rng.random() < 0.5 else (v, u)
                      for u, v in g.edge_list() if rng.random() < 0.6])
    sets = [frozenset(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))]
    for x, y in false_twins(g)[:3]:
        others = [v for v in range(g.n) if v not in (x, y)]
        sets.append(frozenset({x, *rng.sample(others, min(len(others), rng.randrange(3)))}))
    return ConstraintSet((d,), tuple(sets))


class TestTwinFloors:
    """A vertex's color starts at its latest earlier false twin's color when
    both lie in the same scopes.  The cut must keep every value and first
    witness and may only remove nodes.  Each solve is checked against
    exhaustive enumeration: ``enumerate_oracle`` for the notions it decides,
    and every coloring up to renaming for the others.  It is also checked
    against the same engine with its floors blanked out."""

    @staticmethod
    def runs(call, floors):
        """call()'s result, as plain values, and the nodes its engine search
        spent under each bound, with the twin floors on or blanked out.
        Both searches yield the same least colorings, so their bounds
        change in step."""
        nodes = []
        real_run, real_init = solver._Engine.run, solver._Engine.__init__

        def run(self, bound):
            before = self.nodes
            for assignment in real_run(self, bound):
                nodes.append(self.nodes - before)
                yield assignment
                before = self.nodes
            nodes.append(self.nodes - before)

        def unfloored(self, *args, **kw):
            real_init(self, *args, **kw)
            self.floor = [self.n] * self.n

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver._Engine, "run", run)
            if not floors:
                mp.setattr(solver._Engine, "__init__", unfloored)
            out = call()
        if isinstance(out, tuple):
            out = out[0], out[1].assignment
        elif out is not None:
            out = out.assignment
        return out, nodes

    def check(self, call):
        """call()'s result, once it is shown equal to the unfloored engine's
        with at most its nodes under every bound."""
        got, nodes = self.runs(call, floors=True)
        want, ceiling = self.runs(call, floors=False)
        assert got == want
        assert within(nodes, ceiling)
        return got

    def test_strong_odd_and_chromatic(self):
        for g in twin_rich_graphs():
            for rule in (ODD_RULE, RULES[0], RULES[2]):
                for solve, proper in ((chi_so_exact, True), (chi_iso_exact, False)):
                    value, _ = self.check(lambda: solve(g, rule=rule))
                    assert enumerate_oracle(g, value, rule, proper)
                    assert not enumerate_oracle(g, value - 1, rule, proper)
            value, _ = self.check(lambda: chi_exact(g))
            assert enumerate_oracle(g, value, ANY_COUNT)
            assert not enumerate_oracle(g, value - 1, ANY_COUNT)

    def test_odd(self):
        for g in twin_rich_graphs():
            value, _ = self.check(lambda: chi_odd_exact(g))
            for t in (value - 1, value):
                exists = any(is_odd_coloring(g, c).ok for c in colorings_up_to_renaming(g.n, t))
                assert exists == (t == value)

    def test_feasible_under_both_notions(self):
        for g in twin_rich_graphs():
            for t in range(1, 5):
                for rule in (ODD_RULE, RULES[0], RULES[2]):
                    witness = self.check(lambda: feasible(g, t, rule))
                    assert (witness is not None) == enumerate_oracle(g, t, rule)
                witness = self.check(lambda: feasible(g, t, notion="odd"))
                assert (witness is not None) == any(
                    is_odd_coloring(g, c).ok for c in colorings_up_to_renaming(g.n, t))

    def test_constrained_with_split_twins(self):
        rng = random.Random(42)
        for g in twin_rich_graphs():
            constraints = split_constraints(g, rng)
            (d,), sets = constraints.digraphs, constraints.sets

            def ok(c, rule):
                return (is_proper(g, c).ok and is_strong_odd_directed(d, c, rule).ok
                        and all(is_strong_odd_on_set(c, m, rule) for m in sets))

            for rule in (ODD_RULE, RULES[0], RULES[2]):
                value, _ = self.check(lambda: chi_so_constrained(g, constraints, rule=rule))
                for t in (value - 1, value):
                    exists = any(ok(c, rule) for c in colorings_up_to_renaming(g.n, t))
                    assert exists == (t == value)

    def test_gadgets_beyond_the_oracle(self):
        """G_3 with and without tree edges: 15 vertices, beyond enumeration.
        Its sibling leaves are twins, so the floors cut nodes there."""
        _, nodes = self.runs(lambda: chi_so_exact(gen_gk(3)), floors=True)
        _, ceiling = self.runs(lambda: chi_so_exact(gen_gk(3)), floors=False)
        assert sum(nodes) < sum(ceiling)
        for tree in (False, True):
            g = gen_gk(3, tree)
            for solve in (chi_so_exact, chi_odd_exact, chi_exact):
                self.check(lambda: solve(g))
            self.check(lambda: chi_iso_exact(g))
            self.check(lambda: feasible(g, 8))


class TestSinglePass:
    """One search lowers its bound at each witness.  Its last witness must
    be the one a search at the value alone finds first, and the value less
    one must be infeasible."""

    @staticmethod
    def graphs():
        rng = random.Random(43)
        plain = [random_graph(rng.randrange(1, 10), rng.random(), rng) for _ in range(30)]
        copied = [with_twin_copies(rng.randrange(2, 7), rng.random(), rng.randrange(1, 4), rng)
                  for _ in range(30)]
        gk = [gen_gk(k, tree) for k in (1, 2, 3) for tree in (False, True)]
        return plain + copied + gk

    def test_strong_odd(self):
        for g in self.graphs():
            for rule in (ODD_RULE,) + RULES:
                value, witness = chi_so_exact(g, rule=rule)
                assert feasible(g, value, rule).assignment == witness.assignment
                assert feasible(g, value - 1, rule) is None

    def test_odd(self):
        for g in self.graphs():
            value, witness = chi_odd_exact(g)
            assert feasible(g, value, notion="odd").assignment == witness.assignment
            assert feasible(g, value - 1, notion="odd") is None
