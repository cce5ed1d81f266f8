"""Product, summand, and clique-sum colorings."""

import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from strongodd import InvariantViolated, sumcolor
from strongodd.bounds import Bound
from strongodd.experiments import random_sum_desc, random_subdigraph, random_subsets
from strongodd.gadgets import gen_random_partial_ktree
from strongodd.graphs import DiGraph, Graph, join_with_clique, strong_product
from strongodd.ktree import KTreeSeq, build_ktree
from strongodd.rowtw import color_rtw
from strongodd.solver import ConstraintSet, chi_so_constrained
from strongodd.sumcolor import (
    UntaggedClique,
    color_sum,
    color_summand,
    sum_clique_coloring,
    tag_cliques,
)
from strongodd.sums import SumDesc, Summand, build_sum
from strongodd.treewidth import InputNotSubgraph, clique_coloring, color_tw
from strongodd.verify import (
    is_proper,
    is_strong_odd,
    is_strong_odd_directed,
    is_strong_odd_on_set,
)


class TestColorRtw:
    def test_single_layer_reduces_to_tw(self):
        seq, _ = gen_random_partial_ktree(1, 5, 1.0, seed=0)
        g = build_ktree(seq)
        arcs = DiGraph.from_graph(g)
        c = color_rtw(seq, 1, arcs, [])
        assert is_proper(g, c).ok and is_strong_odd_directed(arcs, c).ok

    def test_zero_tree_gives_paths(self):
        seq = KTreeSeq.make(0, [(0, [])])
        prod = strong_product(build_ktree(seq), 6)
        assert prod == Graph.path(6)
        arcs = DiGraph.from_graph(prod)
        c = color_rtw(seq, 6, arcs, [])
        assert is_strong_odd(prod, c).ok

    def test_r1_r2_r3_random(self):
        for i in range(60):
            rng = random.Random(200 + i)
            k = rng.choice([0, 1])
            seq, _ = gen_random_partial_ktree(k, rng.randrange(0, 10), 1.0, seed=i)
            path_len = rng.randrange(1, 7)
            prod = strong_product(build_ktree(seq), path_len)
            arcs = random_subdigraph(prod, rng)
            sets = random_subsets(prod.n, rng.randrange(0, 3), rng)
            c = color_rtw(seq, path_len, arcs, sets)
            assert is_proper(prod, c).ok
            assert is_strong_odd_directed(arcs, c).ok
            assert all(is_strong_odd_on_set(c, m) for m in sets)

    def test_foreign_arcs_rejected(self):
        seq = KTreeSeq.make(0, [(0, [])])
        with pytest.raises(InputNotSubgraph):
            color_rtw(seq, 3, DiGraph(3, [(0, 2)]), [])


class TestColorSummand:
    def test_t_zero_is_rtw(self):
        seq, _ = gen_random_partial_ktree(1, 4, 1.0, seed=3)
        prod = strong_product(build_ktree(seq), 2)
        arcs = random_subdigraph(prod, random.Random(1))
        a = color_summand(seq, 2, 0, arcs, [])
        b = color_rtw(seq, 2, arcs, [])
        assert a.assignment == b.assignment

    def test_apex_neighborhoods(self):
        seq, _ = gen_random_partial_ktree(1, 4, 1.0, seed=5)
        f = join_with_clique(strong_product(build_ktree(seq), 2), 1)
        apex = f.n - 1
        arcs = DiGraph(f.n, [(apex, v) for v in range(f.n - 1)])
        c = color_summand(seq, 2, 1, arcs, [])
        assert is_strong_odd_directed(arcs, c).ok

    def test_f1_f2_f3_random(self):
        for i in range(60):
            rng = random.Random(300 + i)
            k, t = rng.choice([0, 1]), rng.randrange(0, 3)
            seq, _ = gen_random_partial_ktree(k, rng.randrange(0, 8), 1.0, seed=i)
            path_len = rng.randrange(1, 5)
            f = join_with_clique(strong_product(build_ktree(seq), path_len), t)
            arcs = random_subdigraph(f, rng)
            sets = random_subsets(f.n, rng.randrange(0, 3), rng)
            c = color_summand(seq, path_len, t, arcs, sets)
            assert is_proper(f, c).ok
            assert is_strong_odd_directed(arcs, c).ok
            assert all(is_strong_odd_on_set(c, m) for m in sets)


class TestColorSum:
    def test_single_summand(self):
        desc = SumDesc.single(2, 1, 1, KTreeSeq.make(1, [(1, [0])]), 2)
        s = build_sum(desc)
        arcs = random_subdigraph(s.graph, random.Random(0))
        c = color_sum(desc, arcs, [])
        assert is_proper(s.graph, c).ok and is_strong_odd_directed(arcs, c).ok

    def test_two_glued_on_vertex_k0_t0(self):
        path = Summand(KTreeSeq.make(0, [(0, [])]), 3)
        desc = SumDesc(1, 0, 0, (path, path), (((2,), (0,)),))
        s = build_sum(desc)
        arcs = DiGraph.from_graph(s.graph)
        c = color_sum(desc, arcs, [])
        assert is_strong_odd(s.graph, c).ok

    def test_s1_s2_s3_random(self):
        for i in range(60):
            rng = random.Random(400 + i)
            w, k, t = rng.choice([1, 2]), rng.choice([0, 1]), rng.choice([0, 1])
            desc = random_sum_desc(w, k, t, rng.randrange(1, 6), seed=i)
            s = build_sum(desc)
            if s.graph.n > 60 or s.graph.n == 0:
                continue
            arcs = random_subdigraph(s.graph, rng)
            sets = random_subsets(s.graph.n, rng.randrange(0, 3), rng)
            c = color_sum(desc, arcs, sets)
            assert is_proper(s.graph, c).ok
            assert is_strong_odd_directed(arcs, c).ok
            assert all(is_strong_odd_on_set(c, m) for m in sets)

    def test_deterministic(self):
        desc = random_sum_desc(2, 1, 1, 4, seed=8)
        arcs = random_subdigraph(build_sum(desc).graph, random.Random(2))
        assert color_sum(desc, arcs, []).assignment == \
            color_sum(desc, arcs, []).assignment


class TestLinearWork:
    def test_clique_groups_colored_on_their_own_summand(self, monkeypatch):
        # A (summand, type) group of parent cliques is colored on its host
        # summand alone, never on the whole layer sum around it.
        desc = random_sum_desc(2, 1, 1, 24, seed=5)
        s = build_sum(desc)
        rng = random.Random(5)
        arcs = random_subdigraph(s.graph, rng)
        sets = random_subsets(s.graph.n, 2, rng)
        largest = max(summand.n(desc.t) for summand in desc.summands)
        sizes = []
        inner = sumcolor._color_by_reps

        def counted(n, reps, color):
            sizes.append(n)
            return inner(n, reps, color)

        monkeypatch.setattr(sumcolor, "_color_by_reps", counted)
        c = color_sum(desc, arcs, sets)
        assert sizes and max(sizes) <= largest
        assert is_proper(s.graph, c).ok and is_strong_odd_directed(arcs, c).ok
        assert all(is_strong_odd_on_set(c, m) for m in sets)

    def test_tagging_builds_each_summand_once(self, monkeypatch):
        # Tagging reads each host summand's k-tree once per call, not once
        # per clique.
        desc = random_sum_desc(2, 1, 1, 48, seed=3)
        s = build_sum(desc)
        cliques = [frozenset(e) for e in s.graph.edge_list()]
        calls = []
        inner = sumcolor.build_ktree

        def counted(seq):
            calls.append(seq)
            return inner(seq)

        monkeypatch.setattr(sumcolor, "build_ktree", counted)
        tags = tag_cliques(s, cliques)
        assert len(tags) == len(cliques) > 2 * len(desc.summands)
        assert len(calls) <= len(desc.summands)


class TestCallHistory:
    def test_outputs_do_not_depend_on_earlier_calls(self):
        # A host or subinstance kept across top-level calls would show here.
        tw_a = gen_random_partial_ktree(2, 40, 1.0, seed=1)[0]
        tw_b = gen_random_partial_ktree(2, 40, 1.0, seed=2)[0]
        sum_a = random_sum_desc(2, 1, 1, 4, seed=8)
        sum_b = random_sum_desc(2, 1, 1, 4, seed=9)

        def run(seq, desc):
            outs = []
            for g, color in ((build_ktree(seq), lambda d, m: color_tw(seq, [d], m)),
                             (build_sum(desc).graph, lambda d, m: color_sum(desc, d, m))):
                d = random_subdigraph(g, random.Random(g.n))
                m = random_subsets(g.n, 2, random.Random(g.n + 1))
                c = color(d, m)
                assert is_proper(g, c).ok and is_strong_odd_directed(d, c).ok
                assert all(is_strong_odd_on_set(c, x) for x in m)
                outs.append(c)
            return outs

        first = run(tw_a, sum_a)
        run(tw_b, sum_b)
        again = run(tw_a, sum_a)
        for c, d in zip(first, again):
            assert c.assignment == d.assignment and c.tuples == d.tuples


class TestSumCliqueColoring:
    def _random_cliques(self, g, rng, count=6):
        cliques = set()
        for _ in range(count):
            r = rng.random()
            if r < 0.4 and g.n:
                cliques.add(frozenset([rng.randrange(g.n)]))
            elif g.m:
                e = g.edge_list()[rng.randrange(g.m)]
                if r < 0.8:
                    cliques.add(frozenset(e))
                else:
                    common = g.neighbors(e[0]) & g.neighbors(e[1])
                    if common:
                        cliques.add(frozenset(e) | {min(common)})
        return sorted(cliques, key=sorted)

    def test_empty_family(self):
        desc = SumDesc.single(1, 0, 1, KTreeSeq.make(0, [(0, [])]), 1)
        assert sum_clique_coloring(desc, []) == {}

    def test_single_clique(self):
        desc = SumDesc.single(1, 0, 1, KTreeSeq.make(0, [(0, [])]), 2)
        sigma = sum_clique_coloring(desc, [frozenset({0, 1})])
        assert len(sigma) == 1

    def test_repeated_clique_colored_once(self):
        # As in treewidth.clique_coloring, a repeat is one clique of the family.
        desc = SumDesc.single(1, 0, 1, KTreeSeq.make(0, [(0, [])]), 2)
        q = frozenset({0, 1})
        assert sum_clique_coloring(desc, [q, q]) == sum_clique_coloring(desc, [q])
        assert len(sum_clique_coloring(desc, [q, q])) == 1

    def test_clique_in_no_single_summand_rejected(self):
        # Two triangles glued at vertex 0: {0,1,2} and {0,3,4}.
        summand = Summand(KTreeSeq.make(0, [(0, [])]), 2)
        desc = SumDesc(1, 0, 1, (summand, summand), (((0,), (0,)),))
        across = frozenset({1, 3})
        with pytest.raises(UntaggedClique, match="no single summand"):
            tag_cliques(build_sum(desc), [across])
        with pytest.raises(UntaggedClique):
            sum_clique_coloring(desc, [across])

    def test_sprime_properties_random(self):
        for i in range(60):
            rng = random.Random(500 + i)
            w, k, t = rng.choice([1, 2]), rng.choice([0, 1]), rng.choice([0, 1])
            desc = random_sum_desc(w, k, t, rng.randrange(1, 4), seed=i)
            s = build_sum(desc)
            if s.graph.n == 0:
                continue
            cliques = self._random_cliques(s.graph, rng)
            if not cliques:
                continue
            sigma = sum_clique_coloring(desc, cliques)
            classes = Counter(sigma.values())
            assert all(c % 2 == 1 for c in classes.values())
            for v in range(s.graph.n):
                around = Counter(sigma[q] for q in sigma if v in q)
                assert all(c % 2 == 1 for c in around.values())


PATH3 = KTreeSeq.make(1, [(1, [0]), (2, [1])])
PATH3_GRAPH = build_ktree(PATH3)
PATH_SUMMAND = Summand(KTreeSeq.make(0, [(0, [])]), 3)
PATH5_SUM = SumDesc(1, 0, 0, (PATH_SUMMAND, PATH_SUMMAND), (((2,), (0,)),))

# name -> (host graph, call taking one digraph constraint and the tracked sets)
ENTRY_POINTS = {
    "color_tw": (PATH3_GRAPH, lambda d, sets: color_tw(PATH3, [d], sets)),
    "color_rtw": (strong_product(PATH3_GRAPH, 2),
                  lambda d, sets: color_rtw(PATH3, 2, d, sets)),
    "color_summand": (join_with_clique(strong_product(PATH3_GRAPH, 2), 1),
                      lambda d, sets: color_summand(PATH3, 2, 1, d, sets)),
    "color_sum": (build_sum(PATH5_SUM).graph, lambda d, sets: color_sum(PATH5_SUM, d, sets)),
    "chi_so_constrained": (PATH3_GRAPH, lambda d, sets: chi_so_constrained(
        PATH3_GRAPH, ConstraintSet((d,), tuple(frozenset(m) for m in sets)))),
}


def _non_edge_arc(g):
    u, v = next((u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v))
    return DiGraph(g.n, [(u, v)]), []


BAD_INPUTS = {
    "arc_not_an_edge": _non_edge_arc,
    "digraph_wrong_n": lambda g: (DiGraph(g.n + 1), []),
    "set_out_of_range": lambda g: (DiGraph(g.n), [[g.n]]),
}


class TestSharedChecks:
    @pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_constraint_check_rejects(self, entry, bad):
        host, call = ENTRY_POINTS[entry]
        digraph, sets = BAD_INPUTS[bad](host)
        with pytest.raises(InputNotSubgraph):
            call(digraph, sets)

    @pytest.mark.parametrize("module, bound, call", [
        ("treewidth", "tw_bound", lambda: color_tw(PATH3)),
        ("rowtw", "rtw_bound", lambda: color_rtw(PATH3, 2)),
        ("sumcolor", "summand_bound", lambda: color_summand(PATH3, 2, 1)),
        ("sumcolor", "sum_bound", lambda: color_sum(PATH5_SUM)),
        ("treewidth", "tw_clique_bound",
         lambda: clique_coloring(PATH3, [PATH3.represented_clique(v) for v in (1, 2)])),
        ("sumcolor", "sum_clique_bound",
         lambda: sum_clique_coloring(PATH5_SUM, [frozenset({0, 1}), frozenset({1, 2})])),
    ])
    def test_exceeded_bound_raises(self, monkeypatch, module, bound, call):
        monkeypatch.setattr(f"strongodd.{module}.{bound}", lambda *args: Bound(1))
        with pytest.raises(InvariantViolated):
            call()

    def test_checks_survive_optimize_flag(self):
        code = textwrap.dedent("""
            from strongodd import Graph, InvariantViolated, KTreeSeq, build_ktree, build_sum
            from strongodd import gen_random_maximal_outerplanar, is_proper, is_strong_odd
            from strongodd import outerplanar, rowtw, sumcolor, treewidth
            from strongodd.bounds import Bound
            from strongodd.sums import SumDesc, Summand

            if __debug__:
                raise SystemExit("not running under -O")
            host = gen_random_maximal_outerplanar(40, seed=3)
            mask = Graph(host.n, build_ktree(host).edge_list()[::2])
            c = outerplanar.color_outerplanar(host, mask)
            if not is_strong_odd(mask, c).ok or c.num_colors() > 8:
                raise SystemExit("color_outerplanar output is not a strong odd 8-coloring")
            seq = KTreeSeq.make(1, [(1, [0]), (2, [1])])
            path = Summand(KTreeSeq.make(0, [(0, [])]), 3)
            desc = SumDesc(1, 0, 0, (path, path), (((2,), (0,)),))
            if not is_proper(build_ktree(seq), treewidth.color_tw(seq)).ok:
                raise SystemExit("color_tw output is not proper")
            if not is_proper(build_sum(desc).graph, sumcolor.color_sum(desc)).ok:
                raise SystemExit("color_sum output is not proper")
            one = lambda *args: Bound(1)
            treewidth.tw_bound = treewidth.tw_clique_bound = rowtw.rtw_bound = one
            sumcolor.summand_bound = sumcolor.sum_bound = sumcolor.sum_clique_bound = one
            calls = {
                "color_tw": lambda: treewidth.color_tw(seq),
                "color_rtw": lambda: rowtw.color_rtw(seq, 2),
                "color_summand": lambda: sumcolor.color_summand(seq, 2, 1),
                "color_sum": lambda: sumcolor.color_sum(desc),
                "clique_coloring": lambda: treewidth.clique_coloring(
                    seq, [seq.represented_clique(v) for v in (1, 2)]),
                "sum_clique_coloring": lambda: sumcolor.sum_clique_coloring(
                    desc, [{0, 1}, {1, 2}]),
            }
            for name, call in calls.items():
                try:
                    call()
                except InvariantViolated:
                    continue
                raise SystemExit(f"{name}: exceeded bound went unnoticed")
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
