"""Layered treewidth coloring and clique colorings."""

import random
from collections import Counter

import pytest

from strongodd.bounds import tw_bound, tw_clique_bound
from strongodd import treewidth
from strongodd.canon import canonical_key
from strongodd.experiments import random_subdigraph, random_subsets, tw_instance
from strongodd.gadgets import gen_random_partial_ktree
from strongodd.graphs import Coloring, DiGraph, Graph
from strongodd.ktree import KTreeSeq, bfs_layering, build_ktree
from strongodd.solver import chi_so_constrained, ConstraintSet, SolverBudget
from strongodd.treewidth import (
    InputNotSubgraph,
    NotAStepClique,
    TypeMatrix,
    _parity_repair,
    clique_coloring,
    color_tw,
)
from strongodd.verify import (
    is_proper,
    is_strong_odd_directed,
    is_strong_odd_on_set,
)


class TestBaseCase:
    def test_odd_set_single_color(self):
        seq = KTreeSeq.make(0, [(v, []) for v in range(3)])
        c = color_tw(seq, [], [frozenset({0, 1, 2})])
        assert c.num_colors() == 1

    def test_even_set_splits_one_vertex(self):
        seq = KTreeSeq.make(0, [(v, []) for v in range(4)])
        c = color_tw(seq, [], [frozenset(range(4))])
        assert c.num_colors() == 2
        classes = sorted(len(vs) for vs in c.classes().values())
        assert classes == [1, 3]
        assert is_strong_odd_on_set(c, range(4))

    def test_arcless_digraph_required(self):
        seq = KTreeSeq.make(0, [(v, []) for v in range(2)])
        with pytest.raises(InputNotSubgraph):
            color_tw(seq, [DiGraph(2, [(0, 1)])], [])


class TestColorTw:
    def test_t1_t2_t3_random(self):
        for i in range(60):
            seq, g, digraphs, sets = tw_instance(i, quick=True)
            c = color_tw(seq, digraphs, sets)
            assert is_proper(g, c).ok
            for d in digraphs:
                assert is_strong_odd_directed(d, c).ok
            for m in sets:
                assert is_strong_odd_on_set(c, m)
            assert tw_bound(seq.k, len(digraphs), len(sets)).at_least(c.num_colors())

    def test_not_cheaper_than_exact_optimum(self):
        # Sanity, not tightness: on tiny instances the construction cannot
        # beat the constrained exact solver.
        for i in range(12):
            rng = random.Random(3000 + i)
            k = rng.choice([1, 2])
            seq, mask = gen_random_partial_ktree(k, rng.randrange(1, 7 - k), 1.0, seed=i)
            g = build_ktree(seq)
            arcs = []
            for u, v in mask.edge_list():
                if rng.random() < 0.6:
                    arcs.append((u, v))
            d = DiGraph(g.n, arcs)
            m = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            constructed = color_tw(seq, [d], [m])
            optimum, _ = chi_so_constrained(
                g, ConstraintSet((d,), (m,)), SolverBudget(time_limit=30))
            assert constructed.num_colors() >= optimum

    def test_layer_discipline(self):
        # Via the tuple view: the mod-3 tag of every color matches its layer.
        seq, g, digraphs, sets = tw_instance(4, quick=True)
        if seq.k < 1 or seq.n == 0:
            pytest.skip("degenerate instance")
        c = color_tw(seq, digraphs, sets)
        layer_of = bfs_layering(seq).layer_of()
        for v, value in c.tuples.items():
            inner, _ = value
            assert inner[-1] == (layer_of[v] + 1) % 3

    def test_layer_parity_repair(self):
        # Every final color appears on an odd number of layers.
        for i in range(20):
            seq, g, digraphs, sets = tw_instance(i, quick=True)
            if seq.k < 1:
                continue
            c = color_tw(seq, digraphs, sets)
            layer_of = bfs_layering(seq).layer_of()
            spread = {}
            for v, col in c.assignment.items():
                spread.setdefault(col, set()).add(layer_of[v])
            assert all(len(s) % 2 == 1 for s in spread.values())

    def test_deterministic(self):
        seq, g, digraphs, sets = tw_instance(7, quick=True)
        a = color_tw(seq, digraphs, sets)
        b = color_tw(seq, digraphs, sets)
        assert a.assignment == b.assignment

    def test_foreign_inputs_rejected(self):
        seq, _ = gen_random_partial_ktree(1, 4, 1.0, seed=0)
        with pytest.raises(InputNotSubgraph):
            color_tw(seq, [DiGraph(seq.n, [(0, 4)])], [])
        with pytest.raises(InputNotSubgraph):
            color_tw(seq, [], [frozenset({99})])


class TestLinearWork:
    def test_clique_classes_colored_on_their_own_cliques(self, monkeypatch):
        # Each type class is colored on the completion of its own cliques'
        # vertices, so the clique-coloring instances hold at most k vertices
        # per parent clique in total, not one previous layer per class.
        k = 2
        seq, host = gen_random_partial_ktree(k, 600 - k, 1.0, seed=5)
        rng = random.Random(5)
        digraphs = [random_subdigraph(host, rng) for _ in range(2)]
        sets = random_subsets(host.n, 2, rng)
        calls = []
        inner = treewidth._clique_color_raw

        def counted(sub_seq, g, cliques):
            calls.append((sub_seq.n, len(cliques)))
            return inner(sub_seq, g, cliques)

        monkeypatch.setattr(treewidth, "_clique_color_raw", counted)
        c = color_tw(seq, digraphs, sets)
        assert calls
        assert sum(n for n, _ in calls) <= k * sum(m for _, m in calls)
        assert is_proper(host, c).ok
        assert all(is_strong_odd_directed(h, c).ok for h in digraphs)
        assert all(is_strong_odd_on_set(c, m) for m in sets)

    def test_edgeless_subinstances_are_not_built(self, monkeypatch):
        # The BFS layers of a 1-tree are edgeless: its subinstances are
        # colored from their vertex counts and sets, with no completion
        # built and no digraph restricted to them.
        completed, restricted = [], []
        complete, restrict = treewidth.layer_completion, treewidth._restrict_to

        def counted_completion(seq, vertices):
            completed.append(seq.k)
            return complete(seq, vertices)

        def counted_restrict(*args):
            restricted.append(args)
            return restrict(*args)

        monkeypatch.setattr(treewidth, "layer_completion", counted_completion)
        monkeypatch.setattr(treewidth, "_restrict_to", counted_restrict)

        def run(k, n):
            seq, host = gen_random_partial_ktree(k, n - k, 1.0, seed=9)
            rng = random.Random(9)
            digraphs = [random_subdigraph(host, rng) for _ in range(2)]
            sets = random_subsets(host.n, 2, rng)
            c = color_tw(seq, digraphs, sets)
            assert all(is_strong_odd_directed(h, c).ok for h in digraphs)
            assert all(is_strong_odd_on_set(c, m) for m in sets)

        run(1, 200)
        assert completed == [] and restricted == []
        run(2, 120)
        assert completed and set(completed) == {2}
        assert restricted


class TestCliqueColoring:
    def test_empty_family(self):
        seq, _ = gen_random_partial_ktree(2, 5, 1.0, seed=0)
        assert clique_coloring(seq, []) == {}

    def test_single_clique_single_class(self):
        seq, _ = gen_random_partial_ktree(2, 5, 1.0, seed=1)
        sigma = clique_coloring(seq, [seq.represented_clique(3)])
        assert len(sigma) == 1

    def test_properties_direct(self):
        for i in range(60):
            rng = random.Random(7000 + i)
            k = rng.choice([1, 2])
            seq, _ = gen_random_partial_ktree(k, rng.randrange(1, 20), 1.0, seed=i)
            cliques = [seq.represented_clique(v)
                       for v in range(k, seq.n) if rng.random() < 0.5]
            sigma = clique_coloring(seq, cliques)
            classes = Counter(sigma.values())
            assert all(c % 2 == 1 for c in classes.values())
            for v in range(seq.n):
                around = Counter(sigma[q] for q in sigma if v in q)
                assert all(c % 2 == 1 for c in around.values())
            assert tw_clique_bound(k).at_least(len(set(sigma.values())))

    def test_non_step_clique_rejected(self):
        seq = KTreeSeq.make(1, [(1, [0]), (2, [0])])
        with pytest.raises(NotAStepClique):
            clique_coloring(seq, [frozenset({1, 2})])


class TestTypeMatrix:
    def test_equality_is_semantic(self):
        a = TypeMatrix([(("M", 0), 5), (("N", 0, 1), 7)])
        b = TypeMatrix([(("N", 0, 1), 7), (("M", 0), 5)])
        assert a == b and hash(a) == hash(b)
        # Shuffled and repeated cells holding nested matrices.
        inner = TypeMatrix([(("M", 0), (1, 0))])
        cells = [(("M", j), (c, inner, j % 3)) for j in range(4) for c in range(3)]
        cells += [(("N", 0, h), ("apex", h)) for h in range(3)]
        mats = []
        for seed in range(8):
            shuffled = list(cells)
            random.Random(seed).shuffle(shuffled)
            mats.append(TypeMatrix(shuffled + shuffled[:5]))
        assert all(m == mats[0] and hash(m) == hash(mats[0]) for m in mats)

    def test_canonical_order(self):
        # Pinned: a sort by ``canonical_key`` gives this order in every process.
        inner = TypeMatrix([(("M", 0), (1, 0))])
        mats = [
            TypeMatrix([]),
            TypeMatrix([(("M", 0), 5)]),
            TypeMatrix([(("M", 0), 5), (("M", 0), 3)]),
            TypeMatrix([(("M", 1), 2)]),
            TypeMatrix([(("N", 0, 1), 7), (("M", 0), 5)]),
            TypeMatrix([(("M", 0), (1, inner, 2))]),
            TypeMatrix([(("M", 0), ("apex", 0))]),
            TypeMatrix([(("M", 0), (0, inner, 2))]),
        ]
        assert canonical_key(mats[1]) == (4, ((2, ((2, ((1, "M"), (0, 0))), (0, 5))),))
        order = sorted(range(len(mats)), key=lambda i: canonical_key(mats[i]))
        assert order == [0, 2, 1, 4, 7, 5, 6, 3]

    def test_inequality(self):
        assert TypeMatrix([(("M", 0), 5)]) != TypeMatrix([(("M", 1), 5)])

    def test_immutable(self):
        m = TypeMatrix([])
        with pytest.raises(AttributeError):
            m.cells = frozenset()


class TestParityRepair:
    def test_insertion_order_is_irrelevant(self):
        mat = TypeMatrix([(("M", 0), 1)])
        rng = random.Random(3)
        phi = {v: (rng.randrange(4), mat if v % 2 else 0, rng.randrange(2))
               for v in range(60)}
        layer_of = lambda v: v // 7
        expected = _parity_repair(phi, layer_of)
        for seed in range(10):
            items = list(phi.items())
            random.Random(seed).shuffle(items)
            assert _parity_repair(dict(items), layer_of) == expected
        spread = {}
        for v, c in expected.items():
            spread.setdefault(c, set()).add(layer_of(v))
        assert all(len(s) % 2 == 1 for s in spread.values())
