"""Core graph types and constructors."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from strongodd.graphs import (
    Coloring,
    DiGraph,
    Graph,
    GraphError,
    Hypergraph,
    MultiplicityRule,
    ODD_RULE,
    PlaneGraph,
    join_with_clique,
    product_coords,
    product_vertex,
    square,
    strong_product,
)


def small_graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if draw(st.booleans())]
        return Graph(n, edges)

    return build()


def brute_strong_product(h: Graph, path_len: int) -> Graph:
    """Independent oracle: test the three adjacency cases pointwise."""
    n = h.n * path_len
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            (u, d) = product_coords(a, h.n)
            (v, e) = product_coords(b, h.n)
            same_h = u == v
            adj_h = h.has_edge(u, v) if u != v else False
            same_p = d == e
            adj_p = abs(d - e) == 1
            if (same_h and adj_p) or (same_p and adj_h) or (adj_h and adj_p):
                edges.append((a, b))
    return Graph(n, edges)


class TestGraph:
    def test_validation(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 0)])
        with pytest.raises(GraphError):
            Graph(3, [(0, 5)])

    def test_dedup_and_normalize(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.m == 1
        assert g.has_edge(1, 0)

    def test_immutability(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 5

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert g.components() == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]


class TestStrongProduct:
    def test_identity_factor_is_path(self):
        assert strong_product(Graph(1), 5) == Graph.path(5)

    def test_two_edges_make_k4(self):
        assert strong_product(Graph.complete(2), 2) == Graph.complete(4)

    def test_p3_times_p3(self):
        got = strong_product(Graph.path(3), 3)
        assert got.n == 9
        assert got == brute_strong_product(Graph.path(3), 3)
        assert got.m == 20

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(5), st.integers(1, 4))
    def test_matches_brute_force(self, h, path_len):
        assert strong_product(h, path_len) == brute_strong_product(h, path_len)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(5), st.integers(1, 4))
    def test_layer_locality(self, h, path_len):
        g = strong_product(h, path_len)
        for a, b in g.edges:
            assert abs(a // max(h.n, 1) - b // max(h.n, 1)) <= 1

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(6))
    def test_product_with_single_layer(self, h):
        assert strong_product(h, 1) == h


class TestJoin:
    def test_t_zero_unchanged(self):
        g = Graph(3)
        assert join_with_clique(g, 0) == g

    def test_k2_plus_one_is_triangle(self):
        assert join_with_clique(Graph.complete(2), 1) == Graph.complete(3)

    def test_c4_plus_k2_edge_count(self):
        assert join_with_clique(Graph.cycle(4), 2).m == 13

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(6), st.integers(0, 3))
    def test_edge_increment(self, g, t):
        joined = join_with_clique(g, t)
        assert joined.m == g.m + t * g.n + t * (t - 1) // 2


class TestSquare:
    def test_p3_squared_is_k3(self):
        assert square(Graph.path(3)) == Graph.complete(3)

    def test_c5_squared_is_k5(self):
        assert square(Graph.cycle(5)) == Graph.complete(5)

    def test_p5_squared(self):
        sq = square(Graph.path(5))
        assert sq.n == 5 and sq.m == 7

    def test_idempotence_matches_diameter(self):
        # On connected graphs, one squaring is a fixpoint of further squaring
        # exactly when the original diameter is at most two (the square is
        # then already complete).
        corpus = [Graph.path(n) for n in range(2, 8)]
        corpus += [Graph.cycle(n) for n in range(3, 9)]
        corpus += [Graph.complete(n) for n in range(2, 6)]
        corpus.append(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        for g in corpus:
            diam = max(
                d
                for v in range(g.n)
                for d in g.bfs_distances([v])
                if d is not None
            )
            sq = square(g)
            assert (square(sq) == sq) == (diam <= 2)


class TestDiGraph:
    def test_both_directions_allowed(self):
        d = DiGraph(2, [(0, 1), (1, 0)])
        assert d.out_neighbors(0) == {1} and d.out_neighbors(1) == {0}

    def test_from_graph(self):
        d = DiGraph.from_graph(Graph.path(3))
        assert len(d.arcs) == 4

    def test_restrict(self):
        d = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert d.restrict([0, 1, 2]).arcs == {(0, 1), (1, 2)}

    def test_induced_walk_matches_full_scan(self):
        # The out-neighborhood walk must find exactly the arcs a scan of
        # every arc keeps, each once, on empty, partial and full subsets.
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randrange(0, 14)
            d = DiGraph(n, [(u, v) for u in range(n) for v in range(n)
                            if u != v and rng.random() < 0.3])
            for keep in (set(), set(range(n)),
                         {v for v in range(n) if rng.random() < 0.5}):
                scanned = sorted(a for a in d.arcs if a[0] in keep and a[1] in keep)
                assert sorted(d.induced_arcs(keep)) == scanned
                assert d.restrict(keep) == DiGraph(n, scanned)


class TestPlaneGraph:
    def test_triangle_two_faces(self):
        g = Graph.complete(3)
        p = PlaneGraph(g, [(0, 1, 2), (0, 2, 1)])
        assert len(p.faces) == 2

    def test_edge_multiplicity_enforced(self):
        g = Graph.complete(3)
        with pytest.raises(GraphError):
            PlaneGraph(g, [(0, 1, 2)])

    def test_boundary_must_be_cycle(self):
        g = Graph.path(3)
        with pytest.raises(GraphError):
            PlaneGraph(g, [(0, 1, 2), (2, 1, 0)])

    def test_hypergraph_validation(self):
        with pytest.raises(GraphError):
            Hypergraph(3, [[]])
        h = Hypergraph(3, [[0, 1], [2]])
        assert len(h.hyperedges) == 2


class TestRules:
    def test_odd_rule(self):
        assert ODD_RULE.allows(0) and ODD_RULE.allows(1) and ODD_RULE.allows(3)
        assert not ODD_RULE.allows(2)

    def test_generalized_rule(self):
        rule = MultiplicityRule(3, frozenset({1, 2}))
        assert rule.allows(0) and rule.allows(1) and rule.allows(2)
        assert not rule.allows(3) and rule.allows(4)

    def test_validation(self):
        with pytest.raises(GraphError):
            MultiplicityRule(2, frozenset())
        with pytest.raises(GraphError):
            MultiplicityRule(2, frozenset({2}))


class TestColoring:
    def test_from_values_deterministic(self):
        c = Coloring.from_values({0: "b", 1: "a", 2: "b"})
        assert c.assignment == {0: 0, 1: 1, 2: 0}
        assert c.tuples == {0: "b", 1: "a", 2: "b"}

    def test_classes_and_restrict(self):
        c = Coloring({0: 1, 1: 1, 2: 2})
        assert c.classes() == {1: {0, 1}, 2: {2}}
        assert c.restrict([0, 2]).assignment == {0: 1, 2: 2}
