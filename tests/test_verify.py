"""Verifier decision procedures and their witnesses."""

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from strongodd.gadgets import gen_random_maximal_outerplanar
from strongodd.graphs import (
    Coloring,
    DiGraph,
    Graph,
    Hypergraph,
    MultiplicityRule,
    ODD_RULE,
    PlaneGraph,
)
from strongodd.verify import (
    PartialColoring,
    is_facially_odd,
    is_hypergraph_strong_odd,
    is_odd_coloring,
    is_proper,
    is_strong_odd,
    is_strong_odd_directed,
    is_strong_odd_on_set,
    plane_to_strong_odd,
)


def coloring(*colors) -> Coloring:
    return Coloring({v: c for v, c in enumerate(colors)})


class TestProper:
    def test_rainbow_triangle(self):
        assert is_proper(Graph.complete(3), coloring(0, 1, 2)).ok

    def test_monochromatic_edge_witness(self):
        report = is_proper(Graph.complete(2), coloring(0, 0))
        assert not report.ok and report.violations == [("edge", 0, 1)]

    def test_edgeless_any(self):
        assert is_proper(Graph(3), coloring(0, 0, 0)).ok

    def test_partial_raises(self):
        with pytest.raises(PartialColoring):
            is_proper(Graph.complete(2), Coloring({0: 1}))


class TestStrongOdd:
    def test_star_center_sees_three(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert is_strong_odd(g, coloring(0, 1, 1, 1)).ok

    def test_star_center_sees_two(self):
        g = Graph(3, [(0, 1), (0, 2)])
        report = is_strong_odd(g, coloring(0, 1, 1))
        assert not report.ok
        assert ("parity", 0, 1, 2) in report.violations

    def test_witnesses_replay(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randrange(1, 8)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
            c = Coloring({v: rng.randrange(3) for v in range(n)})
            for violation in is_strong_odd(g, c).violations:
                if violation[0] == "edge":
                    _, u, v = violation
                    assert g.has_edge(u, v) and c.of(u) == c.of(v)
                else:
                    _, v, col, count = violation
                    real = sum(1 for u in g.neighbors(v) if c.of(u) == col)
                    assert real == count and count % 2 == 0 and count > 0

    def test_matches_reference_parity(self):
        # Independent reference: direct Counter arithmetic per vertex.
        rng = random.Random(99)
        for _ in range(10_000):
            n = rng.randrange(1, 7)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
            c = Coloring({v: rng.randrange(4) for v in range(n)})
            ref = True
            for u, v in g.edges:
                if c.of(u) == c.of(v):
                    ref = False
            for v in range(n):
                for cnt in Counter(c.of(u) for u in g.neighbors(v)).values():
                    if cnt % 2 == 0:
                        ref = False
            assert is_strong_odd(g, c).ok == ref

    def test_generalized_rule(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        c = coloring(0, 1, 1, 1, 1)
        rule = MultiplicityRule(3, frozenset({1}))
        assert is_strong_odd(g, c, rule).ok  # 4 mod 3 == 1
        assert not is_strong_odd(g, c).ok  # 4 is even


class TestSetAndDirected:
    def test_empty_set(self):
        assert is_strong_odd_on_set(coloring(), [])

    def test_pair_same_color(self):
        assert not is_strong_odd_on_set(coloring(5, 5), [0, 1])
        assert is_strong_odd_on_set(coloring(5, 5, 5), [0, 1, 2])

    def test_directed_coincides_with_undirected(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(1, 7)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
            d = DiGraph.from_graph(g)
            c = Coloring({v: rng.randrange(4) for v in range(n)})
            assert is_strong_odd(g, c).ok == is_strong_odd_directed(d, c).ok

    def test_arc_properness(self):
        d = DiGraph(2, [(0, 1)])
        assert not is_strong_odd_directed(d, coloring(3, 3)).ok

    def test_out_neighborhood_parity(self):
        d = DiGraph(3, [(0, 1), (0, 2)])
        report = is_strong_odd_directed(d, coloring(0, 1, 1))
        assert not report.ok
        assert ("parity", 0, 1, 2) in report.violations


class TestOddColoring:
    def test_strong_odd_implies_odd(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(3000):
            n = rng.randrange(2, 8)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
            c = Coloring({v: rng.randrange(5) for v in range(n)})
            if is_strong_odd(g, c).ok and all(g.neighbors(v) for v in range(n)):
                checked += 1
                assert is_odd_coloring(g, c).ok
        assert checked > 10

    def test_c4_two_colored_fails(self):
        assert not is_odd_coloring(Graph.cycle(4), coloring(0, 1, 0, 1)).ok

    def test_k2(self):
        assert is_odd_coloring(Graph.complete(2), coloring(0, 1)).ok

    def test_isolated_vertices_exempt(self):
        g = Graph(3, [(0, 1)])
        assert is_odd_coloring(g, coloring(0, 1, 0)).ok


class TestHypergraph:
    def test_triple_same_color(self):
        h = Hypergraph(3, [[0, 1, 2]])
        assert is_hypergraph_strong_odd(h, coloring(9, 9, 9)).ok

    def test_pair_same_color(self):
        h = Hypergraph(2, [[0, 1]])
        assert not is_hypergraph_strong_odd(h, coloring(9, 9)).ok

    def test_no_properness_requirement(self):
        # Adjacent-looking vertices may share a color: only parity matters.
        h = Hypergraph(3, [[0, 1, 2], [0, 1, 2]])
        assert is_hypergraph_strong_odd(h, coloring(1, 1, 1)).ok

    def test_no_hyperedges(self):
        assert is_hypergraph_strong_odd(Hypergraph(2, []), coloring(0, 0)).ok


class TestFacial:
    def triangle_plane(self):
        return PlaneGraph(Graph.complete(3), [(0, 1, 2), (0, 2, 1)])

    def test_plane_to_strong_odd_triangle(self):
        augmented, face_vertex = plane_to_strong_odd(self.triangle_plane())
        assert augmented.n == 5 and augmented.m == 9
        assert face_vertex == {0: 3, 1: 4}

    def test_plane_to_strong_odd_square(self):
        p = PlaneGraph(Graph.cycle(4), [(0, 1, 2, 3), (3, 2, 1, 0)])
        augmented, _ = plane_to_strong_odd(p)
        assert augmented.n == 6 and augmented.m == 12

    def test_k4_rainbow_passes(self):
        g = Graph.complete(4)
        p = PlaneGraph(g, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)])
        assert is_facially_odd(p, coloring(0, 1, 2, 3)).ok

    def test_c4_alternating_fails(self):
        p = PlaneGraph(Graph.cycle(4), [(0, 1, 2, 3), (3, 2, 1, 0)])
        assert not is_facially_odd(p, coloring(0, 1, 0, 1)).ok

    def test_pullback_soundness_on_triangulations(self):
        # Any strong odd coloring of the face-augmented graph restricts to a
        # facially odd coloring of the embedded graph.
        from strongodd.experiments import plane_triangulations
        from strongodd.solver import chi_so_exact

        for plane in plane_triangulations(100, max_n=7, seed=77):
            augmented, _ = plane_to_strong_odd(plane)
            _, witness = chi_so_exact(augmented)
            assert witness is not None
            assert is_strong_odd(augmented, witness).ok
            restricted = witness.restrict(range(plane.graph.n))
            assert is_facially_odd(plane, restricted).ok


VERIFY_DIGEST = "bcfa558757a5717cad42c0f4ef91947e8d671cd60678099c96d4008f46e31c8b"

PIN_RULES = (ODD_RULE, MultiplicityRule(3, frozenset({1})), MultiplicityRule(2, frozenset({0})))


def _verdict(fn, *args) -> str:
    try:
        out = fn(*args)
    except PartialColoring as e:
        return f"partial: {e}"
    return repr(out if isinstance(out, bool) else (out.ok, out.violations))


def _pin_case(rng: random.Random, case: int):
    """A random graph, digraph, hypergraph and plane triangulation on about
    the same vertices, with a coloring of one to four colors that leaves
    some vertices uncolored in one case of five."""
    n = rng.randrange(0, 10)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
    d = DiGraph(n, [(u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < 0.25])
    h = Hypergraph(n, [rng.sample(range(n), rng.randrange(1, n + 1))
                       for _ in range(rng.randrange(0, 5))] if n else [])
    _, plane = gen_random_maximal_outerplanar(rng.randrange(3, 9), seed=case,
                                              with_faces=True)
    palette = rng.sample([0, 1, 2, 5, 7, 9], rng.randrange(1, 5))
    assignment = {v: rng.choice(palette) for v in range(max(n, plane.graph.n))}
    if rng.random() < 0.2:
        assignment = {v: c for v, c in assignment.items() if rng.random() < 0.7}
    sets = [rng.sample(range(n), rng.randrange(0, n + 1)) for _ in range(2)]
    return g, d, h, plane, Coloring(assignment), sets


class TestPinnedVerdicts:
    def test_outcomes_match_pin(self):
        """Digest recorded before the verifiers shared one pass: for every
        verifier, rule and seeded case, ``(ok, violations)`` in order, the
        bool of ``is_strong_odd_on_set``, or the ``PartialColoring``
        message; plus the augmented graph of ``plane_to_strong_odd``."""
        rng = random.Random(21)
        digest = hashlib.sha256()
        for case in range(400):
            g, d, h, plane, c, sets = _pin_case(rng, case)
            out = [_verdict(is_proper, g, c), _verdict(is_odd_coloring, g, c)]
            for rule in PIN_RULES:
                out += [_verdict(is_strong_odd, g, c, rule),
                        _verdict(is_strong_odd_directed, d, c, rule),
                        _verdict(is_hypergraph_strong_odd, h, c, rule),
                        _verdict(is_facially_odd, plane, c, rule)]
                out += [_verdict(is_strong_odd_on_set, c, m, rule) for m in sets]
            augmented, face_vertex = plane_to_strong_odd(plane)
            out.append(f"{augmented.n} {augmented.edge_list()} {face_vertex}")
            digest.update(f"{case}:{out}\n".encode())
        assert digest.hexdigest() == VERIFY_DIGEST
