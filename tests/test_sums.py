"""Clique sums, natural layerings, and layer witnesses."""

import random

import pytest

from strongodd.experiments import random_sum_desc
from strongodd.graphs import Graph
from strongodd.ktree import KTreeSeq, Layering
from strongodd.sums import (
    InvalidAttachment,
    LayerWitnessError,
    SumDesc,
    Summand,
    build_sum,
    layer_sum_desc,
    natural_layering,
    restrict_sum,
    validate_natural_properties,
)


def triangle_summand() -> Summand:
    # (K_1-tree on one vertex) x P_2 joined with one apex = a triangle.
    return Summand(KTreeSeq.make(1, []), 2)


class TestBuildSum:
    def test_single_summand_unchanged(self):
        desc = SumDesc.single(2, 1, 1, KTreeSeq.make(1, [(1, [0])]), 2)
        s = build_sum(desc)
        assert s.graph == desc.summands[0].graph(1)

    def test_two_triangles_on_an_edge(self):
        desc = SumDesc(
            2, 1, 1,
            (triangle_summand(), triangle_summand()),
            (((0, 1), (0, 1)),),
        )
        s = build_sum(desc)
        assert s.graph.n == 4 and s.graph.m == 5

    def test_empty_attachment_is_disjoint_union(self):
        desc = SumDesc(2, 1, 1, (triangle_summand(), triangle_summand()), (((), ()),))
        s = build_sum(desc)
        assert s.graph.n == 6 and s.graph.m == 6
        assert len(s.graph.components()) == 2

    def test_nonclique_attachment_rejected(self):
        sq = Summand(KTreeSeq.make(1, [(1, [0]), (2, [1]), (3, [2])]), 1)
        desc = SumDesc(2, 1, 0, (sq, sq), (((0, 2), (0, 2)),))
        with pytest.raises(InvalidAttachment):
            build_sum(desc)

    def test_oversized_attachment_rejected(self):
        desc = SumDesc(
            1, 1, 1,
            (triangle_summand(), triangle_summand()),
            (((0, 1), (0, 1)),),
        )
        with pytest.raises(InvalidAttachment):
            build_sum(desc)

    def test_max_clique_bound(self):
        # Largest clique of a (w,k,t)-sum is at most 2(k+1)+t.
        for trial in range(40):
            rng = random.Random(trial)
            w, k, t = rng.choice([1, 2]), rng.choice([0, 1]), rng.choice([0, 1])
            desc = random_sum_desc(w, k, t, rng.randrange(1, 5), seed=trial)
            g = build_sum(desc).graph
            cap = 2 * (k + 1) + t
            assert _clique_number(g) <= cap, (trial, w, k, t)


def _clique_number(g: Graph) -> int:
    best = 0
    order = sorted(range(g.n), key=g.degree)

    def expand(cand, size):
        nonlocal best
        best = max(best, size)
        for v in sorted(cand):
            expand(cand & g.neighbors(v), size + 1)

    expand(frozenset(range(g.n)), 0)
    return best


class TestNaturalLayering:
    def test_single_summand_single_layer(self):
        desc = SumDesc.single(1, 1, 0, KTreeSeq.make(1, [(1, [0])]), 2)
        layering = natural_layering(desc)
        assert len(layering.layers) == 1
        assert layering.layers[0] == frozenset(range(4))

    def test_attached_summand_lands_one_above(self):
        desc = SumDesc(
            1, 1, 1,
            (triangle_summand(), triangle_summand()),
            (((0,), (0,)),),
        )
        layering = natural_layering(desc)
        assert sorted(layering.layers[0]) == [0, 1, 2]
        assert sorted(layering.layers[1]) == [3, 4]

    def test_detached_summand_joins_first_layer(self):
        desc = SumDesc(
            1, 1, 1,
            (triangle_summand(), triangle_summand(), triangle_summand()),
            (((0,), (0,)), ((), ())),
        )
        layering = natural_layering(desc)
        assert {5, 6, 7} <= set(layering.layers[0])

    def test_at_most_one_layer_per_summand(self):
        for trial in range(60):
            rng = random.Random(trial)
            w, k, t = rng.choice([1, 2]), rng.choice([0, 1]), rng.choice([0, 1])
            n_summands = rng.randrange(1, 6)
            desc = random_sum_desc(w, k, t, n_summands, seed=trial)
            layering = natural_layering(desc)
            assert len(layering.layers) <= n_summands

    def test_properties_hold_on_random_corpus(self):
        for trial in range(150):
            rng = random.Random(trial)
            w = rng.choice([1, 2, 3, 4])
            k = rng.choice([0, 1, 2])
            t = rng.choice([0, 1, 2])
            desc = random_sum_desc(w, k, t, rng.randrange(1, 6), seed=trial)
            layering = natural_layering(desc)
            report = validate_natural_properties(desc, layering)
            assert report.ok, (trial, report.results, report.witnesses)

    def test_perturbed_layering_fails(self):
        desc = random_sum_desc(2, 1, 1, 4, seed=9)
        layering = natural_layering(desc)
        if len(layering.layers) < 2:
            pytest.skip("needs at least two layers")
        # Move one vertex of the second layer down into the first.
        moved = sorted(layering.layers[1])[0]
        perturbed = Layering(
            (layering.layers[0] | {moved}, layering.layers[1] - {moved})
            + layering.layers[2:],
            "natural",
        )
        report = validate_natural_properties(desc, perturbed)
        assert not report.ok

    def test_dropped_vertex_fails_n3_with_witness(self):
        # A layering that leaves a summand's private vertex out is reported,
        # not met with a KeyError.
        desc = random_sum_desc(1, 0, 0, 2, seed=0)
        layering = natural_layering(desc)
        assert 0 in layering.layers[0]
        dropped = Layering((layering.layers[0] - {0},) + layering.layers[1:], "natural")
        report = validate_natural_properties(desc, dropped)
        assert not report.results["N3"]
        assert report.witnesses["N3"] == (0, "summand 0 private vertices [0] lie in no layer")
        assert not report.results["N4"]
        with pytest.raises(LayerWitnessError):
            layer_sum_desc(build_sum(desc), dropped, 0)

    def test_one_summand_n1_trivial(self):
        desc = SumDesc.single(2, 0, 1, KTreeSeq.make(0, [(0, [])]), 3)
        report = validate_natural_properties(desc, natural_layering(desc))
        assert report.results["N1"]


class TestLayerWitness:
    def test_witness_embeds_layers(self):
        for trial in range(60):
            rng = random.Random(900 + trial)
            w = rng.choice([1, 2])
            desc = random_sum_desc(w, rng.choice([0, 1]), rng.choice([0, 1]),
                                   rng.randrange(1, 6), seed=trial)
            s = build_sum(desc)
            layering = natural_layering(desc)
            for d in range(len(layering.layers)):
                if not layering.layers[d]:
                    continue
                wit = layer_sum_desc(s, layering, d)
                assert wit.desc.w == max(w - 1, 0)
                for u, v in s.graph.edges:
                    if u in layering.layers[d] and v in layering.layers[d]:
                        assert wit.sum.graph.has_edge(wit.embed[u], wit.embed[v])

    def test_first_layer_witness_is_disjoint(self):
        desc = random_sum_desc(2, 1, 1, 5, seed=14)
        s = build_sum(desc)
        layering = natural_layering(desc)
        wit = layer_sum_desc(s, layering, 0)
        assert all(not h for h, _ in wit.desc.attachments)


class TestRestrictSum:
    def test_covers_the_vertices_with_their_edges(self):
        for trial in range(80):
            rng = random.Random(600 + trial)
            desc = random_sum_desc(rng.choice([0, 1, 2]), rng.choice([0, 1]),
                                   rng.choice([0, 1]), rng.randrange(1, 8), seed=trial)
            s = build_sum(desc)
            for _ in range(3):
                vs = {v for v in range(s.graph.n) if rng.random() < 0.3}
                sub, to_sub = restrict_sum(s, vs)
                assert (sub.desc.w, sub.desc.k, sub.desc.t) == (desc.w, desc.k, desc.t)
                assert set(to_sub) == vs and len(set(to_sub.values())) == len(vs)
                for u in vs:
                    for v in vs:
                        assert s.graph.has_edge(u, v) == sub.graph.has_edge(to_sub[u], to_sub[v])

    def test_keeps_only_the_summands_needed(self):
        # A disjoint sum keeps the one summand a vertex lies in; a summand
        # glued onto another keeps the one it is glued to as well.
        tri = triangle_summand()
        s = build_sum(SumDesc(0, 1, 1, (tri, tri, tri), (((), ()), ((), ()))))
        sub, to_sub = restrict_sum(s, [4])
        assert sub.desc.summands == (tri,) and sub.graph.n == 3 and to_sub == {4: 1}
        glued = build_sum(SumDesc(1, 1, 1, (tri, tri, tri), (((1,), (0,)), ((), ()))))
        sub, to_sub = restrict_sum(glued, [4])
        assert len(sub.desc.summands) == 2 and sub.graph.n == 5 and to_sub == {4: 4}
        assert restrict_sum(glued, range(glued.graph.n))[0] is glued
        assert restrict_sum(glued, [])[0].desc.summands == (tri,)
