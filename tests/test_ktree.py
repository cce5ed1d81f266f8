"""Construction sequences, BFS layerings, and their validators."""

import random

import pytest

from strongodd.gadgets import gen_random_partial_ktree
from strongodd.graphs import Graph
from strongodd.ktree import (
    InvalidStep,
    KTreeSeq,
    Layering,
    bfs_layering,
    build_ktree,
    layer_completion,
    validate_bfs_properties,
)


def fan5() -> KTreeSeq:
    return KTreeSeq.make(2, [(2, [0, 1]), (3, [1, 2]), (4, [2, 3])])


class TestBuild:
    def test_one_tree_is_path(self):
        seq = KTreeSeq.make(1, [(1, [0]), (2, [1])])
        assert build_ktree(seq) == Graph.path(3)

    def test_zero_tree_is_edgeless(self):
        seq = KTreeSeq.make(0, [(0, []), (1, [])])
        assert build_ktree(seq) == Graph(2)

    def test_fan(self):
        g = build_ktree(fan5())
        assert g.edge_list() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]

    def test_invalid_parent_clique(self):
        with pytest.raises(InvalidStep):
            build_ktree(KTreeSeq.make(2, [(2, [0, 1]), (3, [0, 1]), (4, [2, 3])]))

    def test_sequence_rejects_nonclique_parents_on_construction(self):
        # 2 and 3 both hang below {0, 1}, so {2, 3} is no edge of the prefix.
        with pytest.raises(InvalidStep, match=r"step 4: parents \[2, 3\] are not a clique"):
            KTreeSeq.make(2, [(2, [0, 1]), (3, [0, 1]), (4, [2, 3])])
        # {0, 2, 3} is a triangle only if 3 attached to {0, 2}.
        KTreeSeq.make(3, [(3, [0, 1, 2]), (4, [0, 2, 3]), (5, [0, 3, 4])])
        with pytest.raises(InvalidStep):
            KTreeSeq.make(3, [(3, [0, 1, 2]), (4, [1, 2, 3]), (5, [0, 3, 4])])

    def test_id_discipline(self):
        with pytest.raises(InvalidStep):
            KTreeSeq.make(1, [(2, [0])])
        with pytest.raises(InvalidStep):
            KTreeSeq(1, (1,), ())

    def test_represented_clique(self):
        seq = fan5()
        assert seq.represented_clique(3) == frozenset({1, 2, 3})

    def test_edge_count_formula(self):
        for trial in range(40):
            rng = random.Random(trial)
            k = rng.randrange(0, 4)
            steps = rng.randrange(0, 25)
            seq, _ = gen_random_partial_ktree(k, steps, 1.0, seed=trial)
            g = build_ktree(seq)
            assert g.m == k * (k - 1) // 2 + k * steps


class TestBfsLayering:
    def test_path_layers(self):
        seq = KTreeSeq.make(1, [(1, [0]), (2, [1])])
        assert [sorted(l) for l in bfs_layering(seq).layers] == [[0], [1], [2]]

    def test_fan_layers(self):
        # Vertex 4 attaches to {2,3}, both at distance 2 from the virtual
        # root, so it lands one layer further down.
        assert [sorted(l) for l in bfs_layering(fan5()).layers] == [[0, 1], [2, 3], [4]]

    def test_layers_are_graph_distances(self):
        # The layering is read off the sequence; it must agree with a BFS
        # on the built graph.
        for trial in range(300):
            rng = random.Random(trial)
            k = 1 + trial % 4
            seq, _ = gen_random_partial_ktree(k, rng.randrange(0, 80), 1.0, seed=trial)
            dist = build_ktree(seq).bfs_distances(seq.initial)
            assert bfs_layering(seq).layer_of() == dict(enumerate(dist))

    def test_requires_positive_k(self):
        with pytest.raises(InvalidStep):
            bfs_layering(KTreeSeq.make(0, [(0, [])]))

    def test_properties_hold_on_random_corpus(self):
        # 1000 seeded instances across k in {1,2,3}.
        for trial in range(1000):
            rng = random.Random(trial)
            k = 1 + trial % 3
            seq, _ = gen_random_partial_ktree(k, rng.randrange(0, 58), 1.0, seed=trial)
            layering = bfs_layering(seq)
            assert sum(len(l) for l in layering.layers) == seq.n
            report = validate_bfs_properties(seq, layering)
            assert report.ok, (trial, report.results, report.witnesses)

    def test_displaced_vertex_fails_b4(self):
        # Note: merging two adjacent layers never breaks B4 (every edge still
        # spans at most one new index); a vertex moved across non-adjacent
        # layers is the genuine negative.
        seq = KTreeSeq.make(1, [(1, [0]), (2, [1]), (3, [2])])
        layering = bfs_layering(seq)
        assert len(layering.layers) == 4
        moved = Layering(
            (layering.layers[0] | layering.layers[3],
             layering.layers[1], layering.layers[2], frozenset()),
            "bfs",
        )
        report = validate_bfs_properties(seq, moved)
        assert not report.results["B4"]
        u, v = report.witnesses["B4"]
        assert build_ktree(seq).has_edge(u, v)

    def test_merged_layers_fail_structure(self):
        # Merging adjacent layers leaves B4 intact but breaks the clique or
        # completion structure.
        seq, _ = gen_random_partial_ktree(2, 10, 1.0, seed=3)
        layering = bfs_layering(seq)
        if len(layering.layers) < 3:
            pytest.skip("host too shallow")
        merged = Layering(
            (layering.layers[0], layering.layers[1] | layering.layers[2])
            + layering.layers[3:],
            "bfs",
        )
        report = validate_bfs_properties(seq, merged)
        assert not report.ok

    def test_nonclique_first_layer_fails_b1(self):
        seq, _ = gen_random_partial_ktree(2, 8, 1.0, seed=5)
        layering = bfs_layering(seq)
        bad_first = frozenset(sorted(layering.layers[1])[:2])
        swapped = Layering(
            (bad_first, (layering.layers[0] | layering.layers[1]) - bad_first)
            + layering.layers[2:],
            "bfs",
        )
        report = validate_bfs_properties(seq, swapped)
        assert not report.ok
        assert not report.results["B1"] or not report.results["B2"] \
            or not report.results["B3"] or not report.results["B4"]


class TestLayerCompletion:
    def test_layers_complete_into_smaller_trees(self):
        for trial in range(60):
            rng = random.Random(trial)
            k = 1 + trial % 3
            seq, _ = gen_random_partial_ktree(k, rng.randrange(0, 40), 1.0, seed=trial)
            g = build_ktree(seq)
            for layer in bfs_layering(seq).layers:
                comp = layer_completion(seq, layer)
                assert comp.seq.k == k - 1
                completed = comp.host
                for v in layer:
                    for u in g.neighbors(v) & layer:
                        assert completed.has_edge(comp.to_local[v], comp.to_local[u])

    def test_small_slice_pads(self):
        seq, _ = gen_random_partial_ktree(3, 5, 1.0, seed=1)
        comp = layer_completion(seq, [3])
        assert comp.seq.n == 2  # padded up to the (k-1)-tree initial clique
        assert comp.from_local[1] is None
