"""Gadget generators and corpora."""

import random

import pytest

from strongodd.gadgets import (
    gen_gk,
    gen_iso_gadget,
    gen_random_maximal_outerplanar,
    gen_random_partial_ktree,
    gk_leaves,
)
from strongodd.graphs import Coloring, Graph, InputError
from strongodd.ktree import build_ktree
from strongodd.outerplanar import validate_outerplanar_structure
from strongodd.solver import chi_exact, chi_so_exact, feasible
from strongodd.verify import is_strong_odd


class TestGk:
    def test_k1_is_two_leaf_star(self):
        g = gen_gk(1)
        assert g.n == 3 and sorted(g.edge_list()) == [(0, 1), (0, 2)]

    def test_k2_counts(self):
        g = gen_gk(2)
        assert g.n == 7 and g.m == 8
        for leaf in gk_leaves(2):
            assert g.degree(leaf) == 2

    def test_k3_counts(self):
        g = gen_gk(3)
        assert g.n == 15 and g.m == 3 * 8

    def test_bipartite_no_internal_edges(self):
        for k in (1, 2, 3, 4):
            g = gen_gk(k)
            leaves = set(gk_leaves(k))
            for u, v in g.edges:
                assert (u in leaves) != (v in leaves)

    def test_tree_edge_variant(self):
        g = gen_gk(2, include_tree_edges=True)
        assert g.has_edge(0, 1) and g.has_edge(0, 2)
        assert g.m == 8 + 2

    def test_lower_bound_certified(self):
        for k in (1, 2):
            g = gen_gk(k)
            assert feasible(g, 1 << k) is None
            value, witness = chi_so_exact(g)
            assert value == (1 << k) + 1
            assert is_strong_odd(g, witness).ok


class TestIsoGadget:
    def test_n2_sizes(self):
        g = gen_iso_gadget(2)
        assert g.n == 6

    def test_all_degrees_odd(self):
        for n in (2, 3, 4, 5):
            g = gen_iso_gadget(n)
            assert all(g.degree(v) % 2 == 1 for v in range(g.n))

    def test_chromatic_three(self):
        for n in (3, 4):
            assert chi_exact(gen_iso_gadget(n))[0] == 3

    def test_strong_odd_at_least_n(self):
        for n in (3, 4):
            assert feasible(gen_iso_gadget(n), n - 1) is None

    def test_improper_value_is_one(self):
        g = gen_iso_gadget(3)
        flat = Coloring({v: 0 for v in range(g.n)})
        parity = [v for v in is_strong_odd(g, flat).violations if v[0] != "edge"]
        assert not parity


class TestRandomKtree:
    def test_keep_all(self):
        seq, mask = gen_random_partial_ktree(2, 10, 1.0, seed=0)
        assert mask == build_ktree(seq)

    def test_keep_none(self):
        _, mask = gen_random_partial_ktree(2, 10, 0.0, seed=0)
        assert mask.m == 0

    def test_reproducible(self):
        a = gen_random_partial_ktree(2, 12, 0.5, seed=42)
        b = gen_random_partial_ktree(2, 12, 0.5, seed=42)
        assert a == b
        c = gen_random_partial_ktree(2, 12, 0.5, seed=43)
        assert a != c

    def test_invalid_prob(self):
        with pytest.raises(ValueError):
            gen_random_partial_ktree(1, 3, 1.5, seed=0)

    def test_negative_steps(self):
        with pytest.raises(InputError, match="n_steps"):
            gen_random_partial_ktree(2, -3, 1.0, seed=0)


class TestRandomOuterplanar:
    def test_triangle(self):
        seq = gen_random_maximal_outerplanar(3, 0)
        assert build_ktree(seq) == Graph.complete(3)

    def test_structure_validates(self):
        for seed in range(50):
            rng = random.Random(seed)
            seq = gen_random_maximal_outerplanar(rng.randrange(3, 60), seed)
            validate_outerplanar_structure(seq)

    def test_reproducible(self):
        assert gen_random_maximal_outerplanar(20, 5) == gen_random_maximal_outerplanar(20, 5)

    def test_edge_count_maximal(self):
        # Edge-maximal outerplanar graphs have 2n-3 edges.
        for seed in range(10):
            n = 4 + seed
            g = build_ktree(gen_random_maximal_outerplanar(n, seed))
            assert g.m == 2 * n - 3

    def test_plane_output(self):
        for seed in range(20):
            n = 4 + seed % 6
            seq, plane = gen_random_maximal_outerplanar(n, seed, with_faces=True)
            assert plane.graph == build_ktree(seq)
            assert len(plane.faces) == (n - 2) + 1
