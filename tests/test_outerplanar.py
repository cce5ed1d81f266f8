"""Outerplanar 8-coloring: the gadget extension and the full driver."""

import hashlib
import json
import random
from itertools import product
from pathlib import Path

import pytest

from strongodd.experiments import _claim_check_independent
from strongodd.gadgets import gen_random_maximal_outerplanar
from strongodd.graphs import Coloring, Graph
from strongodd.ktree import KTreeSeq, build_ktree
from strongodd.outerplanar import (
    ClaimGadget,
    NotOuterplanarWitness,
    PreconditionViolated,
    V,
    X,
    Y,
    _extend_core,
    _search_extension,
    claim_extend,
    color_outerplanar,
    gadget_graph,
    validate_outerplanar_structure,
)
from strongodd.verify import is_proper, is_strong_odd


class TestGadget:
    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            ClaimGadget(1, 2, 7, 6)
        with pytest.raises(PreconditionViolated):
            ClaimGadget(2, 2, 1, 6)  # u1 collides on its path
        with pytest.raises(PreconditionViolated):
            ClaimGadget(2, 2, 7, 4)  # w1 collides on its path
        with pytest.raises(PreconditionViolated):
            ClaimGadget(2, 2, 9, 6)

    def test_empty_mask_keeps_preliminary_pattern(self):
        g = ClaimGadget(4, 4, 7, 6)
        col = claim_extend(g, [])
        assert [col.of(g.u_vertex(r)) for r in range(4)] == [6, 7, 8, 6]
        assert [col.of(g.w_vertex(r)) for r in range(4)] == [8, 7, 6, 8]

    def test_even_class_recolored(self):
        g = ClaimGadget(4, 2, 7, 6)
        host = gadget_graph(g)
        # v adjacent to u3 and u6 (both preliminary color 6) and to y.
        mask = [(V, g.u_vertex(0)), (V, g.u_vertex(3)), (V, Y)]
        col = claim_extend(g, mask)
        seen = [col.of(g.u_vertex(0)), col.of(g.u_vertex(3))]
        counts = {}
        for u, c in [(g.u_vertex(0), seen[0]), (g.u_vertex(3), seen[1]), (Y, 3)]:
            counts[c] = counts.get(c, 0) + 1
        assert all(v % 2 == 1 for v in counts.values())

    def test_postconditions_on_random_masks(self):
        rng = random.Random(0)
        for _ in range(300):
            p, q = rng.randrange(2, 7), rng.randrange(2, 7)
            i = rng.choice([3, 4, 6, 7, 8])
            j = rng.choice([1, 2, 6, 7, 8])
            g = ClaimGadget(p, q, i, j)
            host = gadget_graph(g)
            mask = [e for e in host.edge_list() if rng.random() < 0.5]
            col = claim_extend(g, mask)
            assert is_proper(host, col).ok
            masked = Graph(host.n, mask)
            parity = [v for v in is_strong_odd(masked, col).violations
                      if v[0] == "parity" and v[1] == V]
            assert not parity
            assert col.of(g.u_vertex(0)) != 2
            assert col.of(g.w_vertex(0)) != 3

    def test_bad_mask_edge_rejected(self):
        g = ClaimGadget(2, 2, 7, 6)
        with pytest.raises(PreconditionViolated):
            claim_extend(g, [(X, Y), (0, 99)])


STUB_COLORS = (1, 2, 3, 4, 6, 7, 8)


def _first_extension(i, j, p, q, vmask):
    """Reference: the first valid stub coloring in color order, found by a
    depth-first search that keeps counts and remembers no state."""
    flat = []
    masked = [vmask >> (4 + r) & 1 for r in range(p + q)]
    counts = dict.fromkeys(STUB_COLORS, 0)
    for bit, col in ((0, 2), (1, 3), (2, 1), (3, 4)):
        counts[col] += vmask >> bit & 1

    def rec(r):
        if r == p + q:
            return True
        path = [i, 1] + flat if r < p else [j, 4] + flat[p:]
        for c in STUB_COLORS:
            if c in path[-2:] or c == (2 if r == 0 else 3 if r == p else 0):
                continue
            counts[c] += masked[r]
            even = sum(1 for n in counts.values() if n and n % 2 == 0)
            # Each masked position still to come flips one color's parity.
            if even <= sum(masked[r + 1:]):
                flat.append(c)
                if rec(r + 1):
                    return True
                flat.pop()
            counts[c] -= masked[r]
        return False

    return flat if rec(0) else None


def _random_instance(rng, lengths):
    p, q = rng.choice(lengths), rng.choice(lengths)
    i = rng.choice([3, 4, 6, 7, 8])
    j = rng.choice([1, 2, 6, 7, 8])
    return i, j, p, q, rng.randrange(1 << (4 + p + q))


class TestExtensionSearch:
    def test_long_stub_instance_from_outerplanar_host(self):
        # Stubs of 7 and 8 vertices, met on a maximal outerplanar host with
        # 8,000 vertices; an unpruned search needs minutes here.
        ucol, wcol = _extend_core(4, 1, 7, 8, 4861)
        assert _claim_check_independent(4, 1, 7, 8, 4861, ucol, wcol)

    def test_long_stubs_on_random_masks(self):
        rng = random.Random(61)
        for _ in range(300):
            i, j, p, q, vmask = _random_instance(rng, range(7, 15))
            ucol, wcol = _extend_core(i, j, p, q, vmask)
            assert (len(ucol), len(wcol)) == (p, q)
            assert _claim_check_independent(i, j, p, q, vmask, ucol, wcol), \
                (i, j, p, q, vmask)

    def test_search_finds_first_coloring_in_color_order(self):
        # Against every stub coloring in lexicographic order: the prune and
        # the memo never cut a branch that holds an extension.
        rng = random.Random(5)
        for _ in range(60):
            i, j, p, q, vmask = _random_instance(rng, (2, 3))
            if p + q > 5:
                continue
            first = next(
                list(flat) for flat in product(STUB_COLORS, repeat=p + q)
                if _claim_check_independent(i, j, p, q, vmask, flat[:p], flat[p:])
            )
            assert _search_extension(i, j, p, q, vmask) == first
        rng = random.Random(6)
        for _ in range(200):
            i, j, p, q, vmask = _random_instance(rng, range(4, 9))
            assert _search_extension(i, j, p, q, vmask) == \
                _first_extension(i, j, p, q, vmask), (i, j, p, q, vmask)

    def test_fan_stub_longer_than_the_recursion_limit(self):
        # A maximal outerplanar fan hangs its whole path as one stub of about
        # n vertices, all adjacent to the gadget center.
        n = 2000
        seq = KTreeSeq.make(2, [(k, (0, k - 1)) for k in range(2, n)])
        host = build_ktree(seq)
        rng = random.Random(2000)
        mask = Graph(host.n, [e for e in host.edge_list() if rng.random() < 0.5])
        c = color_outerplanar(seq, mask)
        assert is_proper(host, c).ok
        assert is_strong_odd(mask, c).ok


class TestStructureValidation:
    def test_accepts_generated_hosts(self):
        for seed in range(30):
            seq = gen_random_maximal_outerplanar(3 + seed, seed)
            validate_outerplanar_structure(seq)

    # Messages name the caller's vertex ids.
    def test_rejects_wrong_k(self):
        with pytest.raises(NotOuterplanarWitness) as err:
            validate_outerplanar_structure(KTreeSeq.make(1, [(1, [0])]))
        assert str(err.value) == "witness must be a 2-tree sequence"

    def test_rejects_nonsimple_two_tree(self):
        # Two vertices attached to the same edge from the same side produce a
        # branching layer.
        seq = KTreeSeq.make(2, [(2, [0, 1]), (3, [0, 2]), (4, [0, 2])])
        with pytest.raises(NotOuterplanarWitness) as err:
            validate_outerplanar_structure(seq)
        assert str(err.value) == "path [3, 2, 4] mixes its two subpaths"

    def test_rejects_double_path_on_one_edge(self):
        # Both sides of the initial edge used: two layer paths on one edge.
        seq = KTreeSeq.make(2, [(2, [0, 1]), (3, [0, 1])])
        with pytest.raises(NotOuterplanarWitness) as err:
            validate_outerplanar_structure(seq)
        assert str(err.value) == "edge [0, 1] carries two layer paths"

    def test_rejects_layer_vertex_of_degree_three(self):
        seq = KTreeSeq.make(2, [(2, [0, 1]), (3, [0, 2]), (4, [1, 2]), (5, [0, 2])])
        with pytest.raises(NotOuterplanarWitness) as err:
            validate_outerplanar_structure(seq)
        assert str(err.value) == "layer vertex 2 has 3 in-layer neighbors"

    def test_mask_edge_named_in_caller_ids(self):
        seq = KTreeSeq.make(2, [(2, [0, 1]), (3, [0, 2])])
        with pytest.raises(NotOuterplanarWitness) as err:
            color_outerplanar(seq, [(1, 3)])
        assert str(err.value) == "mask edge (1,3) is not a host edge"
        with pytest.raises(NotOuterplanarWitness):
            color_outerplanar(seq, [(-1, 0)])  # would be a dummy of the augmented host


# Hosts and masks whose colorings are pinned in data/outerplanar_colorings.json.
PIN_SIZES = (3, 4, 5, 7, 10, 30, 100, 300, 1000, 3000)
PIN_KEEP = (0.0, 0.3, 0.6, 1.0)


def pinned_corpus():
    """(name, seq, mask) for every pinned case: random maximal outerplanar
    hosts under four mask keep rates, plus a 2,000-vertex fan."""
    for n in PIN_SIZES:
        seq = gen_random_maximal_outerplanar(n, seed=n)
        edges = build_ktree(seq).edge_list()
        for keep in PIN_KEEP:
            rng = random.Random(n * 100 + round(keep * 10))
            yield f"n{n}_keep{keep}", seq, Graph(n, [e for e in edges if rng.random() < keep])
    n = 2000
    seq = KTreeSeq.make(2, [(k, (0, k - 1)) for k in range(2, n)])
    rng = random.Random(n)
    yield "fan2000_keep0.5", seq, Graph(n, [e for e in build_ktree(seq).edge_list()
                                            if rng.random() < 0.5])


def coloring_digest(c: Coloring, n: int) -> str:
    return hashlib.sha256(",".join(str(c.of(v)) for v in range(n)).encode()).hexdigest()


class TestPinnedColorings:
    def test_colorings_match_pins(self):
        """Digests recorded from an earlier implementation of the driver:
        a refactor must keep giving the same colorings on the same inputs."""
        pins = json.loads((Path(__file__).parent / "data" / "outerplanar_colorings.json").read_text())
        got = {name: coloring_digest(color_outerplanar(seq, mask), seq.n)
               for name, seq, mask in pinned_corpus()}
        assert len(got) == 41
        assert got == pins


class TestDriver:
    def test_triangle(self):
        seq = gen_random_maximal_outerplanar(3, 0)
        host = build_ktree(seq)
        c = color_outerplanar(seq, host)
        assert is_strong_odd(host, c).ok
        assert all(1 <= col <= 8 for col in c.assignment.values())

    def test_full_host_masks(self):
        for seed in range(25):
            seq = gen_random_maximal_outerplanar(4 + 3 * seed, seed)
            host = build_ktree(seq)
            c = color_outerplanar(seq, host)
            assert is_proper(host, c).ok
            assert is_strong_odd(host, c).ok

    def test_random_masks(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randrange(3, 80)
            seq = gen_random_maximal_outerplanar(n, seed + 1000)
            host = build_ktree(seq)
            mask = Graph(host.n, [e for e in host.edge_list() if rng.random() < 0.6])
            c = color_outerplanar(seq, mask)
            assert all(1 <= col <= 8 for col in c.assignment.values())
            assert is_proper(host, c).ok
            assert is_strong_odd(mask, c).ok

    def test_empty_mask(self):
        seq = gen_random_maximal_outerplanar(12, 3)
        host = build_ktree(seq)
        c = color_outerplanar(seq, Graph(host.n))
        assert is_proper(host, c).ok

    def test_deterministic(self):
        seq = gen_random_maximal_outerplanar(30, 9)
        host = build_ktree(seq)
        mask = Graph(host.n, host.edge_list()[::2])
        assert color_outerplanar(seq, mask).assignment == \
            color_outerplanar(seq, mask).assignment

    def test_mask_must_fit_host(self):
        seq = gen_random_maximal_outerplanar(5, 0)
        host = build_ktree(seq)
        with pytest.raises(NotOuterplanarWitness):
            color_outerplanar(seq, Graph(4))
        non_edge = next(
            (u, v)
            for u in range(host.n)
            for v in range(u + 1, host.n)
            if not host.has_edge(u, v)
        )
        with pytest.raises(NotOuterplanarWitness):
            color_outerplanar(seq, [non_edge])
