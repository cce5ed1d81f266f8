"""Outerplanar 8-coloring: the gadget extension and the full driver."""

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
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
    _Host,
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


# Structure rejections, (k, steps, message); the same cases run under -O.
REJECTIONS = {
    "wrong_k": (1, [(1, [0])], "witness must be a 2-tree sequence"),
    # Two vertices attached to the same edge from the same side produce a
    # branching layer.
    "nonsimple_two_tree": (2, [(2, [0, 1]), (3, [0, 2]), (4, [0, 2])],
                           "path [3, 2, 4] mixes its two subpaths"),
    # Both sides of the initial edge used: two layer paths on one edge.
    "double_path_on_one_edge": (2, [(2, [0, 1]), (3, [0, 1])],
                                "edge [0, 1] carries two layer paths"),
    "layer_vertex_of_degree_three": (2, [(2, [0, 1]), (3, [0, 2]), (4, [1, 2]), (5, [0, 2])],
                                     "layer vertex 2 has 3 in-layer neighbors"),
}


def _check_rejection(name):
    k, steps, message = REJECTIONS[name]
    with pytest.raises(NotOuterplanarWitness) as err:
        validate_outerplanar_structure(KTreeSeq.make(k, steps))
    assert str(err.value) == message


class TestStructureValidation:
    def test_accepts_generated_hosts(self):
        for seed in range(30):
            seq = gen_random_maximal_outerplanar(3 + seed, seed)
            validate_outerplanar_structure(seq)

    # Messages name the caller's vertex ids.
    def test_rejects_wrong_k(self):
        _check_rejection("wrong_k")

    def test_rejects_nonsimple_two_tree(self):
        _check_rejection("nonsimple_two_tree")

    def test_rejects_double_path_on_one_edge(self):
        _check_rejection("double_path_on_one_edge")

    def test_rejects_layer_vertex_of_degree_three(self):
        _check_rejection("layer_vertex_of_degree_three")

    def test_rejections_survive_optimize_flag(self):
        code = textwrap.dedent(f"""
            from strongodd.ktree import KTreeSeq
            from strongodd.outerplanar import NotOuterplanarWitness
            from strongodd.outerplanar import validate_outerplanar_structure

            if __debug__:
                raise SystemExit("not running under -O")
            for name, (k, steps, message) in {REJECTIONS!r}.items():
                try:
                    validate_outerplanar_structure(KTreeSeq.make(k, steps))
                except NotOuterplanarWitness as err:
                    if str(err) != message:
                        raise SystemExit(f"{{name}}: {{err}}")
                else:
                    raise SystemExit(f"{{name}}: accepted under -O")
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_mask_edge_named_in_caller_ids(self):
        seq = KTreeSeq.make(2, [(2, [0, 1]), (3, [0, 2])])
        with pytest.raises(NotOuterplanarWitness) as err:
            color_outerplanar(seq, [(1, 3)])
        assert str(err.value) == "mask edge (1,3) is not a host edge"
        with pytest.raises(NotOuterplanarWitness):
            color_outerplanar(seq, [(-1, 0)])  # would be a dummy of the augmented host

    @pytest.mark.parametrize("edge, named", [
        ((3, 3), "(3,3)"),  # a self-loop
        ((4, 3), "(3,4)"),  # both in layer 1, not adjacent; named as sorted
        ((2, 5), "(2,5)"),  # ids 5 and 6 are past the last vertex, 4
        ((5, 6), "(5,6)"),
    ])
    def test_mask_edge_outside_the_host(self, edge, named):
        # Layer 1 is the path 3-2-4 below the edge (0,1).
        seq = KTreeSeq.make(2, [(2, [0, 1]), (3, [0, 2]), (4, [1, 2])])
        with pytest.raises(NotOuterplanarWitness) as err:
            color_outerplanar(seq, [(0, 1), edge])
        assert str(err.value) == f"mask edge {named} is not a host edge"


def _fuzz_two_tree(n, rng, stray, reuse):
    """A 2-tree grown side by side like a maximal outerplanar host, except
    that with probability ``stray`` a step attaches to any edge and with
    probability ``reuse`` to a side already used; many such trees are not
    outerplanar."""
    sides = [(0, 1)]
    edges = [(0, 1)]
    steps = []
    for v in range(2, n):
        r = rng.random()
        if r < stray:
            a, b = rng.choice(edges)
        elif r < stray + reuse:
            a, b = rng.choice(sides)
        else:
            a, b = sides.pop(rng.randrange(len(sides)))
        steps.append((v, (a, b)))
        edges += [(a, v), (b, v)]
        sides += [(a, v), (v, b)]
    return KTreeSeq.make(2, steps)


def _check_host_facts(seq):
    """Check, on the augmented host of ``seq``, the facts that leave
    validation no further faults to look for: each vertex has a parent one
    layer below it and at most one in its own layer; in each layer the
    in-layer edges form a forest whose roots, each component's least vertex,
    are exactly the vertices with both parents below; a non-root vertex's
    parent below is a parent of its in-layer parent too, so every vertex
    hangs below its root's parent pair, which is an edge; the first layer is
    the initial edge."""
    host = _Host(seq)
    parents, dist = host.parents, host.dist
    off = _Host.OFFSET
    assert [v for v, d in enumerate(dist) if d == 3] == [off, off + 1]
    assert off in parents[off + 1]
    comp = list(range(len(dist)))  # union-find over the in-layer edges

    def find(v):
        while comp[v] != v:
            comp[v] = v = comp[comp[v]]
        return v

    below = {}
    edges = 0
    for v in range(off + 2, len(dist)):
        same = [p for p in parents[v] if dist[p] == dist[v]]
        below[v] = [p for p in parents[v] if dist[p] == dist[v] - 1]
        assert below[v] and len(same) + len(below[v]) == 2
        for p in same:
            assert below[v][0] in parents[p]
            assert find(p) != find(v)  # no in-layer cycle
            comp[find(v)] = find(p)
            edges += 1
    members = {}
    for v in below:
        members.setdefault(find(v), []).append(v)
    assert edges == len(below) - len(members)
    for group in members.values():
        roots = [v for v in group if len(below[v]) == 2]
        assert roots == [min(group)]
        x, y = parents[roots[0]]
        assert x in parents[y]
        assert all(p in (x, y) for v in group for p in below[v])


class TestHostFacts:
    def test_facts_hold_on_fuzzed_two_trees(self):
        rng = random.Random(3)
        outcomes = {"accepted": 0, "rejected": 0}
        for _ in range(3000):
            seq = _fuzz_two_tree(rng.randrange(3, 40), rng,
                                 rng.choice((0, 0.02, 0.1, 0.3, 1)), rng.choice((0, 0.02, 0.1)))
            _check_host_facts(seq)
            try:
                validate_outerplanar_structure(seq)
            except NotOuterplanarWitness:
                outcomes["rejected"] += 1
            else:
                outcomes["accepted"] += 1
        assert min(outcomes.values()) >= 500, outcomes


FUZZ_DIGEST = "e45bf7d943b11fe3c31847348805a77180b788d42b3ef09c67a3443048ce6bad"


def fuzz_corpus():
    """(seq, mask) pairs: maximal outerplanar hosts and fuzzed 2-trees, each
    with a random mask, some with a stray pair that may be no host edge."""
    rng = random.Random(12)
    for _ in range(400):
        n = rng.randrange(3, 48)
        if rng.random() < 0.3:
            seq = gen_random_maximal_outerplanar(n, seed=rng.randrange(1 << 30))
        else:
            seq = _fuzz_two_tree(n, rng, rng.choice((0, 0.02, 0.1, 1)), rng.choice((0, 0.02, 0.1)))
        keep = rng.choice(PIN_KEEP)
        mask = [e for e in build_ktree(seq).edge_list() if rng.random() < keep]
        if rng.random() < 0.15:
            mask.append((rng.randrange(-2, n + 2), rng.randrange(-2, n + 2)))
        elif rng.random() < 0.5:
            mask = Graph(n, mask)
        yield seq, mask


class TestValidationFuzz:
    def test_outcomes_match_pin(self):
        """Digest recorded from an earlier implementation of the driver: for
        every fuzzed input, the same acceptance or the same exception type
        and message, and the same coloring."""
        h = hashlib.sha256()
        for case, (seq, mask) in enumerate(fuzz_corpus()):
            try:
                c = color_outerplanar(seq, mask)
            except Exception as e:
                out = f"{type(e).__name__}: {e}"
            else:
                out = "ok " + ",".join(str(c.of(v)) for v in range(seq.n))
            h.update(f"{case}:{out}\n".encode())
        assert h.hexdigest() == FUZZ_DIGEST


# Hosts and masks whose colorings are pinned in data/outerplanar_colorings.json.
PIN_SIZES = (3, 4, 5, 7, 10, 30, 100, 300, 1000, 3000)
PIN_KEEP = (0.0, 0.3, 0.6, 1.0)
# Hosts of the benchmark's size, under its least and its greatest keep rate.
PIN_LARGE = ((16000, 0.3), (16000, 1.0))


def pinned_corpus():
    """(name, seq, mask) for every pinned case: random maximal outerplanar
    hosts under four mask keep rates, two at benchmark scale, plus a
    2,000-vertex fan."""
    cases = [(n, keep) for n in PIN_SIZES for keep in PIN_KEEP] + list(PIN_LARGE)
    for n, keep in cases:
        seq = gen_random_maximal_outerplanar(n, seed=n)
        edges = build_ktree(seq).edge_list()
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
        assert len(got) == 43
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

    def test_reversed_and_repeated_mask_pairs(self):
        # Instances look mask pairs up sorted, so an edge list is normalised
        # first: (v, u) pairs and repeats color as the same mask as a Graph.
        seq = gen_random_maximal_outerplanar(200, 4)
        edges = build_ktree(seq).edge_list()
        rng = random.Random(4)
        kept = [e for e in edges if rng.random() < 0.6]
        pairs = [(v, u) for u, v in kept] + kept[::3] + [(v, u) for u, v in kept[::5]]
        rng.shuffle(pairs)
        c = color_outerplanar(seq, pairs)
        assert c.assignment == color_outerplanar(seq, Graph(seq.n, kept)).assignment
        assert c.assignment != color_outerplanar(seq, []).assignment

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
