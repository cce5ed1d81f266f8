"""Pinned outputs of the layered constructions.

Digests recorded from an earlier implementation: a refactor of the layered
skeleton, the type matrices or the clique tagging must keep giving the same
colors, structured tuples included, on the same inputs.
"""

import hashlib
import json
import random
from pathlib import Path

from strongodd.experiments import random_subdigraph, random_subsets, random_sum_desc, tw_instance
from strongodd.gadgets import gen_random_partial_ktree
from strongodd.graphs import join_with_clique, strong_product
from strongodd.ktree import build_ktree
from strongodd.rowtw import color_rtw
from strongodd.sumcolor import color_sum, color_summand, sum_clique_coloring
from strongodd.sums import build_sum
from strongodd.treewidth import clique_coloring, color_tw

PINS = Path(__file__).parent / "data" / "layered_colorings.json"
PER_KIND = 10


def coloring_digest(c) -> str:
    """sha256 of the assignment and the structured tuples, both in vertex
    order, as the CLI prints them."""
    text = repr(sorted(c.assignment.items())) + repr(sorted(c.tuples.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def clique_digest(sigma) -> str:
    return hashlib.sha256(repr(sorted((sorted(q), c) for q, c in sigma.items())).encode()).hexdigest()


def pinned_corpus():
    """(name, thunk) for every pinned case.  The inputs follow the seeds of
    ``crit_tw``, ``crit_rtw_and_sums`` and ``crit_clique_colorings``, plus
    three constrained 3-trees and one 48-summand sum with every edge as a
    clique."""
    for i in range(PER_KIND):
        seq, _, digraphs, sets = tw_instance(i)
        yield f"tw{i}", lambda seq=seq, d=digraphs, m=sets: coloring_digest(color_tw(seq, d, m))
    for i, n_steps in enumerate((10, 30, 60)):
        rng = random.Random(5_000 + i)
        seq, mask = gen_random_partial_ktree(3, n_steps, 0.7, seed=i)
        digraphs = [random_subdigraph(mask, rng) for _ in range(2)]
        sets = random_subsets(seq.n, 2, rng)
        yield f"tw_k3_{i}", lambda seq=seq, d=digraphs, m=sets: coloring_digest(color_tw(seq, d, m))

    for i in range(PER_KIND):
        rng = random.Random(11_000 + i)
        k = rng.choice([0, 1])
        hseq, _ = gen_random_partial_ktree(k, rng.randrange(0, 10), 1.0, seed=i)
        path_len = rng.randrange(1, 7)
        prod = strong_product(build_ktree(hseq), path_len)
        arcs = random_subdigraph(prod, rng)
        sets = random_subsets(prod.n, rng.randrange(0, 3), rng)
        yield f"rtw{i}", lambda h=hseq, p=path_len, a=arcs, m=sets: coloring_digest(
            color_rtw(h, p, a, m))
    for i in range(PER_KIND):
        rng = random.Random(12_000 + i)
        k, t = rng.choice([0, 1]), rng.randrange(0, 3)
        hseq, _ = gen_random_partial_ktree(k, rng.randrange(0, 8), 1.0, seed=i)
        path_len = rng.randrange(1, 5)
        f = join_with_clique(strong_product(build_ktree(hseq), path_len), t)
        arcs = random_subdigraph(f, rng)
        sets = random_subsets(f.n, rng.randrange(0, 3), rng)
        yield f"summand{i}", lambda h=hseq, p=path_len, t=t, a=arcs, m=sets: coloring_digest(
            color_summand(h, p, t, a, m))
    for i in range(PER_KIND):
        rng = random.Random(13_000 + i)
        w, k, t = rng.choice([1, 2]), rng.choice([0, 1]), rng.choice([0, 1])
        desc = random_sum_desc(w, k, t, rng.randrange(1, 6), seed=i)
        g = build_sum(desc).graph
        arcs = random_subdigraph(g, rng)
        sets = random_subsets(g.n, rng.randrange(0, 3), rng)
        yield f"sum{i}", lambda desc=desc, a=arcs, m=sets: coloring_digest(color_sum(desc, a, m))

    for i in range(PER_KIND):
        rng = random.Random(88_000 + i)
        k = rng.choice([1, 2])
        seq, _ = gen_random_partial_ktree(k, rng.randrange(1, 25), 1.0, seed=i)
        cliques = [seq.represented_clique(v) for v in range(k, seq.n) if rng.random() < 0.6]
        yield f"clique{i}", lambda seq=seq, qs=cliques: clique_digest(clique_coloring(seq, qs))
    for i in range(PER_KIND):
        rng = random.Random(99_000 + i)
        w, k, t = rng.choice([1, 2]), rng.choice([0, 1]), rng.choice([0, 1])
        desc = random_sum_desc(w, k, t, rng.randrange(1, 4), seed=i)
        g = build_sum(desc).graph
        cliques = [frozenset([v]) for v in range(g.n)] + [frozenset(e) for e in g.edge_list()]
        yield f"sum_clique{i}", lambda desc=desc, qs=cliques: clique_digest(
            sum_clique_coloring(desc, qs))
    desc = random_sum_desc(2, 1, 1, 48, seed=7)
    edges = [frozenset(e) for e in build_sum(desc).graph.edge_list()]
    yield "sum_clique_48", lambda: clique_digest(sum_clique_coloring(desc, edges))


class TestPinnedColorings:
    def test_colorings_match_pins(self):
        pins = json.loads(PINS.read_text())
        got = {name: digest() for name, digest in pinned_corpus()}
        assert len(got) == 64
        assert got == pins
