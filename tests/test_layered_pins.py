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
from strongodd.sums import Summand, SumDesc, build_sum, natural_layering
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


def _grown_clique(g, rng: random.Random, size: int, pool) -> list[int]:
    """A clique of ``g`` with at most ``size`` vertices of ``pool``, grown
    from a random one by random common neighbors, in the order grown."""
    pool = sorted(pool)
    if not pool or size < 1:
        return []
    clique = [rng.choice(pool)]
    common = g.neighbors(clique[0]) & set(pool)
    while len(clique) < size and common:
        v = rng.choice(sorted(common))
        clique.append(v)
        common &= g.neighbors(v)
    return clique


def fuzz_sum_desc(w: int, k: int, t: int, n_summands: int, rng: random.Random,
                  chain: bool = False) -> SumDesc:
    """A (w,k,t)-sum glued along random cliques of up to w vertices, the
    pairs of each attachment shuffled.  In a chain every summand is glued
    along a w-clique private to the one before, so each adds a layer."""
    summands, attachments, partial = [], [], None
    for _ in range(n_summands):
        seq, _ = gen_random_partial_ktree(k, rng.randrange(0 if k or t else 1, 4), 1.0,
                                          seed=rng.randrange(1 << 30))
        sm = Summand(seq, rng.randrange(2 if chain else 1, 4))
        if partial:
            pool = partial.private[-1] if chain else range(partial.graph.n)
            host = _grown_clique(partial.graph, rng, w if chain else rng.randrange(w + 1), pool)
            new = _grown_clique(sm.graph(t), rng, len(host), range(sm.n(t)))
            pairs = list(zip(host, new))
            rng.shuffle(pairs)
            attachments.append((tuple(h for h, _ in pairs), tuple(l for _, l in pairs)))
        summands.append(sm)
        partial = build_sum(SumDesc(w, k, t, tuple(summands), tuple(attachments)))
    return partial.desc


def sum_fuzz_corpus():
    """Seeded constrained sums with w <= 3, k <= 2 and t <= 1, every fourth
    with k = t = 0 (whose layers have parentless components), then two
    chain sums of 100 summands."""
    rng = random.Random(19)
    for case in range(400):
        w, k, t = rng.randrange(4), rng.randrange(3), rng.randrange(2)
        if case % 4 == 0:
            k = t = 0
        yield fuzz_sum_desc(w, k, t, rng.randrange(1, 7), rng), rng
    for w, k, t in ((1, 0, 0), (2, 1, 1)):
        yield fuzz_sum_desc(w, k, t, 100, rng, chain=True), rng


SUM_FUZZ_DIGEST = "7f6afe7ff87ecdfc8277d25034911cd907233230fae314daba3e6cbeca3f4cd1"


class TestPinnedSumFuzz:
    def test_color_sum_outcomes_match_pin(self):
        """Digest recorded from an earlier implementation of the sum
        sub-instances: every fuzzed sum's coloring, structured tuples
        included, or the exception type and message."""
        h = hashlib.sha256()
        deep = 0
        for case, (desc, rng) in enumerate(sum_fuzz_corpus()):
            g = build_sum(desc).graph
            arcs = random_subdigraph(g, rng)
            sets = random_subsets(g.n, rng.randrange(3), rng)
            try:
                out = coloring_digest(color_sum(desc, arcs, sets))
            except Exception as e:
                out = f"{type(e).__name__}: {e}"
            h.update(f"{case}:{out}\n".encode())
            deep += desc.w >= 1 and len(natural_layering(desc)) >= 96
        assert deep == 2
        assert h.hexdigest() == SUM_FUZZ_DIGEST
