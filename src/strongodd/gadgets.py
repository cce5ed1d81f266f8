"""Deterministic and seeded generators for lower-bound gadgets and corpora."""

from __future__ import annotations

import random
from itertools import combinations

from .graphs import Graph, InputError, PlaneGraph
from .ktree import KTreeSeq, build_ktree


def gen_gk(k: int, include_tree_edges: bool = False) -> Graph:
    """Leaf-to-ancestor graph over the full rooted binary tree of height k.

    Vertices are heap-indexed (root 0, children of i at 2i+1, 2i+2); the
    leaves are the 2**k vertices of depth k.  Each leaf is adjacent to all of
    its ancestors; internal tree edges are omitted by default.  The
    alternative reading that keeps the binary-tree edges sits behind
    ``include_tree_edges`` for comparison.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    n = (1 << (k + 1)) - 1
    first_leaf = (1 << k) - 1
    edges = []
    for leaf in range(first_leaf, n):
        v = leaf
        while v > 0:
            v = (v - 1) // 2
            edges.append((leaf, v))
    if include_tree_edges:
        for v in range(1, first_leaf):
            edges.append((v, (v - 1) // 2))
    return Graph(n, edges)


def gen_iso_gadget(n: int) -> Graph:
    """Four-part gadget separating the improper variant from the proper one.

    Part sizes n, C(n,2), C(n,2), n.  Pair vertices attach to the distinct
    pairs of the first part, twin vertices share the closed neighborhood of
    their pair vertex, and pendant vertices hang off the first part.  Every
    degree is odd.
    """
    if n < 2:
        raise InputError("n must be >= 2")
    pairs = list(combinations(range(n), 2))
    c2 = len(pairs)
    v2 = n              # pair vertices: v2 + i
    v3 = n + c2         # twin vertices: v3 + i
    v4 = n + 2 * c2     # pendants: v4 + i
    edges = []
    for i, (a, b) in enumerate(pairs):
        s = v2 + i
        t = v3 + i
        edges += [(s, a), (s, b), (t, a), (t, b), (s, t)]
    for i in range(n):
        edges.append((i, v4 + i))
    return Graph(n + 2 * c2 + n, edges)


def gen_random_partial_ktree(
    k: int, n_steps: int, keep_prob: float, seed: int
) -> tuple[KTreeSeq, Graph]:
    """Seeded k-tree with uniformly random parent cliques, plus an edge mask
    keeping each host edge independently with probability ``keep_prob``."""
    if not (0.0 <= keep_prob <= 1.0):
        raise InputError("keep_prob must lie in [0, 1]")
    if n_steps < 0:
        raise InputError("n_steps must be nonnegative")
    rng = random.Random(seed)
    cliques = [tuple(range(k))]
    steps = []
    for i in range(n_steps):
        v = k + i
        parents = cliques[rng.randrange(len(cliques))]
        steps.append((v, frozenset(parents)))
        for drop in range(k):
            newc = tuple(sorted(set(parents) - {parents[drop]}) + [v])
            cliques.append(newc)
    seq = KTreeSeq.make(k, steps)
    host = build_ktree(seq)
    kept = [e for e in host.edge_list() if rng.random() < keep_prob]
    return seq, Graph(host.n, kept)


def gen_random_maximal_outerplanar(
    n: int, seed: int, with_faces: bool = False
) -> KTreeSeq | tuple[KTreeSeq, PlaneGraph]:
    """Edge-maximal outerplanar host on n vertices, grown face by face.

    The outer boundary is kept as a cyclic list of directed edge sides; each
    step picks one side and attaches the next vertex to it, so every edge
    hosts at most one new vertex per side.  That discipline yields exactly
    the path-layer structure the outerplanar coloring relies on.

    With ``with_faces`` the polygon triangulation is also returned as a
    PlaneGraph (one triangle per step plus the outer cycle).
    """
    if n < 3:
        raise InputError("n must be >= 3")
    rng = random.Random(seed)
    # Single-sided initial edge: the start edge stays on the outer boundary,
    # which keeps every previous-layer edge owning at most one layer path.
    boundary: list[tuple[int, int]] = [(0, 1)]
    steps = []
    faces = []
    for v in range(2, n):
        a, b = boundary.pop(rng.randrange(len(boundary)))
        steps.append((v, frozenset((a, b))))
        faces.append((a, v, b))
        boundary += [(a, v), (v, b)]
    seq = KTreeSeq.make(2, steps)
    if not with_faces:
        return seq
    # Walk the boundary sides plus the unused back side of the start edge
    # into the outer face cycle.
    nxt = {a: b for a, b in boundary}
    nxt[1] = 0
    outer = [0]
    while True:
        cur = nxt[outer[-1]]
        if cur == 0:
            break
        outer.append(cur)
    faces.append(tuple(outer))
    plane = PlaneGraph(build_ktree(seq), faces)
    return seq, plane
