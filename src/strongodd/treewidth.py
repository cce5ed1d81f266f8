"""Layered strong odd colorings of k-trees, with clique colorings.

The construction follows the BFS layering of the k-tree.  Each layer is
colored through its parent cliques: every clique's children get a recursive
coloring inside a (k-1)-tree completion of the layer slice, cliques are
grouped by a type matrix recording which recursive colors meet which tracked
sets, and cliques of equal type share a clique coloring, computed on the
(k-1)-tree completion of those cliques' own vertices rather than of their
whole layer.  A final mod-3 layer tag plus a layer-parity repair assemble the
result.  Every subinstance is as large as the part of the layer it covers:
one clique's children, or one type class's cliques, never the whole layer.
A forest's BFS layers are edgeless, so at k = 1 a subinstance is colored
from its vertex count and tracked sets alone and is never built.

``_layered_color`` is that construction written once, with the parts that
depend on the instance passed in; the sum coloring of ``sumcolor`` runs it
too, and the product coloring of ``rowtw`` shares ``_parity_repair``.

Color values are structured tuples; two recursive colors are the same color
exactly when the values compare equal, which is what lets type matrices from
independent subinstances synchronize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .bounds import tw_bound, tw_clique_bound
from .canon import canonical_key
from .graphs import Coloring, DiGraph, Graph, InputError, InputNotSubgraph, InvariantViolated
from .graphs import _finish, check_constraints
from .ktree import (
    Completion,
    KTreeSeq,
    Layering,
    bfs_layering,
    build_ktree,
    layer_completion,
    _component_parents,
)


class NotAStepClique(InputError):
    """A clique submitted for clique coloring was never created by a step."""


@dataclass(frozen=True)
class TypeMatrix:
    """Sparse 0-1 matrix over (tracked-set row, color value) cells.

    Only the 1-cells are stored, as one set; rows are keyed semantically
    (("M", j) for tracked sets, ("N", i, h) for digraph/parent-vertex rows)
    and columns by the color values themselves, so matrices of equal meaning
    compare equal regardless of how many colors the palette bound would
    allow.  Equality and hash are the set's, and a frozenset caches its
    hash: matrices sit nested inside every structured color value, which is
    hashed on each dict or set operation.
    """

    cells: frozenset[tuple[tuple, object]]

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(self.cells))

    def canonical_key(self) -> tuple:
        """The cells' canonical keys in order; computed on first use, as
        only a sort by ``canon.canonical_key`` needs it."""
        return self._cell_keys

    @cached_property
    def _cell_keys(self) -> tuple:
        return tuple(sorted(map(canonical_key, self.cells)))

    def __repr__(self):
        return f"TypeMatrix({len(self.cells)} ones)"


def _restrict_to(
    h: DiGraph, vs: Collection[int], to_sub: Mapping[int, int], sub_n: int
) -> DiGraph:
    """The arcs of ``h`` inside ``vs``, renamed by ``to_sub`` into a digraph
    on ``sub_n`` vertices; the cost follows ``vs``, not ``h``."""
    return DiGraph(sub_n, ((to_sub[a], to_sub[b]) for a, b in h.induced_arcs(vs)))


def _pull_back(slice_of, color, d: int, vs, digraphs, sets) -> dict[int, object]:
    """Color the vertices ``vs`` of layer ``d`` inside the subinstance
    ``slice_of(d, vs)``, under the digraphs restricted to ``vs`` and the
    given subsets of ``vs``, and read the colors back.  The digraphs are
    restricted by walking the out-neighborhoods of ``vs`` alone, so one
    clique's children cost what they span, not the whole layer."""
    sub, sub_n, to_sub = slice_of(d, vs)
    sub_digraphs = [_restrict_to(h, vs, to_sub, sub_n) for h in digraphs]
    raw = color(sub, sub_digraphs, [frozenset(to_sub[v] for v in m) for m in sets])
    return {v: raw[to_sub[v]] for v in vs}


def _parity_repair(phi: Mapping[int, object], layer_of: Callable[[int], int]) -> dict[int, object]:
    """Every color must appear on an odd number of layers; an even class is
    renamed on its lowest layer.  Each class is renamed by its own layer set
    alone, so the classes are visited in any order."""
    occupied: dict[object, set[int]] = {}
    for v, c in phi.items():
        occupied.setdefault(c, set()).add(layer_of(v))
    renamed = {c: min(ls) for c, ls in occupied.items() if len(ls) % 2 == 0}
    return {
        v: (c, 1 if c in renamed and layer_of(v) == renamed[c] else 0)
        for v, c in phi.items()
    }


def _layered_color(
    g: Graph,
    layering: Layering,
    first: Mapping[int, object],
    parent_sizes: Collection[int],
    digraphs: Sequence[DiGraph],
    sets: Sequence[frozenset[int]],
    slice_of: Callable[[int, Collection[int]], tuple[object, int, Mapping[int, int]]],
    color: Callable[[object, list[DiGraph], list[frozenset[int]]], Mapping[int, object]],
    parent_rows: Callable[[int, frozenset[int], set[int]], list[tuple[tuple, frozenset[int]]]],
    color_cliques: Callable[[object, list[frozenset[int]]], Mapping[frozenset[int], object]],
) -> dict[int, object]:
    """The layered construction shared by k-trees and (w,k,t)-sums.

    ``first`` colors layer 0.  The components of each later layer are
    grouped by parent clique, whose size must lie in ``parent_sizes``.  The
    children of a clique are colored by ``color`` inside the subinstance
    ``slice_of(d, children)`` (a triple: instance, vertex count, vertex map),
    tracking every set and every ``parent_rows`` out-neighborhood.  Cliques
    of equal type matrix share one ``color_cliques`` coloring inside the
    subinstance ``slice_of(d - 1, ...)`` of the vertices those cliques span,
    so each class costs its own cliques, not the whole previous layer.  A
    mod-3 layer tag and the layer-parity repair finish the coloring.
    """
    layers = layering.layers
    phi: dict[int, object] = {v: (c, -1, -1, 1) for v, c in first.items()}
    for d in range(1, len(layers)):
        children: dict[frozenset[int], set[int]] = {}
        for comp, parents in _component_parents(g, layers[d], layers[d - 1]):
            if len(parents) not in parent_sizes or not g.is_clique(parents):
                raise InvariantViolated(
                    f"parent set {sorted(parents)} is not a clique of an allowed size")
            children.setdefault(parents, set()).update(comp)

        per_clique: dict[frozenset[int], tuple[dict[int, object], TypeMatrix]] = {}
        for q in sorted(children, key=sorted):
            vq = children[q]
            tracked = [(("M", j), m & vq) for j, m in enumerate(sets)] + parent_rows(d, q, vq)
            phi_q = _pull_back(slice_of, color, d, vq, digraphs, [m for _, m in tracked])
            per_clique[q] = (phi_q, TypeMatrix((row, phi_q[v]) for row, m in tracked for v in m))

        by_type: dict[TypeMatrix, list[frozenset[int]]] = {}
        for q, (_, mat) in per_clique.items():
            by_type.setdefault(mat, []).append(q)
        sigma: dict[frozenset[int], object] = {}
        for qs in by_type.values():
            prev, _, to_prev = slice_of(d - 1, frozenset().union(*qs))
            mapped = [frozenset(to_prev[v] for v in q) for q in qs]
            colored = color_cliques(prev, mapped)
            for q, mq in zip(qs, mapped):
                sigma[q] = colored[mq]

        for q, (phi_q, mat) in per_clique.items():
            for v, c in phi_q.items():
                phi[v] = (c, mat, sigma[q], (d + 1) % 3)

    return _parity_repair(phi, layering.layer_of().__getitem__)


def _base_sets_coloring(n: int, sets: Sequence[frozenset[int]]) -> dict[int, object]:
    """Edgeless base case: color so every tracked set meets every color an
    odd number of times or not at all.

    Vertices are partitioned by their membership pattern; a pattern class of
    even size splits off its smallest vertex into a second palette color.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(n):
        j = tuple(i for i, m in enumerate(sets) if v in m)
        groups.setdefault(j, []).append(v)
    out: dict[int, object] = {}
    for j, members in groups.items():
        members.sort()
        split = members[0] if len(members) % 2 == 0 else None
        for v in members:
            out[v] = (j, 1 if v == split else 0)
    return out


def _greedy_layer_coloring(g: Graph, layer: frozenset[int], k: int) -> dict[int, int]:
    """Proper coloring of one layer with colors 1..k, greedy along the
    inherited construction order (earlier in-layer neighbors number < k)."""
    chi: dict[int, int] = {}
    for v in sorted(layer):
        used = {chi[u] for u in g.neighbors(v) if u in chi}
        c = 1
        while c in used:
            c += 1
        if c > max(k, 1):  # pragma: no cover - violated only by invalid input
            raise InputNotSubgraph(f"layer is not a partial ({k - 1})-tree at {v}")
        chi[v] = c
    return chi


def _rep_map(seq: KTreeSeq) -> dict[frozenset[int], int]:
    """Each step's created clique mapped to the vertex representing it."""
    return {seq.represented_clique(v): v for v in range(seq.k, seq.n)}


def _color_by_reps(
    n: int,
    reps: Mapping[frozenset[int], int],
    color: Callable[[DiGraph, list[frozenset[int]]], Mapping[int, object]],
) -> dict[frozenset[int], object]:
    """Color each clique by its representative's color under
    ``color(digraph, sets)``: an arc goes from each member to its clique's
    representative, and the representatives form one tracked set."""
    arcs = DiGraph(n, ((p, r) for q, r in reps.items() for p in q if p != r))
    psi = color(arcs, [frozenset(reps.values())])
    return {q: psi[r] for q, r in reps.items()}


def _clique_color_raw(
    seq: KTreeSeq, g: Graph, cliques: Sequence[frozenset[int]]
) -> dict[frozenset[int], object]:
    """Clique coloring via representatives: strong odd around every vertex,
    all classes odd.  Values come from a recursive vertex coloring of the
    k-tree ``g`` built from ``seq``."""
    reps = _rep_map(seq)
    chosen: dict[frozenset[int], int] = {}
    for q in cliques:
        if q not in reps:
            raise NotAStepClique(f"{sorted(q)} is not a step clique")
        chosen[q] = reps[q]
    return _color_by_reps(seq.n, chosen, lambda arcs, sets: _tw_color(seq, g, [arcs], sets))


def clique_coloring(seq: KTreeSeq, cliques: Iterable[frozenset[int]]) -> dict[frozenset[int], int]:
    """Color a family of step cliques so that, around every vertex, each color
    class among the cliques containing it has odd size or is absent, and
    every color class has odd size overall."""
    cliques = [frozenset(q) for q in cliques]
    g = build_ktree(seq)
    for q in cliques:
        if len(q) != seq.k + 1 or not g.is_clique(q):
            raise NotAStepClique(f"{sorted(q)} is not a ({seq.k + 1})-clique")
    return _finish(_clique_color_raw(seq, g, cliques), tw_clique_bound(seq.k), "clique",
                   key=sorted)


def _tw_color(
    seq: KTreeSeq,
    g: Graph,
    digraphs: Sequence[DiGraph],
    sets: Sequence[frozenset[int]],
) -> dict[int, object]:
    """Raw recursive coloring of the k-tree ``g`` built from ``seq``; returns
    structured color values per vertex.  Each subinstance is a layer
    completion, whose graph is built once (for its slice-edge check) and
    passed down with it; the layering and the completions are read off
    ``seq`` without building ``g`` again.

    A forest's BFS layers are edgeless (the greedy layer coloring checks
    it), so at k = 1 a subinstance is its vertex count alone: it is colored
    from that count and its tracked sets and never built, and no digraph is
    restricted to it, as the edgeless base case reads none."""
    k = seq.k
    if k == 0:
        return _base_sets_coloring(g.n, sets)

    layering = bfs_layering(seq)
    chis = [_greedy_layer_coloring(g, layer, k) for layer in layering.layers]

    if k == 1:
        def completion(d: int, vs):
            return len(vs), len(vs), {v: i for i, v in enumerate(sorted(vs))}

        def color(m: int, sub_digraphs, sub_sets):
            return _base_sets_coloring(m, sub_sets)

        def color_cliques(m: int, cliques):
            # Singleton cliques: each is colored as its member, with the
            # members as the one tracked set (``_color_by_reps`` at k = 0).
            psi = _base_sets_coloring(m, [frozenset().union(*cliques)])
            return {q: psi[min(q)] for q in cliques}
    else:
        def completion(d: int, vs):
            comp = layer_completion(seq, vs)
            return comp, comp.seq.n, comp.to_local

        def color(comp: Completion, sub_digraphs, sub_sets):
            return _tw_color(comp.seq, comp.host, sub_digraphs, sub_sets)

        def color_cliques(comp: Completion, cliques):
            return _clique_color_raw(comp.seq, comp.host, cliques)

    def parent_rows(d: int, q: frozenset[int], vq: set[int]):
        # A parent k-clique holds one vertex of each layer color 1..k.
        chi = chis[d - 1]
        by_color = sorted(q, key=chi.__getitem__)
        return [(("N", i, chi[u]), h.out_neighbors(u) & vq)
                for i, h in enumerate(digraphs) for u in by_color]

    return _layered_color(g, layering, chis[0], (k,), digraphs if k > 1 else (), sets,
                          completion, color, parent_rows, color_cliques)


def color_tw(
    seq: KTreeSeq,
    digraphs: Sequence[DiGraph] = (),
    sets: Sequence[Iterable[int]] = (),
) -> Coloring:
    """Proper coloring of the k-tree that is strong odd on every digraph
    constraint and on every tracked set.

    Missing constraints are padded with an empty digraph / empty set; the
    color count respects the memoized treewidth bound for the padded counts.
    """
    g = build_ktree(seq)
    digraphs = list(digraphs) or [DiGraph(g.n)]
    sets = [frozenset(m) for m in sets] or [frozenset()]
    check_constraints(g, digraphs, sets)
    values = _tw_color(seq, g, digraphs, sets)
    return Coloring(_finish(values, tw_bound(seq.k, len(digraphs), len(sets)), "treewidth"),
                    values)
