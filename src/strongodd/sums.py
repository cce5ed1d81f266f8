"""Clique sums of product-plus-clique summands, and their natural layerings.

A (w,k,t)-sum is described by an ordered list of summands, each the join of
(k-tree x path) with a t-clique, glued along cliques of size at most w.  The
description is the witness: every layered coloring routine consumes it
directly and the validators check properties structurally against it.

The sub-instances of the layered recursion are sums of the summands a
vertex set needs (``_owner_closure``), and the N3 witness of a layer
(``layer_sum_desc``) the sum of those whose private part lies in it.  Both
are built by ``_glue``, the one pass that glues chosen summands and
renumbers their private vertices as ``build_sum`` numbers them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .graphs import Graph, InputError, join_with_clique, strong_product
from .ktree import (
    KTreeSeq,
    Layering,
    PropertyReport,
    build_ktree,
    _check_layer_edges,
    _check_parent_cliques,
)


class InvalidAttachment(InputError):
    """An attachment side is not a clique, or the two sides disagree in size."""


@dataclass(frozen=True)
class Summand:
    """One (k,t)-summand: (k-tree x path) joined with a t-clique."""

    ktree: KTreeSeq
    path_len: int

    def graph(self, t: int) -> Graph:
        return join_with_clique(strong_product(build_ktree(self.ktree), self.path_len), t)

    def n(self, t: int) -> int:
        return self.ktree.n * self.path_len + t


@dataclass(frozen=True)
class SumDesc:
    """Construction description of a (w,k,t)-sum.

    ``attachments`` has one entry per summand after the first: the pair of
    equal-size cliques (host side in global ids of the partial sum, new side
    in local ids of the incoming summand) that get identified.
    """

    w: int
    k: int
    t: int
    summands: tuple[Summand, ...]
    attachments: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self):
        if self.w < 0 or self.k < 0 or self.t < 0:
            raise InvalidAttachment("w, k, t must be nonnegative")
        if not self.summands:
            raise InvalidAttachment("at least one summand required")
        if len(self.attachments) != len(self.summands) - 1:
            raise InvalidAttachment("need exactly one attachment per summand after the first")
        for s in self.summands:
            if s.ktree.k != self.k:
                raise InvalidAttachment(f"summand k-tree has k={s.ktree.k} != {self.k}")
            if s.path_len < 1:
                raise InvalidAttachment("summand path_len must be >= 1")

    @classmethod
    def single(cls, w: int, k: int, t: int, ktree: KTreeSeq, path_len: int) -> "SumDesc":
        return cls(w, k, t, (Summand(ktree, path_len),), ())


@dataclass(frozen=True)
class Sum:
    """A built (w,k,t)-sum with its per-summand id maps."""

    desc: SumDesc
    graph: Graph
    vmaps: tuple[tuple[int, ...], ...]  # vmaps[i][local] = global id
    private: tuple[frozenset[int], ...]  # globals introduced by each summand

    def to_local(self, i: int) -> dict[int, int]:
        return {g: l for l, g in enumerate(self.vmaps[i])}

    def summand_vertices(self, i: int) -> frozenset[int]:
        return frozenset(self.vmaps[i])

    @cached_property
    def owner(self) -> tuple[int, ...]:
        """owner[g] is the summand whose private part holds the vertex g."""
        out = [0] * self.graph.n
        for i, priv in enumerate(self.private):
            for g in priv:
                out[g] = i
        return tuple(out)


def build_sum(desc: SumDesc) -> Sum:
    """Glue the summands in order, validating every attachment."""
    graphs = [s.graph(desc.t) for s in desc.summands]
    n = graphs[0].n
    vmaps: list[tuple[int, ...]] = [tuple(range(n))]
    private = [frozenset(range(n))]
    edges = set(graphs[0].edges)

    for i in range(1, len(desc.summands)):
        host, new = desc.attachments[i - 1]
        fg = graphs[i]
        if len(host) != len(new):
            raise InvalidAttachment(f"attachment {i}: side sizes differ")
        if len(host) > desc.w:
            raise InvalidAttachment(f"attachment {i}: clique size {len(host)} > w={desc.w}")
        if len(set(host)) != len(host) or len(set(new)) != len(new):
            raise InvalidAttachment(f"attachment {i}: repeated vertex in a side")
        for g in host:
            if not (0 <= g < n):
                raise InvalidAttachment(f"attachment {i}: host vertex {g} missing")
        for a in range(len(host)):
            for b in range(a + 1, len(host)):
                if tuple(sorted((host[a], host[b]))) not in edges:
                    raise InvalidAttachment(f"attachment {i}: host side is not a clique")
                if not fg.has_edge(new[a], new[b]):
                    raise InvalidAttachment(f"attachment {i}: new side is not a clique")
        ident = dict(zip(new, host))
        vmap = []
        fresh = []
        for l in range(fg.n):
            if l in ident:
                vmap.append(ident[l])
            else:
                vmap.append(n)
                fresh.append(n)
                n += 1
        for u, v in fg.edges:
            gu, gv = vmap[u], vmap[v]
            edges.add((gu, gv) if gu < gv else (gv, gu))
        vmaps.append(tuple(vmap))
        private.append(frozenset(fresh))

    return Sum(desc, Graph(n, edges), tuple(vmaps), tuple(private))


def _glue(s: Sum, kept: list[int], w: int,
          keep: Callable[[int], bool]) -> tuple[Sum, dict[int, int]]:
    """The (w,k,t)-sum of the summands ``kept`` of ``s``, in their order, each
    glued to the ones before it along the pairs of its attachment whose host
    vertex ``keep`` accepts; and the id there of every vertex private to a
    kept summand, numbered as ``build_sum`` numbers it.

    Every accepted host vertex must be private to an earlier kept summand.
    """
    desc = s.desc
    new_id: dict[int, int] = {}
    attachments = []
    n = 0
    for pos, i in enumerate(kept):
        glued: dict[int, int] = {}  # local id -> id of the host vertex
        if pos:
            host, new = desc.attachments[i - 1]
            glued = {l: new_id[g] for g, l in zip(host, new) if keep(g)}
            attachments.append((tuple(glued.values()), tuple(glued)))
        for l, g in enumerate(s.vmaps[i]):
            if l not in glued:
                if g in s.private[i]:
                    new_id[g] = n
                n += 1
    sub_desc = SumDesc(w, desc.k, desc.t, tuple(desc.summands[i] for i in kept),
                       tuple(attachments))
    return build_sum(sub_desc), new_id


def _owner_closure(s: Sum, vertices: Iterable[int], w: int,
                   keep: Callable[[int], bool]) -> tuple[Sum, dict[int, int]]:
    """The (w,k,t)-sum of the summands of ``s`` needed to cover ``vertices``,
    glued along the attachment pairs whose host vertex ``keep`` accepts, and
    the map of each given vertex to its id there.

    It keeps, in their order, the owners of ``vertices`` and, recursively,
    the owners of their accepted attachment vertices, so every kept pair
    glues onto a kept summand.  An empty ``vertices`` keeps the first summand
    alone, as a sum has at least one.  The cost follows the kept summands,
    not ``s``.
    """
    desc = s.desc
    vertices = list(vertices)
    chosen: set[int] = set()
    todo = {s.owner[v] for v in vertices} or {0}
    while todo:
        i = todo.pop()
        if i not in chosen:
            chosen.add(i)
            if i:
                todo.update(s.owner[g] for g in desc.attachments[i - 1][0] if keep(g))
    if w == desc.w and len(chosen) == len(desc.summands):  # ``restrict_sum`` of all of ``s``
        return s, {v: v for v in vertices}
    sub, new_id = _glue(s, sorted(chosen), w, keep)
    return sub, {v: new_id[v] for v in vertices}


def restrict_sum(s: Sum, vertices: Iterable[int]) -> tuple[Sum, dict[int, int]]:
    """``_owner_closure`` along whole attachments: the earliest summand
    holding an edge has an endpoint private to it, so every edge of ``s``
    inside ``vertices`` is kept."""
    return _owner_closure(s, vertices, s.desc.w, lambda g: True)


def natural_layering(desc: SumDesc) -> Layering:
    """Layer the sum by the insertion recursion: each summand's private part
    goes one layer above the lowest layer its attachment clique meets."""
    if desc.w < 1:
        raise InvalidAttachment("natural_layering requires w >= 1")
    return _natural_layering(build_sum(desc))


def _natural_layering(s: Sum) -> Layering:
    """``natural_layering`` of the sum ``s`` already built (w >= 1)."""
    desc = s.desc
    layer_of: dict[int, int] = {}
    for v in s.private[0]:
        layer_of[v] = 0
    for i in range(1, len(desc.summands)):
        host, _ = desc.attachments[i - 1]
        if host:
            q = min(layer_of[g] for g in host)
            lay = q + 1
        else:
            lay = 0
        for v in s.private[i]:
            layer_of[v] = lay
    top = max(layer_of.values(), default=0)
    layers = [set() for _ in range(top + 1)]
    for v, d in layer_of.items():
        layers[d].add(v)
    return Layering(tuple(frozenset(x) for x in layers), "natural")


class LayerWitnessError(InputError):
    """The layer admits no (w-1,k,t)-sum witness along the description."""


@dataclass(frozen=True)
class LayerWitness:
    """A (w-1,k,t)-sum containing an induced copy of one layer.

    ``embed`` maps layer vertices (global ids of the full sum) to global ids
    of the witness sum.
    """

    desc: SumDesc
    sum: Sum
    embed: dict[int, int]


def layer_sum_desc(full: Sum, layering: Layering, d: int) -> LayerWitness:
    """Witness that layer ``d`` induces a subgraph of a (w-1,k,t)-sum: the
    N3 check of ``validate_natural_properties``.

    Glues a full copy of every summand whose private vertices lie in the
    layer, along the parts of its attachment clique that fall inside the
    layer.  Those parts have size at most w-1 because the attachment clique
    always meets the layer below.
    """
    desc = full.desc
    layer = layering.layers[d]
    layer_of = layering.layer_of()
    contributors = []
    for i in range(len(desc.summands)):
        priv = full.private[i]
        if not priv:
            continue
        try:
            lays = {layer_of[v] for v in priv}
        except KeyError:
            unlayered = sorted(v for v in priv if v not in layer_of)
            raise LayerWitnessError(
                f"summand {i} private vertices {unlayered} lie in no layer"
            ) from None
        if len(lays) > 1:
            raise LayerWitnessError(f"summand {i} private vertices span layers {sorted(lays)}")
        if lays == {d}:
            contributors.append(i)
    if not contributors:
        raise LayerWitnessError(
            f"layer {d} vertices belong to no summand privately"
            if layer else f"layer {d} is empty"
        )
    w = max(desc.w - 1, 0)
    for i in contributors:
        inside = sum(layer_of.get(g) == d for g in desc.attachments[i - 1][0]) if i else 0
        if inside > w:
            raise LayerWitnessError(
                f"summand {i}: attachment meets layer {d} in {inside} vertices > w-1={desc.w - 1}"
            )

    # An in-layer attachment vertex is private to a summand whose private
    # part, checked above to lie in one layer, lies in layer d: an earlier
    # contributor.  So each contributor glues onto the ones before it along
    # at most w-1 pairs, and ``_glue``'s numbering embeds the layer
    # injectively.  An in-layer edge's earliest summand owns one end, so it
    # contributes, and holds the other end privately or glues it along an
    # in-layer pair: the witness holds every in-layer edge.
    sub, embed = _glue(full, contributors, w, lambda g: layer_of.get(g) == d)
    for v in layer:
        if v not in embed:
            raise LayerWitnessError(f"layer {d}: vertex {v} not covered by witness")
    return LayerWitness(sub.desc, sub, embed)


def validate_natural_properties(desc: SumDesc, layering: Layering) -> PropertyReport:
    """Check the four natural-layering properties of a (w,k,t)-sum layering.

    N1 and N3 are structural: they exhibit the recursive sum description of
    each layer induced from ``desc`` rather than recognizing sum structure in
    the abstract layer graph.
    """
    s = build_sum(desc)
    g = s.graph
    report = PropertyReport()
    layers = layering.layers

    # N1: the first layer is exactly a disjoint union of whole summands.
    # Summands with no private vertices contribute nothing and are skipped.
    first = layers[0] if layers else frozenset()
    n1_ok, n1_witness = True, None
    covered: set[int] = set()
    for i in range(len(desc.summands)):
        verts = s.summand_vertices(i)
        if s.private[i] and verts <= first:
            if covered & verts:
                n1_ok, n1_witness = False, ("summands overlap in first layer", i)
                break
            covered |= verts
    if n1_ok and covered != set(first):
        n1_ok, n1_witness = False, ("uncovered", sorted(set(first) - covered))
    report.record("N1", n1_ok, n1_witness)

    # N2: per-component previous-layer neighborhoods are cliques of size <= w.
    report.record("N2", *_check_parent_cliques(g, layers, range(desc.w + 1)))

    # N3: each layer embeds into a (w-1,k,t)-sum built from the description.
    n3_ok, n3_witness = True, None
    for d in range(len(layers)):
        if not layers[d]:
            continue
        try:
            layer_sum_desc(s, layering, d)
        except LayerWitnessError as exc:
            n3_ok, n3_witness = False, (d, str(exc))
            break
    report.record("N3", n3_ok, n3_witness)

    report.record("N4", *_check_layer_edges(g, layering))
    return report
