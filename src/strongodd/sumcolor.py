"""Strong odd colorings of (k,t)-summands and (w,k,t)-sums.

The summand coloring reuses the product coloring, feeding the apex
out-neighborhoods in as extra tracked sets and spending t fresh colors on
the apexes.  The sum coloring recurses on w along the natural layering by
running the layered skeleton ``treewidth._layered_color`` with (w-1,k,t)-sum
subinstances in place of (k-1)-tree completions, and with a clique coloring
of parent cliques driven by representative vertices inside their host
summands.  Each subinstance is the summands its vertices need, glued
straight from the whole sum (``sums._owner_closure``).  Each group of
cliques (one host summand, one type) is colored on its own summand, in that
summand's local ids, never on the whole layer sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import summand_bound, sum_bound, sum_clique_bound
from .canon import canonical_key
from .graphs import Coloring, DiGraph, Graph, InputError
from .graphs import _finish, check_constraints
from .graphs import join_with_clique, product_coords, product_vertex, strong_product
from .ktree import KTreeSeq, build_ktree
from .rowtw import _rtw_color
from .sums import Sum, SumDesc, _natural_layering, _owner_closure, build_sum
from .treewidth import TypeMatrix, _base_sets_coloring, _color_by_reps, _layered_color
from .treewidth import _pull_back, _restrict_to


class UntaggedClique(InputError):
    """A clique of a sum admits no host-summand tag."""


def _summand_color(
    h_seq: KTreeSeq,
    path_len: int,
    t: int,
    arcs: DiGraph,
    sets: Sequence[frozenset[int]],
) -> dict[int, object]:
    """Raw coloring of (k-tree x path) + K_t; apexes get fresh colors."""
    np = h_seq.n * path_len
    apexes = range(np, np + t)
    apex_sets = [
        frozenset(u for u in arcs.out_neighbors(a) if u < np) for a in apexes
    ]
    prod_arcs = DiGraph(np, arcs.induced_arcs(range(np)))
    prod_sets = [frozenset(v for v in m if v < np) for m in sets] + apex_sets
    raw = _rtw_color(h_seq, path_len, prod_arcs, prod_sets)
    for i, a in enumerate(apexes):
        raw[a] = ("apex", i)
    return raw


def color_summand(
    h_seq: KTreeSeq,
    path_len: int,
    t: int,
    arcs: DiGraph | None = None,
    sets: Sequence[Iterable[int]] = (),
) -> Coloring:
    """Proper coloring of (k-tree x path) + K_t, strong odd on the directed
    subgraph and on every tracked set."""
    f = join_with_clique(strong_product(build_ktree(h_seq), path_len), t)
    arcs = arcs if arcs is not None else DiGraph(f.n)
    sets = [frozenset(m) for m in sets]
    check_constraints(f, [arcs], sets)
    values = _summand_color(h_seq, path_len, t, arcs, sets)
    return Coloring(_finish(values, summand_bound(h_seq.k, t, len(sets)), "summand"), values)


@dataclass(frozen=True)
class CliqueTag:
    """A clique of a sum as seen from its host: the earliest summand
    containing it, its members in that summand's local ids, its type there
    and its representative (a local id).

    The type is read off the (k+1)-clique of the summand's k-tree covering
    the clique's product projection, on the lower of the two product layers
    the clique meets: which of its members the clique holds on that layer,
    which on the next, and which apexes.  The representative is the copy of
    that clique's largest member on the lower layer, or, for a clique of
    apexes alone (determined by its type), its largest member."""

    clique: frozenset[int]
    summand: int
    local: frozenset[int]
    type: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    rep: int


def _extend_clique(h: Graph, base: set[int], size: int) -> tuple[int, ...]:
    """Deterministically grow a clique by smallest-id common neighbors."""
    clique = set(base)
    while len(clique) < size:
        for v in range(h.n):
            if v not in clique and all(h.has_edge(v, u) for u in clique):
                clique.add(v)
                break
        else:
            break
    return tuple(sorted(clique))


def tag_cliques(s: Sum, cliques: Iterable[frozenset[int]]) -> list[CliqueTag]:
    """Tag every clique with its earliest host summand and its local ids,
    type and representative there.  Each summand's id map and k-tree are
    built at most once per call."""
    desc = s.desc
    k1 = desc.k + 1
    hosts: dict[int, tuple[dict[int, int], Graph]] = {}
    tags = []
    for q in cliques:
        q = frozenset(q)
        # No summand before the owner of a member holds that member.
        for host in range(max((s.owner[v] for v in q), default=0), len(desc.summands)):
            if host not in hosts:
                hosts[host] = (s.to_local(host), build_ktree(desc.summands[host].ktree))
            loc, h = hosts[host]
            if loc.keys() >= q:
                break
        else:
            raise UntaggedClique(f"{sorted(q)} lies in no single summand")
        path_len = desc.summands[host].path_len
        np = h.n * path_len
        local = frozenset(loc[v] for v in q)
        coords = [product_coords(l, h.n) for l in local if l < np]
        layers = sorted({d for _, d in coords})
        if len(layers) > 2 or (len(layers) == 2 and layers[1] != layers[0] + 1):
            raise UntaggedClique(f"{sorted(q)} spans non-adjacent product layers")
        d0 = layers[0] if layers else 0
        proj = {v for v, _ in coords}
        if not h.is_clique(proj):
            raise UntaggedClique(f"{sorted(q)} projects to a non-clique")
        qh = _extend_clique(h, proj, k1)
        held = [tuple(1 if i < len(qh) and d < path_len
                      and product_vertex(qh[i], d, h.n) in local else 0 for i in range(k1))
                for d in (d0, d0 + 1)]
        ctype = (*held, tuple(1 if np + i in local else 0 for i in range(desc.t)))
        rep = product_vertex(max(qh), d0, h.n) if qh else max(local)
        tags.append(CliqueTag(q, host, local, ctype, rep))
    return tags


def _sum_clique_color_raw(
    s: Sum, tags: Sequence[CliqueTag]
) -> dict[frozenset[int], object]:
    """Clique coloring of a sum via representatives, per host-summand type.

    The type includes the host summand, so every group lies in one summand
    and is colored on that summand alone, in its local ids: the work per
    group follows the summand, not the whole sum.  Palettes are kept apart
    per summand, as two summands can share a vertex that would represent
    same-shaped cliques in both.
    """
    desc = s.desc
    groups: dict[tuple, list[CliqueTag]] = {}
    for tag in tags:
        groups.setdefault((tag.summand, tag.type), []).append(tag)
    out: dict[frozenset[int], object] = {}
    for key, group in groups.items():
        i = key[0]
        summand = desc.summands[i]
        reps: dict[int, CliqueTag] = {}
        for tag in group:
            if reps.setdefault(tag.rep, tag) is not tag:
                raise UntaggedClique(
                    f"representative {s.vmaps[i][tag.rep]} shared by two cliques of one type"
                )
        colored = _color_by_reps(
            summand.n(desc.t), {tag.local: r for r, tag in reps.items()},
            lambda arcs, sets: _summand_color(summand.ktree, summand.path_len, desc.t,
                                              arcs, sets))
        for tag in group:
            out[tag.clique] = (key, colored[tag.local])
    return out


def sum_clique_coloring(
    desc: SumDesc, cliques: Iterable[frozenset[int]]
) -> dict[frozenset[int], int]:
    """Color a family of cliques of the sum so that, around every vertex,
    each color class among the cliques containing it has odd size or is
    absent, and every color class has odd size overall.  Each clique must
    lie in a single summand (see ``tag_cliques``).  A repeated clique is
    colored once."""
    s = build_sum(desc)
    cliques = list(dict.fromkeys(frozenset(q) for q in cliques))
    for q in cliques:
        if not s.graph.is_clique(q) or not q:
            raise UntaggedClique(f"{sorted(q)} is not a nonempty clique of the sum")
    return _finish(_sum_clique_color_raw(s, tag_cliques(s, cliques)),
                   sum_clique_bound(desc.k, desc.t, desc.w), "sum clique", key=sorted)


def _sum_color(
    s: Sum,
    arcs: DiGraph,
    sets: Sequence[frozenset[int]],
) -> dict[int, object]:
    """Raw recursive coloring of a (w,k,t)-sum."""
    desc = s.desc
    if desc.w == 0:
        return _disjoint_sum_color(s, arcs, sets)

    layering = _natural_layering(s)
    layers = layering.layers
    if not any(layers):
        return {}
    layer_of = layering.layer_of()

    def witness(d: int, vs):
        # The summands ``vs`` need, glued along in-layer pairs.  An empty
        # ``vs`` (parentless components, which need k = t = 0) gets summand
        # 0: its empty clique takes the color of a lone tracked vertex of a
        # 0-tree layer, whatever the summand's shape.
        sub, to_sub = _owner_closure(s, vs, desc.w - 1, lambda g: layer_of[g] == d)
        return sub, sub.graph.n, to_sub

    def color(sub: Sum, digraphs: list[DiGraph], sub_sets):
        return _sum_color(sub, *digraphs, sub_sets)

    def color_layer(d: int, digraph: DiGraph, layer_sets):
        return _pull_back(witness, color, d, layers[d], [digraph], layer_sets)

    first = color_layer(0, arcs, [m & layers[0] for m in sets])
    no_arcs = DiGraph(s.graph.n)
    chis = [color_layer(d, no_arcs, []) for d in range(len(layers) - 1)]

    def parent_rows(d: int, q: frozenset[int], vq: set[int]):
        chi = chis[d - 1]
        return [(("chi", chi[u]), arcs.out_neighbors(u) & vq)
                for u in sorted(q, key=lambda u: canonical_key(chi[u]))]

    def color_cliques(sub: Sum, cliques: list[frozenset[int]]):
        return _sum_clique_color_raw(sub, tag_cliques(sub, cliques))

    return _layered_color(s.graph, layering, first, range(desc.w + 1), [arcs], sets,
                          witness, color, parent_rows, color_cliques)


def _disjoint_sum_color(
    s: Sum, arcs: DiGraph, sets: Sequence[frozenset[int]]
) -> dict[int, object]:
    """w = 0 base: disjoint summands, synchronized by summand types."""
    desc = s.desc
    parts = []
    by_type: dict[TypeMatrix, list[int]] = {}
    for i, summand in enumerate(desc.summands):
        verts = s.summand_vertices(i)
        loc = s.to_local(i)
        local_arcs = _restrict_to(arcs, verts, loc, summand.n(desc.t))
        local_sets = [frozenset(loc[v] for v in m & verts) for m in sets]
        raw = _summand_color(summand.ktree, summand.path_len, desc.t,
                             local_arcs, local_sets)
        mat = TypeMatrix((("M", j), raw[l]) for j, m in enumerate(local_sets) for l in m)
        parts.append((verts, loc, raw, mat))
        by_type.setdefault(mat, []).append(i)

    sigma: dict[int, object] = {}
    for members in by_type.values():
        marks = [
            frozenset(idx for idx, i in enumerate(members) if not m.isdisjoint(parts[i][0]))
            for m in sets
        ]
        sig = _base_sets_coloring(len(members), marks)
        for idx, i in enumerate(members):
            sigma[i] = sig[idx]

    out: dict[int, object] = {}
    for i, (verts, loc, raw, mat) in enumerate(parts):
        for v in verts:
            out[v] = (raw[loc[v]], mat, sigma[i])
    return out


def color_sum(
    desc: SumDesc,
    arcs: DiGraph | None = None,
    sets: Sequence[Iterable[int]] = (),
) -> Coloring:
    """Proper coloring of the (w,k,t)-sum, strong odd on the directed
    subgraph and on every tracked set."""
    s = build_sum(desc)
    arcs = arcs if arcs is not None else DiGraph(s.graph.n)
    sets = [frozenset(m) for m in sets]
    check_constraints(s.graph, [arcs], sets)
    values = _sum_color(s, arcs, sets)
    return Coloring(_finish(values, sum_bound(desc.k, desc.t, len(sets), desc.w), "sum"), values)
