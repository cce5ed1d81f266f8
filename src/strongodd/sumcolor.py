"""Strong odd colorings of (k,t)-summands and (w,k,t)-sums.

The summand coloring reuses the product coloring, feeding the apex
out-neighborhoods in as extra tracked sets and spending t fresh colors on
the apexes.  The sum coloring recurses on w along the natural layering by
running the layered skeleton ``treewidth._layered_color`` with per-layer sum
witnesses in place of (k-1)-tree completions, and with a clique coloring of
parent cliques driven by representative vertices inside their host summands.
Each subinstance is the part of its layer's witness that its vertices need
(``sums.restrict_sum``), and each group of cliques (one host summand, one
type) is colored on its own summand, in that summand's local ids, never on
the whole layer sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import summand_bound, sum_bound
from .canon import canonical_key
from .graphs import Coloring, DiGraph, Graph, InputError, InvariantViolated
from .graphs import _densify, check_constraints
from .graphs import join_with_clique, product_coords, product_vertex, strong_product
from .ktree import KTreeSeq, build_ktree
from .rowtw import _rtw_color
from .sums import (
    LayerWitness,
    Sum,
    SumDesc,
    _natural_layering,
    build_sum,
    layer_sum_desc,
    restrict_sum,
)
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
    coloring = Coloring.from_values(_summand_color(h_seq, path_len, t, arcs, sets))
    if not summand_bound(h_seq.k, t, len(sets)).at_least(coloring.num_colors()):
        raise InvariantViolated("summand coloring exceeded its bound")
    return coloring


@dataclass(frozen=True)
class CliqueTag:
    """Host choice for a clique of a sum: the summand containing it, the
    (k+1)-clique of the summand's k-tree covering its product projection,
    and the lower of the two product layers it meets."""

    clique: frozenset[int]
    summand: int
    qh: tuple[int, ...]
    layer: int


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
    """Tag every clique with its earliest host summand and a covering
    (k+1)-clique of that summand's k-tree."""
    desc = s.desc
    tags = []
    for q in cliques:
        q = frozenset(q)
        host = None
        for i in range(len(desc.summands)):
            if q <= s.summand_vertices(i):
                host = i
                break
        if host is None:
            raise UntaggedClique(f"{sorted(q)} lies in no single summand")
        summand = desc.summands[host]
        h = build_ktree(summand.ktree)
        np = h.n * summand.path_len
        loc = s.to_local(host)
        coords = [product_coords(loc[v], h.n) for v in q if loc[v] < np]
        layers = sorted({d for _, d in coords})
        if len(layers) > 2 or (len(layers) == 2 and layers[1] != layers[0] + 1):
            raise UntaggedClique(f"{sorted(q)} spans non-adjacent product layers")
        d0 = layers[0] if layers else 0
        proj = {v for v, _ in coords}
        if not h.is_clique(proj):
            raise UntaggedClique(f"{sorted(q)} projects to a non-clique")
        qh = _extend_clique(h, proj, summand.ktree.k + 1)
        tags.append(CliqueTag(q, host, qh, d0))
    return tags


def _clique_type(tag: CliqueTag, s: Sum) -> tuple:
    desc = s.desc
    summand = desc.summands[tag.summand]
    h_n = summand.ktree.n
    np = h_n * summand.path_len
    loc = s.to_local(tag.summand)
    local = {loc[v] for v in tag.clique}
    k1 = desc.k + 1
    a1 = tuple(
        1 if i < len(tag.qh) and product_vertex(tag.qh[i], tag.layer, h_n) in local else 0
        for i in range(k1)
    )
    a2 = tuple(
        1
        if i < len(tag.qh)
        and tag.layer + 1 < summand.path_len
        and product_vertex(tag.qh[i], tag.layer + 1, h_n) in local
        else 0
        for i in range(k1)
    )
    a3 = tuple(1 if np + i in local else 0 for i in range(desc.t))
    return (a1, a2, a3)


def _rep_vertex(tag: CliqueTag, s: Sum, loc: dict[int, int]) -> int:
    """The representative of a tagged clique, in the host summand's local
    ids (``loc`` maps the sum's ids to them)."""
    if tag.qh:
        return product_vertex(max(tag.qh), tag.layer, s.desc.summands[tag.summand].ktree.n)
    # Empty product: the clique is pure apexes and determined by its type,
    # so any fixed member works as representative.
    return max(loc[v] for v in tag.clique)


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
        key = (tag.summand, _clique_type(tag, s))
        groups.setdefault(key, []).append(tag)
    locs: dict[int, dict[int, int]] = {}
    out: dict[frozenset[int], object] = {}
    for key in sorted(groups, key=canonical_key):
        i = key[0]
        summand = desc.summands[i]
        if i not in locs:
            locs[i] = s.to_local(i)
        loc = locs[i]
        reps: dict[int, frozenset[int]] = {}  # local representative -> clique
        for tag in sorted(groups[key], key=lambda tg: sorted(tg.clique)):
            r = _rep_vertex(tag, s, loc)
            if r in reps:
                raise UntaggedClique(
                    f"representative {s.vmaps[i][r]} shared by two cliques of one type"
                )
            reps[r] = tag.clique
        local = {frozenset(loc[v] for v in q): r for r, q in reps.items()}
        colored = _color_by_reps(
            summand.n(desc.t), local,
            lambda arcs, sets: _summand_color(summand.ktree, summand.path_len, desc.t,
                                              arcs, sets))
        for lq, r in local.items():
            out[reps[r]] = (key, colored[lq])
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
    return _densify(_sum_clique_color_raw(s, tag_cliques(s, cliques)), key=sorted)


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
    witnesses: dict[int, LayerWitness] = {
        d: layer_sum_desc(s, layering, d) for d in range(len(layers)) if layers[d]
    }

    def witness(d: int, vs):
        wit = witnesses[d]
        sub, to_sub = restrict_sum(wit.sum, (wit.embed[v] for v in vs))
        return sub, sub.graph.n, {v: to_sub[wit.embed[v]] for v in vs}

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
    raws = []
    mats = []
    for i, summand in enumerate(desc.summands):
        verts = s.summand_vertices(i)
        loc = s.to_local(i)
        local_arcs = _restrict_to(arcs, verts, loc, summand.n(desc.t))
        local_sets = [frozenset(loc[v] for v in m & verts) for m in sets]
        raw = _summand_color(summand.ktree, summand.path_len, desc.t,
                             local_arcs, local_sets)
        cells = []
        for j, m in enumerate(local_sets):
            for l in m:
                cells.append((("M", j), raw[l]))
        raws.append(raw)
        mats.append(TypeMatrix(cells))

    by_type: dict[TypeMatrix, list[int]] = {}
    for i, mat in enumerate(mats):
        by_type.setdefault(mat, []).append(i)
    sigma: dict[int, object] = {}
    for mat in sorted(by_type, key=canonical_key):
        members = by_type[mat]
        marks = [
            frozenset(
                idx for idx, i in enumerate(members)
                if sets[j] & s.summand_vertices(i)
            )
            for j in range(len(sets))
        ]
        sig = _base_sets_coloring(len(members), marks)
        for idx, i in enumerate(members):
            sigma[i] = sig[idx]

    out: dict[int, object] = {}
    for i in range(len(desc.summands)):
        loc = s.to_local(i)
        for v in s.summand_vertices(i):
            out[v] = (raws[i][loc[v]], mats[i], sigma[i])
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
    coloring = Coloring.from_values(_sum_color(s, arcs, sets))
    if not sum_bound(desc.k, desc.t, len(sets), desc.w).at_least(coloring.num_colors()):
        raise InvariantViolated("sum coloring exceeded its bound")
    return coloring
