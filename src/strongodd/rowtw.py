"""Strong odd colorings of subgraphs of (k-tree x path) products.

Every product layer is a copy of the k-tree, colored independently by the
treewidth construction; the directed edges incident to a layer are projected
into it as three digraph constraints (from below, from above, within), a
layer type records which colors meet which tracked sets, a mod-3 tag keeps
the palettes of nearby layers apart, and the layer-parity repair of the
treewidth construction, ``treewidth._parity_repair``, makes the tracked sets
globally odd.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .bounds import rtw_bound
from .graphs import Coloring, DiGraph, _finish, check_constraints
from .graphs import product_coords, strong_product
from .ktree import KTreeSeq, build_ktree
from .treewidth import TypeMatrix, _parity_repair, _tw_color


def _rtw_color(
    h_seq: KTreeSeq,
    path_len: int,
    arcs: DiGraph,
    sets: Sequence[frozenset[int]],
) -> dict[int, object]:
    h = build_ktree(h_seq)
    nh = h.n
    by_layer_arcs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, b in arcs.arcs:
        (u, da) = product_coords(a, nh)
        (v, db) = product_coords(b, nh)
        by_layer_arcs.setdefault((da, db), []).append((u, v))

    out: dict[int, object] = {}
    for d in range(path_len):
        within = [(u, v) for u, v in by_layer_arcs.get((d, d), ())]
        from_below = [(u, v) for u, v in by_layer_arcs.get((d - 1, d), ()) if u != v]
        from_above = [(u, v) for u, v in by_layer_arcs.get((d + 1, d), ()) if u != v]
        projected = [DiGraph(nh, from_below), DiGraph(nh, from_above), DiGraph(nh, within)]
        local_sets = [
            frozenset(u for u in range(nh) if d * nh + u in m) for m in sets
        ]
        gamma = _tw_color(h_seq, h, projected, local_sets)
        cells = []
        for j, m in enumerate(local_sets):
            for u in m:
                cells.append((("M", j), gamma[u]))
        mat = TypeMatrix(cells)
        for u in range(nh):
            out[d * nh + u] = (gamma[u], mat, (d + 1) % 3)

    return _parity_repair(out, lambda x: x // nh)


def color_rtw(
    h_seq: KTreeSeq,
    path_len: int,
    arcs: DiGraph | None = None,
    sets: Sequence[Iterable[int]] = (),
) -> Coloring:
    """Proper coloring of (k-tree x path) that is strong odd on the given
    directed subgraph and on every tracked set."""
    product = strong_product(build_ktree(h_seq), path_len)
    arcs = arcs if arcs is not None else DiGraph(product.n)
    sets = [frozenset(m) for m in sets]
    check_constraints(product, [arcs], sets)
    values = _rtw_color(h_seq, path_len, arcs, sets)
    return Coloring(_finish(values, rtw_bound(h_seq.k, len(sets)), "row-treewidth"), values)
