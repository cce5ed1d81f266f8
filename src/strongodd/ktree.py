"""k-tree construction sequences, BFS layerings, and their validators.

A k-tree is described by its construction sequence: an initial k-clique
(always vertices 0..k-1) followed by steps, each attaching one new vertex to
an existing k-clique.  The sequence is the witness carried through every
layered coloring algorithm; nothing here recognizes tree-like structure in a
raw graph.  Each BFS layer is colored inside its (k-1)-tree completion,
which ``layer_completion`` builds in one pass over the slice's own steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Collection, Iterable

from .graphs import Graph, InputError


class InvalidStep(InputError):
    """A declared parent clique is not a clique of the prefix graph."""


@dataclass(frozen=True)
class KTreeSeq:
    """Construction sequence of a k-tree.

    ``initial`` must be exactly the vertices 0..k-1 and step vertices must be
    consecutive from k on.  Each step's parent set must be a clique of the
    prefix graph; this is checked here, without building the graph: a
    vertex's earlier neighbors are exactly its parents (or the initial
    vertices below it), so a clique whose latest vertex u is a step vertex
    lies inside u's parents plus u.  Functions taking a sequence can
    therefore trust it without building its graph.
    """

    k: int
    initial: tuple[int, ...]
    steps: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self):
        if self.k < 0:
            raise InvalidStep("k must be nonnegative")
        if tuple(self.initial) != tuple(range(self.k)):
            raise InvalidStep("initial clique must be the vertices 0..k-1")
        for i, (v, parents) in enumerate(self.steps):
            if v != self.k + i:
                raise InvalidStep(f"step vertex {v} is not consecutive (expected {self.k + i})")
            if len(parents) != self.k:
                raise InvalidStep(f"step {v}: parent clique has size {len(parents)} != k")
            top = max(parents, default=-1)
            if top >= v:
                raise InvalidStep(f"step {v}: parent {top} not yet inserted")
            # top is no parent of its own, so the clique test is: top is
            # the only parent outside top's parent clique.
            if top >= self.k and len(parents - self.steps[top - self.k][1]) != 1:
                raise InvalidStep(f"step {v}: parents {sorted(parents)} are not a clique")

    @classmethod
    def make(cls, k: int, steps: Iterable[tuple[int, Iterable[int]]]) -> "KTreeSeq":
        return cls(k, tuple(range(k)), tuple((v, frozenset(p)) for v, p in steps))

    @property
    def n(self) -> int:
        return self.k + len(self.steps)

    def parent_clique(self, v: int) -> frozenset[int]:
        """Parent clique of a step vertex; initial vertices have none."""
        if v < self.k:
            raise KeyError(f"vertex {v} is in the initial clique")
        return self.steps[v - self.k][1]

    def represented_clique(self, v: int) -> frozenset[int]:
        """The (k+1)-clique created when step vertex v was attached."""
        return self.parent_clique(v) | {v}

    def earlier_neighbors(self, v: int) -> Iterable[int]:
        """Neighbors of v inserted before it: its parent clique, or the
        initial vertices below it."""
        return range(v) if v < self.k else self.steps[v - self.k][1]


def build_ktree(seq: KTreeSeq) -> Graph:
    """Build the k-tree graph (its step cliques were checked by ``seq``)."""
    edges = list(combinations(seq.initial, 2))
    for v, parents in seq.steps:
        edges.extend((p, v) for p in parents)
    return Graph(seq.n, edges)


@dataclass(frozen=True)
class Layering:
    """Ordered partition of the vertex set into layers."""

    layers: tuple[frozenset[int], ...]
    kind: str  # "bfs" or "natural"

    def layer_of(self) -> dict[int, int]:
        out = {}
        for i, layer in enumerate(self.layers):
            for v in layer:
                out[v] = i
        return out

    def __len__(self):
        return len(self.layers)


def bfs_layering(seq: KTreeSeq) -> Layering:
    """Layers by distance to a virtual root attached to the initial clique.

    The root is never materialized; layer 0 of the result is the set of
    vertices at distance 1 (the initial clique itself).  No graph is built:
    a step vertex's parent clique separates it from the initial clique, so
    its distance is one more than its nearest parent's.
    """
    if seq.k < 1:
        raise InvalidStep("bfs_layering requires k >= 1")
    dist = [0] * seq.k  # distance-to-root minus one
    for _, parents in seq.steps:
        dist.append(1 + min(dist[p] for p in parents))
    layers = [set() for _ in range(max(dist) + 1)]
    for v, d in enumerate(dist):
        layers[d].add(v)
    return Layering(tuple(frozenset(s) for s in layers), "bfs")


@dataclass(frozen=True)
class Completion:
    """A (k-1)-tree completion of a layer slice of a k-tree.

    ``seq`` is the completion's own construction sequence in local ids;
    ``to_local`` maps original vertices into it, in their order.  Local ids
    >= len(vertices) are padding of an initial clique the slice does not
    fill.  ``host`` is the completion's graph, built once here for the
    recursion to read.
    """

    seq: KTreeSeq
    to_local: dict[int, int]
    host: Graph = field(compare=False, repr=False)


class CompletionError(InputError):
    """The slice admits no (k-1)-tree completion along the inherited order."""


def layer_completion(seq: KTreeSeq, vertices: Iterable[int]) -> Completion:
    """Complete a union of same-layer components into a (k-1)-tree.

    Vertices are processed in their original insertion order; each vertex's
    earlier neighbors inside the slice must form a clique of size at most
    k-1 (guaranteed for genuine BFS layers), which is extended to a full
    attachment clique inside the completion being built.  The first k-1
    vertices form the initial clique, padded when the slice is smaller.
    Only the slice's own steps are read; the k-tree itself is never built.
    """
    kk = seq.k - 1
    if kk < 0:
        raise CompletionError("layer completions need k >= 1")
    order = sorted(set(vertices))
    to_local = {v: i for i, v in enumerate(order)}
    steps = []
    # attach[i] for attached local vertex i; initial clique is 0..kk-1
    attach: dict[int, frozenset[int]] = {}
    for i in range(kk, len(order)):
        v = order[i]
        s = {to_local[u] for u in seq.earlier_neighbors(v) if u in to_local}
        if len(s) > kk:
            raise CompletionError(
                f"vertex {v} has {len(s)} earlier in-slice neighbors > {kk}"
            )
        if not s or max(s) < kk:
            # Inside the initial clique (or empty): extend there.
            clique = set(s)
            for c in range(kk):
                if len(clique) == kk:
                    break
                clique.add(c)
        else:
            x = max(s)
            base = attach[x] | {x}
            if not s <= base:
                raise CompletionError(
                    f"vertex {v}: earlier in-slice neighbors do not share a clique"
                )
            clique = set(base)
            for c in sorted(base - s, reverse=True):
                if len(clique) == kk:
                    break
                clique.remove(c)
        attach[i] = frozenset(clique)
        steps.append((i, frozenset(clique)))
    comp_seq = KTreeSeq(kk, tuple(range(kk)), tuple(steps))
    # The completion holds every slice edge: earlier neighbors have smaller
    # ids, so a vertex of the initial clique meets only initial vertices
    # before it, and every other vertex is attached to a clique containing
    # its earlier in-slice neighbors.
    return Completion(comp_seq, to_local, build_ktree(comp_seq))


@dataclass
class PropertyReport:
    """Outcome of checking a named list of structural properties."""

    results: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.results.values())

    def record(self, name: str, ok: bool, witness: object = None):
        self.results[name] = ok
        if not ok:
            self.witnesses[name] = witness


def _component_parents(g: Graph, layer: frozenset[int], prev: frozenset[int]):
    """Per-component sets of previous-layer vertices with a neighbor inside."""
    out = []
    for comp in g.components(layer):
        parents = frozenset().union(*(g.neighbors(v) & prev for v in comp)) if prev else frozenset()
        out.append((comp, parents))
    return out


def _check_parent_cliques(g: Graph, layers, sizes: Collection[int]):
    """B2 and N2: each component of a later layer sees a clique of the
    layer below whose size lies in ``sizes``.  Returns (ok, witness)."""
    for i in range(1, len(layers)):
        for comp, parents in _component_parents(g, layers[i], layers[i - 1]):
            if len(parents) not in sizes or not g.is_clique(parents):
                return False, (i, sorted(comp), sorted(parents))
    return True, None


def _check_layer_edges(g: Graph, layering: Layering):
    """B4 and N4: the layers partition the vertices and edges stay within
    or between consecutive layers.  Returns (ok, witness)."""
    layer_of = layering.layer_of()
    missing = [v for v in range(g.n) if v not in layer_of]
    if missing or sum(len(l) for l in layering.layers) != g.n:
        return False, ("not a partition", missing)
    for u, v in g.edge_list():
        if abs(layer_of[u] - layer_of[v]) > 1:
            return False, (u, v)
    return True, None


def validate_bfs_properties(seq: KTreeSeq, layering: Layering) -> PropertyReport:
    """Check the four BFS-layering properties of a k-tree layering.

    B1: first layer is a k-clique.  B2: per-component previous-layer
    neighborhoods are k-cliques.  B3: each layer admits a (k-1)-tree
    completion along the inherited construction order.  B4: edges stay
    within or between consecutive layers.
    """
    g = build_ktree(seq)
    report = PropertyReport()
    layers = layering.layers

    first = layers[0] if layers else frozenset()
    report.record(
        "B1",
        len(first) == seq.k and g.is_clique(first),
        sorted(first),
    )

    report.record("B2", *_check_parent_cliques(g, layers, (seq.k,)))

    b3_ok, b3_witness = True, None
    for i, layer in enumerate(layers):
        try:
            layer_completion(seq, layer)
        except CompletionError as exc:
            b3_ok, b3_witness = False, (i, str(exc))
            break
    report.record("B3", b3_ok, b3_witness)

    report.record("B4", *_check_layer_edges(g, layering))
    return report
