"""Immutable graph primitives and the coloring substrate.

Vertices are dense 0-indexed integers throughout.  Product and join
constructors fix their vertex-id maps explicitly so that colorings computed
on a derived graph can be pulled back to the factors.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .bounds import Bound


class InputError(ValueError):
    """Malformed or invalid input: the caller's error, not the library's.

    Every exception the library raises on bad input derives from it, so a
    caller (the CLI among them) can tell bad input from a library bug.
    """


class GraphError(InputError):
    """Raised for structurally invalid graph data."""


class InputNotSubgraph(InputError):
    """A digraph constraint or tracked set leaves the host graph."""


class InvariantViolated(RuntimeError):
    """A construction broke one of its own guarantees: a library bug, not bad input."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph, immutable after construction."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            norm.add(_norm_edge(u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in adj))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def is_clique(self, vs: Iterable[int]) -> bool:
        vs = list(vs)
        return all(self.has_edge(u, v) for u, v in combinations(vs, 2))

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def components(self, vertices: Optional[Iterable[int]] = None) -> list[frozenset[int]]:
        """Connected components of the subgraph induced by ``vertices`` (by
        default the whole graph), ordered by minimum vertex."""
        todo = set(range(self.n) if vertices is None else vertices)
        comps = []
        for s in sorted(todo):
            if s not in todo:
                continue
            todo.discard(s)
            comp = {s}
            stack = [s]
            while stack:
                found = self._adj[stack.pop()] & todo
                todo -= found
                comp |= found
                stack.extend(found)
            comps.append(frozenset(comp))
        return comps

    def bfs_distances(self, sources: Iterable[int]) -> list[Optional[int]]:
        """Distances from the nearest source; None for unreachable vertices."""
        dist: list[Optional[int]] = [None] * self.n
        queue = deque()
        for s in sources:
            if dist[s] is None:
                dist[s] = 0
                queue.append(s)
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, combinations(range(n), 2))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, ((i, i + 1) for i in range(n - 1)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise GraphError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])


class DiGraph:
    """Directed graph; both orientations of a pair may be present, no loops."""

    __slots__ = ("n", "arcs", "_out")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        norm = set()
        for u, v in arcs:
            if u == v:
                raise GraphError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"arc ({u},{v}) out of range for n={n}")
            norm.add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", frozenset(norm))
        out: list[set[int]] = [set() for _ in range(n)]
        for u, v in norm:
            out[u].add(v)
        object.__setattr__(self, "_out", tuple(frozenset(s) for s in out))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("DiGraph is immutable")

    def out_neighbors(self, v: int) -> frozenset[int]:
        return self._out[v]

    def arc_list(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def induced_arcs(self, keep: Collection[int]) -> Iterator[tuple[int, int]]:
        """The arcs with both endpoints in ``keep``, found by walking the
        out-neighborhoods of the kept vertices, so the cost follows the
        kept part, not the whole digraph."""
        for u in keep:
            if 0 <= u < self.n:
                for v in self._out[u]:
                    if v in keep:
                        yield (u, v)

    def restrict(self, vertices: Iterable[int]) -> "DiGraph":
        """Sub-digraph keeping only arcs with both endpoints in ``vertices``."""
        return DiGraph(self.n, self.induced_arcs(set(vertices)))

    def is_subgraph_of(self, g: Graph) -> bool:
        return all(g.has_edge(u, v) for u, v in self.arcs)

    def __eq__(self, other):
        return isinstance(other, DiGraph) and self.n == other.n and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.n, self.arcs))

    def __repr__(self):
        return f"DiGraph(n={self.n}, arcs={len(self.arcs)})"

    @classmethod
    def from_graph(cls, g: Graph) -> "DiGraph":
        """Both orientations of every edge; models an undirected graph."""
        return cls(g.n, [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges])


class Hypergraph:
    """Vertex set plus a list of nonempty hyperedges."""

    __slots__ = ("n", "hyperedges")

    def __init__(self, n: int, hyperedges: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        hs = []
        for h in hyperedges:
            hset = frozenset(h)
            if not hset:
                raise GraphError("empty hyperedge")
            if any(not (0 <= v < n) for v in hset):
                raise GraphError("hyperedge member out of range")
            hs.append(hset)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "hyperedges", tuple(hs))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Hypergraph is immutable")

    def __repr__(self):
        return f"Hypergraph(n={self.n}, hyperedges={len(self.hyperedges)})"


class PlaneGraph:
    """A graph with a caller-supplied closed 2-cell embedding.

    Each face is a boundary cycle (a vertex sequence).  Construction enforces
    that every face boundary is a cycle of the graph and that every edge lies
    on exactly two face boundaries, counted with multiplicity.
    """

    __slots__ = ("graph", "faces")

    def __init__(self, graph: Graph, faces: Iterable[Sequence[int]]):
        faces = tuple(tuple(f) for f in faces)
        edge_count: Counter = Counter()
        for f in faces:
            if len(f) < 3:
                raise GraphError(f"face boundary {f} is not a cycle")
            if len(set(f)) != len(f):
                raise GraphError(f"face boundary {f} repeats a vertex")
            for i, u in enumerate(f):
                v = f[(i + 1) % len(f)]
                if not graph.has_edge(u, v):
                    raise GraphError(f"face boundary {f} uses non-edge ({u},{v})")
                edge_count[_norm_edge(u, v)] += 1
        for e in graph.edges:
            if edge_count[e] != 2:
                raise GraphError(f"edge {e} lies on {edge_count[e]} != 2 face boundaries")
        for e in edge_count:
            if e not in graph.edges:  # pragma: no cover - already caught above
                raise GraphError(f"boundary edge {e} missing from graph")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "faces", faces)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PlaneGraph is immutable")

    def __repr__(self):
        return f"PlaneGraph(n={self.graph.n}, faces={len(self.faces)})"


@dataclass(frozen=True)
class MultiplicityRule:
    """Allowed neighborhood multiplicities: counts c with c mod modulus in residues.

    Zero is always allowed separately (a color may be absent entirely).
    """

    modulus: int
    residues: frozenset[int]

    def __post_init__(self):
        if self.modulus <= 0:
            raise GraphError("modulus must be positive")
        if not self.residues:
            raise GraphError("residue set must be nonempty")
        if any(not (0 <= r < self.modulus) for r in self.residues):
            raise GraphError("residues must lie in [0, modulus)")

    def allows(self, count: int) -> bool:
        if count == 0:
            return True
        return (count % self.modulus) in self.residues


ODD_RULE = MultiplicityRule(2, frozenset({1}))


@dataclass
class Coloring:
    """A (total or partial) map vertex -> color id.

    ``tuples`` optionally records, per vertex, the structured component tuple
    produced by the constructive algorithms, for provenance and debugging.
    """

    assignment: dict[int, int]
    tuples: Optional[dict[int, object]] = None

    def of(self, v: int) -> int:
        return self.assignment[v]

    def num_colors(self) -> int:
        return len(set(self.assignment.values()))

    def classes(self) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        for v, c in self.assignment.items():
            out.setdefault(c, set()).add(v)
        return out

    def restrict(self, vertices: Iterable[int]) -> "Coloring":
        keep = set(vertices)
        sub = {v: c for v, c in self.assignment.items() if v in keep}
        tup = None
        if self.tuples is not None:
            tup = {v: t for v, t in self.tuples.items() if v in keep}
        return Coloring(sub, tup)

    @classmethod
    def from_values(cls, values: Mapping[int, object]) -> "Coloring":
        """Densify arbitrary hashable color values into ints.

        Color ids are assigned by first occurrence over increasing vertex id,
        so identical inputs yield identical colorings.
        """
        return cls(_densify(values), dict(values))


def _densify(values: Mapping, key=None) -> dict:
    """Map each key to a dense int id of its value, numbered by first
    occurrence over the keys sorted by ``key``."""
    ids: dict[object, int] = {}
    return {x: ids.setdefault(values[x], len(ids)) for x in sorted(values, key=key)}


def _finish(values: Mapping, bound: Bound, label: str, key=None) -> dict:
    """The last step of every construction: densify its raw color values
    (see ``_densify``) and check the color count against its guarantee."""
    ids = _densify(values, key)
    if not bound.at_least(len(set(ids.values()))):
        raise InvariantViolated(f"{label} coloring exceeded its bound")
    return ids


def check_constraints(g: Graph, digraphs: Iterable[DiGraph], sets: Iterable[Iterable[int]]):
    """Reject a digraph constraint that is not a subgraph of ``g`` or a
    tracked set holding a vertex outside it."""
    for d in digraphs:
        if d.n != g.n or not d.is_subgraph_of(g):
            raise InputNotSubgraph("digraph constraint is not a subgraph of the host")
    for m in sets:
        if any(not (0 <= v < g.n) for v in m):
            raise InputNotSubgraph("tracked set contains a foreign vertex")


# ---------------------------------------------------------------------------
# Constructors used by the layered coloring algorithms.


def product_vertex(v: int, layer: int, n_base: int) -> int:
    """Canonical id of base vertex ``v`` in layer ``layer`` of a strong product."""
    return layer * n_base + v


def product_coords(x: int, n_base: int) -> tuple[int, int]:
    """Inverse of :func:`product_vertex`: returns (base vertex, layer)."""
    return (x % n_base, x // n_base)


def strong_product(h: Graph, path_len: int) -> Graph:
    """Strong product of ``h`` with a path on ``path_len`` vertices.

    Vertex (v, d) gets id ``d * h.n + v`` for d in 0..path_len-1; layer d is
    the block of ids [d*h.n, (d+1)*h.n).  Two vertices (u, d), (v, e) are
    adjacent iff |d - e| <= 1 and (u == v or uv is an edge of h), excluding
    equality of both coordinates.
    """
    if path_len < 1:
        raise GraphError("path_len must be >= 1")
    n = h.n
    edges = []
    for d in range(path_len):
        off = d * n
        for u, v in h.edges:
            edges.append((off + u, off + v))
        if d + 1 < path_len:
            for v in range(n):
                edges.append((off + v, off + n + v))
            for u, v in h.edges:
                edges.append((off + u, off + n + v))
                edges.append((off + v, off + n + u))
    return Graph(n * path_len, edges)


def join_with_clique(g: Graph, t: int) -> Graph:
    """Join of ``g`` with a t-clique; the clique takes ids g.n .. g.n+t-1."""
    if t < 0:
        raise GraphError("t must be nonnegative")
    edges = list(g.edges)
    for i in range(t):
        a = g.n + i
        for v in range(g.n):
            edges.append((v, a))
        for j in range(i + 1, t):
            edges.append((a, g.n + j))
    return Graph(g.n + t, edges)


def square(g: Graph) -> Graph:
    """Graph on the same vertices with edges between vertices at distance 1 or 2."""
    edges = set(g.edges)
    for v in range(g.n):
        for u in g.neighbors(v):
            for w in g.neighbors(u):
                if w != v:
                    edges.add(_norm_edge(v, w))
    return Graph(g.n, edges)
