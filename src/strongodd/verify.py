"""Decision procedures for every coloring property, with violation witnesses.

All checks are exhaustive: a failing report carries the complete list of
violations so property-based tests can shrink against genuine witnesses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .graphs import (
    Coloring,
    DiGraph,
    Graph,
    Hypergraph,
    InputError,
    MultiplicityRule,
    ODD_RULE,
    PlaneGraph,
)


class PartialColoring(InputError):
    """The coloring leaves a required vertex unassigned."""


@dataclass
class CheckReport:
    """Outcome of one verifier run: pass/fail plus all violations found.

    Violations are tuples whose first element names the kind:
    ``("edge", u, v)`` for a monochromatic/improper edge,
    ``("parity", v, color, count)`` for a bad neighborhood multiplicity,
    ``("face", index, color, count)`` and ``("hyperedge", index, color, count)``
    for the embedded and hypergraph variants, and
    ``("odd", v)`` when no color has odd multiplicity around v.
    """

    ok: bool
    violations: list[tuple] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _require_total(c: Coloring, vertices: Iterable[int]):
    missing = [v for v in vertices if v not in c.assignment]
    if missing:
        raise PartialColoring(f"vertices {missing[:5]} have no color")


def _report(c: Coloring, n: int, pairs: Iterable[tuple[int, int]],
            scopes: Iterable[Iterable[int]] = (), rule: MultiplicityRule = ODD_RULE,
            kind: str = "parity") -> CheckReport:
    """The one pass behind every verifier: vertices ``0..n-1`` must be
    colored; each monochromatic pair is reported as ``("edge", u, v)``, then
    each color whose count in the i-th scope the rule forbids as
    ``(kind, i, color, count)``, in color order."""
    _require_total(c, range(n))
    color = c.assignment
    bad = [("edge", u, v) for u, v in pairs if color[u] == color[v]]
    for i, scope in enumerate(scopes):
        counts = Counter(color[v] for v in scope)
        bad += [(kind, i, k, counts[k]) for k in sorted(counts) if not rule.allows(counts[k])]
    return CheckReport(not bad, bad)


def is_proper(g: Graph, c: Coloring) -> CheckReport:
    """Proper vertex coloring: no edge is monochromatic."""
    return _report(c, g.n, g.edge_list())


def is_strong_odd(g: Graph, c: Coloring, rule: MultiplicityRule = ODD_RULE) -> CheckReport:
    """Proper, and every color present in any open neighborhood has an
    allowed multiplicity there (odd, under the default rule)."""
    return _report(c, g.n, g.edge_list(), map(g.neighbors, range(g.n)), rule)


def is_strong_odd_on_set(c: Coloring, m: Iterable[int], rule: MultiplicityRule = ODD_RULE) -> bool:
    """Each color's multiplicity within ``m`` is zero or allowed by the rule."""
    m = list(m)
    _require_total(c, m)
    return _report(c, 0, (), [m], rule).ok


def is_strong_odd_directed(d: DiGraph, c: Coloring, rule: MultiplicityRule = ODD_RULE) -> CheckReport:
    """Proper on arcs, and every out-neighborhood has allowed multiplicities."""
    return _report(c, d.n, d.arc_list(), map(d.out_neighbors, range(d.n)), rule)


def is_odd_coloring(g: Graph, c: Coloring) -> CheckReport:
    """Proper, and every non-isolated vertex sees some color an odd number of times."""
    bad = _report(c, g.n, g.edge_list()).violations
    for v in range(g.n):
        counts = Counter(c.assignment[u] for u in g.neighbors(v))
        if counts and all(cnt % 2 == 0 for cnt in counts.values()):
            bad.append(("odd", v))
    return CheckReport(not bad, bad)


def is_hypergraph_strong_odd(h: Hypergraph, c: Coloring, rule: MultiplicityRule = ODD_RULE) -> CheckReport:
    """Every hyperedge contains every color an allowed number of times or not
    at all.  There is no properness requirement: the hypergraph notion has no
    adjacency, so none is checked."""
    return _report(c, h.n, (), h.hyperedges, rule, "hyperedge")


def plane_to_strong_odd(p: PlaneGraph) -> tuple[Graph, dict[int, int]]:
    """Add one vertex inside each face, adjacent to that face's boundary.

    Returns the augmented graph and the map face-index -> new vertex id, so
    colorings of the augmented graph can be restricted back.
    """
    g = p.graph
    edges = list(g.edges)
    face_vertex = {}
    n = g.n
    for i, face in enumerate(p.faces):
        face_vertex[i] = n
        for v in sorted(set(face)):
            edges.append((v, n))
        n += 1
    return Graph(n, edges), face_vertex


def is_facially_odd(p: PlaneGraph, c: Coloring, rule: MultiplicityRule = ODD_RULE) -> CheckReport:
    """Proper on the underlying graph, and every face boundary sees every
    color an allowed number of times or not at all.

    Face multiplicities count each boundary vertex once; boundaries are
    cycles by the PlaneGraph invariant, so no vertex repeats on one.
    """
    return _report(c, p.graph.n, p.graph.edge_list(), p.faces, rule, "face")
