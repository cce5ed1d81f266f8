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
    ``("set", index, color, count)`` for a bad tracked-set multiplicity,
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


def is_proper(g: Graph, c: Coloring) -> CheckReport:
    """Proper vertex coloring: no edge is monochromatic."""
    _require_total(c, range(g.n))
    bad = [("edge", u, v) for u, v in g.edge_list() if c.of(u) == c.of(v)]
    return CheckReport(not bad, bad)


def _neighborhood_violations(counts: Counter, rule: MultiplicityRule, tag, where) -> list:
    out = []
    for color in sorted(counts):
        cnt = counts[color]
        if cnt and not rule.allows(cnt):
            out.append((tag, where, color, cnt))
    return out


def is_strong_odd(g: Graph, c: Coloring, rule: MultiplicityRule = ODD_RULE) -> CheckReport:
    """Proper, and every color present in any open neighborhood has an
    allowed multiplicity there (odd, under the default rule)."""
    _require_total(c, range(g.n))
    violations = list(is_proper(g, c).violations)
    for v in range(g.n):
        counts = Counter(c.of(u) for u in g.neighbors(v))
        violations.extend(_neighborhood_violations(counts, rule, "parity", v))
    return CheckReport(not violations, violations)


def is_strong_odd_on_set(c: Coloring, m: Iterable[int], rule: MultiplicityRule = ODD_RULE) -> bool:
    """Each color's multiplicity within ``m`` is zero or allowed by the rule."""
    m = list(m)
    _require_total(c, m)
    counts = Counter(c.of(v) for v in m)
    return all(rule.allows(cnt) for cnt in counts.values())


def is_strong_odd_directed(d: DiGraph, c: Coloring, rule: MultiplicityRule = ODD_RULE) -> CheckReport:
    """Proper on arcs, and every out-neighborhood has allowed multiplicities."""
    _require_total(c, range(d.n))
    violations = []
    for u, v in d.arc_list():
        if c.of(u) == c.of(v):
            violations.append(("edge", u, v))
    for v in range(d.n):
        counts = Counter(c.of(u) for u in d.out_neighbors(v))
        violations.extend(_neighborhood_violations(counts, rule, "parity", v))
    return CheckReport(not violations, violations)


def is_odd_coloring(g: Graph, c: Coloring) -> CheckReport:
    """Proper, and every non-isolated vertex sees some color an odd number of times."""
    _require_total(c, range(g.n))
    violations = list(is_proper(g, c).violations)
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if not nbrs:
            continue
        counts = Counter(c.of(u) for u in nbrs)
        if not any(cnt % 2 == 1 for cnt in counts.values()):
            violations.append(("odd", v))
    return CheckReport(not violations, violations)


def is_hypergraph_strong_odd(h: Hypergraph, c: Coloring, rule: MultiplicityRule = ODD_RULE) -> CheckReport:
    """Every hyperedge contains every color an allowed number of times or not
    at all.  There is no properness requirement: the hypergraph notion has no
    adjacency, so none is checked."""
    _require_total(c, range(h.n))
    violations = []
    for i, edge in enumerate(h.hyperedges):
        counts = Counter(c.of(v) for v in edge)
        violations.extend(_neighborhood_violations(counts, rule, "hyperedge", i))
    return CheckReport(not violations, violations)


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

    Face multiplicities count each distinct boundary vertex once; boundaries
    are cycles by the PlaneGraph invariant, so repetition cannot occur.
    """
    _require_total(c, range(p.graph.n))
    violations = list(is_proper(p.graph, c).violations)
    for i, face in enumerate(p.faces):
        counts = Counter(c.of(v) for v in set(face))
        violations.extend(_neighborhood_violations(counts, rule, "face", i))
    return CheckReport(not violations, violations)
