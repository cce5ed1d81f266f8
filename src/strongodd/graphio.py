"""Text and JSON formats for graphs, witnesses, and colorings.

Edge-list text: first line ``n m`` (digraphs: ``n m directed``), then m lines
``u v`` with 0-indexed endpoints.  JSON formats mirror the in-memory types.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any

from .graphs import Coloring, DiGraph, Graph, Hypergraph, InputError, PlaneGraph
from .ktree import KTreeSeq
from .sums import SumDesc, Summand


class FormatError(InputError):
    pass


@contextmanager
def _malformed(what: str):
    """Report a missing field, or a value of the wrong type or form, as a
    FormatError about ``what``; input errors raised inside pass unchanged."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer: a float, bool or string is
    malformed, not rounded or parsed."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, not {value!r}")
    return value


def _ids(values, what: str) -> tuple[int, ...]:
    return tuple(json_int(v, what) for v in values)


def parse_edge_list(text: str) -> Graph | DiGraph:
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty edge-list input")
    header = lines[0].split()
    directed = False
    if len(header) == 3 and header[2] == "directed":
        directed = True
    elif len(header) != 2:
        raise FormatError(f"bad header {lines[0]!r}")
    with _malformed(f"header {lines[0]!r}"):
        n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        with _malformed(f"edge line {ln!r}"):
            pairs.append((int(parts[0]), int(parts[1])))
    return DiGraph(n, pairs) if directed else Graph(n, pairs)


def write_edge_list(g: Graph | DiGraph) -> str:
    if isinstance(g, DiGraph):
        pairs = g.arc_list()
        header = f"{g.n} {len(pairs)} directed"
    else:
        pairs = g.edge_list()
        header = f"{g.n} {len(pairs)}"
    return "\n".join([header] + [f"{u} {v}" for u, v in pairs]) + "\n"


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edge_list()]}


def graph_from_json(obj: dict) -> Graph:
    with _malformed("graph object"):
        return Graph(json_int(obj["n"], "graph n"),
                     [_ids(e, "graph vertex") for e in obj["edges"]])


def digraph_to_json(d: DiGraph) -> dict:
    return {"n": d.n, "arcs": [list(a) for a in d.arc_list()]}


def digraph_from_json(obj: dict) -> DiGraph:
    with _malformed("digraph object"):
        return DiGraph(json_int(obj["n"], "digraph n"),
                       [_ids(a, "digraph vertex") for a in obj["arcs"]])


def digraphs_from_json(obj) -> list[DiGraph]:
    with _malformed("digraph list"):
        return [digraph_from_json(d) for d in obj]


def hypergraph_from_json(obj: dict) -> Hypergraph:
    with _malformed("hypergraph object"):
        return Hypergraph(json_int(obj["n"], "hypergraph n"),
                          [_ids(h, "hypergraph vertex") for h in obj["hyperedges"]])


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"n": h.n, "hyperedges": [sorted(e) for e in h.hyperedges]}


def plane_from_json(obj: dict) -> PlaneGraph:
    with _malformed("plane graph object"):
        faces = [_ids(f, "face vertex") for f in obj["faces"]]
    return PlaneGraph(graph_from_json(obj), faces)


def plane_to_json(p: PlaneGraph) -> dict:
    out = graph_to_json(p.graph)
    out["faces"] = [list(f) for f in p.faces]
    return out


def ktree_to_json(seq: KTreeSeq) -> dict:
    return {
        "k": seq.k,
        "initial": list(seq.initial),
        "steps": [{"v": v, "parents": sorted(p)} for v, p in seq.steps],
    }


def ktree_from_json(obj: dict) -> KTreeSeq:
    with _malformed("ktree object"):
        return KTreeSeq(
            json_int(obj["k"], "ktree k"),
            _ids(obj["initial"], "ktree vertex"),
            tuple((json_int(s["v"], "ktree vertex"),
                   frozenset(_ids(s["parents"], "ktree vertex"))) for s in obj["steps"]),
        )


def sumdesc_to_json(desc: SumDesc) -> dict:
    return {
        "w": desc.w,
        "k": desc.k,
        "t": desc.t,
        "summands": [
            {"ktree": ktree_to_json(s.ktree), "path_len": s.path_len}
            for s in desc.summands
        ],
        "attachments": [
            {"host_clique": list(h), "new_clique": list(nw)}
            for h, nw in desc.attachments
        ],
    }


def sumdesc_from_json(obj: dict) -> SumDesc:
    with _malformed("sum description"):
        return SumDesc(
            json_int(obj["w"], "sum w"),
            json_int(obj["k"], "sum k"),
            json_int(obj["t"], "sum t"),
            tuple(
                Summand(ktree_from_json(s["ktree"]), json_int(s["path_len"], "path_len"))
                for s in obj["summands"]
            ),
            tuple(
                (_ids(a["host_clique"], "attachment vertex"),
                 _ids(a["new_clique"], "attachment vertex"))
                for a in obj.get("attachments", [])
            ),
        )


def sets_from_json(obj) -> list[frozenset[int]]:
    with _malformed("tracked sets"):
        return [frozenset(_ids(m, "tracked set vertex")) for m in obj]


def coloring_to_json(c: Coloring) -> dict:
    out: dict[str, Any] = {"colors": {str(v): col for v, col in sorted(c.assignment.items())}}
    if c.tuples is not None:
        out["tuples"] = {str(v): repr(t) for v, t in sorted(c.tuples.items())}
    return out


def coloring_from_json(obj: dict) -> Coloring:
    with _malformed("coloring object"):
        colors = obj["colors"]
        if type(colors) is not dict:
            raise FormatError(f"coloring colors must be an object, not {colors!r}")
        # A JSON object's keys are strings; each must hold a JSON integer.
        return Coloring({json_int(json.loads(v), "vertex"): json_int(col, "color")
                         for v, col in colors.items()})


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
