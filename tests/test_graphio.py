"""Serialization: readers on literal input, writers read back."""

import pytest

from strongodd import graphio
from strongodd.gadgets import gen_random_partial_ktree
from strongodd.graphs import Coloring, DiGraph, Graph, Hypergraph, PlaneGraph
from strongodd.sums import SumDesc, Summand


class TestEdgeList:
    def test_graph_round_trip(self):
        text = "# comment\n4 2\n0 1\n\n2 3\n"
        assert graphio.parse_edge_list(text) == Graph(4, [(0, 1), (2, 3)])

    def test_digraph_round_trip(self):
        text = "3 3 directed\n0 1\n1 0\n2 1\n"
        assert graphio.parse_edge_list(text) == DiGraph(3, [(0, 1), (1, 0), (2, 1)])

    def test_header_mismatch(self):
        with pytest.raises(graphio.FormatError):
            graphio.parse_edge_list("2 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(graphio.FormatError):
            graphio.parse_edge_list("nope\n")

    def test_directed_header(self):
        text = "2 1 directed\n0 1\n"
        d = graphio.parse_edge_list(text)
        assert isinstance(d, DiGraph) and d.arcs == {(0, 1)}


class TestJson:
    def test_graph_round_trip(self):
        g = Graph(5, [(0, 4), (1, 2)])
        assert graphio.graph_from_json(graphio.graph_to_json(g)) == g

    def test_hypergraph_round_trip(self):
        h = graphio.hypergraph_from_json({"n": 4, "hyperedges": [[0, 1, 2], [3]]})
        assert h.n == 4 and h.hyperedges == Hypergraph(4, [[0, 1, 2], [3]]).hyperedges

    def test_plane_round_trip(self):
        obj = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "faces": [[0, 1, 2], [0, 2, 1]]}
        p = graphio.plane_from_json(obj)
        assert p.graph == Graph.complete(3)
        assert p.faces == PlaneGraph(Graph.complete(3), [(0, 1, 2), (0, 2, 1)]).faces

    def test_ktree_round_trip(self):
        seq, _ = gen_random_partial_ktree(2, 8, 0.5, seed=3)
        assert graphio.ktree_from_json(graphio.ktree_to_json(seq)) == seq

    def test_sumdesc_round_trip(self):
        edge = {"k": 1, "initial": [0], "steps": [{"v": 1, "parents": [0]}]}
        obj = {"w": 2, "k": 1, "t": 1,
               "summands": [{"ktree": edge, "path_len": 2}, {"ktree": edge, "path_len": 3}],
               "attachments": [{"host_clique": [0, 1], "new_clique": [2, 0]}]}
        summand = graphio.ktree_from_json(edge)
        assert graphio.sumdesc_from_json(obj) == SumDesc(
            2, 1, 1, (Summand(summand, 2), Summand(summand, 3)), (((0, 1), (2, 0)),))
        obj["attachments"] = []  # optional: a one-summand sum has none
        obj["summands"].pop()
        assert graphio.sumdesc_from_json(obj).attachments == ()

    def test_coloring_round_trip(self):
        c = Coloring({0: 2, 1: 0}, {0: ("a", 1), 1: ("b",)})
        encoded = graphio.coloring_to_json(c)
        assert "tuples" in encoded
        back = graphio.coloring_from_json(encoded)
        assert back.assignment == c.assignment

    def test_malformed_rejected(self):
        with pytest.raises(graphio.FormatError):
            graphio.graph_from_json({"edges": []})
        with pytest.raises(graphio.FormatError):
            graphio.ktree_from_json({"k": 1})

    def test_dumps_stable(self):
        g = Graph(3, [(0, 1)])
        assert graphio.dumps(graphio.graph_to_json(g)) == \
            graphio.dumps(graphio.graph_to_json(g))
