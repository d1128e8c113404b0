"""Hypergraph container, parsers, and derived graphs."""

import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE7_TEXT, incident_edges, random_hypergraph
from hyperzeon.errors import BudgetError, ParseError
from hyperzeon.hypergraph import (
    MAX_SIZE,
    Hypergraph,
    emit,
    parse,
    parse_json,
    parse_text,
    to_json_dict,
)


@st.composite
def hypergraphs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_hypergraph(random.Random(seed))


class TestConstruction:
    def test_sample7(self, sample7):
        assert sample7.n == 7
        assert sample7.m == 6
        assert sample7.edges[0] == frozenset({1, 2, 3})
        assert sample7.edges[5] == frozenset({5, 6})

    def test_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(-1, [])
        with pytest.raises(ValueError):
            Hypergraph(3, [frozenset()])
        with pytest.raises(ValueError):
            Hypergraph(3, [{1, 4}])
        with pytest.raises(ValueError):
            Hypergraph(3, [{0, 1}])

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_vertex_count_must_be_an_int(self, n):
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            Hypergraph(n, [[1]])
        # the JSON parser keeps its own message
        with pytest.raises(ParseError, match="'n' must be an integer"):
            parse_json(json.dumps({"n": n, "edges": [[1]]}))

    def test_size_limit(self):
        # the vertex count is checked before anything is allocated for it
        with pytest.raises(BudgetError):
            Hypergraph(10**15, [])
        with pytest.raises(BudgetError):
            Hypergraph(MAX_SIZE + 1, [])
        assert Hypergraph(MAX_SIZE, [[1]] * MAX_SIZE).m == MAX_SIZE
        # derived graphs may carry more edges than an input may
        assert Hypergraph(2, [[1, 2]] * (MAX_SIZE + 1)).m == MAX_SIZE + 1

    def test_empty_hypergraph(self):
        h = Hypergraph(0, [])
        assert h.n == 0 and h.m == 0
        assert Hypergraph(2).edges == ()

    def test_equality_is_edge_order_sensitive(self):
        a = Hypergraph(3, [{1, 2}, {2, 3}])
        b = Hypergraph(3, [{2, 3}, {1, 2}])
        assert a == Hypergraph(3, [{1, 2}, {2, 3}])
        assert a != b
        assert hash(a) != hash(b)
        assert (a == (3, a.edges)) is False
        assert repr(a) == "Hypergraph(n=3, edges=[{1,2}, {2,3}])"
        assert repr(b) == "Hypergraph(n=3, edges=[{2,3}, {1,2}])"

    def test_immutable(self):
        h = Hypergraph(3, [{1, 2}, {2, 3}])
        before = hash(h)
        for name, value in (("n", 5), ("edges", ()), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(h, name, value)
        with pytest.raises(AttributeError):
            del h.n
        assert (h.n, h.m, hash(h)) == (3, 2, before)

    def test_copy_and_pickle_round_trip(self):
        h = Hypergraph(3, [{1, 2}, {2, 3}])
        for twin in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
            assert twin == h and hash(twin) == hash(h)


class TestQueries:
    def test_incident_edges_and_degree(self, sample7):
        # incident_edges is the tests' helper behind the representations' definitions
        assert incident_edges(sample7, 1) == (0, 1, 2)
        assert incident_edges(sample7, 6) == (3, 4, 5)
        assert incident_edges(sample7, 2) == (0,)
        assert sample7.degree(4) == 3
        assert [sample7.degree(v) for v in range(1, 8)] == [3, 1, 2, 3, 2, 3, 1]

    def test_common_edges_and_adjacency(self, sample7):
        assert sample7.adjacent(3, 6)
        assert not sample7.adjacent(2, 6)
        # literal containment reading: any edge through v contains "both" v and v
        assert sample7.adjacent(1, 1)
        assert not Hypergraph(2, [{1}]).adjacent(2, 2)

    def test_isolated_vertices(self, sample7):
        assert sample7.isolated_vertices() == ()
        h = Hypergraph(4, [{1, 3}])
        assert h.isolated_vertices() == (2, 4)

    def test_uniformity(self, sample7):
        h = Hypergraph(4, [{1, 2}, {3, 4}])
        assert h.is_r_uniform(2)
        assert not h.is_r_uniform(3)

    def test_partite(self):
        h = Hypergraph(6, [{1, 3, 5}, {2, 4, 6}, {1, 4, 5}])
        parts = [{1, 2}, {3, 4}, {5, 6}]
        assert h.is_r_partite(3, parts)
        assert not h.is_r_partite(3, [{1, 2, 3}, {4}, {5, 6}])
        # predicate, not a validator: wrong arity or a non-partition is just False
        assert not h.is_r_partite(2, parts)
        assert not h.is_r_partite(3, [{1, 2}, {3, 4}, {5}])
        assert not h.is_r_partite(3, [{1, 2}, {2, 3, 4}, {5, 6}])

    def test_union_closed(self):
        assert Hypergraph(2, [{1}, {2}, {1, 2}]).is_union_closed()
        assert not Hypergraph(2, [{1}, {2}]).is_union_closed()
        assert Hypergraph(3, [{1, 2, 3}]).is_union_closed()


class TestDerivedGraphs:
    def test_intersection_graph_j0(self, sample7):
        g = sample7.intersection_graph(0)
        assert g.n == 6
        want = {
            frozenset(p)
            for p in [
                (1, 2), (1, 3), (1, 4), (2, 3), (2, 5),
                (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
            ]
        }
        assert set(g.edges) == want

    def test_intersection_graph_j1(self, sample7):
        g = sample7.intersection_graph(1)
        assert set(g.edges) == {frozenset({2, 3})}

    def test_intersection_graph_rejects_negative_threshold(self, sample7):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            sample7.intersection_graph(-1)

    def test_intersection_graph_monotone(self, sample7):
        prev = None
        for j in range(4):
            edges = set(sample7.intersection_graph(j).edges)
            if prev is not None:
                assert edges <= prev
            prev = edges

    def test_non_adjacency_graph(self, sample7):
        g = sample7.non_adjacency_graph()
        assert g.n == 7
        pairs = set(g.edges)
        # every non-adjacent pair appears, including ones sharing no edge at all
        assert frozenset({1, 6}) in pairs
        assert frozenset({2, 6}) in pairs
        assert len(pairs) == 10
        for e in pairs:
            u, v = sorted(e)
            assert not sample7.adjacent(u, v)

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_non_adjacency_partition(self, h):
        complement = set(h.non_adjacency_graph().edges)
        for u in range(1, h.n + 1):
            for v in range(u + 1, h.n + 1):
                assert h.adjacent(u, v) == (frozenset({u, v}) not in complement)

    @given(hypergraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_non_adjacency_graph_is_the_pairwise_definition(self, h, data):
        # edge order included, with a singleton edge, a repeated edge and an
        # isolated vertex n + 1 added to every drawn hypergraph
        edges = [*h.edges, {data.draw(st.integers(1, h.n))}]
        h = Hypergraph(h.n + 1, [*edges, edges[0]])
        want = [
            [u, v] for u in range(1, h.n + 1) for v in range(u + 1, h.n + 1) if not h.adjacent(u, v)
        ]
        assert h.non_adjacency_graph() == Hypergraph(h.n, want)


class TestTextFormat:
    def test_parse_sample7(self, sample7):
        assert parse_text(SAMPLE7_TEXT) == sample7

    def test_emit_round_trip(self, sample7):
        assert parse_text(emit(sample7)) == sample7

    def test_blank_lines_and_whitespace(self):
        assert parse_text("\n 2 1 \n\n 1 2 \n") == Hypergraph(2, [{1, 2}])

    def test_error_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_text("2\n1 2\n")
        assert err.value.line == 1
        with pytest.raises(ParseError) as err:
            parse_text("2 1\n1 x\n")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            parse_text("2 2\n1 2\n")
        assert "expected 2 edge lines" in str(err.value)

    def test_rejects_out_of_range_and_repeats(self):
        with pytest.raises(ParseError):
            parse_text("2 1\n1 3\n")
        with pytest.raises(ParseError):
            parse_text("2 1\n1 1\n")
        with pytest.raises(ParseError):
            parse_text("-1 0\n")
        assert parse_text("0 0\n") == Hypergraph(0, [])

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, h):
        assert parse_text(emit(h)) == h


class TestJsonFormat:
    def test_round_trip(self, sample7):
        assert parse_json(json.dumps(to_json_dict(sample7))) == sample7

    def test_auto_detect(self, sample7):
        assert parse(SAMPLE7_TEXT) == sample7
        assert parse(json.dumps(to_json_dict(sample7))) == sample7

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_json("{not json")
        with pytest.raises(ParseError):
            parse_json('{"n": 2}')
        with pytest.raises(ParseError):
            parse_json('{"n": 2, "edges": [[1, 1]]}')

    def test_top_level_must_be_an_object(self):
        for text in ("[1]", '"n"', "3", "null"):
            with pytest.raises(ParseError, match="top-level JSON value must be an object"):
                parse_json(text)

    def test_deep_nesting_is_a_parse_error(self):
        depth = 200_000
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_json('{"n": 1, "edges": ' + "[" * depth + "]" * depth + "}")

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, h):
        assert parse_json(json.dumps(to_json_dict(h))) == h
