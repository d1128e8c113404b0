"""Independent-set and clique enumeration through representation powers."""

import random
from itertools import combinations

import pytest

from conftest import incident_edges, random_graph, random_hypergraph, strip_isolated, vertex_set
from hyperzeon.hypergraph import MAX_SIZE, Hypergraph
from hyperzeon.independent_sets import (
    graph_cliques,
    graph_independent_sets,
    independent_set_representation,
    k_independent_sets,
    pairwise_adjacent_sets,
    strong_independent_sets,
    weak_independent_sets,
    weak_representation,
)
from hyperzeon.oracle import brute_independent

PATH3 = Hypergraph(3, [{1, 2}, {2, 3}])
K4 = Hypergraph(4, [set(p) for p in combinations(range(1, 5), 2)])


def set_list(sets):
    return sorted(sorted(s) for s in sets)


class TestGraphIndependentSets:
    def test_path_graph(self):
        assert graph_independent_sets(PATH3, 2) == [(1, 3)]

    def test_complete_graph(self):
        assert graph_independent_sets(K4, 2) == []
        assert set_list(graph_independent_sets(K4, 1)) == [[1], [2], [3], [4]]

    def test_isolated_vertices_get_loops(self):
        # a loop keeps the isolated vertex visible without pairing it to itself
        h = Hypergraph(3, [{1, 2}])
        got = set_list(graph_independent_sets(h, 2))
        assert got == [[1, 3], [2, 3]]

    def test_non_graph_rejected(self, sample7):
        with pytest.raises(ValueError):
            graph_independent_sets(sample7, 2)
        with pytest.raises(ValueError):
            graph_independent_sets(PATH3, 0)

    def test_sets_are_distinct_k_tuples(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_graph(rng)
            for k in (1, 2, 3):
                sets = graph_independent_sets(g, k)
                assert all(len(s) == k for s in sets)
                assert len(set(sets)) == len(sets)

    def test_oracle_equivalence(self):
        rng = random.Random(22)
        for _ in range(30):
            g = random_graph(rng)
            for k in (1, 2, 3):
                got = set(graph_independent_sets(g, k))
                assert got == set(brute_independent(g, "graph", k))


class TestGraphCliques:
    def test_k4_triangles(self):
        got = set(graph_cliques(K4, 3))
        assert got == set(combinations(range(1, 5), 3))

    def test_path_has_no_triangle(self):
        assert graph_cliques(PATH3, 3) == []
        assert set(graph_cliques(PATH3, 2)) == {(1, 2), (2, 3)}

    def test_sparse_graph_whose_complement_exceeds_the_input_limit(self):
        # 25 disjoint edges on 50 vertices: the non-adjacency graph has 1200 edges
        g = Hypergraph(50, [{v, v + 1} for v in range(1, 50, 2)])
        assert g.non_adjacency_graph().m > MAX_SIZE
        edges = sorted(sorted(e) for e in g.edges)
        assert set_list(graph_cliques(g, 2)) == edges
        assert sorted(map(sorted, pairwise_adjacent_sets(g, 2))) == edges
        edgeless = Hypergraph(50, [])
        assert graph_cliques(edgeless, 2) == []
        assert len(graph_independent_sets(edgeless, 2)) == 50 * 49 // 2

    def test_oracle_equivalence(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng)
            for k in (2, 3):
                got = set(graph_cliques(g, k))
                assert got == set(brute_independent(g, "clique", k))


class TestWeakIndependentSets:
    def test_sample7_k5_by_size(self, sample7):
        got = weak_independent_sets(sample7, 5)
        assert sorted(sorted(s) for s in got) == [[2, 3, 4, 5, 7]]

    def test_sample7_phi5_expansion(self, sample7):
        # full fifth power, term for term: coefficient, edge-label exponents,
        # and surviving vertex sets
        rep = weak_representation(sample7)
        power = rep**5
        decode = rep.signature.decode
        seen = {}
        for key, coeff in power.packed.items():
            edge_part = tuple((g + 1, e) for g, e in decode(key) if g in rep.signature.blocks[0])
            seen[vertex_set(rep, key)] = (coeff, edge_part)
        assert seen == {
            frozenset({2, 5, 7}): (30, ((1, 2), (2, 2), (3, 1), (6, 1))),
            frozenset({2, 6, 7}): (30, ((1, 2), (2, 2), (4, 1), (5, 1), (6, 1))),
            frozenset({2, 3, 5, 7}): (60, ((1, 2), (2, 2), (3, 1), (4, 1), (6, 1))),
            frozenset({2, 4, 5, 7}): (60, ((1, 2), (2, 2), (3, 2), (5, 1), (6, 1))),
            frozenset({2, 3, 4, 5, 7}): (
                120,
                ((1, 2), (2, 2), (3, 2), (4, 1), (5, 1), (6, 1)),
            ),
        }

    def test_isolated_vertex_rejected(self):
        h = Hypergraph(3, [{1, 2}])
        with pytest.raises(ValueError):
            weak_independent_sets(h, 2)

    def test_singleton_edge_vertex_never_appears(self):
        h = Hypergraph(3, [{1}, {1, 2, 3}])
        got = weak_independent_sets(h, 2)
        assert all(1 not in s for s in got)
        assert sorted(sorted(s) for s in got) == [[2, 3]]

    def test_reported_sets_contain_no_edge(self, sample7):
        for k in (2, 3, 4, 5):
            for s in weak_independent_sets(sample7, k):
                assert not any(e <= set(s) for e in sample7.edges)

    def test_full_size_complete(self, sample7):
        # completeness holds at size k exactly
        for k in (2, 3):
            got = set(weak_independent_sets(sample7, k))
            assert got == set(brute_independent(sample7, "weak", k))

    def test_oracle_equivalence(self):
        rng = random.Random(24)
        for _ in range(30):
            h = strip_isolated(random_hypergraph(rng))
            if h.n == 0:
                continue
            for k in (1, 2, 3):
                got = set(weak_independent_sets(h, k))
                assert got == set(brute_independent(h, "weak", k))


class TestKIndependentSets:
    def test_sample7_strong_pair(self, sample7):
        got = strong_independent_sets(sample7, 2)
        assert (2, 6) in got
        assert set(got) == set(brute_independent(sample7, "k-independent", 2, k=1))

    def test_size_one_is_all_singletons(self, sample7):
        got = k_independent_sets(sample7, 1, 2)
        assert sorted(sorted(s) for s in got) == [[v] for v in range(1, 8)]

    def test_monotone_in_k(self, sample7):
        for size in (2, 3):
            prev: set = set()
            for k in (1, 2, 3):
                cur = set(k_independent_sets(sample7, size, k))
                assert prev <= cur
                prev = cur

    def test_contract_violations(self, sample7):
        with pytest.raises(ValueError):
            k_independent_sets(sample7, 2, 0)
        with pytest.raises(ValueError):
            k_independent_sets(Hypergraph(3, [{1, 2}]), 2, 1)

    def test_oracle_equivalence(self):
        rng = random.Random(25)
        for _ in range(30):
            h = strip_isolated(random_hypergraph(rng))
            if h.n == 0:
                continue
            for k in (1, 2):
                for size in (2, 3):
                    got = set(k_independent_sets(h, size, k))
                    assert got == set(brute_independent(h, "k-independent", size, k=k))


class TestTwoUniformCoincidence:
    def test_weak_strong_graph_agree(self):
        rng = random.Random(26)
        for _ in range(20):
            g = strip_isolated(random_graph(rng))
            if g.n == 0 or g.m == 0:
                continue
            for k in (2, 3):
                weak = set(weak_independent_sets(g, k))
                strong = set(strong_independent_sets(g, k))
                plain = set(graph_independent_sets(g, k))
                assert weak == strong == plain


class TestPairwiseAdjacentSets:
    def test_sample7_triples(self, sample7):
        got = set(pairwise_adjacent_sets(sample7, 3))
        assert (1, 4, 5) in got
        assert (4, 5, 6) in got
        assert got == set(brute_independent(sample7, "pairwise-adjacent", 3))

    def test_pairs_are_adjacency_relation(self, sample7):
        got = set(pairwise_adjacent_sets(sample7, 2))
        want = {
            (u, v)
            for u in range(1, 8)
            for v in range(u + 1, 8)
            if sample7.adjacent(u, v)
        }
        assert got == want

    def test_edgeless(self):
        h = Hypergraph(3, [])
        assert pairwise_adjacent_sets(h, 2) == []
        assert sorted(sorted(s) for s in pairwise_adjacent_sets(h, 1)) == [[1], [2], [3]]

    def test_oracle_equivalence(self):
        rng = random.Random(27)
        for _ in range(25):
            h = random_hypergraph(rng)
            for k in (2, 3):
                got = set(pairwise_adjacent_sets(h, k))
                assert got == set(brute_independent(h, "pairwise-adjacent", k))


class TestRepresentationStructure:
    def test_vertex_terms(self):
        # one term per vertex: incident edge labels times the vertex label; the
        # isolated vertex 4 alone gets a loop label, whose id follows the edges'
        graph = Hypergraph(4, PATH3.edges)
        rep = independent_set_representation(graph)
        assert rep.signature.blocks[0] == range(graph.m + 1)
        assert len(rep.terms) == 4
        support = rep.signature.support
        for key, coeff in rep.packed.items():
            assert coeff == 1
            verts = vertex_set(rep, key)
            assert len(verts) == 1
            v = next(iter(verts))
            edges = {g for g in support(key) if g in rep.signature.blocks[0]}
            assert edges == (set(incident_edges(graph, v)) or {graph.m})

    def test_weak_representation_indices(self, sample7):
        rep = weak_representation(sample7)
        sig = rep.signature
        for idx, edge in enumerate(sample7.edges):
            assert sig.caps[idx] == max(len(edge), 2)
