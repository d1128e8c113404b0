"""Every set-list enumerator returns a sorted list of strictly ascending int tuples."""

import pytest

from hyperzeon.hypergraph import Hypergraph
from hyperzeon.independent_sets import (
    graph_cliques,
    graph_independent_sets,
    k_independent_sets,
    pairwise_adjacent_sets,
    strong_independent_sets,
    weak_independent_sets,
)
from hyperzeon.matchings import j_intersecting_matchings, k_matchings
from hyperzeon.oracle import (
    brute_independent,
    brute_j_intersecting,
    brute_matchings,
    brute_transversals,
)
from hyperzeon.transversals import minimum_transversals

# a 5-cycle with vertex 6 isolated, for the graph-only enumerators
GRAPH = Hypergraph(6, [{1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}])
MODES = ("weak", "strong", "k-independent", "pairwise-adjacent")

# name -> the set lists an enumerator returns on sample7 (GRAPH for graph inputs)
ENUMERATORS = {
    "graph": lambda h: [graph_independent_sets(GRAPH, k) for k in (1, 2, 3)],
    "cliques": lambda h: [graph_cliques(GRAPH, k) for k in (1, 2)],
    "weak": lambda h: [weak_independent_sets(h, k) for k in (1, 2, 3, 4, 5, 6)],
    "strong": lambda h: [strong_independent_sets(h, k) for k in (1, 2, 3)],
    "k-independent": lambda h: [k_independent_sets(h, size, 2) for size in (1, 2, 3, 4)],
    "pairwise-adjacent": lambda h: [pairwise_adjacent_sets(h, k) for k in (1, 2, 3)],
    "j-intersecting": lambda h: [j_intersecting_matchings(h, j, 2) for j in (0, 1, 2)],
    # the vertex sets of distinct rows are distinct, so sorted rows have sorted sets
    "k_matchings": lambda h: [[vs for vs, _ in k_matchings(h, k)] for k in (1, 2, 3)],
    "minimum_transversals": lambda h: [minimum_transversals(h)[1]],
    "brute_independent": lambda h: [
        brute_independent(g, mode, size, k=2)
        for g, mode in [(GRAPH, "graph"), (GRAPH, "clique"), *((h, mode) for mode in MODES)]
        for size in (1, 2, 3)
    ],
    "brute_matchings": lambda h: [brute_matchings(h, k) for k in (1, 2, 3)],
    "brute_j_intersecting": lambda h: [brute_j_intersecting(h, j, 2) for j in (0, 1, 2)],
    "brute_transversals": lambda h: [
        brute_transversals(h)[1], brute_transversals(Hypergraph(3, []))[1]
    ],
}


@pytest.mark.parametrize("name", ENUMERATORS)
def test_sets_are_sorted_ascending_int_tuples(sample7, name):
    lists = ENUMERATORS[name](sample7)
    assert any(lists)
    for sets in lists:
        assert type(sets) is list
        assert sets == sorted(sets)
        for ids in sets:
            assert type(ids) is tuple
            assert all(type(x) is int for x in ids)
            assert all(a < b for a, b in zip(ids, ids[1:]))
