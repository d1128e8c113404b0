"""Brute-force reference enumerators: goldens, conventions, budgets."""

import pytest

from hyperzeon.errors import BudgetError
from hyperzeon.hypergraph import Hypergraph
from hyperzeon.independent_sets import (
    graph_independent_sets,
    k_independent_sets,
    pairwise_adjacent_sets,
    strong_independent_sets,
    weak_independent_sets,
)
from hyperzeon.matchings import j_intersecting_matchings, k_matchings, perfect_matching_count
from hyperzeon.oracle import (
    brute_cycles,
    brute_independent,
    brute_j_intersecting,
    brute_matchings,
    brute_max_matching_size,
    brute_paths,
    brute_perfect_matchings,
    brute_trails,
    brute_transversals,
)


class TestGoldens:
    def test_sample7_paths(self, sample7):
        assert brute_paths(sample7, 3, 4, 3) == [
            ((1, 2, 3, 4), (1, 2), 1),
            ((1, 2, 3, 4), (1, 3), 1),
            ((1, 3, 4, 5), (1, 3), 1),
            ((1, 3, 4, 7), (1, 2), 1),
            ((3, 4, 5, 6), (3, 4, 6), 1),
        ]

    def test_sample7_transversals(self, sample7):
        assert brute_transversals(sample7) == (2, [(1, 6)])

    def test_sample7_matchings(self, sample7):
        assert brute_matchings(sample7, 2) == [(1, 5), (1, 6), (2, 4), (2, 6), (3, 4)]
        assert brute_matchings(sample7, 3) == []

    def test_sample7_weak_size5(self, sample7):
        assert brute_independent(sample7, "weak", 5) == [(2, 3, 4, 5, 7)]


class TestConventions:
    # the walk functions raise where their kernel twins raise
    def test_paths_k0_empty(self, sample7):
        with pytest.raises(ValueError):
            brute_paths(sample7, 3, 4, 0)

    def test_paths_same_endpoints_empty(self, sample7):
        with pytest.raises(ValueError):
            brute_paths(sample7, 3, 3, 2)

    def test_trails_k0_rejected(self, sample7):
        with pytest.raises(ValueError):
            brute_trails(sample7, 3, 4, 0)

    def test_paths_disconnected_empty(self):
        h = Hypergraph(4, [{1, 2}, {3, 4}])
        assert brute_paths(h, 1, 3, 1) == []
        assert brute_paths(h, 1, 3, 3) == []

    def test_single_edge_out_and_back_cycle(self):
        h = Hypergraph(2, [{1, 2}])
        assert brute_cycles(h, 1, 2) == [((1, 2), (1,), 1)]

    def test_cycles_need_two_steps(self, sample7):
        with pytest.raises(ValueError):
            brute_cycles(sample7, 1, 1)

    def test_stationary_trail(self):
        h = Hypergraph(2, [{1, 2}])
        assert brute_trails(h, 1, 1, 1) == [((1,), (1,), 1)]

    def test_trail_repeats_vertices_not_edges(self):
        # triangle of 2-edges: a 3-trail can revisit a vertex
        h = Hypergraph(3, [{1, 2}, {2, 3}, {1, 3}])
        got = brute_trails(h, 1, 1, 3)
        assert ((1, 2, 3), (1, 2, 3)) in [(vs, es) for vs, es, _ in got]

    def test_matching_utilities(self, sample7):
        assert brute_max_matching_size(sample7) == 2
        assert brute_perfect_matchings(sample7) == 0
        k4 = Hypergraph(4, [{1, 2}, {3, 4}, {1, 3}, {2, 4}, {1, 4}, {2, 3}])
        assert brute_perfect_matchings(k4) == 3

    def test_j_intersecting(self, sample7):
        assert set(brute_j_intersecting(sample7, 0, 2)) == set(brute_matchings(sample7, 2))
        assert (2, 3) not in set(brute_j_intersecting(sample7, 1, 2))
        assert (2, 3) in set(brute_j_intersecting(sample7, 2, 2))

    def test_transversals_edgeless(self):
        assert brute_transversals(Hypergraph(3, [])) == (0, [()])

    def test_k_independent_needs_k(self, sample7):
        for k in (None, 0):
            with pytest.raises(ValueError, match="needs k >= 1"):
                brute_independent(sample7, "k-independent", 1, k=k)

    def test_independent_modes(self, sample7):
        strong = set(brute_independent(sample7, "k-independent", 2, k=1))
        assert (2, 6) in strong
        graph = brute_independent(Hypergraph(3, [{1, 2}, {2, 3}]), "graph", 2)
        assert graph == [(1, 3)]
        with pytest.raises(ValueError):
            brute_independent(sample7, "nonsense", 2)
        # graph modes reject a wide edge and ignore loops
        for mode in ("graph", "clique"):
            with pytest.raises(ValueError, match="not a graph"):
                brute_independent(sample7, mode, 2)
            assert brute_independent(Hypergraph(2, [{1}, {1, 2}]), mode, 1) == [(1,), (2,)]


PATH3 = Hypergraph(3, [{1, 2}, {2, 3}])
PATH3_AND_4 = Hypergraph(4, [{1, 2}, {2, 3}])  # vertex 4 is isolated
DOUBLED = Hypergraph(2, [{1, 2}, {1, 2}])

# name -> (input, kernel call, oracle call): each pair gets the same bad argument
REJECTED = {
    "graph-size0": (PATH3, lambda h: graph_independent_sets(h, 0),
                    lambda h: brute_independent(h, "graph", 0)),
    "weak-size0": (PATH3, lambda h: weak_independent_sets(h, 0),
                   lambda h: brute_independent(h, "weak", 0)),
    "strong-size0": (PATH3, lambda h: strong_independent_sets(h, 0),
                     lambda h: brute_independent(h, "strong", 0)),
    "k-independent-size0": (PATH3, lambda h: k_independent_sets(h, 0, 1),
                            lambda h: brute_independent(h, "k-independent", 0, k=1)),
    "pairwise-adjacent-size0": (PATH3, lambda h: pairwise_adjacent_sets(h, 0),
                                lambda h: brute_independent(h, "pairwise-adjacent", 0)),
    "strong-isolated": (PATH3_AND_4, lambda h: strong_independent_sets(h, 1),
                        lambda h: brute_independent(h, "strong", 1)),
    "k-independent-isolated": (PATH3_AND_4, lambda h: k_independent_sets(h, 1, 1),
                               lambda h: brute_independent(h, "k-independent", 1, k=1)),
    "matchings-k0": (PATH3, lambda h: k_matchings(h, 0), lambda h: brute_matchings(h, 0)),
    "matchings-repeated-edge": (DOUBLED, lambda h: k_matchings(h, 1),
                                lambda h: brute_matchings(h, 1)),
    "j-intersecting-k0": (PATH3, lambda h: j_intersecting_matchings(h, 0, 0),
                          lambda h: brute_j_intersecting(h, 0, 0)),
    "j-intersecting-j-1": (PATH3, lambda h: j_intersecting_matchings(h, -1, 2),
                           lambda h: brute_j_intersecting(h, -1, 2)),
    "perfect-repeated-edge": (DOUBLED, perfect_matching_count, brute_perfect_matchings),
}


@pytest.mark.parametrize("name", REJECTED)
def test_set_functions_reject_what_their_kernel_twins_reject(name):
    h, kernel, brute = REJECTED[name]
    for enumerator in (kernel, brute):
        with pytest.raises(ValueError):
            enumerator(h)


class TestBudget:
    def test_vertex_budget(self):
        big = Hypergraph(11, [{1, 2}])
        with pytest.raises(BudgetError):
            brute_paths(big, 1, 2, 1)
        with pytest.raises(BudgetError):
            brute_transversals(big)

    def test_edge_budget(self):
        big = Hypergraph(2, [{1, 2}] * 11)
        with pytest.raises(BudgetError):
            brute_matchings(big, 1)

    def test_sizes_beyond_the_instance_are_empty(self, sample7):
        # itertools.combinations would allocate one index per requested element
        assert brute_independent(sample7, "weak", 10**18) == []
        assert brute_matchings(sample7, 10**18) == []
        assert brute_j_intersecting(sample7, 1, 10**18) == []
