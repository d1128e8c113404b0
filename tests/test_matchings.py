"""Matching counts from powers of the incidence element."""

import random
from itertools import combinations
from math import comb

import pytest

from conftest import random_hypergraph
from hyperzeon import kernel
from hyperzeon.algebra import Element, nilpotency_index
from hyperzeon.hypergraph import MAX_SIZE, Hypergraph
from hyperzeon.matchings import (
    incidence_representation,
    incidence_signature,
    j_intersecting_matchings,
    k_matchings,
    perfect_matching_count,
)
from hyperzeon.oracle import (
    brute_j_intersecting,
    brute_matchings,
    brute_max_matching_size,
    brute_perfect_matchings,
)

K4 = Hypergraph(4, [set(p) for p in combinations(range(1, 5), 2)])


class TestIncidenceElement:
    def test_sample7_element(self, sample7):
        gamma = incidence_representation(sample7)
        sig = incidence_signature(sample7)
        want = sum(
            (Element.blade(sig, [v - 1 for v in e]) for e in sample7.edges), sig.zero()
        )
        assert gamma == want
        assert len(gamma.terms) == 6

    def test_sample7_square(self, sample7):
        # 2! times one blade per disjoint edge pair
        gamma = incidence_representation(sample7)
        sig = incidence_signature(sample7)
        unions = [
            {1, 2, 3, 4, 6},
            {1, 2, 3, 5, 6},
            {1, 3, 4, 5, 6},
            {1, 3, 4, 6, 7},
            {1, 4, 5, 6, 7},
        ]
        want = sum(
            (Element.blade(sig, [v - 1 for v in u], 2) for u in unions), sig.zero()
        )
        assert gamma**2 == want

    def test_sample7_cube_vanishes(self, sample7):
        gamma = incidence_representation(sample7)
        assert not gamma**3
        assert nilpotency_index(gamma, sample7.n + 1) == 3

    def test_duplicate_blades_merge(self):
        h = Hypergraph(2, [{1, 2}, {1, 2}])
        gamma = incidence_representation(h)
        assert len(gamma.terms) == 1
        assert list(gamma.terms.values()) == [2]


class TestKMatchings:
    def test_k1_is_edges(self, sample7):
        got = k_matchings(sample7, 1)
        assert got == sorted((tuple(sorted(e)), 1) for e in sample7.edges)

    def test_sample7_pairs(self, sample7):
        got = k_matchings(sample7, 2)
        assert got == [
            ((1, 2, 3, 4, 6), 1),
            ((1, 2, 3, 5, 6), 1),
            ((1, 3, 4, 5, 6), 1),
            ((1, 3, 4, 6, 7), 1),
            ((1, 4, 5, 6, 7), 1),
        ]

    def test_sample7_triples_empty(self, sample7):
        assert k_matchings(sample7, 3) == []

    def test_count_above_one(self):
        # two different 2-matchings covering the same four vertices
        h = Hypergraph(4, [{1, 2}, {3, 4}, {1, 3}, {2, 4}])
        assert k_matchings(h, 2) == [((1, 2, 3, 4), 2)]

    def test_duplicate_edges_rejected(self):
        h = Hypergraph(2, [{1, 2}, {1, 2}])
        with pytest.raises(ValueError):
            k_matchings(h, 1)
        with pytest.raises(ValueError):
            perfect_matching_count(h)

    def test_contract_violation(self, sample7):
        with pytest.raises(ValueError):
            k_matchings(sample7, 0)

    def test_oracle_equivalence(self):
        rng = random.Random(31)
        for _ in range(30):
            h = random_hypergraph(rng)
            if len(set(h.edges)) != h.m:
                continue
            for k in (1, 2, 3):
                want = brute_matchings(h, k)
                got = {}
                for vs, count in k_matchings(h, k):
                    got[vs] = got.get(vs, 0) + count
                regrouped: dict = {}
                for match in want:
                    union = tuple(sorted(set().union(*(h.edges[e - 1] for e in match))))
                    regrouped[union] = regrouped.get(union, 0) + 1
                assert got == regrouped


class TestPerfectMatchings:
    def test_k4(self):
        assert perfect_matching_count(K4) == 3

    def test_three_uniform(self):
        h = Hypergraph(6, [{1, 2, 3}, {4, 5, 6}, {1, 2, 4}, {3, 4, 5}])
        assert perfect_matching_count(h) == 1

    def test_non_uniform(self, sample7):
        assert perfect_matching_count(sample7) == 0
        assert perfect_matching_count(Hypergraph(3, [{1, 2}, {3}])) == 1
        h = Hypergraph(4, [{1, 2}, {3, 4}, {1, 2, 3, 4}])
        assert perfect_matching_count(h) == 2

    def test_indivisible(self):
        h = Hypergraph(3, [{1, 2}, {2, 3}])
        assert perfect_matching_count(h) == 0

    def test_oracle_equivalence(self):
        rng = random.Random(32)
        for _ in range(40):
            h = random_hypergraph(rng)
            if len(set(h.edges)) != h.m:
                continue
            assert perfect_matching_count(h) == brute_perfect_matchings(h)

    def test_spanning_on_empty(self):
        assert perfect_matching_count(Hypergraph(0, [])) == 1
        assert perfect_matching_count(Hypergraph(2, [])) == 0

    def test_perfect_on_empty(self):
        # the empty family is the one perfect matching of the empty hypergraph
        empty = Hypergraph(0, [])
        assert perfect_matching_count(empty) == brute_perfect_matchings(empty) == 1

    @pytest.mark.parametrize("r", [2, 3])
    def test_uniform_count_is_the_full_blade_of_level_n_over_r(self, r):
        # the paper's gamma^(n/r)/(n/r)!: on an r-uniform input the perfect
        # matchings are the n/r-matchings covering every vertex, and there
        # are none when r does not divide n; n runs past the oracle's guard
        rng = random.Random(40 + r)
        counted = 0
        for n in [*range(r, 19)] * 2:
            m = rng.randint(n, 4 * n)
            edges = {tuple(sorted(rng.sample(range(1, n + 1), r))) for _ in range(m)}
            h = Hypergraph(n, sorted(edges))
            level = dict(k_matchings(h, n // r))
            got = perfect_matching_count(h)
            assert got == level.get(tuple(range(1, n + 1)), 0)
            if n % r:
                assert got == 0
            counted += got > 0
        assert counted >= 5

    def test_edge_size_gcd_must_divide_n(self, monkeypatch):
        # edges of sizes 2 and 4 cover an even number of vertices: on an odd
        # vertex count no product is formed at all
        h = Hypergraph(7, [{1, 2}, {3, 4}, {5, 6}, {1, 2, 3, 4}, {4, 5, 6, 7}, {6, 7}])
        calls = 0
        real = kernel.mul_into

        def counting_mul_into(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(kernel, "mul_into", counting_mul_into)
        assert perfect_matching_count(h) == brute_perfect_matchings(h) == 0
        assert perfect_matching_count(Hypergraph(5, [])) == 0
        assert calls == 0
        even = Hypergraph(8, [*h.edges, {7, 8}])
        assert perfect_matching_count(even) == brute_perfect_matchings(even) == 2
        assert calls > 0

    def test_mixed_edge_sizes_against_oracle(self):
        # sizes 2 and 4 (gcd 2) on even and odd n, inside the oracle's guard
        rng = random.Random(34)
        for _ in range(40):
            n = rng.randint(1, 10)
            sizes = [size for size in (2, 4) if size <= n]
            edges = {
                tuple(sorted(rng.sample(range(1, n + 1), rng.choice(sizes))))
                for _ in range(rng.randint(0, 10) if sizes else 0)
            }
            h = Hypergraph(n, sorted(edges))
            assert perfect_matching_count(h) == brute_perfect_matchings(h)


class TestNilpotencyBound:
    def test_matching_number_from_index(self):
        rng = random.Random(33)
        for _ in range(30):
            h = random_hypergraph(rng)
            if h.m == 0 or len(set(h.edges)) != h.m:
                continue
            gamma = incidence_representation(h)
            kappa = nilpotency_index(gamma, h.n + 2)
            assert kappa - 1 == brute_max_matching_size(h)


class TestJIntersecting:
    def test_sample7_j0_pairs(self, sample7):
        got = set(j_intersecting_matchings(sample7, 0, 2))
        assert got == {(1, 5), (1, 6), (2, 4), (2, 6), (3, 4)}

    def test_sample7_j1_pairs(self, sample7):
        # only e2, e3 share two vertices, so only that pair drops out
        got = set(j_intersecting_matchings(sample7, 1, 2))
        assert got == set(combinations(range(1, 7), 2)) - {(2, 3)}

    def test_large_j_allows_everything(self, sample7):
        for k in (2, 3):
            got = j_intersecting_matchings(sample7, 7, k)
            assert len(got) == comb(6, k)

    def test_star_whose_intersection_graph_exceeds_the_input_limit(self):
        # 46 edges through vertex 1: the j=0 intersection graph has 1035 edges
        star = Hypergraph(47, [{1, v} for v in range(2, 48)])
        assert star.intersection_graph(0).m > MAX_SIZE
        assert j_intersecting_matchings(star, 0, 2) == []
        assert len(j_intersecting_matchings(star, 0, 1)) == 46
        assert len(j_intersecting_matchings(star, 1, 2)) == comb(46, 2)

    def test_contract_violations(self, sample7):
        with pytest.raises(ValueError):
            j_intersecting_matchings(sample7, -1, 2)
        with pytest.raises(ValueError):
            j_intersecting_matchings(sample7, 0, 0)

    def test_oracle_equivalence(self):
        rng = random.Random(34)
        for _ in range(30):
            h = random_hypergraph(rng)
            if h.m == 0:
                continue
            for j in (0, 1, 2):
                for k in (2, 3):
                    got = set(j_intersecting_matchings(h, j, k))
                    assert got == set(brute_j_intersecting(h, j, k))
