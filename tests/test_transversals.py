"""Minimum-cardinality transversal enumeration over idempotent labels."""

import random
from itertools import combinations

from conftest import random_hypergraph, vertex_set
from hyperzeon.algebra import Element, annihilates
from hyperzeon.hypergraph import Hypergraph
from hyperzeon.independent_sets import index_sets
from hyperzeon.matchings import incidence_representation
from hyperzeon.oracle import brute_transversals
from hyperzeon.transversals import (
    minimum_transversals,
    transversal_number,
    transversal_representation,
    transversal_signature,
)


def blade(sig, h, edge_ids, vertex):
    ids = [e - 1 for e in edge_ids] + [h.m + vertex - 1]
    return Element.blade(sig, ids)


class TestRepresentation:
    def test_sample7_element(self, sample7):
        rep = transversal_representation(sample7)
        sig = transversal_signature(sample7)
        want = (
            blade(sig, sample7, [1, 2, 3], 1)
            + blade(sig, sample7, [1], 2)
            + blade(sig, sample7, [1, 4], 3)
            + blade(sig, sample7, [2, 3, 5], 4)
            + blade(sig, sample7, [3, 6], 5)
            + blade(sig, sample7, [4, 5, 6], 6)
            + blade(sig, sample7, [2], 7)
        )
        assert rep == want
        # level 1 of sigma, read back by the shared reader: one factor per vertex
        assert index_sets(rep.signature, rep.packed, 1) == [(v,) for v in range(1, 8)]

    def test_single_edge(self):
        h = Hypergraph(2, [{1, 2}])
        rep = transversal_representation(h)
        sig = transversal_signature(h)
        assert rep == blade(sig, h, [1], 1) + blade(sig, h, [1], 2)

    def test_empty_hypergraph(self):
        rep = transversal_representation(Hypergraph(3, []))
        assert not rep

    def test_isolated_vertices_removed(self):
        h = Hypergraph(4, [{1, 3}])
        rep = transversal_representation(h)
        assert len(rep.terms) == 2
        # no term carries the label of the isolated vertices 2 and 4
        assert set().union(*(vertex_set(rep, key) for key in rep.packed)) == {1, 3}

    def test_exponents_never_exceed_one(self, sample7):
        # sigma^2 = sigma structurally: idempotent collapse everywhere
        rep = transversal_representation(sample7)
        for power in (rep, rep**2, rep**3):
            for mono in power.terms:
                assert all(exp == 1 for _, exp in mono)


class TestMinimumTransversals:
    def test_sample7(self, sample7):
        assert minimum_transversals(sample7) == (2, [(1, 6)])
        assert transversal_number(sample7) == 2

    def test_single_edge(self):
        h = Hypergraph(2, [{1, 2}])
        assert minimum_transversals(h) == (1, [(1,), (2,)])

    def test_no_edges(self):
        h = Hypergraph(3, [])
        assert minimum_transversals(h) == (0, [()])
        assert transversal_number(h) == 0

    def test_every_result_hits_every_edge(self):
        rng = random.Random(41)
        for _ in range(30):
            h = random_hypergraph(rng)
            if h.m == 0:
                continue
            tau, transversals = minimum_transversals(h)
            for t in transversals:
                assert len(t) == tau
                assert all(set(t) & e for e in h.edges)

    def test_minimality(self):
        rng = random.Random(42)
        for _ in range(20):
            h = random_hypergraph(rng, max_n=6, max_m=5)
            if h.m == 0:
                continue
            tau, _ = minimum_transversals(h)
            for smaller in combinations(range(1, h.n + 1), tau - 1):
                assert not all(set(smaller) & e for e in h.edges)

    def test_oracle_equivalence(self):
        rng = random.Random(43)
        for _ in range(40):
            h = random_hypergraph(rng)
            if h.m == 0:
                continue
            tau, transversals = minimum_transversals(h)
            want_tau, want_sets = brute_transversals(h)
            assert tau == want_tau
            assert sorted(sorted(t) for t in transversals) == [
                sorted(s) for s in want_sets
            ]

    def test_cyclic_three_uniform_at_n_27(self):
        # edges {v, v+1, v+2} mod 27: without pruning the levels below tau = 9
        # to subsets that can still meet every edge, this takes seconds
        n = 27
        h = Hypergraph(n, [[v, v % n + 1, (v + 1) % n + 1] for v in range(1, n + 1)])
        assert minimum_transversals(h) == (9, [tuple(range(r, n + 1, 3)) for r in (1, 2, 3)])


class TestAnnihilatorAgreement:
    def test_transversal_iff_annihilates_incidence(self):
        # zeon view: I hits every edge exactly when zeta_I kills every edge blade
        rng = random.Random(45)
        for _ in range(15):
            h = random_hypergraph(rng, max_n=6, max_m=5)
            if h.m == 0 or len(set(h.edges)) != h.m:
                continue
            gamma = incidence_representation(h)
            for size in range(1, h.n + 1):
                for subset in combinations(range(1, h.n + 1), size):
                    hits = all(set(subset) & e for e in h.edges)
                    kills = annihilates([v - 1 for v in subset], gamma)
                    assert hits == kills
