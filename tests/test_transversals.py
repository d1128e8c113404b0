"""Minimum-cardinality transversal enumeration over idempotent labels."""

import random
from itertools import combinations

import pytest

from conftest import random_hypergraph
from hyperzeon.algebra import Element, annihilates
from hyperzeon.hypergraph import Hypergraph
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
        assert rep.element == want
        assert rep.removed_isolated == ()

    def test_single_edge(self):
        h = Hypergraph(2, [{1, 2}])
        rep = transversal_representation(h)
        sig = transversal_signature(h)
        assert rep.element == blade(sig, h, [1], 1) + blade(sig, h, [1], 2)

    def test_empty_hypergraph(self):
        rep = transversal_representation(Hypergraph(3, []))
        assert not rep.element

    def test_isolated_vertices_removed(self):
        h = Hypergraph(4, [{1, 3}])
        rep = transversal_representation(h)
        assert rep.removed_isolated == (2, 4)
        assert len(rep.element.terms) == 2

    def test_exponents_never_exceed_one(self, sample7):
        # sigma^2 = sigma structurally: idempotent collapse everywhere
        rep = transversal_representation(sample7)
        for power in (rep.element, rep.element**2, rep.element**3):
            for mono in power.terms:
                assert all(exp == 1 for _, exp in mono)


class TestMinimumTransversals:
    def test_sample7(self, sample7):
        assert minimum_transversals(sample7) == (2, [frozenset({1, 6})])
        assert transversal_number(sample7) == 2

    def test_single_edge(self):
        h = Hypergraph(2, [{1, 2}])
        assert minimum_transversals(h) == (1, [frozenset({1}), frozenset({2})])

    def test_no_edges(self):
        h = Hypergraph(3, [])
        with pytest.raises(ValueError):
            minimum_transversals(h)
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
                assert all(t & e for e in h.edges)

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
