"""Ordered subset products against the paper's k-th powers."""

import random
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_hypergraph, strip_isolated, vertex_set
from hyperzeon.algebra import Signature, nilpotency_index, subset_level, subset_products
from hyperzeon.hypergraph import Hypergraph
from hyperzeon.independent_sets import (
    independent_set_representation,
    k_independent_representation,
    weak_representation,
)
from hyperzeon.matchings import incidence_representation
from hyperzeon.transversals import transversal_representation


def levels(sig, factors, depth=None):
    return dict(subset_products(sig, factors, depth))


class TestKernel:
    def test_each_subset_once(self):
        sig = Signature.idempotents(5)
        factors = [sig.encode([(g, 1)]) for g in range(5)]
        got = levels(sig, factors)
        assert sorted(got) == [1, 2, 3, 4, 5]
        for j, level in got.items():
            expected = {sum(factors[g] for g in combo): 1 for combo in combinations(range(5), j)}
            assert level == expected

    def test_equal_products_merge_into_counts(self):
        # {1,2}{3,4} and {1,3}{2,4} cover the same vertices
        sig = Signature.zeons(4)
        blades = [[0, 1], [2, 3], [0, 2], [1, 3]]
        factors = [sig.encode((g, 1) for g in b) for b in blades]
        full = sig.encode((g, 1) for g in range(4))
        assert levels(sig, factors) == {1: {f: 1 for f in factors}, 2: {full: 2}}

    def test_depth_yields_only_that_level(self):
        sig = Signature.idempotents(6)
        factors = [sig.encode([(g, 1)]) for g in range(6)]
        full = levels(sig, factors)
        for depth in range(1, 7):
            assert levels(sig, factors, depth) == {depth: full[depth]}
            assert subset_level(sig, factors, depth) == full[depth]
        assert levels(sig, factors, 7) == {}
        assert levels(sig, factors, 10**18) == {}
        assert subset_level(sig, factors, 10**18) == {}
        with pytest.raises(ValueError):
            levels(sig, factors, 0)

    def test_vanished_level_ends_the_run(self):
        sig = Signature.zeons(2)
        factors = [sig.encode([(0, 1)]), sig.encode([(0, 1), (1, 1)])]
        assert levels(sig, factors) == {1: {f: 1 for f in factors}}
        assert levels(sig, factors, 2) == {}
        assert levels(sig, []) == {}


# -- the paper's identities on small random hypergraphs ---------------------------


@st.composite
def seeds(draw):
    return draw(st.integers(min_value=0, max_value=2**32 - 1))


def _check_phi_identity(rep, k):
    """Terms of phi^k with k vertex labels are k! times the level-k subset products."""
    sig = rep.signature
    power = rep**k
    grade_k = {key: c for key, c in power.packed.items() if len(vertex_set(rep, key)) == k}
    level = subset_level(sig, rep.packed, k)
    assert grade_k == {key: factorial(k) * c for key, c in level.items()}


@given(seeds(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_phi_power_is_k_factorial_times_level(seed, k):
    rng = random.Random(seed)
    _check_phi_identity(independent_set_representation(random_graph(rng)), k)
    h = strip_isolated(random_hypergraph(rng, max_n=6, max_m=5))
    if h.m:
        _check_phi_identity(weak_representation(h), k)
        _check_phi_identity(k_independent_representation(h, rng.randint(1, 3)), k)


@given(seeds())
@settings(max_examples=60, deadline=None)
def test_gamma_power_and_nilpotency_index(seed):
    rng = random.Random(seed)
    h = random_hypergraph(rng, max_n=7, max_m=6)
    h = Hypergraph(h.n, sorted(map(sorted, set(h.edges))))  # distinct edges
    gamma = incidence_representation(h)
    sig = gamma.signature
    got = levels(sig, gamma.packed)
    for k in range(1, h.m + 2):
        level = got.get(k, {})
        assert (gamma**k).packed == {key: factorial(k) * c for key, c in level.items()}
    assert nilpotency_index(gamma, h.n + 2) - 1 == len(got)


@given(seeds())
@settings(max_examples=60, deadline=None)
def test_first_full_blade_power_is_first_full_blade_level(seed):
    h = random_hypergraph(random.Random(seed), max_n=6, max_m=6)
    if not h.m:
        return
    rep = transversal_representation(h)
    sig = rep.signature
    full = sig.mask(range(1, h.m + 1), 0)

    def vertex_sets(terms):
        hits = [sig.decode(key & ~full) for key in terms if key & full == full]
        return sorted(sorted(g - h.m + 1 for g, _ in mono) for mono in hits)

    first_level = next(
        (j, vertex_sets(level))
        for j, level in subset_products(sig, rep.packed)
        if vertex_sets(level)
    )
    power, k = rep, 1
    while not vertex_sets(power.packed):
        power, k = power * rep, k + 1
    assert (k, vertex_sets(power.packed)) == first_level
