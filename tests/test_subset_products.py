"""Ordered subset products against the paper's k-th powers."""

import random
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_hypergraph, strip_isolated, vertex_set
from hyperzeon.algebra import nilpotency_index
from hyperzeon.hypergraph import Hypergraph
from hyperzeon.independent_sets import (
    independent_set_representation,
    k_independent_representation,
    weak_representation,
)
from hyperzeon.kernel import Signature, subset_level, subset_products
from hyperzeon.matchings import incidence_representation, perfect_matching_count
from hyperzeon.oracle import MAX_M, MAX_N, brute_perfect_matchings, brute_transversals
from hyperzeon.transversals import minimum_transversals, transversal_representation


def levels(sig, factors, depth=None, target=0):
    return dict(subset_products(sig, factors, depth, target))


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


class TestTarget:
    def test_unreached_target_yields_no_level(self):
        sig = Signature.idempotents(4)
        factors = [sig.encode([(g, 1)]) for g in range(3)]
        assert levels(sig, factors, target=sig.encode([(3, 1)])) == {}
        assert levels(sig, factors, 2, target=sig.encode([(0, 1), (3, 1)])) == {}
        assert subset_level(sig, factors, 1, sig.encode([(3, 1)])) == {}

    def test_only_subsets_that_can_still_cover_the_target_are_kept(self):
        # factor 1 alone holds the target: past it, a subset must already contain it
        sig = Signature.idempotents(4)
        factors = [sig.encode([(g, 1)]) for g in range(4)]
        got = levels(sig, factors, target=factors[1])
        assert got[1] == {factors[0]: 1, factors[1]: 1}
        for j in (2, 3, 4):
            assert got[j] == {sum(factors[g] for g in s): 1 for s in combinations(range(4), j) if 1 in s}
        assert sorted(got) == [1, 2, 3, 4]

    def test_target_bits_must_be_first_powers_of_idempotent_or_index_2_generators(self):
        sig = Signature([2, 3, 4, None])  # fields: bits 0-1, 2-4, 5-7, 8
        factors = [sig.encode([(g, 1)]) for g in range(4)]
        for bit in range(10):
            if bit in (0, 8):
                assert levels(sig, factors, target=1 << bit)
            else:
                with pytest.raises(ValueError):
                    levels(sig, factors, target=1 << bit)
        for bad in (0b10, sig.encode([(0, 1), (1, 1)]), sig.encode([(2, 1)]), -1):
            with pytest.raises(ValueError):
                subset_level(sig, factors, 1, bad)


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_perfect_matchings_of_complete_graphs(n):
    h = Hypergraph(n, list(combinations(range(1, n + 1), 2)))
    assert perfect_matching_count(h) == prod(range(n - 1, 0, -2))


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


@given(seeds())
@settings(max_examples=60, deadline=None)
def test_target_cut_keeps_every_full_blade_term(seed):
    rng = random.Random(seed)
    h = random_hypergraph(rng, max_n=13, max_m=13)
    h = Hypergraph(h.n, sorted(map(sorted, set(h.edges))))  # distinct edges
    gamma = incidence_representation(h)
    reps = [(gamma, gamma.signature.mask(range(1, h.n + 1), 0))]
    if h.m:
        sigma = transversal_representation(h)
        reps.append((sigma, sigma.signature.mask(range(1, h.m + 1), 0)))
    for rep, full in reps:
        sig = rep.signature
        uncut = levels(sig, rep.packed)
        cut = levels(sig, rep.packed, target=full)
        for j, level in cut.items():
            # a key some of whose subsets are dropped keeps a smaller count
            assert all(0 < c <= uncut[j][key] for key, c in level.items())
        for j, level in uncut.items():
            want = {key: c for key, c in level.items() if key & full == full}
            assert {key: c for key, c in cut.get(j, {}).items() if key & full == full} == want
    if h.n <= MAX_N and h.m <= MAX_M:
        assert perfect_matching_count(h) == brute_perfect_matchings(h)
        if h.m:
            assert minimum_transversals(h) == brute_transversals(h)
