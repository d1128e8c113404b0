"""Acceptance gate: one test per shipped guarantee, goldens first.

Run `pytest tests/test_acceptance.py -v` for the one-line-per-guarantee view.
Expected values are transcribed literally from the worked seven-vertex
expansions or recomputed by the brute-force oracle, never by the code under
test.
"""

import random
import time
from itertools import combinations
from math import factorial

from conftest import (
    random_element,
    random_hypergraph,
    random_signature,
    records_to_dict,
    strip_isolated,
)
from hyperzeon.algebra import Element, build_omega, nilpotency_index
from hyperzeon.conjectures import gamma_element, run_frankl_trials, run_ryser_trials
from hyperzeon.hypergraph import Hypergraph
from hyperzeon.independent_sets import (
    k_independent_sets,
    strong_independent_sets,
    weak_independent_sets,
)
from hyperzeon.kernel import Signature
from hyperzeon.matchings import (
    incidence_representation,
    incidence_signature,
    j_intersecting_matchings,
    k_matchings,
    perfect_matching_count,
)
from hyperzeon.oracle import (
    brute_cycles,
    brute_independent,
    brute_j_intersecting,
    brute_matchings,
    brute_max_matching_size,
    brute_paths,
    brute_perfect_matchings,
    brute_transversals,
)
from hyperzeon.transversals import (
    minimum_transversals,
    transversal_number,
    transversal_representation,
    transversal_signature,
)
from hyperzeon.walks import k_cycles, k_paths, walk_signature

# the seven-vertex worked example's adjacency matrix, transcribed literally:
# entry (i, j) carries the target label j and one idempotent per listed edge
OMEGA_EDGE_TABLE = {
    1: {1: [1, 2, 3], 2: [1], 3: [1], 4: [2, 3], 5: [3], 6: [], 7: [2]},
    2: {1: [1], 2: [1], 3: [1], 4: [], 5: [], 6: [], 7: []},
    3: {1: [1], 2: [1], 3: [1, 4], 4: [], 5: [], 6: [4], 7: []},
    4: {1: [2, 3], 2: [], 3: [], 4: [2, 3, 5], 5: [3], 6: [5], 7: [2]},
    5: {1: [3], 2: [], 3: [], 4: [3], 5: [3, 6], 6: [6], 7: []},
    6: {1: [], 2: [], 3: [4], 4: [5], 5: [6], 6: [4, 5, 6], 7: []},
    7: {1: [2], 2: [], 3: [], 4: [2], 5: [], 6: [], 7: [2]},
}

# likewise the covered-edge list under each vertex slot of the transversal sum
SIGMA_EDGE_TABLE = {1: [1, 2, 3], 2: [1], 3: [1, 4], 4: [2, 3, 5], 5: [3, 6], 6: [4, 5, 6], 7: [2]}


def test_criterion_1_worked_example_goldens(sample7):
    start = time.perf_counter()

    assert records_to_dict(k_paths(sample7, 3, 4, 3)) == {
        (frozenset({1, 2, 3, 4}), frozenset({1, 2})): 1,
        (frozenset({1, 2, 3, 4}), frozenset({1, 3})): 1,
        (frozenset({1, 3, 4, 5}), frozenset({1, 3})): 1,
        (frozenset({1, 3, 4, 7}), frozenset({1, 2})): 1,
        (frozenset({3, 4, 5, 6}), frozenset({3, 4, 6})): 1,
    }

    weak = weak_independent_sets(sample7, 5)
    assert sorted(sorted(s) for s in weak) == [[2, 3, 4, 5, 7]]

    assert k_matchings(sample7, 2) == [
        ((1, 2, 3, 4, 6), 1),
        ((1, 2, 3, 5, 6), 1),
        ((1, 3, 4, 5, 6), 1),
        ((1, 3, 4, 6, 7), 1),
        ((1, 4, 5, 6, 7), 1),
    ]
    assert k_matchings(sample7, 3) == []
    assert nilpotency_index(incidence_representation(sample7), sample7.n + 1) == 3

    assert minimum_transversals(sample7) == (2, [(1, 6)])
    tsig = transversal_signature(sample7)
    want_sigma = sum(
        (
            Element.blade(tsig, [e - 1 for e in edges] + [sample7.m + v - 1])
            for v, edges in SIGMA_EDGE_TABLE.items()
        ),
        tsig.zero(),
    )
    assert transversal_representation(sample7) == want_sigma

    omega = build_omega(sample7)
    wsig = walk_signature(sample7)
    for i in range(1, 8):
        for j in range(1, 8):
            want = sum(
                (
                    Element.blade(wsig, [j - 1, sample7.n + e - 1])
                    for e in OMEGA_EDGE_TABLE[i][j]
                ),
                wsig.zero(),
            )
            assert omega[i - 1][j - 1] == want, f"adjacency entry ({i},{j})"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden suite took {elapsed:.2f}s"
    print(f"PASS 1: worked-example goldens (paths, weak sets, matchings, "
          f"transversals, adjacency entries) in {elapsed * 1000:.0f} ms")


def test_criterion_2_kernel_algebra():
    # multinomial law: (z1 + ... + zk)^k = k! z1...zk, higher powers vanish
    for k in range(1, 9):
        sig = Signature.zeons(k)
        s = sum((sig.gen(i) for i in range(k)), sig.zero())
        assert s**k == factorial(k) * Element.blade(sig, range(k))
        assert not s ** (k + 1)

    # worked products, coefficient-exact
    zs = Signature.generalized_zeons([2, 3, 5])
    n1, n2, n3 = zs.gen(0), zs.gen(1), zs.gen(2)
    assert (n2 + 2 * n1) ** 2 == n2 * n2 + 4 * n1 * n2
    assert (1 - n1 + n3**2) * n3**3 == n3**3 - n1 * n3**3
    ideg = Signature.idempotents(6)
    e1, e2, e3, e4, e6 = (ideg.gen(i) for i in (0, 1, 2, 3, 5))
    assert (e2 - 4 * e6) ** 2 == e2 - 8 * e2 * e6 + 16 * e6
    assert (3 * e1 * e2 + e3) * (e1 - 2 * e4) == (
        3 * e1 * e2 - 6 * e1 * e2 * e4 + e1 * e3 - 2 * e3 * e4
    )

    # ring axioms on 10^4 random triples over mixed-rule signatures
    rng = random.Random(1002)
    triples = 0
    while triples < 10_000:
        sig = random_signature(rng)
        for _ in range(10):
            a, b, c = (random_element(rng, sig) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            # canonical form is a fixed point of renormalization
            assert Element(sig, a.terms) == a
            triples += 1
    print(f"PASS 2: multinomial law, worked products, ring axioms on {triples} random triples")


def test_criterion_3_oracle_equivalence_500_hypergraphs():
    start = time.perf_counter()
    rng = random.Random(1003)
    count = 0
    while count < 500:
        h = random_hypergraph(rng, max_n=7, max_m=7, max_edge=4)
        count += 1

        for k in range(1, 5):
            for i in range(1, h.n + 1):
                for j in range(1, h.n + 1):
                    if i != j:
                        assert k_paths(h, i, j, k) == brute_paths(h, i, j, k)
            if k >= 2:
                for i in range(1, h.n + 1):
                    assert k_cycles(h, i, k) == brute_cycles(h, i, k)

        core = strip_isolated(h)
        if core.n:
            for size in range(1, min(5, core.n) + 1):
                weak = set(weak_independent_sets(core, size))
                assert weak == set(brute_independent(core, "weak", size))
                assert set(strong_independent_sets(core, size)) == set(
                    brute_independent(core, "strong", size)
                )
                for k in (1, 2):
                    got = set(k_independent_sets(core, size, k))
                    assert got == set(brute_independent(core, "k-independent", size, k=k))

        distinct = len(set(h.edges)) == h.m
        for k in (1, 2, 3):
            if distinct:
                grouped: dict = {}
                for match in brute_matchings(h, k):
                    union = tuple(sorted(set().union(*(h.edges[e - 1] for e in match))))
                    grouped[union] = grouped.get(union, 0) + 1
                assert dict(k_matchings(h, k)) == grouped
            for j in (0, 1, 2):
                assert set(j_intersecting_matchings(h, j, k)) == set(
                    brute_j_intersecting(h, j, k)
                )
            if distinct:
                # j=0 edge sets regroup to the k-matching vertex unions
                regrouped: dict = {}
                for ids in j_intersecting_matchings(h, 0, k):
                    union = tuple(sorted(set().union(*(h.edges[e - 1] for e in ids))))
                    regrouped[union] = regrouped.get(union, 0) + 1
                assert regrouped == dict(k_matchings(h, k))

        want = brute_transversals(h)  # (0, [()]) when edgeless, as the kernel answers
        assert minimum_transversals(h) == want
        assert transversal_number(h) == want[0]

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    print(f"PASS 3: {count} random hypergraphs match the oracle on paths, cycles, "
          f"independent sets, matchings and transversals in {elapsed:.1f} s")


def test_criterion_4_identities(sample7):
    rng = random.Random(1004)
    instances = [sample7] + [random_hypergraph(rng) for _ in range(150)]
    for h in instances:
        gamma = incidence_representation(h)
        sig = incidence_signature(h)
        for v in range(1, h.n + 1):
            assert (sig.gen(v - 1) * gamma).scalar_sum() == h.m - h.degree(v)
        assert gamma_element(h).min_grade() == transversal_number(h)
        kappa = nilpotency_index(gamma, h.n + 2)
        assert kappa - 1 == brute_max_matching_size(h)
    print(f"PASS 4: scalar-sum, annihilator-grade and nilpotency identities "
          f"on {len(instances)} instances")


def test_criterion_5_conjecture_harness(tmp_path):
    ryser = run_ryser_trials(1000, seed=816, log_path=str(tmp_path / "ryser.ndjson"))
    assert ryser == {"kind": "ryser", "trials": 1000, "violations": 0}
    frankl = run_frankl_trials(1000, seed=816, log_path=str(tmp_path / "frankl.ndjson"))
    assert frankl == {"kind": "frankl", "trials": 1000, "violations": 0}
    assert not (tmp_path / "ryser.ndjson").exists()
    assert not (tmp_path / "frankl.ndjson").exists()
    print("PASS 5: 1000 Ryser + 1000 Frankl random trials, zero violations")


def test_criterion_6_perfect_matchings():
    k4 = Hypergraph(4, [set(p) for p in combinations(range(1, 5), 2)])
    assert perfect_matching_count(k4) == 3
    assert brute_perfect_matchings(k4) == 3
    h = Hypergraph(6, [{1, 2, 3}, {4, 5, 6}, {1, 2, 4}, {3, 4, 5}])
    assert perfect_matching_count(h) == 1
    assert brute_perfect_matchings(h) == 1
    print("PASS 6: perfect matching counts (2-uniform complete, 3-uniform) match brute force")
