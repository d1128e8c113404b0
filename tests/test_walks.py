"""Nilpotent adjacency matrix and walk extraction."""

import random
import time
import tracemalloc

import pytest

from conftest import random_hypergraph, records_to_dict
from hyperzeon import walks
from hyperzeon.algebra import Element
from hyperzeon.errors import ContextError
from hyperzeon.hypergraph import MAX_SIZE, Hypergraph
from hyperzeon.oracle import brute_cycles, brute_paths, brute_trails
from hyperzeon.walks import (
    WalkRecord,
    build_bipartite,
    build_blocks,
    build_omega,
    build_trail_matrix,
    k_cycles,
    k_paths,
    k_trails,
    trail_signature,
    walk_signature,
)


# vertex 1 isolated, a singleton edge, a repeated edge and a 4-vertex edge
EDGE_CASES = Hypergraph(6, [[2], [2, 3], [2, 3], [3, 4, 5, 6]])


def blade_for(sig, h, vset, eset, coeff=1):
    ids = [v - 1 for v in vset] + [h.n + e - 1 for e in eset]
    return Element.blade(sig, ids, coeff)


def rebuild(sig, h, records):
    """The sum of one blade per walk record, weighted by its count."""
    return sum(
        (blade_for(sig, h, r.vertex_set, r.edge_set, r.count) for r in records), sig.zero()
    )


class TestOmega:
    def test_printed_entries(self, sample7):
        omega = build_omega(sample7)
        sig = walk_signature(sample7)
        assert omega.rows == omega.cols == 7
        # entry (1,2): the single shared edge e1, tagged with the target vertex
        assert omega[0][1] == blade_for(sig, sample7, [2], [1])
        want_11 = sum(
            (blade_for(sig, sample7, [1], [e]) for e in (1, 2, 3)), sig.zero()
        )
        assert omega[0][0] == want_11
        assert omega[1][5] == sig.zero()

    def test_entries_from_the_definition(self, sample7):
        # (i, j) is the sum over edges l holding i and j of the blade (vertex j, edge l)
        for h in (sample7, EDGE_CASES):
            for build, sig in (
                (build_omega, walk_signature(h)), (build_trail_matrix, trail_signature(h))
            ):
                matrix = build(h)
                assert matrix.signature == sig
                assert matrix.rows == matrix.cols == h.n
                for i in range(1, h.n + 1):
                    for j in range(1, h.n + 1):
                        want = sum(
                            (
                                blade_for(sig, h, [j], [l])
                                for l, e in enumerate(h.edges, 1)
                                if i in e and j in e
                            ),
                            sig.zero(),
                        )
                        assert matrix[i - 1][j - 1] == want, (build.__name__, i, j)

    def test_omega_is_xz(self, sample7):
        for h in (sample7, EDGE_CASES):
            x, z = build_blocks(h)
            assert build_omega(h) == x * z

    def test_bipartite_square_is_block_diagonal(self, sample7):
        for h in (sample7, EDGE_CASES):
            n, m = h.n, h.m
            x, z = build_blocks(h)
            sq = build_bipartite(h).power(2)
            xz, zx = x * z, z * x
            for a in range(n + m):
                for b in range(n + m):
                    want = (
                        xz[a][b]
                        if a < n and b < n
                        else zx[a - n][b - n]
                        if a >= n and b >= n
                        else None
                    )
                    if want is None:
                        assert not sq[a][b]
                    else:
                        assert sq[a][b] == want

    def test_matrix_shape_validation(self, sample7):
        x, z = build_blocks(sample7)
        with pytest.raises(ValueError):
            x * x
        with pytest.raises(TypeError):
            x * 2
        for k in (0, 1, 2):  # powers need a square matrix
            with pytest.raises(ValueError):
                x.power(k)

    def test_mixed_signatures_raise_context_error(self, sample7):
        # both 7 x 7, but Omega's vertices are nilpotent and the trail matrix's idempotent
        omega, trail = build_omega(sample7), build_trail_matrix(sample7)
        with pytest.raises(ContextError, match="matrix signatures differ"):
            omega * trail
        with pytest.raises(ValueError):  # ContextError is a ValueError
            trail * omega


class TestPaths:
    def test_five_paths_golden(self, sample7):
        got = records_to_dict(k_paths(sample7, 3, 4, 3))
        want = {
            (frozenset({1, 2, 3, 4}), frozenset({1, 2})): 1,
            (frozenset({1, 2, 3, 4}), frozenset({1, 3})): 1,
            (frozenset({1, 3, 4, 5}), frozenset({1, 3})): 1,
            (frozenset({1, 3, 4, 7}), frozenset({1, 2})): 1,
            (frozenset({3, 4, 5, 6}), frozenset({3, 4, 6})): 1,
        }
        assert got == want

    def test_non_adjacent_pair_empty(self, sample7):
        assert k_paths(sample7, 2, 6, 1) == []

    def test_single_step(self, sample7):
        assert records_to_dict(k_paths(sample7, 1, 2, 1)) == {
            (frozenset({1, 2}), frozenset({1})): 1
        }

    def test_contract_violations(self, sample7):
        with pytest.raises(ValueError):
            k_paths(sample7, 3, 3, 2)
        with pytest.raises(ValueError):
            k_paths(sample7, 1, 2, 0)
        with pytest.raises(ValueError):
            k_paths(sample7, 0, 2, 1)
        with pytest.raises(ValueError):
            k_paths(sample7, 1, 8, 1)

    def test_record_shape(self, sample7):
        for k in range(1, 5):
            for i in range(1, 8):
                for j in range(1, 8):
                    if i == j:
                        continue
                    for rec in k_paths(sample7, i, j, k):
                        assert len(rec.vertex_set) == k + 1
                        assert {i, j} <= set(rec.vertex_set)
                        assert rec.count >= 1

    def test_paths_vanish_beyond_vertex_budget(self, sample7):
        # a path on k+1 distinct vertices cannot exceed n-1 steps
        for i, j in [(1, 2), (3, 4), (2, 6)]:
            assert k_paths(sample7, i, j, 7) == []
            assert k_paths(sample7, i, j, 9) == []

    def test_contraction_matches_full_power(self, sample7):
        # each walk kind, read from its single entry, rebuilds that entry of
        # the full matrix power, for odd and even k up to n + 2; on the path
        # 1-2-3 no path or trail takes a third step, so from k = 4 on their
        # rows vanish before the column step; in EDGE_CASES the isolated
        # vertex 1 has an empty row
        path3 = Hypergraph(3, [[1, 2], [2, 3]])
        for h, pairs in (
            (sample7, [(3, 4), (1, 6), (2, 5)]),
            (path3, [(1, 3), (2, 1)]),
            (EDGE_CASES, [(1, 2), (2, 3), (3, 6), (5, 4)]),
        ):
            sig, tsig = walk_signature(h), trail_signature(h)
            omega, trail = build_omega(h), build_trail_matrix(h)
            for k in range(1, h.n + 3):
                omega_k, trail_k = omega.power(k), trail.power(k)
                for i, j in pairs:
                    paths = rebuild(sig, h, k_paths(h, i, j, k))
                    assert paths == sig.gen(i - 1) * omega_k[i - 1][j - 1]
                    trails = rebuild(tsig, h, k_trails(h, i, j, k))
                    assert trails == tsig.gen(i - 1) * trail_k[i - 1][j - 1]
                    if k >= 2:
                        assert rebuild(sig, h, k_cycles(h, i, k)) == omega_k[i - 1][i - 1]
        # the early stop is reached: from vertex 1 of path3 the row of
        # Omega^3 is already zero, so k = 5 skips its last full step
        start = walk_signature(path3).gen(0)
        assert not any(start * x for x in build_omega(path3).power(3)[0])

    def test_oracle_equivalence_random(self):
        rng = random.Random(11)
        for _ in range(25):
            h = random_hypergraph(rng, max_n=6, max_m=5)
            i = rng.randint(1, h.n)
            j = rng.randint(1, h.n)
            k = rng.randint(1, 4)
            if i == j:
                continue
            assert k_paths(h, i, j, k) == brute_paths(h, i, j, k)


class TestCycles:
    def test_two_cycles_at_v1(self, sample7):
        got = records_to_dict(k_cycles(sample7, 1, 2))
        want = {
            (frozenset({1, 2}), frozenset({1})): 1,
            (frozenset({1, 3}), frozenset({1})): 1,
            (frozenset({1, 4}), frozenset({2})): 1,
            (frozenset({1, 4}), frozenset({2, 3})): 2,
            (frozenset({1, 4}), frozenset({3})): 1,
            (frozenset({1, 5}), frozenset({3})): 1,
            (frozenset({1, 7}), frozenset({2})): 1,
        }
        assert got == want

    def test_same_edge_return_counts(self):
        # out-and-back over one edge: the idempotent label does not cancel
        h = Hypergraph(2, [{1, 2}])
        assert records_to_dict(k_cycles(h, 1, 2)) == {
            (frozenset({1, 2}), frozenset({1})): 1
        }

    def test_relabeling_invariance(self, sample7):
        rng = random.Random(3)
        perm = list(range(1, 8))
        rng.shuffle(perm)
        relabeled = Hypergraph(7, [{perm[v - 1] for v in e} for e in sample7.edges])
        for i in range(1, 8):
            for k in (2, 3):
                original = sorted(r.count for r in k_cycles(sample7, i, k))
                mapped = sorted(r.count for r in k_cycles(relabeled, perm[i - 1], k))
                assert original == mapped

    def test_contract_violation(self, sample7):
        with pytest.raises(ValueError):
            k_cycles(sample7, 1, 1)

    def test_record_shape(self, sample7):
        for k in (2, 3, 4):
            for i in range(1, 8):
                for rec in k_cycles(sample7, i, k):
                    assert len(rec.vertex_set) == k
                    assert i in rec.vertex_set

    def test_oracle_equivalence_random(self):
        rng = random.Random(12)
        for _ in range(25):
            h = random_hypergraph(rng, max_n=6, max_m=5)
            i = rng.randint(1, h.n)
            k = rng.randint(2, 4)
            assert k_cycles(h, i, k) == brute_cycles(h, i, k)


class TestTrails:
    def test_golden_trail(self, sample7):
        got = k_trails(sample7, 3, 4, 3)
        assert ((3, 4, 5, 6), (3, 4, 6), 1) in got
        assert got == brute_trails(sample7, 3, 4, 3)

    def test_more_edges_than_exist(self):
        h = Hypergraph(3, [{1, 2}, {2, 3}])
        assert k_trails(h, 1, 3, 3) == []
        assert k_trails(h, 1, 3, 5) == []

    def test_single_step_matches_paths(self, sample7):
        for i in range(1, 8):
            for j in range(1, 8):
                if i == j:
                    continue
                trail_edges = {frozenset(r.edge_set) for r in k_trails(sample7, i, j, 1)}
                path_edges = set()
                for r in k_paths(sample7, i, j, 1):
                    path_edges |= {frozenset({e}) for e in r.edge_set}
                assert trail_edges == path_edges

    def test_stationary_step(self):
        # v adjacent to itself within an edge, so a trail may stand still
        h = Hypergraph(2, [{1, 2}])
        assert records_to_dict(k_trails(h, 1, 1, 1)) == {
            (frozenset({1}), frozenset({1})): 1
        }

    def test_record_shape(self, sample7):
        for k in (1, 2, 3):
            for i in range(1, 8):
                for j in range(1, 8):
                    for rec in k_trails(sample7, i, j, k):
                        assert len(rec.edge_set) == k
                        assert i in rec.vertex_set

    def test_contract_violation(self, sample7):
        with pytest.raises(ValueError):
            k_trails(sample7, 1, 2, 0)

    def test_oracle_equivalence_random(self):
        rng = random.Random(13)
        for _ in range(25):
            h = random_hypergraph(rng, max_n=6, max_m=5)
            i = rng.randint(1, h.n)
            j = rng.randint(1, h.n)
            k = rng.randint(1, 4)
            assert k_trails(h, i, j, k) == brute_trails(h, i, j, k)


class TestWalkLengthLimits:
    # a path of k steps visits k + 1 distinct vertices, a cycle's vertex set
    # has k vertices and a trail uses k distinct edges; past these limits
    # each kind is empty without running the row loop

    def test_kernel_matches_oracle_at_and_past_each_limit(self):
        rng = random.Random(14)
        for _ in range(40):
            h = random_hypergraph(rng, max_n=6, max_m=6, min_n=2)
            i, j = rng.sample(range(1, h.n + 1), 2)
            for k in (h.n - 1, h.n):
                assert k_paths(h, i, j, k) == brute_paths(h, i, j, k)
            for k in (max(2, h.n), h.n + 1):
                assert k_cycles(h, i, k) == brute_cycles(h, i, k)
            for k in (max(1, h.m), h.m + 1):
                assert k_trails(h, i, j, k) == brute_trails(h, i, j, k)
                assert k_trails(h, i, i, k) == brute_trails(h, i, i, k)
            assert k_paths(h, i, j, h.n) == k_cycles(h, i, h.n + 1) == []
            assert k_trails(h, i, j, h.m + 1) == []

    def test_limits_are_tight(self):
        c4 = Hypergraph(4, [[1, 2], [2, 3], [3, 4], [4, 1]])
        assert k_paths(c4, 1, 4, 3) == [WalkRecord((1, 2, 3, 4), (1, 2, 3), 1)]
        assert k_cycles(c4, 1, 4) == [WalkRecord((1, 2, 3, 4), (1, 2, 3, 4), 2)]
        assert k_trails(c4, 1, 4, 4) == [WalkRecord((1, 2, 3, 4), (1, 2, 3, 4), 2)]
        assert k_paths(c4, 1, 4, 4) == k_cycles(c4, 1, 5) == k_trails(c4, 1, 4, 5) == []

    def test_huge_k_returns_at_once(self, monkeypatch):
        rng = random.Random(0)
        h = Hypergraph(20, [rng.sample(range(1, 21), rng.randint(2, 4)) for _ in range(30)])
        huge = 10**18

        def no_row_loop(*args):
            raise AssertionError("the row loop ran")

        monkeypatch.setattr(walks, "_row_power", no_row_loop)
        start = time.perf_counter()
        assert k_paths(h, 1, 14, huge) == k_cycles(h, 1, huge) == k_trails(h, 1, 14, huge) == []
        assert time.perf_counter() - start < 1.0
        # invalid arguments still raise first
        with pytest.raises(ValueError, match="closed walks"):
            k_paths(h, 1, 1, huge)
        with pytest.raises(ValueError):
            k_cycles(h, 21, huge)
        with pytest.raises(ValueError):
            k_trails(h, 0, 14, huge)


class TestSparseRows:
    def test_max_size_path_graph_stays_small(self):
        # a dense n x n walk matrix at n = MAX_SIZE would hold 10^6 entries
        h = Hypergraph(MAX_SIZE, [[v, v + 1] for v in range(1, MAX_SIZE)])
        path = [WalkRecord((1, 2, 3, 4), (1, 2, 3), 1)]
        for build, args, want in (
            (k_paths, (1, 4, 3), path),
            (k_trails, (1, 4, 3), path),
            (k_cycles, (2, 2), [WalkRecord((1, 2), (1,), 1), WalkRecord((2, 3), (2,), 1)]),
            (build_omega, (), None),
            (build_trail_matrix, (), None),
            (build_blocks, (), None),
            (build_bipartite, (), None),
        ):
            tracemalloc.start()
            try:
                got = build(h, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if want is not None:
                assert got == want
            assert peak < 8 * 2**20, build.__name__
        # entry (1, 4) of Omega^3 is the one path 1-2-3-4, without its start label
        sig = walk_signature(h)
        assert build_omega(h).power(3)[0][3] == blade_for(sig, h, [2, 3, 4], [1, 2, 3])

    def test_row_power_is_one_column_of_the_full_last_step(self, sample7):
        # the last step over column col alone gives that column of the full
        # k-th row, term for term and in the same order; EDGE_CASES and some
        # random inputs have isolated vertices, and k runs from 1 to n + 2,
        # past the early stop of the walk rows
        rng = random.Random(21)
        cases = [(sample7, walk_signature), (EDGE_CASES, trail_signature)]
        for signature in (walk_signature, trail_signature) * 10:
            cases.append((random_hypergraph(rng, max_n=6, max_m=5), signature))
        for h, signature in cases:
            sig = signature(h)
            rows = walks._adjacency(h, sig)
            for i in range(h.n):
                for k in range(1, h.n + 3):
                    start = sig.mask((i + 1,), 0)
                    full = walks._row_steps(sig, {i: {start: 1}}, rows, k)
                    for col in range(h.n):
                        got = walks._row_power(sig, rows, i, k, start, col)
                        assert list(got.items()) == list(full.get(col, {}).items())

    def test_extraction_reads_each_part_once(self):
        # four vertices joined pairwise by three parallel edges: the k = 3
        # paths from 1 to 4 are 27 terms over one vertex set, and the trails
        # from 1 to 1 repeat edge sets under several vertex sets
        h = Hypergraph(4, [list(p) for p in [(1, 2), (2, 3), (3, 4), (1, 4)] for _ in range(3)])
        for signature, i, j, k in ((walk_signature, 1, 4, 3), (trail_signature, 1, 1, 3)):
            sig = signature(h)
            rows = walks._adjacency(h, sig)
            entry = walks._row_power(sig, rows, i - 1, k, sig.mask((i,), 0), j - 1)
            support = sig.support
            want = sorted(WalkRecord(support(key, 0), support(key, 1), c) for key, c in entry.items())
            got = walks._extract_records(sig, entry)
            assert got == want
            vertex_sets, edge_sets = {}, {}
            for r in got:
                assert vertex_sets.setdefault(r.vertex_set, r.vertex_set) is r.vertex_set
                assert edge_sets.setdefault(r.edge_set, r.edge_set) is r.edge_set
            assert len(got) > len(vertex_sets)

    def test_part_masks_cover_whole_fields(self, sample7):
        # _extract_records takes a key's part as key & mask(ids, block), which
        # sets one bit per field: that is the whole part only while every walk
        # and trail generator is an index-2 nilpotent or an idempotent
        for signature in (walk_signature, trail_signature):
            assert set(signature(sample7).caps) <= {2, None}


class TestRecordType:
    def test_frozen(self):
        rec = WalkRecord(frozenset({1, 2}), frozenset({1}), 1)
        with pytest.raises(AttributeError):
            rec.count = 2

    def test_sets_are_ascending_int_tuples(self, sample7):
        records = []
        for k in (1, 2, 3, 4):
            for i in range(1, 8):
                if k >= 2:
                    records += k_cycles(sample7, i, k)
                for j in range(1, 8):
                    records += k_trails(sample7, i, j, k)
                    if i != j:
                        records += k_paths(sample7, i, j, k)
        assert records
        for rec in records:
            for ids in (rec.vertex_set, rec.edge_set):
                assert type(ids) is tuple
                assert all(type(x) is int for x in ids)
                assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_matrix_power_stops_at_zero(self, sample7, monkeypatch):
        omega = build_omega(sample7)
        eighth = omega.power(8)
        assert not any(any(row) for row in (eighth[r] for r in range(7)))
        steps = 0
        row_times_matrix = walks._row_times_matrix

        def counting_step(*args):
            nonlocal steps
            steps += 1
            return row_times_matrix(*args)

        monkeypatch.setattr(walks, "_row_times_matrix", counting_step)
        assert omega.power(10**9) == eighth
        assert steps <= omega.rows * (sample7.n + 1)
        with pytest.raises(ValueError):
            omega.power(2.5)

    def test_matrix_power_zero_is_identity(self, sample7):
        ident = build_omega(sample7).power(0)
        one = walk_signature(sample7).one()
        for a in range(7):
            for b in range(7):
                assert ident[a][b] == (one if a == b else 0)
