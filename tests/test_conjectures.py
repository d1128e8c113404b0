"""Conjecture checkers, annihilator sums, and instance generators."""

import json
import random
import tracemalloc
from itertools import combinations, product

import pytest

from conftest import random_hypergraph
from hyperzeon import conjectures
from hyperzeon.algebra import Element
from hyperzeon.conjectures import (
    append_violation,
    check_frankl,
    check_ryser,
    gamma_element,
    generate_ryser_instance,
    generate_union_closed,
    run_frankl_trials,
    run_ryser_trials,
    ryser_partition,
)
from hyperzeon.errors import BudgetError
from hyperzeon.hypergraph import MAX_SIZE, Hypergraph
from hyperzeon.matchings import incidence_signature
from hyperzeon.oracle import brute_transversals
from hyperzeon.transversals import transversal_number


class TestGammaElement:
    def test_sample7(self, sample7):
        gamma = gamma_element(sample7)
        sig = incidence_signature(sample7)
        assert gamma.min_grade() == 2
        assert gamma.terms.get(((0, 1), (5, 1))) == 1  # the {1,6} transversal
        # {1,6} is the unique minimum, so no other grade-2 blade appears
        grade2 = [m for m in gamma.terms if len(m) == 2]
        assert grade2 == [((0, 1), (5, 1))]

    def test_min_grade_is_transversal_number(self):
        rng = random.Random(51)
        for _ in range(25):
            h = random_hypergraph(rng, max_n=6, max_m=5)
            if h.m == 0:
                continue
            assert gamma_element(h).min_grade() == transversal_number(h)

    def test_single_vertex_edge(self):
        h = Hypergraph(1, [{1}])
        sig = incidence_signature(h)
        assert gamma_element(h) == Element.blade(sig, [0])

    def test_supersets_present(self):
        h = Hypergraph(2, [{1}])
        gamma = gamma_element(h)
        # zeta_1 and zeta_{1,2} both annihilate
        assert set(gamma.terms) == {((0, 1),), ((0, 1), (1, 1))}

    def test_edgeless_includes_empty_blade(self):
        h = Hypergraph(2, [])
        gamma = gamma_element(h)
        assert gamma.min_grade() == 0
        assert len(gamma.terms) == 4

    def test_budget(self):
        with pytest.raises(BudgetError):
            gamma_element(Hypergraph(21, [{1, 2}]))


class TestCheckRyser:
    def test_validation(self, sample7):
        with pytest.raises(ValueError):
            check_ryser(sample7, 2, [[1, 2, 3], [4, 5, 6, 7]])
        h = Hypergraph(4, [{1, 3}, {2, 4}])
        with pytest.raises(ValueError):
            check_ryser(h, 2, [[1, 2, 3], [4]])

    def test_single_edge_instance(self):
        h = Hypergraph(6, [{1, 3, 5}])
        report = check_ryser(h, 3, [[1, 2], [3, 4], [5, 6]])
        assert report.matching_number == 1
        assert report.transversal_number == 1
        assert report.bound_ok
        assert gamma_element(h).min_grade() == report.transversal_number

    def test_koenig_equality(self):
        # 2-uniform bipartite: tau equals the matching number exactly
        rng = random.Random(52)
        for _ in range(20):
            part_size = rng.randint(1, 4)
            edge_count = rng.randint(1, min(part_size**2, 6))
            h = generate_ryser_instance(2, part_size, edge_count, rng.randrange(2**32))
            report = check_ryser(h, 2, ryser_partition(2, part_size))
            assert report.bound_ok
            assert report.transversal_number == report.matching_number
            assert gamma_element(h).min_grade() == report.transversal_number

    def test_transversal_number_matches_oracle(self):
        rng = random.Random(53)
        for _ in range(10):
            h = generate_ryser_instance(3, 2, 4, rng.randrange(2**32))
            report = check_ryser(h, 3, ryser_partition(3, 2))
            assert report.transversal_number == brute_transversals(h)[0]


class TestCheckFrankl:
    def test_two_edge_family(self):
        h = Hypergraph(2, [{1}, {1, 2}])
        report = check_frankl(h)
        assert report.m == 2
        assert report.best_vertex == 1
        assert report.best_count == 2
        assert report.holds

    def test_power_set_family(self):
        edges = [
            set(c)
            for size in (1, 2, 3)
            for c in combinations(range(1, 4), size)
        ]
        report = check_frankl(Hypergraph(3, edges))
        assert report.m == 7
        assert report.best_count == 4
        assert report.holds

    def test_validation(self):
        with pytest.raises(ValueError):
            check_frankl(Hypergraph(2, [{1}, {2}]))
        with pytest.raises(ValueError):
            check_frankl(Hypergraph(2, []))

    def test_random_closures_hold(self):
        rng = random.Random(54)
        for _ in range(25):
            h = generate_union_closed(rng.randint(1, 7), rng.randint(1, 4), rng.randrange(2**32))
            assert check_frankl(h).holds


class TestGenerators:
    def test_ryser_instance_shape(self):
        for seed in range(10):
            h = generate_ryser_instance(3, 3, 5, seed)
            assert h.n == 9
            assert h.is_r_uniform(3)
            assert h.is_r_partite(3, ryser_partition(3, 3))
            assert len(set(h.edges)) == h.m == 5

    def test_determinism(self):
        assert generate_ryser_instance(2, 3, 4, 99) == generate_ryser_instance(2, 3, 4, 99)
        assert generate_union_closed(5, 3, 7) == generate_union_closed(5, 3, 7)

    def test_ryser_draws_match_the_materialised_edge_space(self):
        # the generator samples indices of the sorted edge space and decodes
        # them; sampling the materialised space itself must draw the same edges
        for r in range(1, 5):
            for part_size in (1, 2, 3, 5, 7):
                space = sorted(product(range(part_size), repeat=r))
                for edge_count in sorted({1, len(space) // 2 or 1, len(space)}):
                    for seed in range(5):
                        choices = random.Random(seed).sample(space, edge_count)
                        edges = [
                            [p * part_size + c + 1 for p, c in enumerate(choice)]
                            for choice in choices
                        ]
                        expected = Hypergraph(r * part_size, edges)
                        assert generate_ryser_instance(r, part_size, edge_count, seed) == expected

    def test_ryser_draw_memory_tracks_the_edges_drawn(self):
        # 1500 edges out of 250,000 candidates: materialising the candidates
        # took a 15 MiB peak, the drawn hypergraph itself needs well under 1 MiB
        tracemalloc.start()
        try:
            h = generate_ryser_instance(2, 500, 1500, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.m == 1500
        assert peak < 2 * 2**20

    def test_ryser_budgets(self):
        with pytest.raises(ValueError):
            generate_ryser_instance(2, 2, 5, 0)  # only 4 distinct edges exist
        with pytest.raises(BudgetError):
            generate_ryser_instance(3, 101, 1, 0)
        with pytest.raises(ValueError):
            generate_ryser_instance(0, 3, 1, 0)

    def test_union_closed_properties(self):
        for seed in range(10):
            h = generate_union_closed(6, 3, seed)
            assert h.is_union_closed()
            assert 1 <= h.m <= 7  # at most 2^3 - 1 members from 3 seeds

    @pytest.mark.parametrize("max_size", [None, 6])
    def test_union_closed_matches_a_naive_closure(self, monkeypatch, max_size):
        # every round unions all pairs of the family; with a lowered MAX_SIZE
        # both stop in the same round
        if max_size is not None:
            monkeypatch.setattr(conjectures, "MAX_SIZE", max_size)
        limit = conjectures.MAX_SIZE

        def naive(ground_size, seed_count, seed):
            rng = random.Random(seed)
            family = set()
            for _ in range(seed_count):
                mask = rng.randrange(1, 2**ground_size)
                family.add(frozenset(v + 1 for v in range(ground_size) if mask >> v & 1))
            while True:
                grown = family | {a | b for a in family for b in family}
                if grown == family:
                    edges = sorted(family, key=lambda e: (len(e), sorted(e)))
                    return Hypergraph(ground_size, edges)
                family = grown
                if len(family) > limit:
                    return None

        for seed in range(40):
            ground_size, seed_count = 1 + seed % 6, 1 + seed % 5
            want = naive(ground_size, seed_count, seed)
            if want is None:
                with pytest.raises(BudgetError, match=f"union closure exceeded {limit} edges"):
                    generate_union_closed(ground_size, seed_count, seed)
            else:
                assert generate_union_closed(ground_size, seed_count, seed) == want

    def test_union_closed_budget(self, monkeypatch):
        # the closure stops at MAX_SIZE members; lowered here so that a small
        # input reaches it (4 seeds close to at most 15 members)
        monkeypatch.setattr(conjectures, "MAX_SIZE", 4)
        raised = False
        for seed in range(60):
            try:
                generate_union_closed(4, 4, seed)
            except BudgetError as exc:
                assert "union closure exceeded 4 edges" in str(exc)
                raised = True
                break
        assert raised

    def test_union_closed_validation(self):
        with pytest.raises(ValueError):
            generate_union_closed(0, 1, 0)
        with pytest.raises(ValueError):
            generate_union_closed(3, 0, 0)
        with pytest.raises(BudgetError):
            generate_union_closed(10**18, 1, 0)


class TestHarness:
    def test_append_violation(self, tmp_path):
        log = tmp_path / "v.ndjson"
        append_violation(str(log), {"kind": "test", "trial": 0})
        append_violation(str(log), {"kind": "test", "trial": 1})
        lines = log.read_text().splitlines()
        assert [json.loads(ln)["trial"] for ln in lines] == [0, 1]

    def test_ryser_trials_clean(self, tmp_path):
        log = tmp_path / "ryser.ndjson"
        summary = run_ryser_trials(25, seed=7, max_n=9, log_path=str(log))
        assert summary == {"kind": "ryser", "trials": 25, "violations": 0}
        assert not log.exists()

    def test_ryser_trials_bound_max_n(self, tmp_path):
        # checked before the first trial, so even zero trials are refused
        log, bound = tmp_path / "ryser.ndjson", conjectures.RYSER_MAX_N
        for trials in (0, 1):
            with pytest.raises(BudgetError, match=f"max_n <= {bound}"):
                run_ryser_trials(trials, seed=0, max_n=bound + 1, log_path=str(log))
        assert not log.exists()
        summary = run_ryser_trials(3, seed=0, max_n=bound)
        assert summary == {"kind": "ryser", "trials": 3, "violations": 0}

    def test_frankl_trials_bound_max_ground(self, tmp_path):
        # checked before the first trial, as for ryser
        log = tmp_path / "frankl.ndjson"
        for trials in (0, 1):
            with pytest.raises(BudgetError, match=f"max_ground <= {MAX_SIZE}, got {MAX_SIZE + 1}"):
                run_frankl_trials(trials, seed=0, max_ground=MAX_SIZE + 1, log_path=str(log))
        assert not log.exists()

    def test_frankl_trials_clean(self, tmp_path):
        log = tmp_path / "frankl.ndjson"
        summary = run_frankl_trials(25, seed=7, log_path=str(log))
        assert summary == {"kind": "frankl", "trials": 25, "violations": 0}
        assert not log.exists()

    def test_ryser_violations_are_logged(self, tmp_path, monkeypatch):
        check = conjectures.check_ryser
        monkeypatch.setattr(conjectures, "check_ryser",
                            lambda *a: check(*a)._replace(bound_ok=False))
        log = tmp_path / "ryser.ndjson"
        summary = run_ryser_trials(3, seed=1, max_n=6, log_path=str(log))
        assert summary == {"kind": "ryser", "trials": 3, "violations": 3}
        assert log.read_text().splitlines() == [
            '{"hypergraph": {"edges": [[2, 5], [1, 4]], "n": 6}, "kind": "ryser", '
            '"part_size": 3, "r": 2, "report": {"bound_ok": false, "matching_number": 2, '
            '"r": 2, "transversal_number": 2}, "seed": 1095513148, "trial": 0}',
            '{"hypergraph": {"edges": [[2, 3, 5], [1, 4, 6], [1, 3, 5], [2, 4, 5]], "n": 6}, '
            '"kind": "ryser", "part_size": 2, "r": 3, "report": {"bound_ok": false, '
            '"matching_number": 2, "r": 3, "transversal_number": 2}, "seed": 2798570523, '
            '"trial": 1}',
            '{"hypergraph": {"edges": [[1, 2]], "n": 2}, "kind": "ryser", "part_size": 1, '
            '"r": 2, "report": {"bound_ok": false, "matching_number": 1, "r": 2, '
            '"transversal_number": 1}, "seed": 3589583794, "trial": 2}',
        ]

    def test_frankl_violations_are_logged(self, tmp_path, monkeypatch):
        check = conjectures.check_frankl
        monkeypatch.setattr(conjectures, "check_frankl",
                            lambda h: check(h)._replace(holds=False))
        log = tmp_path / "frankl.ndjson"
        summary = run_frankl_trials(3, seed=1, max_ground=4, log_path=str(log))
        assert summary == {"kind": "frankl", "trials": 3, "violations": 3}
        assert log.read_text().splitlines() == [
            '{"ground": 2, "hypergraph": {"edges": [[2]], "n": 2}, "kind": "frankl", '
            '"report": {"best_count": 1, "best_vertex": 2, "holds": false, "m": 1}, '
            '"seed": 1095513148, "seed_count": 1, "trial": 0}',
            '{"ground": 4, "hypergraph": {"edges": [[1, 3], [1, 4], [1, 2, 4], [1, 3, 4], '
            '[1, 2, 3, 4]], "n": 4}, "kind": "frankl", "report": {"best_count": 5, '
            '"best_vertex": 1, "holds": false, "m": 5}, "seed": 901749037, "seed_count": 4, '
            '"trial": 1}',
            '{"ground": 4, "hypergraph": {"edges": [[1, 4]], "n": 4}, "kind": "frankl", '
            '"report": {"best_count": 1, "best_vertex": 1, "holds": false, "m": 1}, '
            '"seed": 1674216077, "seed_count": 1, "trial": 2}',
        ]
